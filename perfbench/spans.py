"""In-memory span tracer for the traced benchmark run.

The traced run wraps public callables of the program's modules with
:class:`Instrumentation`; nothing inside ``src/`` records spans.  Every
span keeps a name, a start, an end, its parent (the enclosing span on the
same thread) and a small ``meta`` dict (operand widths, dtypes) from which
the computed-bytes model works.  Spans stay in a list until the run ends.

Self time is a span's duration minus the time its direct children cover;
children on one thread are nested and never overlap, so that is the sum of
their durations.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    meta: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, meta: dict | None = None) -> int:
        stack = self._stack()
        span = Span(name, 0.0, stack[-1] if stack else None, meta=meta or {})
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        span.start = time.perf_counter()
        return index

    def close(self, index: int) -> None:
        end = time.perf_counter()
        self.spans[index].end = end
        self._stack().pop()

    def span(self, name: str, meta: dict | None = None):
        return _SpanContext(self, name, meta)

    # ------------------------------------------------------------------
    def closed(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name and s.end]

    def child_time(self) -> dict[int, float]:
        """Per span index, the total duration of its direct children."""
        covered: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None and s.end:
                covered[s.parent] += s.duration
        return covered

    def self_times(self, name: str) -> list[float]:
        covered = self.child_time()
        return [s.duration - covered.get(i, 0.0)
                for i, s in enumerate(self.spans) if s.name == name and s.end]


class _SpanContext:
    __slots__ = ("tracer", "name", "meta", "index")

    def __init__(self, tracer: Tracer, name: str, meta: dict | None):
        self.tracer, self.name, self.meta = tracer, name, meta

    def __enter__(self):
        self.index = self.tracer.open(self.name, self.meta)
        return self.tracer.spans[self.index]

    def __exit__(self, *exc) -> None:
        self.tracer.close(self.index)


class Instrumentation:
    """Wraps attributes of program objects in spans; reversible.

    ``add(owner, attr, name, meta_fn, after)`` registers a wrapper;
    ``install()`` swaps every wrapper in and ``uninstall()`` restores the
    originals, so a run can alternate traced and untraced operations.
    ``meta_fn`` receives the call's arguments and returns the span's
    ``meta``; ``after(result, span)`` runs once the span is closed.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._patches: list[tuple[object, str, object, object]] = []

    def add(self, owner, attr: str, name: str, meta_fn=None, after=None) -> None:
        original = getattr(owner, attr)
        tracer = self.tracer

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            meta = meta_fn(*args, **kwargs) if meta_fn is not None else None
            index = tracer.open(name, meta)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(result, tracer.spans[index])
            return result

        self._patches.append((owner, attr, original, wrapper))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
