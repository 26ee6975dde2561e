"""Traced-run instrumentation of the program's layers and the per-layer metrics.

:func:`instrument` wraps the public callables that sit on the measured
paths; :func:`layer_metrics` turns the recorded spans, plus counters the
workload read from the program, into the ``PER_LAYER`` table.

Bytes moved are *computed* from array sizes, not measured: the cost
model counts each array a stage must read or write once, which is what a
fused or compressed kernel reduces (see README.md, "Computed bytes").
"""

from __future__ import annotations

import bisect
import weakref

from common import MB, PER_LAYER, mean, median
from spans import Instrumentation, Tracer

_PLAN_INFO: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def plan_info(plan) -> dict:
    """Static sizes of one ``KernelPlan`` for the bytes and ops model."""
    info = _PLAN_INFO.get(plan)
    if info is None:
        op = plan.operand
        info = {
            "rows": int(plan.shape[0]),
            "nnz": int(op.nnz),
            "entry_bytes": int(op.data.dtype.itemsize + op.indices.dtype.itemsize),
            "ptr_bytes": int(op.indptr.dtype.itemsize),
            "edges": int(sum(len(lv) for lv, _ in plan.level_pairs)),
            "row_scaled": bool(plan.row_scaled),
            "ops_per_column": int(plan.scalar_ops(1).total),
        }
        _PLAN_INFO[plan] = info
    return info


def multiply_bytes(info: dict, width: int, itemsize: int) -> int:
    """CSR SpMM: the delta structure, one operand row per stored entry, the output."""
    return (info["nnz"] * info["entry_bytes"] + (info["rows"] + 1) * info["ptr_bytes"]
            + info["nnz"] * width * itemsize + info["rows"] * width * itemsize)


def update_bytes(info: dict, width: int, itemsize: int) -> int:
    """Level walk: per tree edge read child and parent rows, write the child,
    plus the two index arrays; DAD adds one read-write row-scale pass."""
    edges = info["edges"]
    total = 3 * edges * width * itemsize + 2 * edges * 8
    if info["row_scaled"]:
        total += 2 * info["rows"] * width * itemsize + info["rows"] * itemsize
    return total


def gcn_dense_bytes(n: int, p: int, hidden: int, out: int, itemsize: int = 4) -> int:
    """GEMM, ReLU and GEMM of one two-layer forward outside the Â products."""
    gemm0 = n * p + p * hidden + n * hidden
    relu = 2 * n * hidden
    gemm1 = n * hidden + hidden * out + n * out
    return (gemm0 + relu + gemm1) * itemsize


def _width(arr) -> int:
    return int(arr.shape[1]) if arr.ndim == 2 else 1


def _operand_meta(plan, arr, *_, **__) -> dict:
    info = plan_info(plan)
    return {"width": _width(arr), "itemsize": int(arr.dtype.itemsize), "info": info}


def instrument(tracer: Tracer) -> Instrumentation:
    """Span wrappers around the program's public callables (not installed)."""
    import repro.core.builder as builder
    import repro.streaming.mutable as mutable
    from repro.reliability.guard import GuardedKernel
    from repro.runtime.plan import KernelPlan
    from repro.serving.service import InferenceService

    inst = Instrumentation(tracer)
    inst.add(KernelPlan, "__init__", "runtime.plan_build")
    inst.add(KernelPlan, "execute", "runtime.execute", _operand_meta)
    inst.add(KernelPlan, "multiply", "runtime.multiply", _operand_meta)
    inst.add(KernelPlan, "apply_update", "runtime.update", _operand_meta)
    inst.add(GuardedKernel, "matmul", "reliability.guard")
    inst.add(InferenceService, "submit", "serving.submit")
    inst.add(mutable.MutableAdjacency, "apply", "streaming.apply",
             after=lambda report, span: span.meta.update(rows_patched=report.rows_patched))
    inst.add(mutable.MutableAdjacency, "rebase", "streaming.rebase")
    stages = lambda result, span: span.meta.update(stages=result[1].stage_seconds)  # noqa: E731
    inst.add(builder, "build_cbm", "core.build", after=stages)
    inst.add(mutable, "build_cbm", "core.build", after=stages)
    return inst


def _per_root(tracer: Tracer, root: str) -> float:
    """Median root duration minus the layers' median self times, each
    weighted by its calls per root: what the per-layer table leaves out."""
    spans = tracer.spans
    roots = [i for i, s in enumerate(spans) if s.name == root and s.end]
    if not roots:
        return 0.0
    root_set = set(roots)
    covered = tracer.child_time()
    selves: dict[str, list[float]] = {}
    for i, s in enumerate(spans):
        if not s.end:
            continue
        top = i
        while spans[top].parent is not None:
            top = spans[top].parent
        if top in root_set:
            selves.setdefault(s.name, []).append(s.duration - covered.get(i, 0.0))
    attributed = sum(median(v) * len(v) / len(roots) for v in selves.values())
    return median([spans[i].duration for i in roots]) - attributed


def _nonkernel(tracer: Tracer, requests: list[tuple[float, float]]) -> list[float]:
    """Per request, its latency minus the guard and plan-build time spent
    while it was in flight.  The serving loop keeps exactly one batch in
    flight, so that time is its own batch's."""
    kernel = sorted((s.start, s.end) for s in tracer.spans
                    if s.parent is None and s.end
                    and s.name in ("reliability.guard", "runtime.plan_build"))
    starts = [start for start, _ in kernel]
    out = []
    for t0, t1 in requests:
        i = bisect.bisect_left(starts, t0)
        spent = 0.0
        while i < len(kernel) and kernel[i][1] <= t1:
            spent += kernel[i][1] - kernel[i][0]
            i += 1
        out.append((t1 - t0) - spent)
    return out


def layer_metrics(tracer: Tracer, counters: dict, *, root: str | None = None,
                  requests: list[tuple[float, float]] | None = None) -> dict:
    """The ``PER_LAYER`` table from spans plus the workload's counters.

    ``counters`` supplies what the program counts itself (pool, service,
    guard, build report, delta counts) and the traced/untraced operation
    times; ``requests`` the ``(submitted, received)`` times of traced
    serving requests; every name not given and not derivable reads 0.
    """
    values = dict.fromkeys(PER_LAYER, 0.0)

    def durations(name):
        return [s.duration for s in tracer.closed(name)]

    builds = tracer.closed("core.build")
    if builds:
        values["core.build_s"] = median([s.duration for s in builds])
        for stage in ("candidates", "spanning", "deltas"):
            values[f"core.{stage}_s"] = median(
                [s.meta["stages"][stage] for s in builds if s.meta.get("stages")])
    values["runtime.plan_build_ms"] = 1e3 * median(durations("runtime.plan_build"))
    values["runtime.execute_ms"] = 1e3 * median(durations("runtime.execute"))
    multiplies = tracer.closed("runtime.multiply")
    updates = tracer.closed("runtime.update")
    values["runtime.multiply_ms"] = 1e3 * median([s.duration for s in multiplies])
    values["runtime.update_ms"] = 1e3 * median([s.duration for s in updates])
    values["runtime.multiply_mb"] = mean([
        multiply_bytes(s.meta["info"], s.meta["width"], s.meta["itemsize"]) / MB
        for s in multiplies])
    values["runtime.update_mb"] = mean([
        update_bytes(s.meta["info"], s.meta["width"], s.meta["itemsize"]) / MB
        for s in updates])
    values["runtime.scalar_ops"] = mean([
        s.meta["info"]["ops_per_column"] * s.meta["width"]
        for s in tracer.closed("runtime.execute")])
    values["gnn.dense_ms"] = 1e3 * median(tracer.self_times("gnn.forward"))
    values["serving.submit_us"] = 1e6 * median(durations("serving.submit"))
    values["reliability.guard_ms"] = 1e3 * median(tracer.self_times("reliability.guard"))
    applies = tracer.closed("streaming.apply")
    values["streaming.patch_ms"] = 1e3 * median([s.duration for s in applies])
    values["streaming.rows_patched"] = mean([s.meta["rows_patched"] for s in applies])
    values["streaming.rebase_ms"] = 1e3 * median(durations("streaming.rebase"))
    if requests:
        values["serving.nonkernel_ms"] = 1e3 * median(_nonkernel(tracer, requests))
    if root is not None:
        values["trace.unattributed_ms"] = 1e3 * _per_root(tracer, root)
    values["trace.spans"] = len(tracer.spans)
    for name, value in counters.items():
        if name not in PER_LAYER:
            raise KeyError(f"unknown per-layer metric {name!r}")
        values[name] = value
    return values
