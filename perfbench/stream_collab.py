"""Workload ``stream-collab``: edge writes beside reads, with periodic rebuilds.

A variant-A ``MutableAdjacency`` on COLLAB absorbs seeded edge batches of
inserts and deletes.  Each write is followed by one product on the new
snapshot, which builds a fresh kernel plan.  A round is one synchronous
``build_cbm`` plus ``rebase`` followed by a fixed number of write-read
steps, so every run ends with the same number of patches since its last
rebuild and the compressed size shows that drift.

One operation is one step: ``MutableAdjacency.apply`` and the first
product on the new snapshot.  Edge batches come from the benchmark's own
seeded generator and are mirrored into its own edge set; the product of
the last step of every round, and of the final state, is checked bit for
bit against that edge set.
"""

from __future__ import annotations

import time

import numpy as np

import common
import oracle
from layers import instrument, layer_metrics
from spans import Tracer

GRAPH = "COLLAB"
WIDTH = 32
VALUE_RANGE = 4  # operand entries are integers in [-4, 4]
FRESH = 4  # new and deleted undirected edges per batch, each reverted
LIFETIME = 50  # batches later; a batch lists every edge in both directions
STEPS_PER_ROUND = 100
SETUPS = 3
WARMUP = LIFETIME  # until reverts begin and the graph is stationary
TAIL_CHUNK = 100  # steps per tail chunk: p90 with 10 beyond it
PROGRAM_THREADS = 0


def setup(a, nnz: int, problems: list[str]):
    """Compress the adjacency, wrap it for writes, build the read plan."""
    import repro.core.builder as builder
    from repro.streaming import MutableAdjacency

    t0 = time.perf_counter()
    cbm, report = builder.build_cbm(a)
    mutable = MutableAdjacency(cbm, a)
    _, snap, _ = mutable.snapshot()
    snap.plan()
    setup_s = time.perf_counter() - t0
    problems += check_fresh(snap, report, nnz)
    return mutable, setup_s


def check_fresh(cbm, report, nnz: int) -> list[str]:
    return (oracle.check_property1(report.total_deltas, nnz)
            + oracle.check_property2(cbm.plan().scalar_ops(WIDTH).total, nnz, WIDTH))


class Stream:
    """The write-read loop and its oracle; one instance per run."""

    def __init__(self, mutable, edges: oracle.EdgeSet, x, rng, problems, tracer, inst):
        self.mutable, self.edges, self.x = mutable, edges, x
        self.churn = oracle.Churn(rng, edges, FRESH, LIFETIME)
        self.problems, self.tracer, self.inst = problems, tracer, inst
        self.steps = self.rebuilds = 0
        self.step_times: list[float] = []
        self.traced_times: list[float] = []
        self.rebuild_times: list[float] = []
        self.last_report = None
        self.deltas_at_rebuild = 0

    def step(self, *, timed: bool = True) -> np.ndarray:
        from repro.streaming import EdgeBatch

        ins, dels = self.churn.next_batch()
        batch = EdgeBatch(ins, dels)
        traced = self.inst is not None and self.steps % 2 == 1
        if traced:
            self.inst.install()
            t0 = time.perf_counter()
            with self.tracer.span("stream.step"):
                y = self._write_read(batch)
            dt = time.perf_counter() - t0
            self.inst.uninstall()
        else:
            t0 = time.perf_counter()
            y = self._write_read(batch)
            dt = time.perf_counter() - t0
        self.edges.apply(ins, dels)
        if timed:
            (self.traced_times if traced else self.step_times).append(dt)
            self.steps += 1
        return y

    def _write_read(self, batch) -> np.ndarray:
        self.mutable.apply(batch)
        _, cbm, _ = self.mutable.snapshot()
        return cbm.matmul(self.x)

    def rebuild(self) -> None:
        import repro.core.builder as builder

        if self.inst is not None:
            self.inst.install()
        t0 = time.perf_counter()
        version, _, source = self.mutable.snapshot()
        fresh, report = builder.build_cbm(source)
        self.mutable.rebase(fresh, built_version=version, source=source)
        self.rebuild_times.append(time.perf_counter() - t0)
        if self.inst is not None:
            self.inst.uninstall()
        self.rebuilds += 1
        self.last_report = report
        self.deltas_at_rebuild = fresh.num_deltas
        self.problems += check_fresh(fresh, report, len(self.edges))

    def check(self, y, what: str) -> None:
        self.problems += [f"{what}: {p}" for p in
                          oracle.check_exact_product(y, self.edges.to_csr(), self.x)]

    def round(self) -> None:
        self.rebuild()
        for i in range(STEPS_PER_ROUND):
            y = self.step()
            if i == STEPS_PER_ROUND - 1:
                self.check(y, f"step {self.steps}")


def run(seed: int, seconds: float, trace: bool) -> dict:
    from repro.graphs.datasets import load_dataset

    a = load_dataset(GRAPH)
    n = a.shape[0]
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(a.indptr))
    edges = oracle.EdgeSet(n, rows, a.indices)
    rng = np.random.default_rng(seed)
    x = rng.integers(-VALUE_RANGE, VALUE_RANGE + 1, size=(n, WIDTH)).astype(np.float32)
    problems: list[str] = []
    tracer = Tracer()
    inst = instrument(tracer) if trace else None

    setups = []
    for _ in range(SETUPS):
        if inst:
            inst.install()
        mutable, setup_s = setup(a, len(edges), problems)
        if inst:
            inst.uninstall()
        setups.append(setup_s)

    stream = Stream(mutable, edges, x, rng, problems, tracer, inst)
    for _ in range(WARMUP):
        stream.step(timed=False)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        stream.round()
    _, final, _ = mutable.snapshot()
    stream.check(final.matmul(x), "final state")

    result = {
        "correct": not problems,
        "problems": problems,
        # Each step is a write and a read; each round adds one rebuild.
        "attempted": 2 * stream.steps + stream.rebuilds,
        "failed": 0,
        "program_threads": PROGRAM_THREADS,
        "notes": {"graph": GRAPH, "steps": stream.steps, "rounds": stream.rebuilds,
                  "deltas_final": final.num_deltas, "deltas_at_rebuild": stream.deltas_at_rebuild,
                  "edges": len(edges), "rebuild_s": common.median(stream.rebuild_times),
                  **common.percentiles(stream.step_times)},
    }
    if not trace:
        tail, q = common.chunked_tail(stream.step_times, TAIL_CHUNK)
        result["notes"]["tail"] = f"p{q:g} of {TAIL_CHUNK}-step chunks, median"
        # Throughput counts the rebuild pauses: work moved from the steps
        # into rebuilds still shows here.
        busy = sum(stream.step_times) + sum(stream.rebuild_times)
        result["values"] = {
            "setup_s": common.median(setups),
            "op_ms_p50": 1e3 * common.median(stream.step_times),
            "op_ms_tail": 1e3 * tail,
            "ops_per_s": stream.steps / busy,
            "cbm_mb": final.memory_bytes() / common.MB,
            "peak_rss_mb": common.peak_rss_mb(),
        }
    else:
        report = stream.last_report
        plan = final.plan()
        result["layers"] = layer_metrics(tracer, {
            "core.deltas": report.total_deltas,
            "core.tree_levels": plan.levels,
            "core.candidate_edges": report.candidate_edges,
            "runtime.pool_hit_rate": plan.pool.stats.hit_rate,
            "runtime.pool_acquires": plan.pool.stats.acquires,
            "streaming.delta_growth": final.num_deltas / stream.deltas_at_rebuild,
            "streaming.deltas_now": final.num_deltas,
            "streaming.deltas_at_rebuild": stream.deltas_at_rebuild,
            **common.trace_overhead(stream.step_times, stream.traced_times),
        }, root="stream.step")
    return result
