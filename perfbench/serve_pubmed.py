"""Workload ``serve-pubmed``: closed-loop GCN requests through the batched service.

Each request is a narrow per-entity feature block (8 columns) resolved by
``InferenceService`` to the two-layer forward ``Â σ(Â X W⁰) W¹`` on
PubMed, with micro-batching and output validation on.  PubMed compresses
about 1.0x into a 2-level tree, so per-request serving work (admission,
batching, stacking, guard scans) dominates and the update stage is nearly
idle.

The loop is closed.  One generator thread (the caller) keeps one full
batch outstanding: it submits ``OUTSTANDING`` requests, waits for all of
them, checks them and submits the next ones; the batched service runs its
single compute worker.  So the two threads never compete for the
interpreter lock, which on a 2-vCPU machine made a pipelined loop swing
by about a fifth from run to run, and they run on one CPU.

One operation is one request, timed from ``submit()`` until its result
reaches the generator.  Every result is checked against the float64
forward of its own input.
"""

from __future__ import annotations

import os
import time

import numpy as np

import common
import oracle
from layers import instrument, layer_metrics
from spans import Tracer

GRAPH = "PubMed"
WIDTH = 8
HIDDEN = 16
OUT = 8
BLOCKS = 32  # distinct request feature blocks
MAX_COLUMNS = 64
OUTSTANDING = MAX_COLUMNS // WIDTH  # one full batch
LATENCY_BUDGET_S = 0.002
QUANTUM = 8
SETUPS = 7
WARMUP_CYCLES = 8
WAIT_S = 30.0
TAIL_CHUNK = 200  # requests per tail chunk: p90 with 20 beyond it
PROGRAM_THREADS = 1  # the batched service's single compute worker


def make_inputs(n: int, seed: int):
    rng = np.random.default_rng(seed)
    blocks = rng.standard_normal((BLOCKS, n, WIDTH)).astype(np.float32)
    w0 = (rng.standard_normal((WIDTH, HIDDEN)) / np.sqrt(WIDTH)).astype(np.float32)
    w1 = (rng.standard_normal((HIDDEN, OUT)) / np.sqrt(HIDDEN)).astype(np.float32)
    picks = rng.integers(BLOCKS, size=1 << 16)
    return blocks, w0, w1, picks


def setup(a, a_hat_nnz: int, w0, w1, seed: int, problems: list[str]):
    """Compress Â, build the slot and its plan, start the service."""
    import repro.core.builder as builder
    from repro.core.cbm import Variant
    from repro.graphs.laplacian import gcn_normalization, normalized_adjacency
    from repro.serving import AdjacencySlot, BatchConfig, InferenceService

    t0 = time.perf_counter()
    binary, diag = gcn_normalization(a)
    cbm, report = builder.build_cbm(binary, variant=Variant.DAD, diag=diag)
    slot = AdjacencySlot(cbm, normalized_adjacency(a))
    slot.prepare(width=WIDTH)
    service = InferenceService(
        slot,
        workers=1,
        queue_capacity=2 * OUTSTANDING,
        weights=(w0, w1),
        batch=BatchConfig(max_columns=MAX_COLUMNS, latency_budget_s=LATENCY_BUDGET_S,
                          quantum=QUANTUM),
        validate=True,
        seed=seed,
    ).start()
    setup_s = time.perf_counter() - t0
    problems += oracle.check_property1(report.total_deltas, a_hat_nnz)
    problems += oracle.check_property2(cbm.plan().scalar_ops(WIDTH).total, a_hat_nnz, WIDTH)
    return service, slot, report, setup_s


class Generator:
    """The closed loop, one cycle of ``OUTSTANDING`` requests at a time."""

    def __init__(self, service, blocks, refs, picks, problems):
        self.service, self.blocks, self.refs, self.picks = service, blocks, refs, picks
        self.problems = problems  # wrong outputs
        self.errors: list[str] = []  # failed operations, counted apart
        self.sent = self.failed = self.checked = 0

    def cycle(self) -> list[tuple[float, float]]:
        """Submit one batch of requests, wait for and check every result;
        returns ``(submitted, received)`` times of the requests that succeeded."""
        inflight = []
        for _ in range(OUTSTANDING):
            k = int(self.picks[self.sent % len(self.picks)])
            self.sent += 1
            t0 = time.perf_counter()
            try:
                fut = self.service.submit(self.blocks[k])
            except Exception as exc:  # noqa: BLE001 - a refused request is a failed one
                self.failed += 1
                self.errors.append(f"submit refused: {type(exc).__name__}: {exc}")
                continue
            inflight.append((fut, k, t0))
        done = []
        for fut, k, t0 in inflight:
            try:
                y = fut.result(timeout=WAIT_S)
            except Exception as exc:  # noqa: BLE001 - a failed request is counted
                self.failed += 1
                self.errors.append(f"request failed: {type(exc).__name__}: {exc}")
                continue
            done.append((t0, time.perf_counter(), k, y))
        for _, _, k, y in done:
            self.problems += oracle.check_forward(y, self.refs[k], what=f"request {k}")
            self.checked += 1
        return [(t0, t1) for t0, t1, _, _ in done]


def run(seed: int, seconds: float, trace: bool) -> dict:
    from repro.graphs.datasets import load_dataset

    # The generator and the worker take turns (one batch in flight), so they
    # share one CPU; the worker inherits this when the service starts.  Left
    # to the scheduler, their placement moved per-batch latency between two
    # levels about a quarter apart, in shares that changed from run to run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    a = load_dataset(GRAPH)
    n = a.shape[0]
    a_hat = oracle.normalized_adjacency(oracle.csr_from_arrays(a.indptr, a.indices, a.shape))
    blocks, w0, w1, picks = make_inputs(n, seed)
    refs = [oracle.gcn_forward(a_hat, blocks[k], w0, w1) for k in range(BLOCKS)]
    problems: list[str] = []
    tracer = Tracer()
    inst = instrument(tracer) if trace else None

    setups = []
    service = slot = None
    for _ in range(SETUPS):
        if service is not None:
            service.close()
        if inst:
            inst.install()
        service, slot, report, setup_s = setup(a, a_hat.nnz, w0, w1, seed, problems)
        if inst:
            inst.uninstall()
        setups.append(setup_s)

    gen = Generator(service, blocks, refs, picks, problems)
    latencies: list[float] = []
    traced: list[tuple[float, float]] = []
    try:
        for _ in range(WARMUP_CYCLES):
            gen.cycle()
        warm_sent, warm_failed = gen.sent, gen.failed
        cycles = 0
        start = time.perf_counter()
        deadline = start + seconds
        while time.perf_counter() < deadline:
            # The traced run alternates traced and untraced cycles; the
            # worker is idle between cycles, so patching is safe there.
            if inst is not None and cycles % 2 == 1:
                inst.install()
                traced += gen.cycle()
                inst.uninstall()
            else:
                latencies += [t1 - t0 for t0, t1 in gen.cycle()]
            cycles += 1
        wall = time.perf_counter() - start
        health = service.health()
    finally:
        service.close()

    stats = health["service"]
    batches = health["batching"]["collector"]["batches"]
    result = {
        "correct": not problems,
        "problems": problems,
        "attempted": gen.sent - warm_sent,
        "failed": gen.failed - warm_failed,
        "program_threads": PROGRAM_THREADS,
        "errors": gen.errors,
        "notes": {"graph": GRAPH, "requests": gen.sent - warm_sent, "checked": gen.checked,
                  "batches": batches, "completed": stats["completed"],
                  "deltas": report.total_deltas, "nnz": a_hat.nnz,
                  **common.percentiles(latencies)},
    }
    if not trace:
        tail, q = common.chunked_tail(latencies, TAIL_CHUNK)
        result["notes"]["tail"] = f"p{q:g} of {TAIL_CHUNK}-request chunks, median"
        result["values"] = {
            "setup_s": common.median(setups),
            "op_ms_p50": 1e3 * common.median(latencies),
            "op_ms_tail": 1e3 * tail,
            "ops_per_s": len(latencies) / wall,
            "cbm_mb": slot.cbm.memory_bytes() / common.MB,
            "peak_rss_mb": common.peak_rss_mb(),
        }
    else:
        plan = slot.cbm.plan()
        result["layers"] = layer_metrics(tracer, {
            "core.deltas": report.total_deltas,
            "core.tree_levels": plan.levels,
            "core.candidate_edges": report.candidate_edges,
            "runtime.pool_hit_rate": plan.pool.stats.hit_rate,
            "runtime.pool_acquires": plan.pool.stats.acquires,
            "serving.batch_size": stats["completed"] / batches if batches else 0.0,
            "serving.batches": batches,
            "serving.shed": stats["shed"],
            "serving.retries": stats["retries"],
            "reliability.fallbacks": health["guard"]["fallbacks"],
            **common.trace_overhead(latencies, [t1 - t0 for t0, t1 in traced]),
        }, requests=traced)
    return result
