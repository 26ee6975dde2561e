"""Workload ``gcn-copapers``: back-to-back raw two-layer GCN forwards.

``Â σ(Â X W⁰) W¹`` on coPapersDBLP with Â held as CBM(DAD), float32, a
64-wide feature block and 64-wide hidden and output layers, called through
``repro.gnn.two_layer_gcn_inference`` with no service in between.  The
68-level compression tree makes the update stage about as costly as the
multiply stage, so update-kernel and fusion work shows here first.

One operation is one forward.  Forwards are checked against the float64
forward of :mod:`oracle` after the timed loop.
"""

from __future__ import annotations

import time

import numpy as np

import common
import oracle
from layers import gcn_dense_bytes, instrument, layer_metrics
from spans import Tracer

GRAPH = "coPapersDBLP"
WIDTH = 64
HIDDEN = 64
OUT = 64
SETUPS = 3
WARMUP = 5
KEEP_EVERY = 250  # forwards kept for the correctness check
TAIL_CHUNK = 200  # forwards per tail chunk: p90 with 20 beyond it
PROGRAM_THREADS = 0  # the caller's thread runs everything


def make_inputs(n: int, seed: int):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, WIDTH)).astype(np.float32)
    w0 = (rng.standard_normal((WIDTH, HIDDEN)) / np.sqrt(WIDTH)).astype(np.float32)
    w1 = (rng.standard_normal((HIDDEN, OUT)) / np.sqrt(HIDDEN)).astype(np.float32)
    return x, w0, w1


def setup(a, a_hat_nnz: int, problems: list[str]):
    """Compress Â, build its plan, warm the pool; returns the set-up time too."""
    import repro.core.builder as builder
    from repro.core.cbm import Variant
    from repro.gnn.adjacency import CBMAdjacency
    from repro.graphs.laplacian import gcn_normalization

    t0 = time.perf_counter()
    binary, diag = gcn_normalization(a)
    cbm, report = builder.build_cbm(binary, variant=Variant.DAD, diag=diag)
    adj = CBMAdjacency(cbm)
    adj.prepare(width=WIDTH)
    setup_s = time.perf_counter() - t0
    problems += oracle.check_property1(report.total_deltas, a_hat_nnz)
    problems += oracle.check_property2(cbm.plan().scalar_ops(WIDTH).total, a_hat_nnz, WIDTH)
    return adj, report, setup_s


def run(seed: int, seconds: float, trace: bool) -> dict:
    from repro.gnn.gcn import two_layer_gcn_inference
    from repro.graphs.datasets import load_dataset

    a = load_dataset(GRAPH)
    n = a.shape[0]
    a_hat = oracle.normalized_adjacency(oracle.csr_from_arrays(a.indptr, a.indices, a.shape))
    x, w0, w1 = make_inputs(n, seed)
    problems: list[str] = []
    tracer = Tracer()
    inst = instrument(tracer) if trace else None

    setups = []
    for _ in range(SETUPS):
        if inst:
            inst.install()
        adj, report, setup_s = setup(a, a_hat.nnz, problems)
        if inst:
            inst.uninstall()
        setups.append(setup_s)

    for _ in range(WARMUP):
        two_layer_gcn_inference(adj, x, w0, w1)

    times, traced_times, kept = [], [], []
    forwards = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        traced = inst is not None and forwards % 2 == 1
        if traced:
            inst.install()
            t0 = time.perf_counter()
            with tracer.span("gnn.forward"):
                y = two_layer_gcn_inference(adj, x, w0, w1)
            dt = time.perf_counter() - t0
            inst.uninstall()
            traced_times.append(dt)
        else:
            t0 = time.perf_counter()
            y = two_layer_gcn_inference(adj, x, w0, w1)
            dt = time.perf_counter() - t0
            times.append(dt)
        if forwards % KEEP_EVERY == 0:
            kept.append(y)
        forwards += 1
    kept.append(y)

    ref = oracle.gcn_forward(a_hat, x, w0, w1)
    for i, out in enumerate(kept):
        problems += oracle.check_forward(out, ref, what=f"kept forward {i}")

    cbm = adj.cbm
    result = {
        "correct": not problems,
        "problems": problems,
        "attempted": forwards,
        "failed": 0,
        "program_threads": PROGRAM_THREADS,
        "notes": {"graph": GRAPH, "forwards": forwards, "deltas": report.total_deltas,
                  "nnz": a_hat.nnz, **common.percentiles(times)},
    }
    if not trace:
        tail, q = common.chunked_tail(times, TAIL_CHUNK)
        result["notes"]["tail"] = f"p{q:g} of {TAIL_CHUNK}-forward chunks, median"
        result["values"] = {
            "setup_s": common.median(setups),
            "op_ms_p50": 1e3 * common.median(times),
            "op_ms_tail": 1e3 * tail,
            "ops_per_s": len(times) / sum(times),
            "cbm_mb": cbm.memory_bytes() / common.MB,
            "peak_rss_mb": common.peak_rss_mb(),
        }
    else:
        plan = cbm.plan()
        result["layers"] = layer_metrics(tracer, {
            "core.deltas": report.total_deltas,
            "core.tree_levels": plan.levels,
            "core.candidate_edges": report.candidate_edges,
            "runtime.pool_hit_rate": plan.pool.stats.hit_rate,
            "runtime.pool_acquires": plan.pool.stats.acquires,
            "gnn.dense_mb": gcn_dense_bytes(n, WIDTH, HIDDEN, OUT) / common.MB,
            **common.trace_overhead(times, traced_times),
        }, root="gnn.forward")
    return result
