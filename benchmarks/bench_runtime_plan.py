"""Runtime plan benchmark — planned vs unplanned repeated CBM products.

The GCN serving hot path multiplies the same ``Â`` against dense features
every layer of every forward pass; the :mod:`repro.runtime` plan/execute
split amortises the schedule construction (level grouping, scaled
operand, SciPy handle, diagonal tables) across all of them.  This
benchmark measures the gap on a GCN-shaped workload (2 layers × many
forwards) and records it in ``BENCH_PR1.json`` so the perf trajectory
accumulates across PRs.  "Unplanned" means one ``KernelPlan`` build plus
one execute per product (``unplanned_s``); "planned" reuses the matrix's
cached plan.

Run standalone::

    python benchmarks/bench_runtime_plan.py            # full workload
    python benchmarks/bench_runtime_plan.py --smoke    # CI-sized (<5 s)

or under pytest-benchmark like the other ``bench_*`` modules.
"""

import argparse
import json
import pathlib
import platform
import time

import numpy as np

from repro.core.cbm import CBMMatrix
from repro.gnn.adjacency import CBMAdjacency, CSRAdjacency, make_operator
from repro.gnn.gcn import two_layer_gcn_inference
from repro.graphs.datasets import load_dataset
from repro.runtime.plan import KernelPlan
from repro.utils.timing import measure

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_JSON = REPO_ROOT / "BENCH_PR1.json"

FULL = dict(dataset="COLLAB", alpha=4, p=64, hidden=64, classes=16, forwards=20)
SMOKE = dict(dataset="Cora", alpha=2, p=32, hidden=16, classes=4, forwards=5)


class UnplannedCBMAdjacency:
    """CBM operator that builds a fresh plan for every product.

    Same matrix, same kernels — but the schedule (level grouping, diag
    tables, SciPy handle) is rebuilt on every product, which is what
    every call would pay without the cached plan.
    """

    def __init__(self, cbm: CBMMatrix):
        self.cbm = cbm

    @property
    def n(self) -> int:
        return self.cbm.n

    def matmul(self, x: np.ndarray) -> np.ndarray:
        return KernelPlan(self.cbm).execute(x.astype(np.float32, copy=False))


def _weights(rng, p, hidden, classes):
    w0 = (rng.random((p, hidden)) - 0.5).astype(np.float32) / np.sqrt(p)
    w1 = (rng.random((hidden, classes)) - 0.5).astype(np.float32) / np.sqrt(hidden)
    return w0, w1


def run_workload(cfg: dict, *, repeats: int | None = None) -> dict:
    """Time planned vs unplanned repeated GCN inference; return the record."""
    a = load_dataset(cfg["dataset"])
    rng = np.random.default_rng(7)
    x = rng.random((a.shape[0], cfg["p"])).astype(np.float32)
    w0, w1 = _weights(rng, cfg["p"], cfg["hidden"], cfg["classes"])

    planned = make_operator(a, "cbm", alpha=cfg["alpha"])
    assert isinstance(planned, CBMAdjacency)
    unplanned = UnplannedCBMAdjacency(planned.cbm)
    baseline = CSRAdjacency.from_graph(a)

    forwards = cfg["forwards"]
    repeats = repeats if repeats is not None else 3

    def burst(op):
        for _ in range(forwards):
            two_layer_gcn_inference(op, x, w0, w1)

    # Warm everything (plan build, SciPy handles, BLAS) outside the timers.
    burst(planned)
    two_layer_gcn_inference(unplanned, x, w0, w1)
    two_layer_gcn_inference(baseline, x, w0, w1)

    t_planned = measure(lambda: burst(planned), min_repeats=repeats, max_repeats=repeats)
    t_unplanned = measure(lambda: burst(unplanned), min_repeats=repeats, max_repeats=repeats)
    t_csr = measure(lambda: burst(baseline), min_repeats=repeats, max_repeats=repeats)

    plan = planned.cbm.plan()
    return {
        "benchmark": "runtime_plan",
        "workload": {
            "shape": "2-layer GCN inference x repeated forwards",
            **cfg,
            "nodes": int(a.shape[0]),
            "nnz": int(a.nnz),
        },
        "planned_s": t_planned.mean,
        "unplanned_s": t_unplanned.mean,
        "csr_baseline_s": t_csr.mean,
        "per_forward_planned_s": t_planned.mean / forwards,
        "per_forward_unplanned_s": t_unplanned.mean / forwards,
        "speedup_planned_vs_unplanned": t_unplanned.mean / t_planned.mean,
        "speedup_planned_vs_csr": t_csr.mean / t_planned.mean,
        "plan": {
            "levels": plan.levels,
            "branches": len(plan.branches),
            "operand_nnz": int(plan.operand.nnz),
            "build_seconds": plan.stats.build_seconds,
            "executions": plan.stats.executions,
        },
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "generated_unix": time.time(),
    }


def render(record: dict) -> str:
    w = record["workload"]
    lines = [
        f"Runtime plan benchmark — {w['dataset']} "
        f"(n={w['nodes']}, alpha={w['alpha']}, p={w['p']}, "
        f"{w['forwards']} forwards/burst)",
        f"  planned    {record['per_forward_planned_s'] * 1e3:8.3f} ms/forward",
        f"  unplanned  {record['per_forward_unplanned_s'] * 1e3:8.3f} ms/forward",
        f"  CSR        {record['csr_baseline_s'] / w['forwards'] * 1e3:8.3f} ms/forward",
        f"  planned vs unplanned: {record['speedup_planned_vs_unplanned']:.2f}x",
        f"  planned vs CSR:       {record['speedup_planned_vs_csr']:.2f}x",
        f"  plan: {record['plan']['levels']} levels, "
        f"{record['plan']['branches']} branches, "
        f"built in {record['plan']['build_seconds'] * 1e3:.2f} ms",
    ]
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true", help="tiny CI-sized workload (<5 s)")
    ap.add_argument("--json", type=pathlib.Path, default=None,
                    help=f"where to write the JSON record (default {DEFAULT_JSON})")
    ap.add_argument("--repeats", type=int, default=None, help="timing repeats per burst")
    args = ap.parse_args(argv)

    cfg = dict(SMOKE if args.smoke else FULL)
    record = run_workload(cfg, repeats=args.repeats)
    record["mode"] = "smoke" if args.smoke else "full"
    print(render(record))

    path = args.json or DEFAULT_JSON
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"[written to {path}]")
    return 0


# ---------------------------------------------------------------------------
# pytest-benchmark entry points (same harness as the other bench_* modules)
# ---------------------------------------------------------------------------

def test_planned_gcn_forward(benchmark, rng):
    a = load_dataset("Cora")
    op = make_operator(a, "cbm", alpha=2)
    x = rng.random((a.shape[0], 32), dtype=np.float64).astype(np.float32)
    w0, w1 = _weights(np.random.default_rng(7), 32, 16, 4)
    two_layer_gcn_inference(op, x, w0, w1)  # build the plan outside the timer
    benchmark(lambda: two_layer_gcn_inference(op, x, w0, w1))


def test_unplanned_gcn_forward(benchmark, rng):
    a = load_dataset("Cora")
    op = make_operator(a, "cbm", alpha=2)
    unplanned = UnplannedCBMAdjacency(op.cbm)
    x = rng.random((a.shape[0], 32), dtype=np.float64).astype(np.float32)
    w0, w1 = _weights(np.random.default_rng(7), 32, 16, 4)
    benchmark(lambda: two_layer_gcn_inference(unplanned, x, w0, w1))


def test_report_runtime_plan(benchmark):
    from conftest import write_report

    def run():
        record = run_workload(dict(SMOKE))
        write_report("runtime_plan", render(record))

    benchmark.pedantic(run, rounds=1, iterations=1)


if __name__ == "__main__":
    raise SystemExit(main())
