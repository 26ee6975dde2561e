"""The benchmark's correctness checks: they pass on the program's real outputs
and report every deliberately broken output as incorrect.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import common
import oracle
import run
from repro.core.builder import build_cbm
from repro.core.cbm import Variant
from repro.gnn.adjacency import CBMAdjacency
from repro.gnn.gcn import two_layer_gcn_inference
from repro.graphs.generators import coauthor_graph
from repro.graphs.laplacian import gcn_normalization
from repro.streaming import EdgeBatch, MutableAdjacency

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


@pytest.fixture(scope="module")
def graph():
    return coauthor_graph(n_authors=400, papers_per_author=3.0, authors_per_paper=6.0,
                          community_count=12, seed=3)


def _scipy(a):
    return oracle.csr_from_arrays(a.indptr, a.indices, a.shape)


def test_forward_check_accepts_program_and_rejects_one_perturbed_row(graph):
    rng = np.random.default_rng(0)
    n = graph.shape[0]
    x = rng.standard_normal((n, 16)).astype(np.float32)
    w0 = rng.standard_normal((16, 8)).astype(np.float32)
    w1 = rng.standard_normal((8, 4)).astype(np.float32)
    binary, diag = gcn_normalization(graph)
    cbm, _ = build_cbm(binary, variant=Variant.DAD, diag=diag)
    out = two_layer_gcn_inference(CBMAdjacency(cbm), x, w0, w1)
    ref = oracle.gcn_forward(oracle.normalized_adjacency(_scipy(graph)), x, w0, w1)
    assert oracle.check_forward(out, ref) == []

    bad = out.copy()
    bad[n // 2] += 1e-2 * np.abs(ref).max()
    assert oracle.check_forward(bad, ref)


def test_exact_check_accepts_program_and_rejects_one_entry_off_by_one(graph):
    rng = np.random.default_rng(1)
    x = rng.integers(-4, 5, size=(graph.shape[0], 8)).astype(np.float32)
    cbm, _ = build_cbm(graph)
    out = cbm.matmul(x)
    assert oracle.check_exact_product(out, _scipy(graph), x) == []

    bad = out.copy()
    bad[3, 5] += 1.0
    assert oracle.check_exact_product(bad, _scipy(graph), x)


def test_exact_check_refuses_operands_it_cannot_compare_exactly(graph):
    x = np.full((graph.shape[0], 2), 0.5, dtype=np.float32)
    assert oracle.check_exact_product(x, _scipy(graph), x)
    x = np.full((graph.shape[0], 2), float(2**23), dtype=np.float32)
    assert oracle.check_exact_product(x, _scipy(graph), x)


def test_stream_check_rejects_an_edge_set_missing_one_applied_batch(graph):
    n = graph.shape[0]
    rows = np.repeat(np.arange(n), np.diff(graph.indptr))
    full = oracle.EdgeSet(n, rows, graph.indices)
    missing = oracle.EdgeSet(n, rows, graph.indices)
    churn = oracle.Churn(np.random.default_rng(2), full, fresh=3, lifetime=2)
    mutable = MutableAdjacency.from_graph(graph)
    for step in range(6):
        ins, dels = churn.next_batch()
        mutable.apply(EdgeBatch(ins, dels))
        full.apply(ins, dels)
        if step != 4:
            missing.apply(ins, dels)
    x = np.random.default_rng(3).integers(-4, 5, size=(n, 8)).astype(np.float32)
    _, cbm, _ = mutable.snapshot()
    out = cbm.matmul(x)
    assert oracle.check_exact_product(out, full.to_csr(), x) == []
    assert oracle.check_exact_product(out, missing.to_csr(), x)


def test_churn_batches_never_insert_and_delete_one_edge(graph):
    n = graph.shape[0]
    rows = np.repeat(np.arange(n), np.diff(graph.indptr))
    edges = oracle.EdgeSet(n, rows, graph.indices)
    churn = oracle.Churn(np.random.default_rng(4), edges, fresh=5, lifetime=3)
    before = len(edges)
    for _ in range(20):
        ins, dels = churn.next_batch()
        assert not {tuple(e) for e in ins} & {tuple(e) for e in dels}
        edges.apply(ins, dels)
    # New edges are deleted and deleted edges restored a lifetime later, so
    # the edge count returns to where it started.
    assert len(edges) == before


def test_property_checks_flag_violations():
    assert oracle.check_property1(10, 10) == []
    assert oracle.check_property1(11, 10)
    assert oracle.check_property2(2 * 10 * 4, 10, 4) == []
    assert oracle.check_property2(2 * 10 * 4 + 1, 10, 4)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert common.tail_percentile(1000) == 99.0
    assert common.tail_percentile(999) == 90.0
    assert common.tail_percentile(99) is None
    # Three chunks whose p90s are 5, 9 and 3; a trailing partial chunk is ignored.
    samples = ([1.0] * 175 + [5.0] * 25 + [2.0] * 175 + [9.0] * 25
               + [1.0] * 175 + [3.0] * 25 + [50.0] * 150)
    assert common.chunked_tail(samples, 200) == (5.0, 90.0)
    with pytest.raises(ValueError):
        common.chunked_tail(list(range(199)), 100)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == common.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == common.PER_LAYER


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gcn-copapers", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
