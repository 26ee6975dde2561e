"""Plan-cache correctness: the repro.runtime plan/execute split.

Every fast path (planned execute, execute_vec, the branch-parallel
``parallel_matmul``) must equal the decompressed-CSR product
``cbm.tocsr().toarray() @ x`` bitwise across every variant, update mode,
scaling mode, and engine.  Operands are integer-valued and diagonals are
powers of two, so every partial sum is exact and ``np.array_equal`` is
the check.  Plans must also invalidate when the owning matrix changes,
and one plan must be shareable across threads.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.builder import build_cbm
from repro.errors import ShapeError
from repro.parallel.cache import plan_working_set
from repro.parallel.executor import ThreadedUpdateExecutor, parallel_matmul
from repro.parallel.schedule import plan_update_schedule
from repro.runtime import KernelPlan, WorkspacePool
from repro.sparse.ops import Engine

from tests.conftest import random_adjacency_csr

N = 40


def _diag(n, seed=3):
    """Power-of-two diagonal: scaling by it is exact in float32."""
    return 2.0 ** np.random.default_rng(seed).integers(-2, 3, n)


def _make_cbm(variant: str, *, n: int = N, alpha: int = 2, seed: int = 1):
    a = random_adjacency_csr(n, density=0.25, seed=seed)
    diag = None if variant == "A" else _diag(n)
    diag_left = _diag(n, seed=5) if variant == "D1AD2" else None
    cbm, _ = build_cbm(a, alpha=alpha, variant=variant, diag=diag, diag_left=diag_left)
    return cbm


def _operand(n, p=7, seed=2):
    """Integer-valued float32 operand: every product stays exact."""
    return np.random.default_rng(seed).integers(0, 8, (n, p)).astype(np.float32)


def _oracle(cbm, x):
    """The reference for every fast path: the decompressed-CSR product."""
    return cbm.tocsr().toarray() @ x


VARIANTS = ("A", "AD", "DAD", "D1AD2")


class TestPlannedMatchesUnplanned:
    """Fast paths against the decompressed-CSR oracle (class name kept
    so the test IDs stay stable)."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("update", ["level", "edge"])
    @pytest.mark.parametrize("scaling", ["deferred", "fused"])
    def test_matmul_equality(self, variant, update, scaling):
        cbm = _make_cbm(variant)
        x = _operand(N)
        planned = cbm.matmul(x, update=update, scaling=scaling)
        assert np.array_equal(planned, _oracle(cbm, x))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matvec_equality(self, variant):
        cbm = _make_cbm(variant)
        v = _operand(N, p=1).ravel()
        assert np.array_equal(cbm.matvec(v), _oracle(cbm, v))

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("update", ["level", "edge"])
    @pytest.mark.parametrize("scaling", ["deferred", "fused"])
    def test_matvec_modes_equality(self, variant, update, scaling):
        cbm = _make_cbm(variant)
        v = _operand(N, p=1).ravel()
        got = cbm.matvec(v, update=update, scaling=scaling)
        assert np.array_equal(got, _oracle(cbm, v))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_parallel_matmul_equality(self, variant):
        """The branch-parallel path applies the same row scale as the
        plan, including the left diagonal of D1AD2."""
        cbm = _make_cbm(variant)
        x = _operand(N)
        assert np.array_equal(parallel_matmul(cbm, x, threads=3), _oracle(cbm, x))

    @pytest.mark.parametrize("engine", list(Engine))
    def test_engines_agree(self, engine):
        cbm = _make_cbm("DAD")
        x = _operand(N)
        assert np.array_equal(cbm.matmul(x, engine=engine), _oracle(cbm, x))

    def test_repeated_executions_stay_correct(self):
        """The plan's schedule is reused, never consumed."""
        cbm = _make_cbm("DAD")
        x = _operand(N)
        expected = _oracle(cbm, x)
        for _ in range(4):
            assert np.array_equal(cbm.matmul(x), expected)
        assert cbm.plan().stats.executions >= 4


class TestPlanCache:
    def test_plan_is_cached_per_config(self):
        cbm = _make_cbm("A")
        assert cbm.plan() is cbm.plan()
        assert cbm.plan(update="edge") is not cbm.plan(update="level")

    def test_matmul_populates_the_cache(self):
        cbm = _make_cbm("A")
        cbm.matmul(_operand(N))
        assert cbm.plan().stats.executions == 1

    def test_invalidate_rebuilds(self):
        cbm = _make_cbm("AD")
        before = cbm.plan()
        cbm.invalidate()
        after = cbm.plan()
        assert after is not before
        assert not before.matches(cbm)

    def test_invalidate_after_diag_mutation_restores_correctness(self):
        """In-place diag edits are invisible to the fingerprint; after
        ``invalidate()`` the planned result must track the new diagonal."""
        cbm = _make_cbm("DAD")
        x = _operand(N)
        cbm.matmul(x)  # build + cache a plan for the old diagonal
        cbm.diag *= 2.0
        cbm.invalidate()
        assert np.array_equal(cbm.matmul(x), _oracle(cbm, x))

    def test_object_swap_detected_without_invalidate(self):
        """Replacing the tree/delta objects flips the identity fingerprint."""
        cbm = _make_cbm("A")
        stale = cbm.plan()
        other = _make_cbm("A", seed=9)
        cbm.tree = other.tree
        cbm.delta = other.delta
        assert not stale.matches(cbm)
        x = _operand(N)
        assert np.array_equal(cbm.matmul(x), _oracle(cbm, x))

    def test_invalid_modes_rejected(self):
        cbm = _make_cbm("A")
        with pytest.raises(ValueError):
            KernelPlan(cbm, update="magic")
        with pytest.raises(ValueError):
            KernelPlan(cbm, scaling="sideways")


class TestOutBuffer:
    def test_result_lands_in_out(self):
        cbm = _make_cbm("DAD")
        x = _operand(N)
        out = np.empty((N, x.shape[1]), dtype=np.float32)
        got = cbm.matmul(x, out=out)
        assert got is out
        assert np.array_equal(out, _oracle(cbm, x))

    def test_aliasing_rejected(self):
        cbm = _make_cbm("A")
        x = _operand(N)
        with pytest.raises(ValueError, match="alias"):
            cbm.plan().multiply(x, out=x)

    def test_wrong_shape_rejected(self):
        cbm = _make_cbm("A")
        with pytest.raises(ShapeError):
            cbm.plan().multiply(_operand(N), out=np.empty((N, 99), dtype=np.float32))

    def test_pooled_buffer_roundtrip(self):
        plan = _make_cbm("A").plan()
        buf = plan.out_buffer(7)
        assert buf.shape == (N, 7) and buf.dtype == np.float32
        plan.release(buf)
        assert plan.out_buffer(7) is buf  # free list hit


class TestWorkspacePool:
    def test_acquire_release_reuses(self):
        pool = WorkspacePool()
        a = pool.acquire((8, 4))
        pool.release(a)
        assert pool.acquire((8, 4)) is a
        assert pool.stats.hits == 1 and pool.stats.acquires == 2

    def test_distinct_keys_do_not_mix(self):
        pool = WorkspacePool()
        a = pool.acquire((8, 4), np.float32)
        pool.release(a)
        b = pool.acquire((8, 4), np.float64)
        assert b is not a and b.dtype == np.float64

    def test_capacity_cap(self):
        pool = WorkspacePool(max_per_key=1)
        a, b = pool.acquire((4, 4)), pool.acquire((4, 4))
        pool.release(a)
        pool.release(b)  # over capacity: dropped
        assert pool.idle_bytes() == a.nbytes
        pool.clear()
        assert pool.idle_bytes() == 0

    def test_thread_safety(self):
        pool = WorkspacePool(max_per_key=8)
        errors: list[BaseException] = []

        def hammer():
            try:
                for _ in range(200):
                    arr = pool.acquire((16, 3))
                    arr.fill(1.0)
                    pool.release(arr)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        workers = [threading.Thread(target=hammer) for _ in range(4)]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        assert not errors
        assert pool.stats.acquires == 800 and pool.stats.releases == 800


class TestSharedPlanThreadSafety:
    @pytest.mark.parametrize("variant", ["A", "DAD"])
    def test_concurrent_execute(self, variant):
        """One plan, many threads, distinct operands — all results exact."""
        cbm = _make_cbm(variant)
        plan = cbm.plan()
        inputs = [_operand(N, seed=s) for s in range(8)]
        expected = [_oracle(cbm, x) for x in inputs]
        results: list = [None] * len(inputs)
        errors: list[BaseException] = []

        def run(i):
            try:
                results[i] = plan.execute(inputs[i])
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        workers = [threading.Thread(target=run, args=(i,)) for i in range(len(inputs))]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        assert not errors
        for got, want in zip(results, expected, strict=True):
            assert np.array_equal(got, want)

    def test_branch_parallel_executor_shares_plan(self):
        cbm = _make_cbm("DAD")
        plan = cbm.plan()
        x = _operand(N)
        got = parallel_matmul(cbm, x, threads=4, plan=plan)
        assert np.array_equal(got, _oracle(cbm, x))

    def test_executor_accepts_plan_branches(self):
        cbm = _make_cbm("A")
        plan = cbm.plan()
        x = _operand(N)
        c = plan.multiply(x)
        ThreadedUpdateExecutor(3).run_update(cbm.tree, c, branches=plan.branches)
        assert np.array_equal(c, _oracle(cbm, x))


class TestPlanIntrospection:
    def test_describe_and_schedule(self):
        plan = _make_cbm("DAD").plan()
        desc = plan.describe()
        assert desc["variant"] == "DAD" and desc["levels"] == plan.levels
        sched = plan_update_schedule(plan, p=16, threads=4)
        assert sched.speedup >= 1.0
        ws = plan_working_set(plan, p=16)
        assert ws.sparse_bytes > 0 and ws.dense_bytes > 0
