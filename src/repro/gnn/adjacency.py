"""Pluggable adjacency operators for GNN layers.

A GNN layer only needs ``Â @ X``; which format holds Â is an
implementation detail.  :class:`CSRAdjacency` materialises the normalised
adjacency as a weighted CSR matrix and multiplies with the compiled
backend (the paper's MKL baseline).  :class:`CBMAdjacency` keeps the
factorised form ``D^{-1/2} (A+I) D^{-1/2}`` as a CBM(DAD) matrix — the
paper's contribution.  Both expose the same two methods, so every model in
:mod:`repro.gnn` is format-agnostic.

Both operators are *plan-aware* (see :mod:`repro.runtime`): the CBM
operator executes through its matrix's cached :class:`KernelPlan` and the
CSR operator keeps one prebuilt SciPy handle, so per-call work is pure
kernel execution.  Models call :func:`prepare_operator` once per forward
pass to hoist plan construction out of the layer loop, and operators that
set ``supports_out`` accept an ``out=`` buffer so iterative models
(SGC/APPNP) can double-buffer instead of allocating per hop.
"""

from __future__ import annotations

from typing import Literal, Protocol, runtime_checkable

import numpy as np

from repro.core.builder import build_cbm
from repro.core.cbm import CBMMatrix, Variant
from repro.graphs.laplacian import gcn_normalization, normalized_adjacency
from repro.sparse.csr import CSRMatrix


@runtime_checkable
class AdjacencyOp(Protocol):
    """What a GNN layer requires of an adjacency representation."""

    @property
    def n(self) -> int: ...

    def matmul(self, x: np.ndarray) -> np.ndarray:
        """Compute ``Â @ x`` for a dense feature matrix ``x``."""
        ...


def prepare_operator(adj: AdjacencyOp, *, width: int | None = None, dtype=np.float32) -> None:
    """Hoist one-time plan/handle construction out of a model's layer loop.

    No-op for operators without a ``prepare`` method, so models stay
    compatible with any :class:`AdjacencyOp` implementation.
    """
    prepare = getattr(adj, "prepare", None)
    if prepare is not None:
        prepare(width=width, dtype=dtype)


class CSRAdjacency:
    """Baseline operator: Â held as one weighted CSR matrix.

    Products run in float32 like the CBM operator's, through one SciPy
    handle holding a float32 copy of Â's values, so the baseline never
    upcasts the features to float64.
    """

    supports_out = True

    def __init__(self, a_hat: CSRMatrix):
        self.a_hat = a_hat
        self._sp = None  # float32 SciPy handle (built by prepare/first matmul)

    @classmethod
    def from_graph(cls, a: CSRMatrix) -> "CSRAdjacency":
        """Build from a raw binary adjacency matrix (adds self-loops,
        applies the symmetric GCN normalisation)."""
        return cls(normalized_adjacency(a))

    @property
    def n(self) -> int:
        return self.a_hat.shape[0]

    def prepare(self, *, width: int | None = None, dtype=np.float32) -> None:
        """Build the float32 compiled-backend handle once (width/dtype unused)."""
        if self._sp is None:
            import scipy.sparse as sp

            m = self.a_hat
            data = m.data.astype(np.float32)
            self._sp = sp.csr_matrix((data, m.indices, m.indptr), shape=m.shape)

    def matmul(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``Â @ x``; when ``out`` is given the product is written into
        it in place (must not alias ``x``)."""
        x = x.astype(np.float32, copy=False)
        self.prepare()
        c = np.asarray(self._sp @ x)
        if out is not None:
            if np.shares_memory(out, x):
                raise ValueError("out buffer must not alias the operand x")
            out[...] = c
            return out
        return c

    def memory_bytes(self) -> int:
        return self.a_hat.memory_bytes()


class CBMAdjacency:
    """CBM operator: Â kept factorised as CBM(DAD) (paper Section VI-G)."""

    supports_out = True

    def __init__(self, cbm: CBMMatrix):
        if cbm.variant is not Variant.DAD:
            raise ValueError(
                f"CBMAdjacency expects a DAD-variant matrix, got {cbm.variant.value}"
            )
        self.cbm = cbm

    @classmethod
    def from_graph(cls, a: CSRMatrix, *, alpha: int = 0) -> "CBMAdjacency":
        """Compress the normalised adjacency of a binary graph into CBM."""
        binary, diag = gcn_normalization(a)
        cbm, _ = build_cbm(binary, alpha=alpha, variant=Variant.DAD, diag=diag)
        return cls(cbm)

    @property
    def n(self) -> int:
        return self.cbm.n

    def prepare(self, *, width: int | None = None, dtype=np.float32) -> None:
        """Build (or refresh) the kernel plan; optionally warm the pool
        with output buffers for the given feature width."""
        plan = self.cbm.plan()
        if width is not None:
            plan.pool.warm((self.n, int(width)), dtype, count=1)

    def matmul(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return self.cbm.matmul(x.astype(np.float32, copy=False), out=out)

    def memory_bytes(self) -> int:
        return self.cbm.memory_bytes()


def make_operator(
    a: CSRMatrix, kind: Literal["csr", "cbm", "guarded"], *, alpha: int = 0, **guard_kwargs
) -> AdjacencyOp:
    """Factory used by benchmarks and the serving layer: same graph,
    any representation.

    ``"guarded"`` wraps the CBM form in the reliability layer's
    validate-then-fallback kernel (extra keyword arguments are forwarded
    to :class:`~repro.reliability.guard.GuardedKernel`); the GNN forwards
    are representation-agnostic, so models run unchanged on any of the
    three.
    """
    if kind == "csr":
        return CSRAdjacency.from_graph(a)
    if kind == "cbm":
        return CBMAdjacency.from_graph(a, alpha=alpha)
    if kind == "guarded":
        # Local import: repro.reliability imports this module's protocol.
        from repro.reliability import GuardedAdjacency

        return GuardedAdjacency.from_graph(a, alpha=alpha, **guard_kwargs)
    raise ValueError(
        f"unknown adjacency kind {kind!r}; expected 'csr', 'cbm', or 'guarded'"
    )
