"""Reference computations made apart from the program under test.

Nothing here imports ``repro``: the normalised adjacency, the float64 GCN
forward and the edge set of the stream workload are built from the raw
generated adjacency arrays with NumPy and SciPy alone, so a fault in the
program cannot hide in its own reference.  Each ``check_*`` function
returns a list of failure messages; an empty list means the check passed.
"""

from __future__ import annotations

import collections

import numpy as np
import scipy.sparse as sp

#: DAD forwards run in float32; the measured error against the float64
#: forward is 2-5e-7 of the output scale, so 1e-4 leaves two orders of
#: margin while any real fault (a wrong row, a lost level) is far above it.
FORWARD_RTOL = 1e-4

#: Integer-valued float32 arithmetic is exact below 2**24.
EXACT_LIMIT = 2**24


def csr_from_arrays(indptr, indices, shape) -> sp.csr_matrix:
    """A float64 binary SciPy CSR from raw row pointers and column indices."""
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    data = np.ones(len(indices), dtype=np.float64)
    return sp.csr_matrix((data, indices, indptr), shape=shape)


def normalized_adjacency(a: sp.csr_matrix) -> sp.csr_matrix:
    """``Â = D^-1/2 (A + I) D^-1/2`` in float64 for a binary adjacency."""
    n = a.shape[0]
    a_loop = (a + sp.identity(n, format="csr", dtype=np.float64)).tocsr()
    a_loop.data[:] = 1.0
    deg = np.asarray(a_loop.sum(axis=1)).ravel()
    d = sp.diags(1.0 / np.sqrt(deg))
    return (d @ a_loop @ d).tocsr()


def gcn_forward(a_hat: sp.csr_matrix, x, w0, w1) -> np.ndarray:
    """The two-layer forward ``Â σ(Â X W⁰) W¹`` in float64."""
    x = np.asarray(x, dtype=np.float64)
    h = np.maximum((a_hat @ x) @ np.asarray(w0, dtype=np.float64), 0.0)
    return (a_hat @ h) @ np.asarray(w1, dtype=np.float64)


def check_forward(out, ref, *, what: str = "forward") -> list[str]:
    """``out`` matches the float64 ``ref`` within the float32 bound."""
    out = np.asarray(out)
    if out.shape != ref.shape:
        return [f"{what}: shape {out.shape} != reference {ref.shape}"]
    if not np.all(np.isfinite(out)):
        return [f"{what}: non-finite output"]
    scale = float(np.max(np.abs(ref))) or 1.0
    err = float(np.max(np.abs(out.astype(np.float64) - ref)))
    if err > FORWARD_RTOL * scale:
        return [f"{what}: max error {err:.3e} > {FORWARD_RTOL:g} * {scale:.3e}"]
    return []


def check_exact_product(out, a: sp.csr_matrix, x) -> list[str]:
    """``out`` equals ``a @ x`` bit for bit (integer-valued operands).

    Exactness needs every partial sum below 2**24; the bound is checked
    first so a too-large operand is reported rather than compared loosely.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.array_equal(x, np.round(x)):
        return ["exact product: operand is not integer-valued"]
    row_sums = np.asarray(abs(a).sum(axis=1)).ravel()
    if float(row_sums.max(initial=0.0)) * float(np.max(np.abs(x), initial=0.0)) >= EXACT_LIMIT:
        return ["exact product: operand too large for exact float32 sums"]
    ref = a @ x
    out = np.asarray(out)
    if out.shape != ref.shape:
        return [f"exact product: shape {out.shape} != reference {ref.shape}"]
    bad = int(np.count_nonzero(out.astype(np.float64) != ref))
    if bad:
        return [f"exact product: {bad} entries differ from the reference"]
    return []


def check_property1(deltas: int, nnz: int) -> list[str]:
    """Property 1: a fresh build stores at most nnz deltas."""
    if deltas > nnz:
        return [f"Property 1: {deltas} deltas > {nnz} nonzeros"]
    return []


def check_property2(cbm_ops: int, nnz: int, width: int) -> list[str]:
    """Property 2: the CBM product costs no more scalar ops than CSR's 2*nnz*p."""
    csr_ops = 2 * int(nnz) * int(width)
    if cbm_ops > csr_ops:
        return [f"Property 2: CBM {cbm_ops} scalar ops > CSR {csr_ops}"]
    return []


class EdgeSet:
    """The stream workload's own copy of the graph: a set of directed edges.

    Kept as keys ``u * n + v`` in a list plus a position map, so a uniformly
    random existing edge can be drawn, and an edge added or removed, in
    O(1).
    """

    def __init__(self, n: int, rows, cols):
        self.n = int(n)
        self._keys: list[int] = []
        self._pos: dict[int, int] = {}
        for key in (np.asarray(rows, dtype=np.int64) * self.n
                    + np.asarray(cols, dtype=np.int64)).tolist():
            self._add(key)

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, edge) -> bool:
        u, v = edge
        return int(u) * self.n + int(v) in self._pos

    def _add(self, key: int) -> None:
        if key not in self._pos:
            self._pos[key] = len(self._keys)
            self._keys.append(key)

    def _remove(self, key: int) -> None:
        i = self._pos.pop(key, None)
        if i is None:
            return
        last = self._keys.pop()
        if i < len(self._keys):
            self._keys[i] = last
            self._pos[last] = i

    def edge_at(self, i: int) -> tuple[int, int]:
        return divmod(self._keys[i], self.n)

    def apply(self, inserts, deletes) -> None:
        for u, v in np.asarray(deletes, dtype=np.int64).reshape(-1, 2).tolist():
            self._remove(u * self.n + v)
        for u, v in np.asarray(inserts, dtype=np.int64).reshape(-1, 2).tolist():
            self._add(u * self.n + v)

    def to_csr(self) -> sp.csr_matrix:
        keys = np.fromiter(self._keys, dtype=np.int64, count=len(self._keys))
        rows, cols = np.divmod(keys, self.n)
        data = np.ones(len(keys), dtype=np.float64)
        return sp.csr_matrix((data, (rows, cols)), shape=(self.n, self.n))


class Churn:
    """Seeded edge batches that keep the graph statistically stationary.

    Each batch inserts ``fresh`` new undirected edges, deletes ``fresh``
    existing ones, and reverts the batch made ``lifetime`` batches earlier
    (its new edges are deleted again, its deleted edges restored).  After
    ``lifetime`` batches the graph differs from the original in a window of
    recent changes only, so compression drift, rebuild cost and product
    cost stay level however long a run lasts.  No edge is both inserted
    and deleted in one batch.  Every edge is listed in both directions.
    """

    def __init__(self, rng: np.random.Generator, edges: EdgeSet, fresh: int, lifetime: int):
        self.rng, self.edges = rng, edges
        self.fresh, self.lifetime = int(fresh), int(lifetime)
        self._past: collections.deque = collections.deque()

    def next_batch(self) -> tuple[np.ndarray, np.ndarray]:
        """(inserts, deletes) as ``(k, 2)`` arrays; apply them before the
        next call so this generator's view stays current."""
        revert_new, restore = (self._past.popleft() if len(self._past) >= self.lifetime
                               else (set(), set()))
        n, edges, rng = self.edges.n, self.edges, self.rng
        dels: set[tuple[int, int]] = set()
        while len(dels) < self.fresh:
            u, v = edges.edge_at(int(rng.integers(len(edges))))
            key = (min(u, v), max(u, v))
            if u != v and key not in restore and key not in revert_new:
                dels.add(key)
        new: set[tuple[int, int]] = set()
        while len(new) < self.fresh:
            u, v = (int(t) for t in rng.integers(n, size=2))
            key = (min(u, v), max(u, v))
            if u != v and (u, v) not in edges and key not in revert_new and key not in restore:
                new.add(key)
        self._past.append((new, dels))
        return _both(new | restore), _both(dels | revert_new)


def _both(pairs) -> np.ndarray:
    ordered = sorted(pairs)
    out = [(u, v) for u, v in ordered] + [(v, u) for u, v in ordered]
    return np.array(out, dtype=np.int64).reshape(-1, 2)
