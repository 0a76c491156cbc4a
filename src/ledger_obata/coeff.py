"""Coefficient-space calculus on R^m.

A pure tensor a (x) X in the product algebra m*f is encoded by its
coefficient vector a in R^m.  Brackets of pure tensors multiply
coefficients entrywise, so the entrywise (diamond) product carries all
of the coefficient-side structure: adapted systems, super-adapted
systems, self-saturated subspaces and diamond-closed subalgebras.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ClosureError, InputError, SelfSaturationError

# Rank decisions in subspace computations use this relative SVD cutoff.
RANK_RTOL = 1e-10
# An entry counts as zero when below this fraction of the vector norm.
ZERO_RTOL = 1e-9
# Largest deviation from zero sums and orthonormality of an adapted system.
ADAPTED_TOL = 1e-8


@dataclass(frozen=True)
class AdaptedSystem:
    """Orthonormal zero-sum vectors b^i paired with positive weights gamma_i.

    ``vectors`` has shape (m-1, m), one vector per row; ``gammas`` has
    shape (m-1,).  The pair encodes a metric sum_i gamma_i b^i (b^i)^T.
    """

    vectors: np.ndarray
    gammas: np.ndarray

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.vectors, dtype=float))
        g = np.atleast_1d(np.asarray(self.gammas, dtype=float))
        if v.shape[0] != g.shape[0]:
            raise InputError("one gamma per vector required")
        if v.shape[0] != v.shape[1] - 1:
            raise InputError(f"expected m-1 vectors of length m, got {v.shape}")
        v = v.copy()
        g = g.copy()
        v.setflags(write=False)
        g.setflags(write=False)
        object.__setattr__(self, "vectors", v)
        object.__setattr__(self, "gammas", g)

    @property
    def m(self) -> int:
        return self.vectors.shape[1]


def adaptedness_error(v: np.ndarray) -> float:
    """Largest deviation of the rows of v from zero sums and orthonormality."""
    sums = np.max(np.abs(v.sum(axis=1)))
    products = np.max(np.abs(v @ v.T - np.eye(v.shape[0])))
    return float(max(sums, products))


def is_adapted(system: AdaptedSystem, tol: float = ADAPTED_TOL) -> bool:
    """True when the vectors are zero-sum, unit and pairwise orthogonal."""
    return adaptedness_error(system.vectors) <= tol


def cluster_indices(values: np.ndarray, cluster_tol: float = 1e-8) -> list[list[int]]:
    """Group indices of ``values`` into maximal gap-linked clusters.

    Two values are linked when their gap is below cluster_tol * max|values|;
    clusters are the transitive closure over the sorted sequence.
    """
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    # a Python float, so that a huge cluster_tol gives an infinite gap without
    # numpy's overflow warning
    scale = float(np.max(np.abs(values))) if values.size else 0.0
    gap = cluster_tol * scale
    clusters: list[list[int]] = []
    for idx in order:
        if clusters and values[idx] - values[clusters[-1][-1]] <= gap:
            clusters[-1].append(int(idx))
        else:
            clusters.append([int(idx)])
    return clusters


def diamond_tensor(vectors: np.ndarray) -> np.ndarray:
    """c[i, j, k] = (b^i <> b^j) . b^k for the rows b^i of ``vectors``.

    With orthonormal rows, c[i, j] holds the coordinates of the projection
    of b^i <> b^j onto their span.
    """
    v = np.asarray(vectors, dtype=float)
    return (v[:, None] * v[None]) @ v.T


def _norms(x: np.ndarray) -> np.ndarray:
    """Norm of each slice x[i], bit for bit np.linalg.norm's: a (1, n) @ (n, 1)
    matmul takes the dot routine of the norm of one flattened slice."""
    flat = x.reshape(len(x), np.prod(x.shape[1:], dtype=int))  # also when x is empty
    return np.sqrt(np.matmul(flat[:, None, :], flat[:, :, None]))[:, 0, 0]


def _off_span(basis: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Norm of each row of ``vectors`` off the span of the orthonormal rows of ``basis``."""
    return _norms(vectors - (vectors @ basis.T) @ basis)


def _cluster_labels(clusters, n: int) -> np.ndarray:
    """Cluster number of each of the ``n`` indices that ``clusters`` groups."""
    label = np.empty(n, dtype=int)
    for ci, cl in enumerate(clusters):
        label[list(cl)] = ci
    return label


@dataclass(frozen=True)
class SuperAdaptedCheck:
    """Projection coefficients of all pairwise diamond products.

    on_first[i, j]  = (b^i <> b^j) . b^i
    on_second[i, j] = (b^i <> b^j) . b^j
    both zero for i = j.  ``max_residual`` is the largest off-span component
    over pairs with distinct weights; ``worst_pair`` names the first pair in
    row-major order attaining it, and is None when every residual is 0.
    """

    on_first: np.ndarray
    on_second: np.ndarray
    max_residual: float
    worst_pair: tuple[int, int] | None


def is_super_adapted(
    system: AdaptedSystem,
    tol: float = 1e-8,
    cluster_tol: float = 1e-8,
) -> tuple[bool, SuperAdaptedCheck]:
    """Check b^i <> b^j in span(b^i, b^j) for every pair with gamma_i != gamma_j.

    Weight equality is judged by gap-linked clustering of the gammas at
    ``cluster_tol``.  The certificate carries both projection coefficients
    for all pairs regardless of the verdict.
    """
    v = system.vectors
    n = v.shape[0]
    label = _cluster_labels(cluster_indices(system.gammas, cluster_tol), n)
    c = diamond_tensor(v)
    off = ~np.eye(n, dtype=bool)
    on_first = np.where(off, np.diagonal(c, axis1=0, axis2=2).T, 0.0)
    on_second = np.where(off, np.diagonal(c, axis1=1, axis2=2), 0.0)
    rest = v[:, None] * v[None] - on_first[..., None] * v[:, None] - on_second[..., None] * v[None]
    residuals = _norms(rest.reshape(n * n, -1)).reshape(n, n)
    residuals[label[:, None] == label] = 0.0
    max_res = float(residuals.max(initial=0.0))
    worst = divmod(int(np.argmax(residuals)), n) if max_res > 0.0 else None
    return max_res <= tol, SuperAdaptedCheck(on_first, on_second, max_res, worst)


def _orthonormal_basis(spanning: np.ndarray) -> np.ndarray:
    """Orthonormal row basis of the row space of ``spanning`` (SVD based)."""
    a = np.atleast_2d(np.asarray(spanning, dtype=float))
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if s.size == 0:
        return np.zeros((0, a.shape[1]))
    rank = int(np.sum(s > RANK_RTOL * s[0]))
    return vt[:rank]


def canonical_sign(v: np.ndarray) -> np.ndarray:
    """Flip sign so the first entry above ZERO_RTOL * |v| is positive."""
    v = np.asarray(v, dtype=float)
    cut = ZERO_RTOL * np.linalg.norm(v)
    for x in v:
        if abs(x) > cut:
            return v if x > 0 else -v
    return v


def _lex_sorted(rows: np.ndarray) -> np.ndarray:
    keys = [tuple(np.round(r, 12)) for r in rows]
    order = sorted(range(len(keys)), key=lambda i: keys[i])
    return rows[order]


def is_self_saturated(
    spanning: np.ndarray, tol: float = 1e-8
) -> tuple[bool, tuple[np.ndarray, np.ndarray] | None]:
    """Check closure of V under diamond products of orthogonal pairs.

    On an orthonormal basis {v_i} this amounts to v_i <> v_j in V for
    i != j together with (v_i <> v_i) - (v_j <> v_j) in V; zero-sum
    combinations of the diagonal squares span all remaining orthogonal
    products.  Returns (verdict, witness pair or None).
    """
    basis = _orthonormal_basis(spanning)
    i, j = np.triu_indices(len(basis), 1)
    u, w = basis[i], basis[j]
    # the product and the square difference of each pair, interleaved
    stack = np.stack([u * w, u * u - w * w], axis=1).reshape(-1, basis.shape[1])
    failed = np.flatnonzero(_off_span(basis, stack) > tol)
    if failed.size == 0:
        return True, None
    pair, kind = divmod(int(failed[0]), 2)
    u, w = u[pair], w[pair]
    if kind:
        u, w = (u + w) / np.sqrt(2.0), (u - w) / np.sqrt(2.0)
    return False, (u, w)


def sparsest_unit_vector(basis: np.ndarray) -> np.ndarray:
    """Unit vector in the row span of ``basis`` with the most zero entries.

    Exact search: for zero sets S of decreasing size, test whether the
    subspace meets {x : x_i = 0 for i in S} by a rank computation.  Zero
    sets concentrated on trailing coordinates are preferred, which keeps
    the output stable across runs and equal to the classical zero-sum
    chain on the full hyperplane.
    """
    basis = _orthonormal_basis(basis)
    k, n = basis.shape
    if k == 0:
        raise ValueError("empty subspace")
    for nzeros in range(n - 1, 0, -1):
        for rev in itertools.combinations(range(n - 1, -1, -1), nzeros):
            cols = basis[:, list(rev)]
            u, s, vt = np.linalg.svd(cols.T, full_matrices=True)
            rank = int(np.sum(s > RANK_RTOL * max(s[0] if s.size else 0.0, 1e-300)))
            if rank < k:
                coef = vt[rank]
                vec = coef @ basis
                vec = vec / np.linalg.norm(vec)
                return canonical_sign(vec)
    vec = basis[0]
    return canonical_sign(vec / np.linalg.norm(vec))


def self_saturated_basis(spanning: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Orthonormal basis u_1..u_k of a self-saturated V with u_i <> u_j in R u_i u R u_j.

    Recursion: pick the max-zero-coordinate unit vector, split it off, and
    recurse on its orthogonal complement inside V.  Raises
    SelfSaturationError (with a witness pair) if V is not self-saturated.
    Output rows are sign-canonical and lexicographically sorted.
    """
    basis = _orthonormal_basis(spanning)
    if basis.shape[0] == 0:
        return basis
    ok, witness = is_self_saturated(basis, tol)
    if not ok:
        raise SelfSaturationError("subspace is not self-saturated", witness)
    chosen: list[np.ndarray] = []
    current = basis
    while current.shape[0] > 1:
        v = sparsest_unit_vector(current)
        chosen.append(v)
        # complement of v inside the current subspace
        proj = current - np.outer(current @ v, v)
        current = _orthonormal_basis(proj)
    if current.shape[0] == 1:
        chosen.append(canonical_sign(current[0] / np.linalg.norm(current[0])))
    out = np.array(chosen)
    return _lex_sorted(out)


def subalgebra_partition(spanning: np.ndarray, tol: float = 1e-8) -> list[tuple[int, ...]]:
    """Recover the set partition underlying a diamond-closed subspace.

    ``spanning`` must span a subspace U of R^n that contains the all-ones
    vector and is closed under the diamond product.  Such a U is a unital
    subalgebra of R^n, spanned by the indicators of its atoms: the classes
    of coordinates on which all of U agrees.  In an orthonormal basis of U
    the rows of the coordinates of one atom p coincide, and rows of
    different atoms are orthogonal of length 1/sqrt|p|, so the atoms are
    the groups of rows that agree within ``tol``.  Returns the parts as
    sorted tuples, ordered by their least element.  Raises ClosureError,
    with a witness pair when closure fails.
    """
    basis = _orthonormal_basis(spanning)
    n = basis.shape[1]
    if _off_span(basis, np.ones((1, n)) / np.sqrt(n))[0] > tol:
        raise ClosureError("subspace does not contain the all-ones vector")
    i, j = np.triu_indices(basis.shape[0])
    failed = np.flatnonzero(_off_span(basis, basis[i] * basis[j]) > tol)
    if failed.size:
        pair = failed[0]
        raise ClosureError(
            "subspace is not closed under the diamond product",
            (basis[i[pair]], basis[j[pair]]),
        )

    rows = basis.T
    atom = np.full(n, -1)
    for x in range(n):
        if atom[x] < 0:
            atom[(atom < 0) & (np.linalg.norm(rows - rows[x], axis=1) <= tol)] = x
    indicators = (atom == np.unique(atom)[:, None]).astype(float)
    if len(indicators) != basis.shape[0] or np.any(
        _off_span(_orthonormal_basis(indicators), basis) > tol
    ):
        raise ClosureError("indicator vectors do not span the subspace")
    return [tuple(int(x) for x in np.flatnonzero(row)) for row in indicators]
