"""Splitting metrics into products and the full isometry group.

A metric splits along an admissible partition pair when every nonzero
off-diagonal coupling joins two copies lying in a common part of one of the
two partitions.  Each factor metric is the compression of the coupling
matrix onto part-indicator columns.  A metric splits exactly when its
coupling graph has a cut vertex, and recursive splitting at cut vertices
yields the irreducible factors; the connected isometry group of the
product is the power F^k with k the sum of the factor orders, equivalently
m + s - 1 for s irreducible factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .classify import NatRedResult, classify_natred, natred_report
from .coeff import _orthonormal_basis, diamond_tensor, project_zero_sum
from .liealg import StructureConstants, ad_rows, default_backend
from .metrics import EigenData, MetricT, T_to_form, eigendecompose
from .trees import Partition, PartitionPair, _canon

SPLIT_RTOL = 1e-9


def _part_ids(partition: Partition, m: int) -> np.ndarray:
    ids = np.full(m, -1, dtype=int)
    for pi, part in enumerate(partition):
        for label in part:
            ids[label - 1] = pi
    return ids


@dataclass(frozen=True)
class SplitOutcome:
    """Result of testing one partition pair against a metric.

    On success ``summand_first`` and ``summand_second`` carry the two
    coupling matrices whose sum recovers the metric (each supported on one
    partition's parts, diagonals fixed for zero row sums), and ``first``,
    ``second`` hold the compressed factor metrics.
    """

    ok: bool
    pair: PartitionPair
    first: MetricT | None = None
    second: MetricT | None = None
    summand_first: np.ndarray | None = None
    summand_second: np.ndarray | None = None
    violation: tuple[int, int] | None = None
    violation_value: float = 0.0


def factor_metric(metric: MetricT, partition: Partition) -> MetricT:
    """Compress the coupling matrix onto the parts of one partition.

    Column p of the indicator matrix marks the copies in part p; the
    compressed matrix keeps zero row sums and positive definiteness on the
    zero-sum subspace automatically.
    """
    x = (_part_ids(partition, metric.m)[:, None] == np.arange(len(partition))).astype(float)
    return MetricT(x.T @ metric.matrix @ x)


def _coupled(t: np.ndarray, tol_split: float) -> np.ndarray:
    """Couplings of distinct copies: |t_ij| above ``tol_split`` times the largest |t|.

    ``check_split`` and the coupling graph of ``decompose`` both read this
    matrix, so a cut that one finds the other certifies.
    """
    coupled = np.abs(t) > tol_split * float(np.max(np.abs(t)))
    np.fill_diagonal(coupled, False)
    return coupled


def _summand(t: np.ndarray, keep: np.ndarray) -> np.ndarray:
    out = np.where(keep, t, 0.0)
    np.fill_diagonal(out, -out.sum(axis=1))
    return out


def check_split(
    metric: MetricT, pair: PartitionPair, tol_split: float = SPLIT_RTOL
) -> SplitOutcome:
    """Split the metric along the pair, or report the first blocked coupling.

    ``tol_split`` is relative to the largest matrix entry: couplings below
    it count as absent.  Success requires every surviving coupling to join
    two copies sharing a part of one of the partitions; the two summands
    then reassemble the metric exactly up to dropped couplings.  The
    reported violation is the first blocked pair (i, j), i < j, in
    row-major order.
    """
    t = metric.matrix
    m = metric.m
    coupled = _coupled(t, tol_split)
    ids1 = _part_ids(pair.first, m)
    ids2 = _part_ids(pair.second, m)
    same1 = ids1[:, None] == ids1[None, :]
    same2 = ids2[:, None] == ids2[None, :]
    blocked = coupled & ~(same1 | same2)
    if blocked.any():
        # blocked is symmetric, so its first entry in row-major order has i < j
        i, j = np.unravel_index(np.argmax(blocked), blocked.shape)
        return SplitOutcome(
            False, pair, violation=(i + 1, j + 1), violation_value=float(t[i, j])
        )
    return SplitOutcome(
        True,
        pair,
        first=factor_metric(metric, pair.first),
        second=factor_metric(metric, pair.second),
        summand_first=_summand(t, coupled & same1),
        summand_second=_summand(t, coupled & same2),
    )


@dataclass(frozen=True)
class SplitRecord:
    """One recursive split: ``path`` locates the submetric ('root', 'root.1', ...)."""

    path: str
    m: int
    pair: PartitionPair


@dataclass(frozen=True)
class Decomposition:
    factors: tuple[MetricT, ...]
    records: tuple[SplitRecord, ...]

    @property
    def factor_sizes(self) -> tuple[int, ...]:
        return tuple(f.m for f in self.factors)

    @property
    def is_reducible(self) -> bool:
        return len(self.factors) > 1

    @property
    def isometry_group_exponent(self) -> int:
        """The connected isometry group is F^k for this k."""
        return sum(self.factor_sizes)

    def factor_classifications(self, tol: float = 1e-8) -> tuple[NatRedResult, ...]:
        return tuple(classify_natred(T_to_form(f), tol) for f in self.factors)

    def is_go_manifold(self, tol: float = 1e-8) -> bool:
        """Geodesic orbit with respect to the full isometry group holds
        exactly when every irreducible factor is naturally reductive."""
        return all(r.is_naturally_reductive for r in self.factor_classifications(tol))


def _coupling_graph(metric: MetricT, tol_split: float) -> list[list[int]]:
    """Neighbour lists of the copies, joined where ``check_split`` sees a coupling."""
    return [np.flatnonzero(row).tolist() for row in _coupled(metric.matrix, tol_split)]


def _cut(neighbours: list[list[int]]) -> tuple[int, list[int]] | None:
    """A copy c and a component C of G - c that leaves G - c - C nonempty.

    Iterative Hopcroft-Tarjan depth-first search from copy 0: a child v of
    u with low[v] >= disc[u] roots a component of G - u, and the first one
    found is a leaf block of G less its cut vertex.  If copy 0 is isolated
    in a disconnected G, the search finds no such child, and copy 0 is
    split off at the first copy outside it.  None means G - c is connected
    for every c.
    """
    m = len(neighbours)
    disc = [-1] * m
    low = [0] * m
    size = [1] * m
    parent = [-1] * m
    order = [0]
    disc[0] = 0
    stack = [(0, iter(neighbours[0]))]
    while stack:
        u, rest = stack[-1]
        for v in rest:
            if disc[v] < 0:
                disc[v] = low[v] = len(order)
                parent[v] = u
                order.append(v)
                stack.append((v, iter(neighbours[v])))
                break
            low[u] = min(low[u], disc[v])
        else:
            stack.pop()
            p = parent[u]
            if p < 0:
                continue
            low[p] = min(low[p], low[u])
            size[p] += size[u]
            if low[u] >= disc[p] and size[u] + 1 < m:
                return p, order[disc[u] : disc[u] + size[u]]
    if len(order) + 1 < m:
        return min(set(range(m)) - set(order)), order
    return None


def _cut_pair(c: int, component: list[int], m: int) -> PartitionPair:
    """The double-star pair that cuts G at copy c (0-based) around ``component``.

    ``first`` keeps the copies of the component apart and merges c with
    the rest; ``second`` merges c with the component and keeps the rest
    apart.
    """
    inside = set(component)
    # partitions take 1-based labels
    cut, block = c + 1, [x + 1 for x in component]
    rest = [x + 1 for x in range(m) if x != c and x not in inside]
    return PartitionPair(
        _canon([[x] for x in block] + [[cut, *rest]]),
        _canon([[cut, *block]] + [[x] for x in rest]),
    )


def decompose(metric: MetricT, tol_split: float = SPLIT_RTOL) -> Decomposition:
    """Recursively split into irreducible factors.

    ``check_split`` accepts a pair exactly when the coupling graph G fits
    in the line graph of the pair's tree, and a line graph is a block graph
    whose blocks are the tree's stars.  So a metric splits exactly when G
    has a cut vertex, and the irreducible factors are the compressions
    onto the blocks of G.  Each level recomputes G at its own threshold,
    cuts off one leaf block with ``_cut_pair`` and certifies the pair with
    ``check_split``; the first factor of a split is that block.  Factors
    and records come in depth-first order, first factor before second.
    """
    factors: list[MetricT] = []
    records: list[SplitRecord] = []

    pending = [(metric, "root")]
    while pending:
        current, path = pending.pop()
        cut = _cut(_coupling_graph(current, tol_split))
        if cut is None:
            factors.append(current)
            continue
        pair = _cut_pair(*cut, current.m)
        outcome = check_split(current, pair, tol_split)
        if not outcome.ok:
            raise RuntimeError(
                f"internal error: cut-vertex pair {pair} blocked at {outcome.violation}"
            )
        records.append(SplitRecord(path, current.m, pair))
        pending.append((outcome.second, path + ".2"))
        pending.append((outcome.first, path + ".1"))
    return Decomposition(tuple(factors), tuple(records))


def is_reducible(metric: MetricT, tol_split: float = SPLIT_RTOL) -> bool:
    return decompose(metric, tol_split).is_reducible


def isometry_group_exponent(metric: MetricT, tol_split: float = SPLIT_RTOL) -> int:
    """Exponent k with connected isometry group F^k; m <= k <= 2(m-1)."""
    return decompose(metric, tol_split).isometry_group_exponent


def go_manifold(
    metric: MetricT, tol: float = 1e-8, tol_split: float = SPLIT_RTOL
) -> bool:
    """True when every irreducible factor is naturally reductive."""
    return decompose(metric, tol_split).is_go_manifold(tol)


# -- connection operators and invariance of a splitting ----------------------


def holonomy_generators(
    metric: MetricT,
    backend: StructureConstants | None = None,
    cluster_tol: float = 1e-8,
) -> tuple[list[np.ndarray], EigenData]:
    """Connection operators (doubled) over a concrete backend algebra.

    Operators act on coefficient space indexed by (i, q) -> i * d + q where
    i runs over the eigen directions b^1..b^(m-1) and q over the backend
    basis.  Isotropy directions contribute 2 ad_q blocks; the direction
    b^k tensor E_p sends b^i tensor E_q to
    sum_j ((gamma_i + gamma_j - gamma_k) / gamma_j)
    ((b^k <> b^i) . b^j) b^j tensor [E_p, E_q].
    """
    sc = backend if backend is not None else default_backend()
    eigen = eigendecompose(metric, cluster_tol)
    vectors = eigen.system.vectors
    gammas = eigen.system.gammas
    ads = ad_rows(sc, np.eye(sc.dim))  # ad E_p at [p]
    ops = [2.0 * np.kron(np.eye(len(vectors)), ad) for ad in ads]
    coupling = diamond_tensor(vectors)  # (b^k <> b^i) . b^j at [k, i, j]
    for k in range(len(vectors)):
        weight = (gammas[None, :] + gammas[:, None] - gammas[k]) / gammas[None, :]
        ops.extend(np.kron((coupling[k] * weight).T, ad) for ad in ads)
    return ops, eigen


def splitting_subspaces(
    pair: PartitionPair, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """Tangent subspaces of the two factors inside the zero-sum space.

    The factor built from one partition is tangent along vectors constant
    on each part of that partition, projected to zero mean.  Returns
    orthonormal row bases, dims m1 - 1 and m2 - 1.
    """

    def span(partition: Partition) -> np.ndarray:
        indicators = _part_ids(partition, m) == np.arange(len(partition))[:, None]
        return _orthonormal_basis(project_zero_sum(indicators))

    return span(pair.first), span(pair.second)


def invariance_residual(
    ops: Sequence[np.ndarray],
    subspace_rows: np.ndarray,
    eigen: EigenData,
    dim_backend: int,
) -> float:
    """Largest leakage of the operators out of the given tangent subspace.

    ``subspace_rows`` is an orthonormal basis in the zero-sum space; it is
    rewritten in the eigen coordinates and tensored with the backend space.
    """
    coeff = subspace_rows @ eigen.system.vectors.T
    proj = np.kron(coeff.T @ coeff, np.eye(dim_backend))
    comp = np.eye(proj.shape[0]) - proj
    worst = 0.0
    for op in ops:
        worst = max(worst, float(np.max(np.abs(comp @ op @ proj))))
    return worst


def decompose_report(
    metric: MetricT, tol: float = 1e-8, tol_split: float = SPLIT_RTOL
) -> dict:
    """JSON-ready summary of the decomposition and the group it certifies."""
    decomp = decompose(metric, tol_split)
    results = decomp.factor_classifications(tol)
    factors = [
        {"m": factor.m, "T": factor.matrix, "natred": natred_report(result)}
        for factor, result in zip(decomp.factors, results)
    ]
    return {
        "m": metric.m,
        "reducible": decomp.is_reducible,
        "factor_sizes": list(decomp.factor_sizes),
        "factors": factors,
        "isometry_group_k": decomp.isometry_group_exponent,
        # is_go_manifold(tol) without classifying every factor again
        "go_manifold": all(r.is_naturally_reductive for r in results),
        "splits": [
            {
                "path": rec.path,
                "m": rec.m,
                "first": [list(p) for p in rec.pair.first],
                "second": [list(p) for p in rec.pair.second],
                "tree_edges": [list(e) for e in rec.pair.tree_edges()],
            }
            for rec in decomp.records
        ],
    }
