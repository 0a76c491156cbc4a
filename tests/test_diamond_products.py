"""Batched diamond-product checks against the pair loops they replaced.

``is_super_adapted``, ``is_self_saturated``, ``subalgebra_partition`` and the
compatibility constants of ``classify_go`` measure all pairwise diamond
products at once.  The loops below are the earlier one-pair-at-a-time
implementations, kept as the reference: verdicts, witnesses, ``worst_pair``,
the projection coefficients, constants and reasons must agree bit for bit.
The coefficients are dot products of length m.  numpy does not promise that
the batched matmul sums them in the order of the loop's dot; with OpenBLAS's
Haswell kernels it does for m < 16, the range compared bitwise, which keeps
the digits of the reports.  Beyond it they differ in the last bit.
"""

import numpy as np
import pytest

from ledger_obata.classify import classify_go, go_family
from ledger_obata.coeff import (
    AdaptedSystem,
    _orthonormal_basis,
    cluster_indices,
    diamond_tensor,
    is_self_saturated,
    is_super_adapted,
    subalgebra_partition,
)
from ledger_obata.errors import ClosureError, LedgerObataError
from ledger_obata.metrics import eigendecompose, metric_from_system, zero_sum_basis


def project_onto(rows, x):
    if rows.shape[0] == 0:
        return np.zeros_like(x)
    return rows.T @ (rows @ x)


def super_adapted_by_loop(system, tol=1e-8, cluster_tol=1e-8):
    v = system.vectors
    n = v.shape[0]
    label = np.empty(n, dtype=int)
    for ci, cl in enumerate(cluster_indices(system.gammas, cluster_tol)):
        label[cl] = ci
    on_first = np.zeros((n, n))
    on_second = np.zeros((n, n))
    max_res = 0.0
    worst = None
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            prod = v[i] * v[j]
            ci = float(prod @ v[i])
            cj = float(prod @ v[j])
            on_first[i, j] = ci
            on_second[i, j] = cj
            if label[i] != label[j]:
                res = float(np.linalg.norm(prod - ci * v[i] - cj * v[j]))
                if res > max_res:
                    max_res = res
                    worst = (i, j)
    return max_res <= tol, on_first, on_second, max_res, worst


def self_saturated_by_loop(spanning, tol=1e-8):
    basis = _orthonormal_basis(spanning)
    k = basis.shape[0]
    for i in range(k):
        for j in range(i + 1, k):
            prod = basis[i] * basis[j]
            if np.linalg.norm(prod - project_onto(basis, prod)) > tol:
                return False, (basis[i], basis[j])
            diff = basis[i] * basis[i] - basis[j] * basis[j]
            if np.linalg.norm(diff - project_onto(basis, diff)) > tol:
                root2 = np.sqrt(2.0)
                return False, ((basis[i] + basis[j]) / root2, (basis[i] - basis[j]) / root2)
    return True, None


def partition_by_loop(spanning, tol=1e-8):
    """Parts, or the ClosureError message and witness, as the loops found them."""
    basis = _orthonormal_basis(spanning)
    n = basis.shape[1]
    ones = np.ones(n) / np.sqrt(n)
    if np.linalg.norm(ones - project_onto(basis, ones)) > tol:
        return "subspace does not contain the all-ones vector", None
    k = basis.shape[0]
    for i in range(k):
        for j in range(i, k):
            prod = basis[i] * basis[j]
            if np.linalg.norm(prod - project_onto(basis, prod)) > tol:
                return "subspace is not closed under the diamond product", (basis[i], basis[j])
    rows = basis.T
    atom = np.full(n, -1)
    for x in range(n):
        if atom[x] < 0:
            atom[(atom < 0) & (np.linalg.norm(rows - rows[x], axis=1) <= tol)] = x
    indicators = (atom == np.unique(atom)[:, None]).astype(float)
    ind_basis = _orthonormal_basis(indicators)
    if len(indicators) != k or any(
        np.linalg.norm(row - project_onto(ind_basis, row)) > tol for row in basis
    ):
        return "indicator vectors do not span the subspace", None
    return [tuple(int(x) for x in np.flatnonzero(row)) for row in indicators]


def classify_go_by_loop(metric, tol=1e-8, cluster_tol=1e-8):
    """(verdict, reason, constants) of the per-direction constants loop."""
    eigen = eigendecompose(metric, cluster_tol)
    system = eigen.system
    n = system.vectors.shape[0]
    multi = [cl for cl in eigen.clusters if len(cl) > 1]
    for cl, saturated in zip(eigen.clusters, eigen.self_saturated):
        if not saturated:
            gamma = system.gammas[cl[0]]
            return "no", f"eigenspace of weight {gamma:.12g} is not self-saturated", None
    ok, _, on_second, _, worst = super_adapted_by_loop(system, tol, cluster_tol)
    if not ok:
        if multi:
            return "indeterminate", (
                f"cross-cluster span test failed at pair {worst} with repeated eigenvalues present"
            ), None
        return "no", f"span test failed at pair {worst}", None
    label = np.empty(n, dtype=int)
    for ci, cl in enumerate(eigen.clusters):
        label[list(cl)] = ci
    cluster_size = {ci: len(cl) for ci, cl in enumerate(eigen.clusters)}
    gammas = system.gammas
    constants = np.zeros(n)
    for i in range(n):
        values = [
            (1.0 - gammas[i] / gammas[j]) * on_second[i, j]
            for j in range(n)
            if label[j] != label[i]
        ]
        if cluster_size[label[i]] > 1:
            bad = [v for v in values if abs(v) > tol]
            if bad:
                return "no", (
                    f"direction {i} sits in a repeated eigenvalue but has "
                    f"nonzero compatibility value {bad[0]:.3e}"
                ), None
        elif values:
            spread = max(values) - min(values)
            if spread > tol:
                return "no", f"compatibility values for direction {i} spread by {spread:.3e}", None
            constants[i] = float(np.mean(values))
    return "yes", "", constants


def seeded_systems(seed, count=60, sizes=range(3, 16)):
    """Adapted systems reaching every outcome of ``classify_go``.

    Row sets: the zero-sum chain on relabelled copies, a super-adapted
    family, a random rotation, and the chain with its trailing rows rotated.
    The weights are distinct, or equal on one run of rows; on a run of chain
    rows the eigenspace is self-saturated.
    """
    rng = np.random.default_rng([1010, seed])
    sizes = list(sizes)
    out = []
    while len(out) < count:
        m = int(rng.choice(sizes))
        kind = int(rng.integers(0, 4))
        if kind == 0:
            v = zero_sum_basis(m)[:, rng.permutation(m)]
        elif kind == 1:
            v = go_family(np.sort(rng.uniform(0.5, 4.0, m)), 1.0, 0.0)[1].vectors
        elif kind == 2:
            v = np.linalg.qr(rng.normal(size=(m - 1, m - 1)))[0] @ zero_sum_basis(m)
        else:
            v = zero_sum_basis(m)
            k = int(rng.integers(1, m - 1))
            v[k:] = np.linalg.qr(rng.normal(size=(m - 1 - k,) * 2))[0] @ v[k:]
        gammas = rng.uniform(1.0, 3.0, size=m - 1)
        if rng.random() < 0.5:
            start = int(rng.integers(0, m - 2))
            gammas[start:int(rng.integers(start + 2, m))] = gammas[start]
        try:
            out.append(AdaptedSystem(v, gammas))
            metric_from_system(out[-1])
        except LedgerObataError:
            out.pop()
    return out


def assert_pairs_equal(got, want):
    if want is None:
        assert got is None
    else:
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("seed", range(5))
def test_super_adapted_matches_pair_loop(seed):
    for system in seeded_systems(seed):
        ok, check = is_super_adapted(system)
        want = super_adapted_by_loop(system)
        assert (ok, check.max_residual, check.worst_pair) == (want[0], want[3], want[4])
        assert np.array_equal(check.on_first, want[1])
        assert np.array_equal(check.on_second, want[2])
        # the same pairs again, on each eigenbasis that classify_go measures
        eigen = eigendecompose(metric_from_system(system))
        ok, check = is_super_adapted(eigen.system)
        want = super_adapted_by_loop(eigen.system)
        assert (ok, check.max_residual, check.worst_pair) == (want[0], want[3], want[4])
        assert np.array_equal(check.on_first, want[1])
        assert np.array_equal(check.on_second, want[2])


def test_super_adapted_agrees_with_pair_loop_to_rounding_beyond_m15():
    for system in seeded_systems(0, count=20, sizes=range(16, 21)):
        ok, check = is_super_adapted(system)
        want = super_adapted_by_loop(system)
        assert ok == want[0]
        assert np.max(np.abs(check.on_first - want[1])) <= 1e-15
        assert np.max(np.abs(check.on_second - want[2])) <= 1e-15
        assert abs(check.max_residual - want[3]) <= 1e-15


def test_classify_go_matches_constants_loop():
    reasons = set()
    for seed in range(5):
        for system in seeded_systems(seed):
            metric = metric_from_system(system)
            result = classify_go(metric)
            verdict, reason, constants = classify_go_by_loop(metric)
            assert (result.verdict.value, result.reason) == (verdict, reason)
            if constants is not None:
                assert np.array_equal(result.certificate.constants, constants)
            reasons.add(f"{verdict}: {reason.split(' ')[0]}")
    # the seeded systems reach every outcome of the classifier
    assert reasons == {
        "yes: ",
        "no: eigenspace",
        "no: span",
        "indeterminate: cross-cluster",
        "no: direction",
        "no: compatibility",
    }


def subspaces(seed):
    """Spanning sets: self-saturated, failing at a product, failing at a square difference."""
    rng = np.random.default_rng([2020, seed])
    out = []
    for _ in range(40):
        m = int(rng.integers(3, 16))
        k = int(rng.integers(1, m))
        kind = int(rng.integers(0, 3))
        if kind == 0:
            # zero-sum vectors constant on the atoms of a random partition
            labels = rng.integers(0, k + 1, size=m)
            spanning = np.eye(m)[labels].T[np.unique(labels)]
            spanning = spanning - spanning.mean(axis=1, keepdims=True)
        elif kind == 1:
            spanning = rng.normal(size=(k, m))
            spanning -= spanning.mean(axis=1, keepdims=True)
        else:
            # differences on disjoint pairs, scaled apart so that the SVD
            # keeps them: their products vanish, their squares do not
            perm = rng.permutation(m)
            spanning = np.zeros((m // 2, m))
            for r in range(m // 2):
                spanning[r, perm[2 * r]] = r + 1.0
                spanning[r, perm[2 * r + 1]] = -(r + 1.0)
        if kind < 2:
            mixing = rng.normal(size=(len(spanning) + int(rng.integers(0, 2)), len(spanning)))
            spanning = mixing @ spanning
        out.append(spanning)
    return out


@pytest.mark.parametrize("seed", range(5))
def test_self_saturated_matches_pair_loop(seed):
    kinds = set()
    for spanning in subspaces(seed):
        ok, witness = is_self_saturated(spanning)
        want_ok, want_witness = self_saturated_by_loop(spanning)
        assert ok == want_ok
        assert_pairs_equal(witness, want_witness)
        if not ok:
            basis = _orthonormal_basis(spanning)
            kinds.add(any(np.array_equal(witness[0], row) for row in basis))
        else:
            kinds.add("saturated")
    # a failing product gives basis rows, a failing square difference does not
    assert kinds == {"saturated", True, False}


def partition_inputs(seed):
    """Indicator spans, spans missing the ones vector, open spans, near-closed spans."""
    rng = np.random.default_rng([3030, seed])
    out = []
    for _ in range(40):
        n = int(rng.integers(4, 16))
        kind = int(rng.integers(0, 4))
        labels = rng.integers(0, int(rng.integers(1, n + 1)), size=n)
        indicators = np.eye(n)[labels].T[np.unique(labels)]
        if kind == 0:
            spanning = indicators
        elif kind == 1:
            spanning = indicators - indicators.mean(axis=1, keepdims=True)
        elif kind == 2:
            spanning = np.vstack([np.ones(n), rng.normal(size=(1, n))])
        else:
            # three values, two of them 1e-8 to 3e-7 apart: the closure and
            # atom tests fall on either side of tol
            x = np.zeros(n)
            x[: n // 2] = 1.0
            x[n // 2:] = -1.0
            x[-1] += 10.0 ** rng.uniform(-8.0, -6.5)
            spanning = np.vstack([np.ones(n), x])
        out.append(rng.normal(size=(len(spanning) + int(rng.integers(0, 2)), len(spanning)))
                   @ spanning)
    return out


@pytest.mark.parametrize("seed", range(5))
def test_subalgebra_partition_matches_pair_loop(seed):
    outcomes = set()
    for spanning in partition_inputs(seed):
        want = partition_by_loop(spanning)
        try:
            got = subalgebra_partition(spanning)
        except ClosureError as exc:
            assert isinstance(want, tuple)
            assert str(exc) == want[0]
            assert_pairs_equal(exc.witness, want[1])
            outcomes.add(want[0])
        else:
            assert got == want
            outcomes.add("parts")
    if seed == 0:
        assert len(outcomes) == 4


def test_diamond_tensor_entries():
    for system in seeded_systems(7, count=10, sizes=range(3, 7)):
        v = system.vectors
        n = len(v)
        want = np.array([(v[i] * v[j]) @ v[k] for i, j, k in np.ndindex(n, n, n)])
        assert np.array_equal(diamond_tensor(v), want.reshape(n, n, n))
