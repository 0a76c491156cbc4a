"""Tests for product splitting, irreducible factors and connection operators."""

import functools

import numpy as np
import pytest

from ledger_obata.classify import classify_natred, go_family
from ledger_obata.errors import InvalidMetricError
from ledger_obata.metrics import MetricT, T_to_form, standard_metric, form_to_T
from ledger_obata.reduce import (
    Decomposition,
    _coupled,
    _part_ids,
    check_split,
    decompose,
    factor_metric,
)
from ledger_obata.report import decompose_report
from ledger_obata.serialize import dumps_numeric
from ledger_obata.liealg import so3
from ledger_obata.trees import enumerate_partition_pairs

from conftest import (
    DOUBLE_STAR_PAIR,
    SEVEN_SPLIT_PAIR,
    dense_nonreductive_metric,
    double_star_product,
    holonomy_generators,
    invariance_residual,
    laplacian_metric,
    random_pd_form,
    splitting_subspaces,
    worked_seven_metric,
)


def test_check_split_positive_reassembles_metric():
    metric = worked_seven_metric()
    outcome = check_split(metric, SEVEN_SPLIT_PAIR)
    assert outcome.ok
    assert outcome.first.m == 3
    assert outcome.second.m == 5


def test_check_split_reports_blocking_coupling():
    edges = [
        (1, 2, 1.0),
        (1, 3, 1.0),
        (2, 3, 1.0),
        (4, 6, 1.0),
        (4, 7, 1.0),
        (6, 7, 1.0),
        (1, 4, 1.0),
        (2, 5, 1.0),
        (3, 6, 0.5),
    ]
    metric = laplacian_metric(7, edges)
    outcome = check_split(metric, SEVEN_SPLIT_PAIR)
    assert not outcome.ok
    assert outcome.violation == (3, 6)
    assert outcome.violation_value == pytest.approx(-0.5)


def test_check_split_reports_first_blocked_pair_in_row_major_order():
    # every coupling of a dense metric is present, so every pair of copies
    # sharing no part is blocked; the report names the first one, i < j
    metric = dense_nonreductive_metric(np.random.default_rng(41), 5)

    def apart(partition, i, j):
        return not any(i in part and j in part for part in partition)

    pairs = enumerate_partition_pairs(5)
    for pair in pairs[:: max(len(pairs) // 40, 1)]:
        expected = next(
            (i, j)
            for i in range(1, 6)
            for j in range(i + 1, 6)
            if apart(pair.first, i, j) and apart(pair.second, i, j)
        )
        outcome = check_split(metric, pair)
        assert not outcome.ok
        assert outcome.violation == expected
        assert outcome.violation_value == metric.matrix[expected[0] - 1, expected[1] - 1]


def test_decompose_worked_seven_example():
    metric = worked_seven_metric()
    decomp = decompose(metric)
    assert sorted(decomp.factor_sizes) == [2, 2, 3, 3]
    assert decomp.is_reducible
    assert decomp.isometry_group_exponent == 10
    assert decompose_report(metric)["go_manifold"] is True
    for factor in decomp.factors:
        assert classify_natred(T_to_form(factor)).is_naturally_reductive
    # k = m + s - 1 with s irreducible factors
    assert decomp.isometry_group_exponent == 7 + len(decomp.factors) - 1


@functools.cache
def _pair_masks(m):
    """The admissible pairs on m copies, and the couplings each allows, (P, m, m).

    A pair allows a coupling of copies i and j when they share a part of
    one of its partitions: ``check_split``'s test, for every pair at once.
    """
    pairs = enumerate_partition_pairs(m)
    ids = np.array([[_part_ids(pair.first, m), _part_ids(pair.second, m)] for pair in pairs])
    return pairs, (ids[..., :, None] == ids[..., None, :]).any(axis=1)


def _scan_factors(metric, reverse=False, tol_split=1e-9):
    """The pair scan that ``decompose`` replaced: split at the first
    admissible pair, in canonical (or reversed) order, that ``check_split``
    accepts.  One mask test over all pairs finds that pair, and
    ``check_split`` makes the split."""
    factors = []

    def recurse(current):
        if current.m >= 3:
            pairs, allowed = _pair_masks(current.m)
            blocked = _coupled(current.matrix, tol_split) & ~allowed
            passing = np.flatnonzero(~blocked.any(axis=(1, 2)))
            if passing.size:
                index = passing[-1] if reverse else passing[0]
                outcome = check_split(current, pairs[index], tol_split)
                assert outcome.ok
                # the pair the scan tried just before fails
                before = index + 1 if reverse else index - 1
                if 0 <= before < len(pairs):
                    assert not check_split(current, pairs[before], tol_split).ok
                recurse(outcome.first)
                recurse(outcome.second)
                return
        factors.append(current)

    recurse(metric)
    return factors


def _spectra(factors):
    # the smallest eigenvalue is the kernel's zero; sort on the others
    return sorted((f.m, tuple(np.linalg.eigvalsh(f.matrix)[1:])) for f in factors)


def _assert_same_factors(factors, expected, rtol=1e-9):
    assert sorted(f.m for f in factors) == sorted(f.m for f in expected)
    for (m1, s1), (m2, s2) in zip(_spectra(factors), _spectra(expected)):
        assert m1 == m2
        scale = max(1.0, float(np.max(np.abs(s2))))
        assert np.max(np.abs(np.array(s1) - np.array(s2))) <= rtol * scale


def _random_sparse_metric(rng, m):
    """Weighted graph Laplacian on a random connected support; some
    couplings are positive (negative weights) while T stays a metric."""
    while True:
        edges = {(i, int(rng.integers(0, i))) for i in range(1, m)}
        for i in range(m):
            for j in range(i):
                if rng.uniform() < 0.3:
                    edges.add((i, j))
        t = np.zeros((m, m))
        for i, j in edges:
            w = rng.uniform(0.5, 2.0) if rng.uniform() < 0.8 else -rng.uniform(0.05, 0.3)
            t[i, j] = t[j, i] = -w
        np.fill_diagonal(t, -t.sum(axis=1))
        try:
            return MetricT(t)
        except InvalidMetricError:
            continue


def block_tree_metric(rng, sizes):
    """Product metric whose coupling graph is a tree of dense blocks.

    Each block is a random dense metric on its copies and hangs off one
    copy of an earlier block; the copies are then relabelled at random.
    Returns the metric and the blocks' own coefficient matrices, which are
    exactly the irreducible factors.
    """
    m = 1 + sum(s - 1 for s in sizes)
    t = np.zeros((m, m))
    blocks = []
    used = 1
    for size in sizes:
        members = [int(rng.integers(0, used))] + list(range(used, used + size - 1))
        used += size - 1
        block = form_to_T(random_pd_form(rng, size, floor=0.5)).matrix
        t[np.ix_(members, members)] += block
        blocks.append(MetricT(block))
    perm = rng.permutation(m)
    return MetricT(t[np.ix_(perm, perm)]), blocks


def _relabelled(metric, rng):
    perm = rng.permutation(metric.m)
    return MetricT(metric.matrix[np.ix_(perm, perm)])


def _submetrics(metric, decomp):
    """Replay the split records: the submetric each record splits, by path."""
    at = {"root": metric}
    for rec in decomp.records:
        current = at[rec.path]
        assert current.m == rec.m
        outcome = check_split(current, rec.pair)
        assert outcome.ok, (rec.path, rec.pair, outcome.violation)
        at[rec.path + ".1"] = outcome.first
        at[rec.path + ".2"] = outcome.second
    return at


def test_decompose_matches_pair_scan():
    rng = np.random.default_rng(61)
    cases = [
        worked_seven_metric(tuple(rng.uniform(0.5, 2.0, 6)), tuple(rng.uniform(0.5, 2.0, 2))),
        laplacian_metric(4, [(1, 4, 2.0), (2, 4, 1.0), (3, 4, 0.5)]),
        double_star_product(dense_nonreductive_metric(rng, 5).matrix),
    ]
    for m in (3, 4, 5, 6, 7):
        for _ in range(8 if m < 7 else 3):
            cases.append(_random_sparse_metric(rng, m))
    cases.append(block_tree_metric(rng, [3, 2, 3])[0])
    cases.append(block_tree_metric(rng, [2, 2, 3, 3])[0])
    variants = []
    for metric in cases:
        variants.append(metric)
        if metric.m < 7:
            variants.append(_relabelled(metric, rng))
            variants.append(MetricT(metric.matrix * float(rng.choice([1e-3, 7.5, 1e4]))))
    reducible_seen = set()
    for metric in variants:
        decomp = decompose(metric)
        forward = _scan_factors(metric)
        backward = _scan_factors(metric, reverse=True)
        _assert_same_factors(decomp.factors, forward)
        _assert_same_factors(decomp.factors, backward)
        k = sum(f.m for f in forward)
        assert decomp.isometry_group_exponent == k == metric.m + len(forward) - 1
        assert decomp.is_reducible == (len(forward) > 1)
        assert decompose_report(metric)["go_manifold"] == all(
            classify_natred(T_to_form(f)).is_naturally_reductive for f in forward
        )
        for rec in decomp.records:
            rec.pair.validate()
        _submetrics(metric, decomp)
        reducible_seen.add(decomp.is_reducible)
    assert reducible_seen == {True, False}


def test_decompose_matches_pair_scan_on_disconnected_coupling_graphs():
    # couplings of 1e-5 fall below a split tolerance of 1e-3, so the
    # coupling graph falls apart while T is still a metric.  Which factor
    # absorbs a dropped coupling depends on the split taken, in the scan
    # as well, so spectra agree to the size of the dropped couplings.
    weak = 1e-5
    triangles = [(1, 2, 1.0), (1, 3, 1.5), (2, 3, 0.8), (4, 5, 1.2), (4, 6, 0.9), (5, 6, 1.1)]
    cases = [
        laplacian_metric(6, triangles + [(3, 4, weak)]),
        laplacian_metric(6, triangles + [(1, 4, weak), (2, 6, weak)]),
        # copy 1 is isolated in the coupling graph
        laplacian_metric(5, [(1, 2, weak), (2, 3, 1.0), (3, 4, 0.7), (2, 4, 1.3), (4, 5, 0.6)]),
        laplacian_metric(4, [(1, 2, weak), (2, 3, weak), (3, 4, 1.0)]),
    ]
    for metric in cases:
        decomp = decompose(metric, tol_split=1e-3)
        for reverse in (False, True):
            expected = _scan_factors(metric, reverse, tol_split=1e-3)
            _assert_same_factors(decomp.factors, expected, rtol=10 * weak)
        assert decomp.is_reducible
        for rec in decomp.records:
            rec.pair.validate()


def test_decompose_block_tree_product_at_m40():
    rng = np.random.default_rng(40)
    sizes = [2, 5, 3, 2, 4, 2, 6, 3, 2, 3, 5, 2, 4, 2, 3, 4, 3, 2]
    metric, blocks = block_tree_metric(rng, sizes)
    assert metric.m == 40
    decomp = decompose(metric)
    assert sorted(decomp.factor_sizes) == sorted(sizes)
    _assert_same_factors(decomp.factors, blocks)
    assert decomp.isometry_group_exponent == 40 + len(sizes) - 1
    assert len(decomp.records) == len(sizes) - 1
    _submetrics(metric, decomp)
    for rec in decomp.records:
        m1, m2 = rec.pair.factor_sizes
        assert m1 + m2 == rec.m + 1 and min(m1, m2) >= 2


def test_decompose_dense_m30_is_irreducible():
    metric = dense_nonreductive_metric(np.random.default_rng(30), 30)
    decomp = decompose(metric)
    assert decomp.factor_sizes == (30,)
    assert decomp.records == ()
    assert not decomp.is_reducible
    assert decomp.isometry_group_exponent == 30


def test_diagonal_metric_splits_into_edges():
    metric = form_to_T(random_pd_form(np.random.default_rng(3), 2))
    assert not decompose(metric).is_reducible

    diag = laplacian_metric(4, [(1, 4, 2.0), (2, 4, 1.0), (3, 4, 0.5)])
    decomp = decompose(diag)
    assert sorted(decomp.factor_sizes) == [2, 2, 2]
    assert decomp.isometry_group_exponent == 6


def test_exponent_bounds_and_irreducible_case():
    rng = np.random.default_rng(7)
    for m in (3, 4, 5):
        dense = dense_nonreductive_metric(rng, m)
        decomp = decompose(dense)
        assert decomp.factor_sizes == (m,)
        assert not decomp.is_reducible
        assert decomp.isometry_group_exponent == m
        if m >= 4:
            # a dense generic block is not naturally reductive once m > 3
            assert decompose_report(dense)["go_manifold"] is False
    for m in (3, 4, 5, 6):
        k = decompose(standard_metric(m)).isometry_group_exponent
        assert m <= k <= 2 * (m - 1)


def test_double_star_split_recovers_inner_block():
    rng = np.random.default_rng(11)
    inner = dense_nonreductive_metric(rng, 5).matrix
    metric = double_star_product(inner, u1=0.8, u2=1.3)
    outcome = check_split(metric, DOUBLE_STAR_PAIR)
    assert outcome.ok
    assert outcome.second.m == 5
    assert np.max(np.abs(outcome.second.matrix - inner)) < 1e-12
    decomp = decompose(metric)
    assert sorted(decomp.factor_sizes) == [2, 2, 5]
    assert decomp.isometry_group_exponent == 9
    assert decompose_report(metric)["go_manifold"] is False


def test_factor_metric_compression():
    metric = worked_seven_metric()
    part = SEVEN_SPLIT_PAIR.first
    factor = factor_metric(metric, part)
    assert factor.m == len(part)
    x = np.zeros((7, len(part)))
    for pi, p in enumerate(part):
        for label in p:
            x[label - 1, pi] = 1.0
    assert np.allclose(factor.matrix, x.T @ metric.matrix @ x)


def test_holonomy_isotropy_blocks(backend):
    metric, _, _ = go_family(np.array([1.0, 2.0, 3.0, 4.5]), rho=1.0, lam=0.1)
    ops, eigen = holonomy_generators(metric, backend)
    n = metric.m - 1
    d = backend.dim
    assert len(ops) == d + n * d
    for p in range(d):
        expected = 2.0 * np.kron(np.eye(n), np.einsum("i,ijk->kj", np.eye(d)[p], backend.c))
        assert np.array_equal(ops[p], expected)


def test_holonomy_tangent_blocks_independent_formula(backend):
    metric, _, _ = go_family(np.array([0.8, 1.7, 2.9, 3.4]), rho=1.2, lam=0.05)
    ops, eigen = holonomy_generators(metric, backend)
    v = eigen.system.vectors
    gammas = eigen.system.gammas
    n, m = v.shape
    d = backend.dim
    coupling = np.zeros((n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                coupling[k, i, j] = float(np.sum(v[k] * v[i] * v[j]))
    big_a = np.kron(np.diag(gammas), np.eye(d))
    big_a_inv = np.kron(np.diag(1.0 / gammas), np.eye(d))
    for k in range(n):
        for p in range(d):
            dmat = np.kron(coupling[k].T, np.einsum("i,ijk->kj", np.eye(d)[p], backend.c))
            expected = dmat + big_a_inv @ dmat @ big_a - gammas[k] * (big_a_inv @ dmat)
            assert np.max(np.abs(ops[d + k * d + p] - expected)) < 1e-12


def test_invariance_residual_detects_splitting(backend):
    metric = worked_seven_metric()
    ops, eigen = holonomy_generators(metric, backend)
    rows1, rows2 = splitting_subspaces(SEVEN_SPLIT_PAIR, 7)
    assert rows1.shape == (2, 7)
    assert rows2.shape == (4, 7)
    assert np.allclose(rows1 @ rows1.T, np.eye(2), atol=1e-12)
    assert np.allclose(rows2 @ rows2.T, np.eye(4), atol=1e-12)
    # together the two tangent spaces fill the zero-sum hyperplane
    stacked = np.vstack([rows1, rows2])
    svals = np.linalg.svd(stacked, compute_uv=False)
    assert svals[5] > 1e-8
    assert invariance_residual(ops, rows1, eigen, backend.dim) < 1e-8
    assert invariance_residual(ops, rows2, eigen, backend.dim) < 1e-8

    rng = np.random.default_rng(19)
    raw = rng.normal(size=(2, 7))
    raw -= raw.mean(axis=1, keepdims=True)
    q, _ = np.linalg.qr(raw.T)
    random_rows = q.T[:2]
    assert invariance_residual(ops, random_rows, eigen, backend.dim) > 1e-3


BOWTIE = [(1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0), (3, 4, 1.0), (3, 5, 1.0), (4, 5, 1.0)]


@pytest.mark.parametrize(
    "metric",
    [
        worked_seven_metric(),
        double_star_product(
            dense_nonreductive_metric(np.random.default_rng(11), 5).matrix, u1=0.8, u2=1.3
        ),
        laplacian_metric(5, BOWTIE),
    ],
    ids=["worked-seven", "double-star", "bowtie"],
)
def test_the_root_split_of_decompose_is_holonomy_invariant(metric, backend):
    # de Rham: the tangent spaces of the two factors of a product are parallel
    (root,) = [rec for rec in decompose(metric).records if rec.path == "root"]
    ops, eigen = holonomy_generators(metric, backend)
    rng = np.random.default_rng(metric.m)
    for rows in splitting_subspaces(root.pair, metric.m):
        assert invariance_residual(ops, rows, eigen, backend.dim) < 1e-8
        # a random zero-sum subspace of the same dimension is not parallel
        raw = rng.normal(size=rows.shape)
        raw -= raw.mean(axis=1, keepdims=True)
        random_rows = np.linalg.qr(raw.T)[0].T
        assert invariance_residual(ops, random_rows, eigen, backend.dim) > 1e-3


def test_decompose_report_is_json_ready():
    report = decompose_report(worked_seven_metric())
    assert report["m"] == 7
    assert report["reducible"] is True
    assert sorted(report["factor_sizes"]) == [2, 2, 3, 3]
    assert report["isometry_group_k"] == 10
    assert report["go_manifold"] is True
    assert all(rec["path"].startswith("root") for rec in report["splits"])
    for factor in report["factors"]:
        assert factor["natred"]["naturally_reductive"] is True
    text = dumps_numeric(report)
    assert '"isometry_group_k": 10' in text
