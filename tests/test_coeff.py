"""Tests for the coefficient-space calculus helpers."""

import numpy as np
import pytest

from ledger_obata.coeff import (
    AdaptedSystem,
    canonical_sign,
    cluster_indices,
    is_adapted,
    is_self_saturated,
    is_super_adapted,
    self_saturated_basis,
    subalgebra_partition,
)
from ledger_obata.errors import ClosureError, InputError, SelfSaturationError


def zero_sum_chain(m):
    """Classical orthonormal basis of the zero-sum hyperplane in R^m."""
    rows = []
    for k in range(1, m):
        v = np.zeros(m)
        v[:k] = 1.0
        v[k] = -float(k)
        rows.append(v / np.linalg.norm(v))
    return np.array(rows)


def hadamard_rows():
    """Three orthonormal zero-sum vectors whose products leave any 2-dim span."""
    return np.array(
        [
            [1.0, 1.0, -1.0, -1.0],
            [1.0, -1.0, 1.0, -1.0],
            [1.0, -1.0, -1.0, 1.0],
        ]
    ) / 2.0


def test_adapted_system_validates_shapes():
    chain = zero_sum_chain(4)
    with pytest.raises(InputError):
        AdaptedSystem(vectors=chain, gammas=np.ones(2))
    with pytest.raises(InputError):
        AdaptedSystem(vectors=chain[:2], gammas=np.ones(2))


def test_adapted_system_arrays_read_only():
    system = AdaptedSystem(vectors=zero_sum_chain(3), gammas=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        system.vectors[0, 0] = 5.0
    assert system.m == 3


def test_is_adapted_accepts_chain_rejects_perturbation():
    chain = zero_sum_chain(5)
    assert is_adapted(AdaptedSystem(chain, np.ones(4)))
    bent = chain.copy()
    bent[0] = bent[0] + 1e-3
    assert not is_adapted(AdaptedSystem(bent, np.ones(4)))


def test_cluster_indices_groups_values():
    values = np.array([1.0, 2.0, 1.0 + 1e-12, 5.0])
    clusters = cluster_indices(values, cluster_tol=1e-8)
    assert sorted(map(sorted, clusters)) == [[0, 2], [1], [3]]
    # everything merges when the tolerance swallows the gaps
    assert len(cluster_indices(values, cluster_tol=10.0)) == 1


def test_cluster_indices_is_scale_free_down_to_subnormals():
    values = np.array([1.0, 2.0, 1.0 + 1e-12, 5.0])
    for scale in (1e-300, 1e-310):
        assert cluster_indices(scale * values) == cluster_indices(values)


def test_canonical_sign_first_significant_entry_positive():
    v = np.array([0.0, -2.0, 1.0])
    flipped = canonical_sign(v)
    assert flipped[1] > 0
    assert np.array_equal(canonical_sign(flipped), flipped)


def test_super_adapted_check_passes_chain():
    chain = zero_sum_chain(4)
    system = AdaptedSystem(chain, np.array([1.0, 2.0, 3.0]))
    ok, check = is_super_adapted(system, tol=1e-10, cluster_tol=1e-8)
    assert ok
    assert check.max_residual <= 1e-10
    assert check.on_first[0, 1] == pytest.approx(1.0 / np.sqrt(6.0))
    assert check.on_second[0, 1] == pytest.approx(0.0, abs=1e-15)


def test_super_adapted_check_flags_bad_cross_pair():
    rows = hadamard_rows()
    system = AdaptedSystem(rows, np.array([1.0, 2.0, 3.0]))
    ok, check = is_super_adapted(system, tol=1e-10, cluster_tol=1e-8)
    assert not ok
    # the rejected product is half of the missing third Hadamard vector
    assert check.max_residual == pytest.approx(0.5)
    assert check.worst_pair is not None

    same_weight = AdaptedSystem(rows, np.array([2.0, 2.0, 2.0]))
    ok_same, check_same = is_super_adapted(same_weight)
    assert ok_same
    assert check_same.max_residual == 0.0
    assert check_same.worst_pair is None


def test_self_saturated_full_hyperplane_and_parts():
    ok, witness = is_self_saturated(zero_sum_chain(5))
    assert ok and witness is None

    part = np.array(
        [
            [1.0, -1.0, 0.0, 0.0, 0.0],
            [1.0, 1.0, -2.0, 0.0, 0.0],
        ]
    )
    ok, witness = is_self_saturated(part)
    assert ok and witness is None


def test_non_self_saturated_detected():
    rows = hadamard_rows()[:2]
    ok, witness = is_self_saturated(rows)
    assert not ok
    u, w = witness
    prod = u * w
    coeffs = rows @ prod
    assert np.linalg.norm(prod - rows.T @ coeffs) > 1e-3


def test_self_saturated_basis_splits_into_lines():
    part = np.array(
        [
            [1.0, -1.0, 0.0, 0.0],
            [1.0, 1.0, -2.0, 0.0],
        ]
    )
    basis = self_saturated_basis(part)
    assert basis.shape == (2, 4)
    assert np.allclose(basis @ basis.T, np.eye(2), atol=1e-12)
    for i in range(2):
        for j in range(2):
            if i == j:
                continue
            prod = basis[i] * basis[j]
            onto_i = np.linalg.norm(prod - (prod @ basis[i]) * basis[i])
            onto_j = np.linalg.norm(prod - (prod @ basis[j]) * basis[j])
            assert min(onto_i, onto_j) < 1e-10

    with pytest.raises(SelfSaturationError):
        self_saturated_basis(hadamard_rows()[:2])


def test_subalgebra_partition_reads_off_parts():
    indicators = np.array(
        [
            [1.0, 1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 1.0],
        ]
    )
    rng = np.random.default_rng(3)
    mixed = rng.normal(size=(5, 3)) @ indicators
    assert subalgebra_partition(mixed) == [(0, 1), (2, 3), (4,)]

    interleaved = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 1.0, -1.0]])
    assert subalgebra_partition(interleaved) == [(0, 2), (1, 3)]


def test_subalgebra_partition_requires_ones_and_closure():
    with pytest.raises(ClosureError):
        subalgebra_partition(zero_sum_chain(4))
    not_closed = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 0.0, 0.0]])
    with pytest.raises(ClosureError):
        subalgebra_partition(not_closed)


def mixed_indicator_span(rng, labels, extra):
    """Random spanning set of the indicators of the partition ``labels``."""
    parts = [np.flatnonzero(labels == label) for label in np.unique(labels)]
    indicators = np.zeros((len(parts), labels.size))
    for r, part in enumerate(parts):
        indicators[r, part] = 1.0
    mixing = rng.normal(size=(len(parts) + extra, len(parts)))
    return mixing @ indicators, sorted(tuple(int(i) for i in part) for part in parts)


@pytest.mark.parametrize("seed", range(8))
def test_subalgebra_partition_recovers_relabelled_partitions(seed):
    rng = np.random.default_rng([202, seed])
    for _ in range(40):
        n = int(rng.integers(1, 25))
        labels = rng.integers(0, int(rng.integers(1, n + 1)), size=n)
        spanning, parts = mixed_indicator_span(rng, labels, int(rng.integers(0, 4)))
        assert subalgebra_partition(spanning) == parts


def test_subalgebra_partition_splits_two_halves_of_twelve():
    rng = np.random.default_rng(24)
    for _ in range(20):
        labels = rng.permutation(np.repeat([0, 1], 12))
        spanning, parts = mixed_indicator_span(rng, labels, int(rng.integers(0, 3)))
        assert subalgebra_partition(spanning) == parts
        assert [len(p) for p in parts] == [12, 12]
