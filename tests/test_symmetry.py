"""Property tests: verdicts under relabelling and scaling of the metric.

Relabelling the m copies and scaling the metric by a positive constant are
symmetries of the problem, so the naturally reductive verdict, the
geodesic-orbit verdict and the decomposition must not change under them.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ledger_obata.classify import (  # noqa: E402
    NatRedCase,
    classify_go,
    classify_natred,
    go_family,
)
from ledger_obata.metrics import MetricT, T_to_form  # noqa: E402
from ledger_obata.report import decompose_report  # noqa: E402

from conftest import dense_nonreductive_metric  # noqa: E402

WEIGHT = st.floats(0.5, 3.0)


def product_t(betas: dict[int, float], k: int, m: int) -> np.ndarray:
    """sum_i beta_i (e_i - e_k)(e_i - e_k)^T: the product on the ideal dropping k."""
    t = np.zeros((m, m))
    for i, beta in betas.items():
        e = np.zeros(m)
        e[i], e[k] = 1.0, -1.0
        t += beta * np.outer(e, e)
    return t


def invariant_t(alphas: np.ndarray) -> np.ndarray:
    t = np.diag(alphas) - np.outer(alphas, alphas) / alphas.sum()
    return (t + t.T) / 2


@st.composite
def metrics(draw, families=("product", "invariant", "dense"), max_m=9):
    """A coefficient matrix from one of ``families``, m = 3..max_m.

    ``go_family`` draws a geodesic-orbit family metric from random nodes.
    """
    m = draw(st.integers(3, max_m))
    family = draw(st.sampled_from(families))
    if family == "go_family":
        gaps = draw(st.lists(st.floats(0.2, 1.5), min_size=m, max_size=m))
        metric, _, _ = go_family(np.cumsum(gaps), 1.0, draw(st.floats(0.0, 0.5)))
        return metric.matrix
    if family == "product":
        k = draw(st.integers(0, m - 1))
        betas = {i: draw(WEIGHT) for i in range(m) if i != k}
        return product_t(betas, k, m)
    if family == "invariant":
        alphas = np.array(draw(st.lists(WEIGHT, min_size=m, max_size=m)))
        if draw(st.booleans()):
            # one negative weight with a negative sum meets the sign condition
            j = draw(st.integers(0, m - 1))
            alphas[j] = -(alphas.sum() - alphas[j] + draw(st.floats(0.5, 2.0)))
        return invariant_t(alphas)
    seed = draw(st.integers(0, 2**32 - 1))
    return dense_nonreductive_metric(np.random.default_rng(seed), m).matrix


def weights(result) -> np.ndarray:
    if result.alphas is not None:
        return np.sort(np.append(result.alphas, result.alpha_sum))
    if result.betas is not None:
        return np.sort(list(result.betas.values()))
    return np.zeros(0)


def dropped_copy(result, m: int) -> int | None:
    """The dropped copy (1-based) of a product case, None otherwise."""
    if result.case in (NatRedCase.DIAGONAL, NatRedCase.IDEAL):
        return result.ideal_index or m
    return None


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    t=metrics(),
    perm_seed=st.integers(0, 2**32 - 1),
    log_scale=st.floats(-6.0, 6.0),
)
def test_natred_verdict_is_invariant_under_relabelling_and_scaling(t, perm_seed, log_scale):
    m = t.shape[0]
    perm = np.random.default_rng(perm_seed).permutation(m)
    c = 10.0**log_scale
    base = classify_natred(T_to_form(MetricT(t)))
    moved = classify_natred(T_to_form(MetricT(c * t[np.ix_(perm, perm)])))

    assert moved.is_naturally_reductive == base.is_naturally_reductive
    assert moved.normal == base.normal
    assert (moved.case is NatRedCase.INVARIANT_FORM) == (base.case is NatRedCase.INVARIANT_FORM)
    expected = c * weights(base)
    scale = float(np.max(np.abs(expected))) if expected.size else 0.0
    np.testing.assert_allclose(weights(moved), expected, rtol=1e-9, atol=1e-9 * scale)

    # new copy a is old copy perm[a], so the old dropped copy k moves to perm^-1(k)
    k = dropped_copy(base, m)
    if k is not None:
        assert dropped_copy(moved, m) == int(np.flatnonzero(perm == k - 1)[0]) + 1


def relabelled_and_scaled(t: np.ndarray, perm_seed: int, log_scale: float) -> MetricT:
    perm = np.random.default_rng(perm_seed).permutation(t.shape[0])
    return MetricT(10.0**log_scale * t[np.ix_(perm, perm)])


@pytest.mark.parametrize("family", ["go_family", "product", "invariant", "dense"])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    data=st.data(),
    perm_seed=st.integers(0, 2**32 - 1),
    log_scale=st.floats(-6.0, 6.0),
)
def test_go_verdict_is_invariant_under_relabelling_and_scaling(
    family, data, perm_seed, log_scale
):
    t = data.draw(metrics((family,), max_m=6))
    base = classify_go(MetricT(t))
    moved = classify_go(relabelled_and_scaled(t, perm_seed, log_scale))
    assert moved.verdict is base.verdict
    # every metric with m = 3 is naturally reductive, hence geodesic orbit
    generic_no = family == "dense" and t.shape[0] > 3
    assert base.verdict.value == ("no" if generic_no else "yes")


@st.composite
def block_tree_products(draw):
    """A product of 1..4 irreducible blocks glued in a tree at shared copies.

    Block one holds the first copies; each later block shares one copy with
    the copies placed before it and adds new ones.  A block is a dense metric
    or a naturally reductive invariant form on its copies, so every entry
    inside a block is nonzero.  Returns the coefficient matrix and the
    block sizes.
    """
    sizes = draw(st.lists(st.integers(2, 4), min_size=1, max_size=4))
    blocks = [list(range(sizes[0]))]
    placed = sizes[0]
    for size in sizes[1:]:
        shared = draw(st.integers(0, placed - 1))
        blocks.append([shared] + list(range(placed, placed + size - 1)))
        placed += size - 1
    t = np.zeros((placed, placed))
    for copies in blocks:
        n = len(copies)
        if draw(st.booleans()):
            block = invariant_t(np.array(draw(st.lists(WEIGHT, min_size=n, max_size=n))))
        else:
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            block = dense_nonreductive_metric(rng, n).matrix
        t[np.ix_(copies, copies)] += block
    return t, sizes


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    product=block_tree_products(),
    perm_seed=st.integers(0, 2**32 - 1),
    log_scale=st.floats(-6.0, 6.0),
)
def test_decomposition_is_invariant_under_relabelling_and_scaling(product, perm_seed, log_scale):
    t, sizes = product
    base = decompose_report(MetricT(t))
    moved = decompose_report(relabelled_and_scaled(t, perm_seed, log_scale))
    assert sorted(base["factor_sizes"]) == sorted(sizes)
    for key in ("reducible", "isometry_group_k", "go_manifold"):
        assert moved[key] == base[key], key
    assert sorted(moved["factor_sizes"]) == sorted(base["factor_sizes"])
