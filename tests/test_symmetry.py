"""Property tests: naturally reductive verdicts under relabelling and scaling."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ledger_obata.classify import NatRedCase, classify_natred  # noqa: E402
from ledger_obata.metrics import MetricT, T_to_form  # noqa: E402

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
def metrics(draw):
    """A coefficient matrix from one of the three families, m = 3..9."""
    m = draw(st.integers(3, 9))
    family = draw(st.sampled_from(["product", "invariant", "dense"]))
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
