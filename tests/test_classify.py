"""Tests for the naturally-reductive and geodesic-orbit classifiers."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ledger_obata.classify import (
    GoVerdict,
    NatRedCase,
    _bisect_root,
    classify_go,
    classify_natred,
    go_family,
    go_report,
    natred_from_dict,
    natred_report,
    solve_invariant_form,
    super_adapted_family,
)
from ledger_obata.coeff import AdaptedSystem, is_adapted, is_super_adapted
from ledger_obata.errors import InputError, ParameterError
from ledger_obata.metrics import (
    MetricForm,
    MetricT,
    T_to_form,
    metric_from_system,
    standard_metric,
)
from ledger_obata.oracle import classify_report

from conftest import dense_nonreductive_metric, random_nodes


def invariant_form_from_weights(alphas):
    alphas = np.asarray(alphas, dtype=float)
    head = alphas[:-1]
    return MetricForm(np.diag(head) - np.outer(head, head) / alphas.sum())


def exact_invariant_form(weights):
    """The invariant form with integer ``weights``, built in exact arithmetic.

    Their sum must be plus or minus a power of two, so each entry
    alpha_i [i = j] - alpha_i alpha_j / S is a dyadic rational; the helper
    asserts that each is a double, so the form carries no rounding.
    """
    total = sum(weights)
    assert total and abs(total) & (abs(total) - 1) == 0, "the sum must be +-2**k"
    n = len(weights) - 1
    exact = [
        [Fraction(weights[i] * (i == j)) - Fraction(weights[i] * weights[j], total)
         for j in range(n)]
        for i in range(n)
    ]
    assert all(Fraction(float(x)) == x for row in exact for x in row), weights
    return MetricForm(np.array(exact, dtype=float))


def dyadic_weights(m, bits, normal=True):
    """Integer weights 1, 2**b_2 - 1, .., 2**b_m - 2**b_(m-1), spread about 2**bits.

    0 = b_1 < .. < b_m = bits, spaced as evenly as integers allow, so the
    partial sums are 2**b_i.  The non-normal twin turns the last weight into
    -(2**b_m + 2**b_(m-1)), one negative weight with the sum -2**bits.
    """
    b = [i + (bits - m + 1) * i // (m - 1) for i in range(m)]
    weights = [1] + [2 ** b[i] - 2 ** b[i - 1] for i in range(1, m)]
    if not normal:
        weights[-1] = -(2 ** b[-1] + 2 ** b[-2])
    return weights


EXACT_WEIGHTS = [(1, 3, 4), (3, 5, -16), (1, 2**10, 2**20 - 2**10 - 1)] + [
    dyadic_weights(m, bits, normal)
    for m in range(3, 13)
    for bits in sorted({m - 1, 16, 32})
    for normal in (True, False)
]


@pytest.mark.parametrize(
    "weights",
    EXACT_WEIGHTS,
    ids=[
        f"m{len(w)}-spread{max(map(abs, w)) / min(map(abs, w)):.3g}"
        + ("" if min(w) > 0 else "-nonnormal")
        for w in EXACT_WEIGHTS
    ],
)
def test_solve_invariant_form_recovers_exact_weights(weights):
    # the form is exact, so only the solver rounds: to 1e-12 relative, at
    # weight spreads up to 2**32 and for normal and non-normal forms alike
    solved = solve_invariant_form(exact_invariant_form(weights))
    assert solved is not None
    alphas, alpha_sum = solved
    assert np.all(np.abs(alphas - weights) <= 1e-12 * np.abs(weights))
    assert alpha_sum == pytest.approx(sum(weights), rel=1e-12, abs=0.0)


def test_invariant_forms_keep_both_classifiers_agreeing_up_to_eight_decades():
    # weights 10**(k i / (m - 1)): the first split comes at k = 8.5 or more
    # for m = 4..12 (README), on the GO side; at m = 3 the wide forms are
    # within tol of the dropped-copy product, which is also NR
    for m in range(3, 13):
        for k in np.arange(0.0, 8.5, 0.5):
            alphas = 10.0 ** (k * np.arange(m) / (m - 1))
            t = np.diag(alphas) - np.outer(alphas, alphas) / alphas.sum()
            report = classify_report(MetricT(t))
            assert report["agreement"] is True, (m, k)
            assert report["go_final"] == "yes", (m, k)
            if report["natred"]["case"] == "invariant_form":
                found = np.array(report["natred"]["alphas"])
                assert np.all(np.abs(found - alphas) <= 1e-12 * alphas), (m, k)
            else:
                assert (m, report["natred"]["case"]) == (3, "diagonal"), k


def test_solve_invariant_form_memory_is_quadratic_in_m():
    # no (m, m, m) array: at m = 200 one such array of doubles alone is 64 MB
    alphas = np.linspace(1.0, 3.0, 200)
    form = invariant_form_from_weights(alphas)
    tracemalloc.start()
    try:
        result = classify_natred(form)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.case is NatRedCase.INVARIANT_FORM
    assert np.allclose(result.alphas, alphas, rtol=1e-12, atol=0.0)
    assert peak < 10 * 2**20


def test_m2_every_form_is_invariant():
    form = MetricForm(np.array([[0.7]]))
    result = classify_natred(form)
    assert result.case is NatRedCase.INVARIANT_FORM
    assert result.normal
    assert result.is_naturally_reductive
    assert np.allclose(result.alphas, [1.4, 1.4])
    assert result.alpha_sum == pytest.approx(2.8)


def test_diagonal_case():
    form = MetricForm(np.diag([2.0, 0.5, 1.25]))
    result = classify_natred(form)
    assert result.case is NatRedCase.DIAGONAL
    assert result.normal
    assert result.betas == {1: 2.0, 2: 0.5, 3: 1.25}
    assert result.alphas is None


def test_ideal_case_recovers_dropped_copy():
    # copy 2 dropped: its row carries the negated weights of the others
    form = MetricForm(
        np.array([[2.0, -2.0, 0.0], [-2.0, 4.2, -1.5], [0.0, -1.5, 1.5]])
    )
    result = classify_natred(form)
    assert result.case is NatRedCase.IDEAL
    assert result.normal
    assert result.ideal_index == 2
    assert result.betas[1] == pytest.approx(2.0)
    assert result.betas[3] == pytest.approx(1.5)
    assert result.betas[4] == pytest.approx(0.7)


def test_invariant_form_closed_solution_m3():
    form = MetricForm(np.array([[2.0, 1.0], [1.0, 3.0]]))
    result = classify_natred(form)
    assert result.case is NatRedCase.INVARIANT_FORM
    assert not result.normal
    assert result.alphas == pytest.approx([1.25, 5.0 / 3.0, -5.0], abs=1e-12)
    assert result.alpha_sum == pytest.approx(-25.0 / 12.0, abs=1e-12)
    head = result.alphas[:-1]
    rebuilt = np.diag(head) - np.outer(head, head) / result.alpha_sum
    assert np.max(np.abs(rebuilt - form.a)) < 1e-12


def test_invariant_form_round_trip_all_positive():
    rng = np.random.default_rng(17)
    for _ in range(30):
        m = int(rng.integers(3, 8))
        alphas = rng.uniform(0.3, 4.0, size=m)
        form = invariant_form_from_weights(alphas)
        result = classify_natred(form)
        assert result.case is NatRedCase.INVARIANT_FORM
        assert result.normal
        assert np.allclose(result.alphas, alphas, atol=1e-9)
        assert result.alpha_sum == pytest.approx(alphas.sum(), abs=1e-9)


def test_invariant_form_one_negative_weight():
    for alphas in ([1.0, 2.0, 3.0, -9.0], [-9.0, 1.0, 2.0, 3.0]):
        form = invariant_form_from_weights(alphas)
        result = classify_natred(form)
        assert result.case is NatRedCase.INVARIANT_FORM
        assert not result.normal
        assert result.is_naturally_reductive
        assert np.allclose(result.alphas, alphas, atol=1e-10)
        assert result.alpha_sum == pytest.approx(-3.0, abs=1e-10)


def test_generic_form_is_not_naturally_reductive():
    form = MetricForm(
        np.array(
            [
                [2.0, 0.3, 0.1, 0.2],
                [0.3, 3.0, 0.4, 0.25],
                [0.1, 0.4, 2.5, 0.3],
                [0.2, 0.25, 0.3, 1.8],
            ]
        )
    )
    result = classify_natred(form)
    assert result.case is NatRedCase.NOT_NR
    assert not result.is_naturally_reductive
    assert not result.normal


def test_solve_invariant_form_needs_dense_offdiagonal():
    assert solve_invariant_form(MetricForm(np.diag([1.0, 2.0]))) is None
    # one vanishing off-diagonal entry blocks the reconstruction
    a = np.array([[2.0, 0.0, 0.4], [0.0, 1.5, 0.3], [0.4, 0.3, 2.5]])
    assert solve_invariant_form(MetricForm(a)) is None


def test_natred_report_round_trip():
    form = MetricForm(np.array([[2.0, 1.0], [1.0, 3.0]]))
    result = classify_natred(form)
    data = natred_report(result)
    assert data["naturally_reductive"] is True
    back = natred_from_dict(
        {
            "case": data["case"],
            "normal": data["normal"],
            "alphas": list(data["alphas"]),
            "alpha_sum": data["alpha_sum"],
        }
    )
    assert back.case is result.case
    assert np.allclose(back.alphas, result.alphas)
    assert back.alpha_sum == result.alpha_sum
    assert back.normal == result.normal

    diag = classify_natred(MetricForm(np.diag([2.0, 0.5])))
    diag_data = natred_report(diag)
    again = natred_from_dict({"case": diag_data["case"], "betas": diag_data["betas"]})
    assert again.betas == diag.betas


def test_natred_from_dict_diagnostics():
    with pytest.raises(InputError, match="case"):
        natred_from_dict({"case": "bogus"})
    with pytest.raises(InputError, match="case"):
        natred_from_dict({})
    with pytest.raises(InputError, match="betas"):
        natred_from_dict({"case": "diagonal", "betas": {"one": "x"}})
    with pytest.raises(InputError, match="alphas"):
        natred_from_dict({"case": "invariant_form", "alphas": ["x"]})
    with pytest.raises(InputError, match="object"):
        natred_from_dict([1, 2])


def test_classify_go_standard_metric_single_cluster():
    result = classify_go(standard_metric(5))
    assert result.verdict is GoVerdict.YES
    assert result.is_go
    assert result.eigen.clusters == ((0, 1, 2, 3),)
    assert np.max(np.abs(result.certificate.constants)) < 1e-12


def test_classify_go_family_with_certificate_constants():
    roots_exact = np.array([(11.0 - np.sqrt(13.0)) / 6.0, (11.0 + np.sqrt(13.0)) / 6.0])
    metric, family, gammas = go_family(np.array([1.0, 2.0, 3.0]), rho=1.0, lam=0.0)
    assert np.allclose(family.roots, roots_exact, atol=1e-10)
    assert np.allclose(gammas, family.roots, atol=1e-14)

    result = classify_go(metric)
    assert result.verdict is GoVerdict.YES
    cert = result.certificate
    # per-direction constants have size normalizer * rho * gamma / root
    expected = family.normalizers * 1.0 * gammas / family.roots
    assert np.allclose(np.abs(cert.constants), expected, atol=1e-9)

    report = go_report(result)
    assert report["verdict"] == "yes"
    assert "certificate" in report


def test_classify_go_definitive_no_simple_clusters():
    rows = np.array(
        [
            [1.0, 1.0, -1.0, -1.0],
            [1.0, -1.0, 1.0, -1.0],
            [1.0, -1.0, -1.0, 1.0],
        ]
    ) / 2.0
    metric = metric_from_system(AdaptedSystem(rows, np.array([1.0, 2.0, 3.0])))
    result = classify_go(metric)
    assert result.verdict is GoVerdict.NO
    assert not result.is_go
    assert "span test failed" in result.reason


def test_classify_go_no_on_unsaturated_eigenspace():
    rows = np.array(
        [
            [1.0, 1.0, -1.0, -1.0],
            [1.0, -1.0, 1.0, -1.0],
            [1.0, -1.0, -1.0, 1.0],
        ]
    ) / 2.0
    metric = metric_from_system(AdaptedSystem(rows, np.array([1.0, 1.0, 3.0])))
    result = classify_go(metric)
    assert result.verdict is GoVerdict.NO
    assert "not self-saturated" in result.reason


def test_classify_go_agrees_with_natred_on_m3():
    rng = np.random.default_rng(23)
    for _ in range(50):
        z = random_nodes(rng, 3)
        rho = float(rng.uniform(0.5, 2.0))
        lam = float(rng.uniform(0.0, 0.3))
        metric, _, _ = go_family(z, rho, lam)
        assert classify_go(metric).verdict is GoVerdict.YES
        assert classify_natred(T_to_form(metric)).is_naturally_reductive


def test_classify_go_refutes_dense_metric():
    rng = np.random.default_rng(29)
    metric = dense_nonreductive_metric(rng, 5)
    assert classify_go(metric).verdict is GoVerdict.NO
    assert classify_natred(T_to_form(metric)).case is NatRedCase.NOT_NR


def test_super_adapted_family_structure():
    z = np.array([1.0, 2.0, 3.0, 5.5])
    family = super_adapted_family(z)
    # one root strictly inside each gap, at a zero of the rational function
    for i in range(3):
        t = family.roots[i]
        assert z[i] < t < z[i + 1]
        assert abs(np.sum(z / (z - t))) < 1e-10
    system = family.system(np.array([1.0, 2.0, 3.0]))
    assert is_adapted(system, tol=1e-10)
    ok, check = is_super_adapted(system, tol=1e-8)
    assert ok
    assert check.max_residual < 1e-10
    # rows are positive multiples of z_k/(z_k - t_i)
    raw = z / (z - family.roots[:, None])
    assert np.allclose(family.vectors * (1.0 / family.normalizers)[:, None], raw)


def test_family_and_go_family_parameter_errors():
    with pytest.raises(ParameterError):
        super_adapted_family(np.array([1.0]))
    with pytest.raises(ParameterError):
        super_adapted_family(np.array([-1.0, 2.0]))
    with pytest.raises(ParameterError):
        super_adapted_family(np.array([1.0, 1.0, 2.0]))
    with pytest.raises(ParameterError):
        go_family(np.array([1.0, 2.0, 3.0]), rho=0.0, lam=1.0)
    with pytest.raises(ParameterError):
        go_family(np.array([1.0, 2.0, 3.0]), rho=-1.0, lam=0.0)
    with pytest.raises(ParameterError, match="rho must be finite, got nan"):
        go_family(np.array([1.0, 2.0, 3.0]), rho=float("nan"), lam=0.0)
    with pytest.raises(ParameterError, match="lambda must be finite, got -inf"):
        go_family(np.array([1.0, 2.0, 3.0]), rho=1.0, lam=-float("inf"))
    with pytest.raises(ParameterError, match="nodes must be finite"):
        super_adapted_family(np.array([1.0, np.nan, 3.0]))


def test_go_family_weight_formula():
    rng = np.random.default_rng(31)
    for _ in range(10):
        m = int(rng.integers(3, 7))
        z = random_nodes(rng, m)
        rho = float(rng.uniform(0.4, 2.0))
        lam = float(rng.uniform(0.0, 0.5))
        metric, family, gammas = go_family(z, rho, lam)
        assert np.allclose(gammas, family.roots / (rho + lam * family.roots))
        rebuilt = metric_from_system(family.system(gammas))
        assert np.max(np.abs(rebuilt.matrix - metric.matrix)) < 1e-12


def test_invariant_form_acceptance_near_the_threshold():
    # tol = 1e-8 bounds the rebuild residual relative to the largest form
    # entry: a relative perturbation far below it is accepted, one far
    # above it rejected, for m = 4..12 and both signs of the weight sum
    rng = np.random.default_rng(43)
    for index in range(180):
        m = 4 + index % 9
        alphas = rng.uniform(0.5, 3.0, m)
        if index % 2:
            j = int(rng.integers(m))
            alphas[j] = -(alphas.sum() - alphas[j] + rng.uniform(0.5, 2.0))
        a = invariant_form_from_weights(alphas).a
        noise = rng.uniform(-1.0, 1.0, a.shape)
        noise = (noise + noise.T) / 2 * np.max(np.abs(a))
        close = classify_natred(MetricForm(a + 1e-11 * noise))
        assert close.case is NatRedCase.INVARIANT_FORM
        assert np.allclose(close.alphas, alphas, rtol=1e-6)
        far = classify_natred(MetricForm(a + 1e-6 * noise))
        assert far.case is NatRedCase.NOT_NR


def test_classification_at_extreme_scales():
    # the classifier works on the form divided by a power of two, so no
    # threshold is absolute and nothing overflows
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    base = classify_natred(MetricForm(a))
    for scale in (1e-150, 1e200, 2.0**-700):
        result = classify_natred(MetricForm(scale * a))
        assert result.case is base.case
        assert result.normal == base.normal
        assert np.allclose(result.alphas, scale * base.alphas, rtol=1e-12, atol=0)
        assert result.alpha_sum == pytest.approx(scale * base.alpha_sum, rel=1e-12)
    ideal = np.array([[2.0, -2.0, 0.0], [-2.0, 4.2, -1.5], [0.0, -1.5, 1.5]])
    for scale in (1e-150, 1e200):
        result = classify_natred(MetricForm(scale * ideal))
        assert result.case is NatRedCase.IDEAL
        assert result.ideal_index == 2
        assert result.betas[4] == pytest.approx(scale * 0.7, rel=1e-12)


@pytest.mark.parametrize("far", [1e200, 1e308])
def test_bisect_root_crosses_a_gap_of_hundreds_of_decades(far):
    # far more halvings than a gap of a few decades takes; phi on the gap
    # (2, far) is 1/(1-t) + 2/(2-t) + 1 to within t/far, with root 3 + sqrt(3)
    z = np.array([1.0, 2.0, far])
    root = _bisect_root(z, 2.0, far)
    assert root == pytest.approx(3 + np.sqrt(3), rel=1e-12, abs=0.0)

    def phi(t):
        return sum(Fraction(v) / (Fraction(v) - Fraction(t)) for v in z)

    # exact arithmetic: the sign of phi changes within 1e-12 of the root
    assert phi(root * (1 - 1e-12)) < 0 < phi(root * (1 + 1e-12))
