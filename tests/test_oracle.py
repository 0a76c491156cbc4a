"""Tests for the brute-force numeric verification oracles."""

import numpy as np
import pytest

from ledger_obata.classify import (
    NatRedCase,
    NatRedResult,
    classify_go,
    classify_natred,
    go_family,
)
from ledger_obata.errors import ParameterError
from ledger_obata.metrics import (
    MetricForm,
    MetricT,
    T_to_form,
    power_of_two_scale,
    standard_metric,
)
from ledger_obata.oracle import (
    assess_geodesic_orbit,
    brackets_property_check,
    certificate_shift,
    go_oracle,
    go_sample_residual,
    natred_certificate_check,
)

from conftest import dense_nonreductive_metric, random_nodes


def test_go_oracle_confirms_known_go_metrics(backend):
    report = go_oracle(standard_metric(4), backend, samples=20, seed=3)
    assert report.verdict
    assert report.max_residual < 1e-8
    assert report.failures == ()

    metric, _, _ = go_family(np.array([1.0, 2.0, 3.0]), rho=1.0, lam=0.2)
    report = go_oracle(metric, backend, samples=20, seed=3)
    assert report.verdict
    assert report.max_residual < 1e-8


def test_go_oracle_refutes_dense_metric(backend):
    rng = np.random.default_rng(77)
    metric = dense_nonreductive_metric(rng, 4)
    report = go_oracle(metric, backend, samples=12, seed=5)
    assert not report.verdict
    assert report.max_residual > 1e-4
    assert len(report.failures) > 0
    assert report.residual_min <= report.residual_median <= report.max_residual


def test_residual_scales_exactly_with_metric(backend):
    rng = np.random.default_rng(13)
    metric = dense_nonreductive_metric(rng, 4)
    scaled = MetricT(4.0 * metric.matrix)
    for i in range(20):
        sample_rng = np.random.default_rng([11, i])
        x = sample_rng.standard_normal((4, 3))
        x -= x.mean(axis=0)
        x /= np.linalg.norm(x)
        r1, _ = go_sample_residual(metric, x, backend)
        r4, _ = go_sample_residual(scaled, x, backend)
        # powers of two only shift exponents, so the match is bitwise
        assert r4 == 4.0 * r1


def test_certificate_shift_solves_geodesic_condition(backend):
    metric, _, _ = go_family(np.array([0.9, 1.8, 2.6, 3.3]), rho=1.1, lam=0.15)
    result = classify_go(metric)
    assert result.is_go
    cert = result.certificate
    rng = np.random.default_rng(31)
    for _ in range(15):
        x = rng.standard_normal((4, 3))
        x -= x.mean(axis=0)
        x /= np.linalg.norm(x)
        predicted = certificate_shift(cert, x)
        residual, _ = go_sample_residual(metric, x, backend, shift=predicted)
        assert residual < 1e-9
        solved_residual, solved = go_sample_residual(metric, x, backend)
        assert solved_residual < 1e-9
        assert np.allclose(solved, predicted, atol=1e-6)


def test_go_oracle_sample_i_replays_from_its_own_seed(backend):
    metric = dense_nonreductive_metric(np.random.default_rng(5), 4)
    report = go_oracle(metric, backend, samples=6, seed=9)
    scaled = MetricT(metric.matrix / power_of_two_scale(metric.matrix))
    residuals = []
    for i in range(6):
        x = np.random.default_rng([9, i]).standard_normal((4, 3))
        x -= x.mean(axis=0)
        x /= np.linalg.norm(x)
        residuals.append(go_sample_residual(scaled, x, backend)[0])
    assert report.samples == 6
    assert report.max_residual == max(residuals)
    assert report.residual_min == min(residuals)
    assert report.residual_median == np.median(residuals)
    assert report.failures == tuple(i for i, r in enumerate(residuals) if r >= report.tol)


def test_assess_geodesic_orbit_verdicts(backend):
    metric, _, _ = go_family(np.array([1.0, 2.0, 3.0]), rho=1.0, lam=0.2)
    word, report = assess_geodesic_orbit(metric, backend, samples=10, seed=2)
    assert word == "confirmed"
    assert report.verdict

    rng = np.random.default_rng(19)
    dense = dense_nonreductive_metric(rng, 4)
    word, report = assess_geodesic_orbit(dense, backend, samples=10, seed=2)
    assert word == "refuted"
    assert report.max_residual > 1e-4


def test_natred_certificates_verify(backend):
    cases = [
        MetricForm(np.array([[2.0, 1.0], [1.0, 3.0]])),
        MetricForm(np.diag([1.0, 2.0, 3.0])),
        MetricForm(np.array([[2.0, -2.0, 0.0], [-2.0, 4.2, -1.5], [0.0, -1.5, 1.5]])),
    ]
    for form in cases:
        result = classify_natred(form)
        assert result.is_naturally_reductive
        report = natred_certificate_check(form, result, backend, samples=40, seed=4)
        assert report.verdict, report.notes
        assert report.max_residual < 1e-8


def test_natred_certificate_check_catches_corruption(backend):
    form = MetricForm(np.diag([1.0, 2.0, 3.0]))
    fake = NatRedResult(
        case=NatRedCase.DIAGONAL,
        normal=True,
        betas={1: 1.0, 2: 2.0, 3: 2.9},
    )
    report = natred_certificate_check(form, fake, backend, samples=20, seed=4)
    assert not report.verdict
    assert "reconstruct" in report.notes

    pinned = MetricForm(np.array([[2.0, 1.0], [1.0, 3.0]]))
    twisted = NatRedResult(
        case=NatRedCase.INVARIANT_FORM,
        alphas=np.array([-1.0, -2.0, 3.5]),
        alpha_sum=0.5,
    )
    report = natred_certificate_check(pinned, twisted, backend, samples=20, seed=4)
    assert not report.verdict
    assert "not positive definite" in report.notes

    with pytest.raises(ParameterError):
        natred_certificate_check(
            pinned, NatRedResult(case=NatRedCase.NOT_NR), backend
        )


def test_bracket_properties_on_go_and_dense_metrics(backend):
    metric, _, _ = go_family(np.array([0.7, 1.4, 2.2, 3.0]), rho=1.0, lam=0.1)
    report = brackets_property_check(metric, backend, samples=30, seed=6)
    assert report.verdict
    with_centralizers = brackets_property_check(
        metric, backend, samples=30, seed=6, include_centralizers=True
    )
    assert with_centralizers.verdict

    assert brackets_property_check(
        standard_metric(5), backend, samples=20, seed=6
    ).verdict

    rng = np.random.default_rng(23)
    dense = dense_nonreductive_metric(rng, 4)
    report = brackets_property_check(dense, backend, samples=30, seed=6)
    assert not report.verdict


def test_oracle_report_round_trip(backend):
    metric, _, _ = go_family(np.array([1.0, 2.0, 3.0]), rho=1.0, lam=0.0)
    report = go_oracle(metric, backend, samples=5, seed=1)
    data = report.to_dict()
    assert data["kind"] == "geodesic_orbit"
    assert data["samples"] == 5
    assert data["seed"] == 1
    assert data["verdict"] is True
    assert data["failures"] == []
    assert set(data) >= {
        "kind",
        "samples",
        "seed",
        "tol",
        "verdict",
        "max_residual",
        "residual_min",
        "residual_median",
        "failures",
        "notes",
    }
