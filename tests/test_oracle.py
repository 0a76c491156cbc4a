"""Tests for the brute-force numeric verification oracles."""

import tracemalloc

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
    eigendecompose,
    power_of_two_scale,
    standard_metric,
    zero_sum_basis,
)
from ledger_obata.liealg import product_bracket
from ledger_obata.oracle import (
    CHUNK,
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


@pytest.mark.parametrize("samples", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
def test_go_oracle_chunks_replay_sample_by_sample(backend, samples):
    metric = dense_nonreductive_metric(np.random.default_rng(8), 5)
    # a tolerance inside the residual range makes failures a proper subset
    report = go_oracle(metric, backend, samples=samples, seed=21, tol=0.1)
    scaled = MetricT(metric.matrix / power_of_two_scale(metric.matrix))
    residuals = []
    for i in range(samples):
        x = np.random.default_rng([21, i]).standard_normal((5, 3))
        x -= x.mean(axis=0)
        x /= np.linalg.norm(x)
        residuals.append(go_sample_residual(scaled, x, backend)[0])
    assert report.samples == samples
    assert report.max_residual == max(residuals)
    assert report.residual_min == min(residuals)
    assert report.residual_median == np.median(residuals)
    assert report.failures == tuple(i for i, r in enumerate(residuals) if r >= report.tol)
    if samples > CHUNK:
        assert 0 < len(report.failures) < samples


def test_go_oracle_working_set_does_not_grow_with_samples(backend):
    metric = dense_nonreductive_metric(np.random.default_rng(3), 6)
    go_oracle(metric, backend, samples=CHUNK, seed=1)
    tracemalloc.start()
    try:
        report = go_oracle(metric, backend, samples=3200, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.samples == 3200
    assert peak < 512 * 1024


@pytest.mark.parametrize("samples", [0, -3])
def test_go_oracle_needs_a_sample(backend, samples):
    with pytest.raises(ParameterError, match="samples must be at least 1"):
        go_oracle(standard_metric(4), backend, samples=samples)


@pytest.mark.parametrize("samples", [0, -3])
def test_assess_geodesic_orbit_needs_a_sample(backend, samples):
    # with no samples a dense metric that is not GO would read as confirmed
    dense = dense_nonreductive_metric(np.random.default_rng(19), 4)
    with pytest.raises(ParameterError, match="samples must be at least 1"):
        assess_geodesic_orbit(dense, backend, samples=samples)


@pytest.mark.parametrize("samples", [0, -3])
def test_natred_certificate_check_needs_a_sample(backend, samples):
    form = MetricForm(np.diag([1.0, 2.0, 3.0]))
    with pytest.raises(ParameterError, match="samples must be at least 1"):
        natred_certificate_check(form, classify_natred(form), backend, samples=samples)


@pytest.mark.parametrize("samples", [0, -3])
def test_brackets_property_check_needs_a_sample(backend, samples):
    with pytest.raises(ParameterError, match="samples must be at least 1"):
        brackets_property_check(standard_metric(4), backend, samples=samples)


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


def certificate_residuals_by_loop(form, result, backend, samples, seed):
    """The certificate check's sampled residuals, one sample at a time."""
    m, d = form.m, backend.dim
    scale = power_of_two_scale(form.a)
    if result.case is NatRedCase.INVARIANT_FORM:
        weights = np.asarray(result.alphas) / scale
        alpha_sum = result.alpha_sum / scale

        def project(u):
            return u - (weights @ u)[None, :] / alpha_sum

    else:
        dropped = result.ideal_index or m
        weights = np.zeros(m)
        for copy, beta in result.betas.items():
            weights[copy - 1] = beta / scale

        def project(u):
            return u - u[dropped - 1][None, :]

    residuals = np.empty(samples)
    for i in range(samples):
        rng = np.random.default_rng([seed, i])
        x = project(rng.standard_normal((m, d)))
        y = project(rng.standard_normal((m, d)))
        x /= max(np.linalg.norm(x), 1e-300)
        y /= max(np.linalg.norm(y), 1e-300)
        braid = project(product_bracket(backend, x, y))
        residuals[i] = abs(np.einsum("i,ia,ab,ib->", weights, braid, backend.gram, x))
    return residuals


@pytest.mark.parametrize(
    "form, certificate, tol",
    [
        (MetricForm(np.diag([1.0, 2.0, 3.0])), None, 1e-8),
        (MetricForm(np.array([[2.0, 1.0], [1.0, 3.0]])), None, 1e-8),
        # alpha_sum does not match the alphas, so the sampled identity fails
        # on a proper subset of samples at this tolerance
        (
            MetricForm(np.array([[2.0, 1.0], [1.0, 3.0]])),
            NatRedResult(
                case=NatRedCase.INVARIANT_FORM, alphas=np.array([1.0, 2.0, 3.5]), alpha_sum=0.5
            ),
            0.02,
        ),
    ],
    ids=["product", "invariant-form", "inconsistent-invariant-form"],
)
def test_natred_certificate_check_replays_sample_by_sample(backend, form, certificate, tol):
    result = certificate or classify_natred(form)
    samples = 2 * CHUNK + 5
    report = natred_certificate_check(form, result, backend, samples=samples, seed=12, tol=tol)
    residuals = certificate_residuals_by_loop(form, result, backend, samples, 12)
    assert report.samples == samples
    assert report.failures == tuple(int(i) for i in np.nonzero(residuals >= tol)[0])
    assert abs(report.residual_min - residuals.min()) <= 1e-14
    assert abs(report.residual_median - np.median(residuals)) <= 1e-14
    assert report.max_residual >= residuals.max() - 1e-14
    if certificate is not None:
        assert 0 < len(report.failures) < samples


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


def _ad_rows(sc, u):
    return np.einsum("...i,ijk->...kj", u, sc.c)


def _weighted_norm(gram, u):
    return float(np.sqrt(max(np.einsum("la,ab,lb->", u, gram, u), 0.0)))


def _null_space(mat, rtol=1e-10):
    _, svals, vt = np.linalg.svd(mat)
    if svals.size == 0 or svals[0] == 0.0:
        return np.eye(mat.shape[1])
    rank = int(np.sum(svals > rtol * svals[0]))
    return vt[rank:].T


def _weighted_lstsq(gram, columns, target):
    if columns.shape[2] == 0:
        return _weighted_norm(gram, target)
    root = np.linalg.cholesky(gram)
    lhs = np.einsum("ab,lbk->lak", root.T, columns).reshape(-1, columns.shape[2])
    rhs = (target @ root).reshape(-1)
    solution, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    return float(np.linalg.norm(rhs - lhs @ solution))


def bracket_residuals_by_loop(metric, sc, samples, seed, include_centralizers):
    """The bracket check's residuals, one sample at a time with np.linalg.lstsq."""
    eigen = eigendecompose(metric)
    vectors, gammas, clusters = eigen.system.vectors, eigen.system.gammas, eigen.clusters
    d, gram = sc.dim, sc.gram
    pairs = [(a, b) for a in range(len(clusters)) for b in range(len(clusters)) if a < b]

    def sample_in(rng, cluster):
        x = vectors[list(cluster)].T @ rng.standard_normal((len(cluster), d))
        return x / max(np.linalg.norm(x), 1e-300)

    residuals = np.empty(samples)
    for i in range(samples):
        rng = np.random.default_rng([seed, i])
        worst = 0.0
        if pairs:
            ca, cb = pairs[i % len(pairs)]
            x = sample_in(rng, clusters[ca])
            y = sample_in(rng, clusters[cb])
            alpha, beta = gammas[clusters[ca][0]], gammas[clusters[cb][0]]
            target = product_bracket(sc, x, y)
            ads_x, ads_y = _ad_rows(sc, x), _ad_rows(sc, y)
            shared = -(alpha / (beta - alpha) * ads_x + beta / (beta - alpha) * ads_y)
            worst = max(worst, _weighted_lstsq(gram, shared, target))
            if include_centralizers:
                null_x = _null_space(ads_x.reshape(-1, d))
                null_y = _null_space(ads_y.reshape(-1, d))
                columns = np.concatenate(
                    [-np.einsum("lab,bk->lak", ads_y, null_x),
                     -np.einsum("lab,bk->lak", ads_x, null_y)],
                    axis=2,
                )
                worst = max(worst, _weighted_lstsq(gram, columns, target))
        cluster = clusters[i % len(clusters)]
        basis = vectors[list(cluster)]
        x = sample_in(rng, cluster)
        raw = rng.standard_normal((len(cluster), d))
        constraint = np.einsum("al,lbc->bac", basis, _ad_rows(sc, x)).reshape(d, -1)
        flat = raw.reshape(-1)
        correction, *_ = np.linalg.lstsq(constraint, constraint @ flat, rcond=None)
        y = basis.T @ (flat - correction).reshape(len(cluster), d)
        norm = np.linalg.norm(y)
        if norm > 1e-10:
            y /= norm
            rest = product_bracket(sc, x, y)
            rest = rest - rest.mean(axis=0)
            worst = max(worst, _weighted_norm(gram, rest - (basis.T @ basis) @ rest))
        residuals[i] = worst
    return residuals


def generic_eigenspace_metric(gammas):
    """Metric with weights ``gammas`` on a randomly rotated zero-sum basis."""
    rotation = np.linalg.qr(np.random.default_rng(4).normal(size=(len(gammas),) * 2))[0]
    basis = rotation.T @ zero_sum_basis(len(gammas) + 1)
    t = basis.T @ np.diag(gammas) @ basis
    return MetricT((t + t.T) / 2)


def invariant_form_metric(alphas):
    alphas = np.asarray(alphas, dtype=float)
    return MetricT(np.diag(alphas) - np.outer(alphas, alphas) / alphas.sum())


BRACKET_METRICS = {
    # equal weights give a two-dimensional eigenvalue cluster
    "go-repeated-cluster": (invariant_form_metric([1.0, 1.0, 1.0, 2.0, 3.0]), 1e-8),
    # one cluster, so no cluster pairs
    "standard-m5": (standard_metric(5), 1e-8),
    # a tolerance inside the residual range makes failures a proper subset
    "dense-m5": (dense_nonreductive_metric(np.random.default_rng(8), 5), 0.1),
    # a generic eigenplane: identity (iii) fails and sets part of the residuals
    "dense-repeated-cluster": (generic_eigenspace_metric([1.0, 1.0, 2.0, 3.0]), 0.3),
}


@pytest.mark.parametrize("centralizers", [False, True], ids=["plain", "centralizers"])
@pytest.mark.parametrize("samples", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
@pytest.mark.parametrize("name", sorted(BRACKET_METRICS))
def test_brackets_property_check_chunks_match_sample_loop(backend, name, samples, centralizers):
    metric, tol = BRACKET_METRICS[name]
    report = brackets_property_check(
        metric, backend, samples=samples, seed=17, tol=tol, include_centralizers=centralizers
    )
    residuals = bracket_residuals_by_loop(metric, backend, samples, 17, centralizers)
    assert report.samples == samples
    assert report.failures == tuple(int(i) for i in np.nonzero(residuals >= tol)[0])
    assert abs(report.max_residual - residuals.max()) <= 1e-12
    assert abs(report.residual_min - residuals.min()) <= 1e-12
    assert abs(report.residual_median - np.median(residuals)) <= 1e-12
    assert report.verdict == bool(residuals.max() < tol)
    if name.startswith("dense") and samples > CHUNK:
        assert 0 < len(report.failures) < samples


@pytest.mark.parametrize("centralizers", [False, True], ids=["plain", "centralizers"])
def test_brackets_property_check_working_set_does_not_grow_with_samples(backend, centralizers):
    metric = dense_nonreductive_metric(np.random.default_rng(3), 6)
    brackets_property_check(metric, backend, samples=CHUNK, seed=1)
    tracemalloc.start()
    try:
        report = brackets_property_check(
            metric, backend, samples=3200, seed=1, include_centralizers=centralizers
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.samples == 3200
    # the draws of all 3200 samples alone would take 1.5 MB
    assert peak < 1024 * 1024


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
