"""Tests for the brute-force numeric verification oracles."""

import itertools
import json
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ledger_obata import cli, oracle
from ledger_obata.classify import (
    GoVerdict,
    NatRedCase,
    NatRedResult,
    classify_go,
    classify_natred,
    go_family,
    natred_report,
)
from ledger_obata.coeff import AdaptedSystem
from ledger_obata.errors import ParameterError
from ledger_obata.metrics import (
    MetricForm,
    MetricT,
    T_to_form,
    eigendecompose,
    form_to_T,
    metric_from_system,
    power_of_two_scale,
    standard_metric,
    zero_sum_basis,
)
from ledger_obata.liealg import (
    ENV_TABLE, StructureConstants, ad_rows, from_entries, product_bracket, so3,
)
from ledger_obata.oracle import (
    CHUNK,
    assess_geodesic_orbit,
    brackets_property_check,
    certificate_shift,
    classify_report,
    go_oracle,
    go_sample_residual,
    natred_certificate_check,
    verify_report,
)
from ledger_obata.serialize import dumps_numeric

from conftest import (
    dense_nonreductive_metric, laplacian_metric, random_nodes, sample_stream, skewed_so3,
    so_n_entries,
)


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
        sample_rng = sample_stream(11, i)
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
        x = sample_stream(9, i).standard_normal((4, 3))
        x -= x.mean(axis=0)
        x /= np.linalg.norm(x)
        residuals.append(go_sample_residual(scaled, x, backend)[0])
    assert report.samples == 6
    assert report.max_residual == max(residuals)
    assert report.residual_min == min(residuals)
    assert report.residual_median == np.median(residuals)
    assert report.failures == tuple(i for i, r in enumerate(residuals) if r >= report.tol)


# sample counts that a pass covers with one partial chunk, then counts at the
# boundaries of the oracle's chunk
SAMPLE_COUNTS = [1, 63, 64, 65, 131, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3]
# keeps the ids of the bracket check's cases stable: each ends in "plain"
PLAIN = pytest.mark.parametrize("identities", ["plain"])
# the "centralizers" twin of a case also replays the centralizer identity,
# which the check no longer runs, and asserts that it changes no verdict
IDENTITIES = pytest.mark.parametrize("identities", ["plain", "centralizers"])


@pytest.mark.parametrize("samples", SAMPLE_COUNTS)
def test_go_oracle_chunks_replay_sample_by_sample(backend, samples):
    metric = dense_nonreductive_metric(np.random.default_rng(8), 5)
    # a tolerance inside the residual range makes failures a proper subset
    report = go_oracle(metric, backend, samples=samples, seed=21, tol=0.1)
    scaled = MetricT(metric.matrix / power_of_two_scale(metric.matrix))
    residuals = []
    for i in range(samples):
        x = sample_stream(21, i).standard_normal((5, 3))
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


# seeds of one and two 64-bit key words (and 42 + 2 * 7919, the third GO round's)
SEEDS = [0, 1, 42, 42 + 2 * 7919, 2**32 - 1, 2**32, 2**64 + 3, 10**30]
INDICES = [0, 1, CHUNK - 1, CHUNK, 2**32 - 1]


# this test and the next pin the oracle's draws to the replay contract, the
# pure-Python splitmix64 streams of ``sample_stream``
@pytest.mark.parametrize("seed", SEEDS)
def test_seeded_generators_match_default_rng(seed):
    # one call for all indices, as in a chunk, and one call per index, as in a redraw
    batches = [INDICES] + [[i] for i in INDICES]
    counters = np.array([0, 1, 2, 35, 2**20 + 7], dtype=np.uint64)
    for batch in batches:
        states = oracle._streams(seed, batch)
        words = np.empty((len(batch), len(counters)), np.uint64)
        oracle._words(states, counters, words, np.empty_like(words))
        for i, state, row in zip(batch, states.tolist(), words.tolist()):
            reference = sample_stream(seed, i)
            assert state == reference.state
            assert row == [reference.word(int(c)) for c in counters]


@pytest.mark.parametrize("shape", [(6, 3), (2, 6, 3), (7,)], ids=["go", "certificate", "flat"])
@pytest.mark.parametrize("seed", SEEDS)
def test_normals_match_default_rng(seed, shape):
    # a chunk, indices that cross a chunk boundary, and one index alone; (7,)
    # is not a multiple of d = 3, and odd, so its last pair is cut
    size = int(np.prod(shape))
    for batch in [INDICES, range(CHUNK - 3, CHUNK + 2), [2**32 - 1]]:
        draws = oracle._normals(seed, batch, shape)
        assert draws.shape == (len(batch), *shape)
        for i, row in zip(batch, draws):
            # one draw per sample holds the bits of a run of smaller draws,
            # the first of them odd, so the second starts inside a pair
            reference = sample_stream(seed, i)
            pieces = [reference.standard_normal(3), reference.standard_normal(size - 3)]
            assert np.concatenate(pieces).tobytes() == row.tobytes()
            # and the entries past it, as a redraw reads them
            again = oracle._normals(seed, [i], shape, start=size)
            assert again.tobytes() == reference.standard_normal(shape).tobytes()


# words 0 and 1, and normal entries 0 to 2, of samples 0 and 2**32 - 1 at seed 42
WORDS_AT_SEED_42 = [
    ["0x8c4bd0d0c7ce0b36", "0x3544f6262e771952"],
    ["0xe4ba4ff66abdade6", "0x8d0c8035ff19e97f"],
]
NORMALS_AT_SEED_42 = [
    ["0x1.4ff796edf49c9p-2", "0x1.378147e067bf9p+0", "0x1.f5ee120838e4dp-2"],
    ["-0x1.011bf162f054dp+1", "-0x1.551e0139c4302p-1", "0x1.fe6991d17cad0p-5"],
]


def test_normals_pin_the_bits_of_the_stream():
    # the splitmix64 words pin the hash; the normals also pin numpy's log1p,
    # sin and cos, so a numpy whose functions round otherwise fails here
    states = oracle._streams(42, [0, 2**32 - 1])
    words = oracle._words(states, np.arange(2, dtype=np.uint64), *np.empty((2, 2, 2), np.uint64))
    assert [[hex(word) for word in row] for row in words.tolist()] == WORDS_AT_SEED_42
    draws = oracle._normals(42, [0, 2**32 - 1], (3,))
    assert [[value.hex() for value in row] for row in draws.tolist()] == NORMALS_AT_SEED_42


@pytest.mark.parametrize("seed", [0, 42, 2**64 + 3])
def test_normals_have_unit_moments_and_no_adjacent_correlation(seed):
    # fixed seeds make the test deterministic; each bound is 5 standard
    # errors of its statistic, set before the draws were looked at
    samples, entries = 4096, 16
    draws = oracle._normals(seed, range(samples), (entries,))
    n = draws.size
    assert abs(draws.mean()) < 5 / math.sqrt(n)
    assert abs(draws.var() - 1.0) < 5 * math.sqrt(2 / n)
    # each entry position alone: the cos and the sin halves of the pairs
    assert np.all(np.abs(draws.mean(axis=0)) < 5 / math.sqrt(samples))
    assert np.all(np.abs(draws.var(axis=0) - 1.0) < 5 * math.sqrt(2 / samples))
    # adjacent entries of one sample (a pair's halves among them), and the
    # same entry of adjacent samples
    for a, b in [(draws[:, :-1], draws[:, 1:]), (draws[:-1], draws[1:])]:
        assert abs(np.corrcoef(a.ravel(), b.ravel())[0, 1]) < 5 / math.sqrt(a.size)


def test_seed_must_fit_a_philox_key(backend, monkeypatch):
    oracle._require_draws(1, 2**128 - 1)
    with pytest.raises(ParameterError, match=rf"seed must be below 2\*\*128, got {2**128}$"):
        oracle._require_draws(1, 2**128)
    assert go_oracle(standard_metric(4), backend, samples=3, seed=2**128 - 1).verdict

    def no_draws(*args):
        raise AssertionError("drew samples")

    # an assessment checks the seed of its last round before round 0 draws
    top = 2**128 - 2 * 7919
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_normals", no_draws)
        with pytest.raises(ParameterError, match=rf"below 2\*\*128 - 15838, .* got {top}$"):
            assess_geodesic_orbit(standard_metric(4), backend, seed=top)
    # and the largest seed it accepts runs all three rounds
    metric = perturbed_metric([0.8, 1.3, 2.1, 2.9])
    word, report = assess_geodesic_orbit(metric, backend, samples=20, seed=top - 1)
    assert (word, report.samples, report.seed) == ("marginal", 80, 2**128 - 1)


def test_sample_indices_must_fit_one_entropy_word(backend, monkeypatch):
    # the residuals of 2**32 samples alone take 32 GiB, so more are refused
    # before any draw
    oracle._require_draws(2**32, 0)
    with pytest.raises(ParameterError, match="samples must be at most 2[*][*]32"):
        oracle._require_draws(2**32 + 1, 0)

    def no_draws(*args):
        raise AssertionError("drew samples")

    monkeypatch.setattr(oracle, "_normals", no_draws)
    form = MetricForm(np.diag([1.0, 2.0, 3.0]))
    calls = [
        lambda samples: go_oracle(standard_metric(4), backend, samples=samples),
        lambda samples: natred_certificate_check(
            form, classify_natred(form), backend, samples=samples
        ),
        lambda samples: brackets_property_check(standard_metric(4), backend, samples=samples),
    ]
    for call in calls:
        with pytest.raises(ParameterError, match="samples must be at most"):
            call(2**32 + 1)


@pytest.mark.parametrize("table, scale", [("plain", 1e3), ("plain", 1e-6), ("skewed", 1e3)])
def test_go_oracle_replays_under_a_rescaled_table(table, scale):
    # the oracle measures on the table's unit-scale twin, so a sample replays
    # bit for bit on the divided metric and ``backend.unit``
    base = skewed_so3() if table == "skewed" else so3()
    backend = StructureConstants(c=scale * base.c)
    assert backend.unit is not backend
    metric = dense_nonreductive_metric(np.random.default_rng(8), 5)
    samples = CHUNK + 3
    scaled = MetricT(metric.matrix / power_of_two_scale(metric.matrix))
    residuals = []
    for i in range(samples):
        x = sample_stream(21, i).standard_normal((5, 3))
        x -= x.mean(axis=0)
        x /= np.linalg.norm(x)
        residuals.append(go_sample_residual(scaled, x, backend.unit)[0])
    # a tolerance at the median makes failures a proper subset
    report = go_oracle(metric, backend, samples=samples, seed=21, tol=np.median(residuals))
    assert report.max_residual == max(residuals)
    assert report.residual_min == min(residuals)
    assert report.residual_median == np.median(residuals)
    assert report.failures == tuple(i for i, r in enumerate(residuals) if r >= report.tol)
    assert 0 < len(report.failures) < samples


def test_go_oracle_redraws_a_sample_that_centres_to_zero(backend, monkeypatch):
    metric = dense_nonreductive_metric(np.random.default_rng(8), 5)
    scaled = MetricT(metric.matrix / power_of_two_scale(metric.matrix))
    seed, samples, flat = 21, CHUNK + 9, CHUNK + 4
    normals = oracle._normals
    go_residuals = oracle._go_residuals
    flattened, redrawn, measured = [], [], []

    def flat_at_sample(seed, indices, shape, start=0):
        draws = normals(seed, indices, shape, start)
        if start == 0 and flat in indices:
            # the first draw of sample ``flat`` is made the same on every copy
            row = draws[list(indices).index(flat)]
            row[:] = row[0]
            flattened.append(row.copy())
        elif start:
            redrawn.append((list(indices), start))
        return draws

    def measuring(*args):
        out = go_residuals(*args)
        measured.append(out[0])
        return out

    monkeypatch.setattr(oracle, "_normals", flat_at_sample)
    monkeypatch.setattr(oracle, "_go_residuals", measuring)
    go_oracle(metric, backend, samples=samples, seed=seed)
    residuals = np.concatenate(measured)

    # the chunk's draw was flattened, and only that sample drew again, past it
    assert len(flattened) == 1 and np.ptp(flattened[0], axis=0).max() == 0.0
    assert redrawn == [([flat], 15)]
    for i in range(samples):
        rng = sample_stream(seed, i)
        x = rng.standard_normal((5, 3))
        if i == flat:
            x = rng.standard_normal((5, 3))
        x -= x.mean(axis=0)
        x /= np.linalg.norm(x)
        assert residuals[i] == go_sample_residual(scaled, x, backend)[0]


def test_oracles_in_two_threads_match_serial_runs(backend):
    # the generators of one call must not share state with another call
    go_metric = dense_nonreductive_metric(np.random.default_rng(8), 5)
    bracket_metric, _ = BRACKET_METRICS["dense-repeated-cluster"]
    calls = [
        lambda: go_oracle(go_metric, backend, samples=1500, seed=31, tol=0.01),
        lambda: brackets_property_check(bracket_metric, backend, samples=1500, seed=32, tol=0.1),
    ]
    serial = [call() for call in calls]
    start = threading.Barrier(len(calls))

    def run(call):
        start.wait(timeout=60)
        return call()

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            with ThreadPoolExecutor(len(calls)) as pool:
                futures = [pool.submit(run, call) for call in calls]
                assert [future.result(timeout=60) for future in futures] == serial
    finally:
        sys.setswitchinterval(switch)


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


def test_oracles_reject_a_negative_seed(backend):
    form = MetricForm(np.diag([1.0, 2.0, 3.0]))
    calls = [
        lambda: go_oracle(standard_metric(4), backend, seed=-1),
        lambda: assess_geodesic_orbit(standard_metric(4), backend, seed=-1),
        lambda: natred_certificate_check(form, classify_natred(form), backend, seed=-1),
        lambda: brackets_property_check(standard_metric(4), backend, seed=-1),
    ]
    for call in calls:
        with pytest.raises(ParameterError, match="seed must be at least 0, got -1"):
            call()


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
    """The certificate check's sampled residuals, one sample at a time.

    Like the check, it measures on the table divided by its ``unit_scale``.
    """
    backend = backend.unit
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
        rng = sample_stream(seed, i)
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
    # each sample measured alone, as a chunk of one, from its own stream
    check = oracle._certificate_check(form, result, backend, tol)
    shape = (1, *check.shape)
    residuals = np.concatenate([
        check.measure(range(i, i + 1), sample_stream(12, i).standard_normal(shape))
        for i in range(samples)
    ])
    assert report.samples == samples
    assert report.failures == tuple(int(i) for i in np.nonzero(residuals >= tol)[0])
    assert report.residual_min == residuals.min()
    assert report.residual_median == np.median(residuals)
    assert report.max_residual >= residuals.max()
    # and the one-sample einsum loop agrees to rounding level
    looped = certificate_residuals_by_loop(form, result, backend, samples, 12)
    assert np.max(np.abs(residuals - looped)) <= 1e-14
    if certificate is not None:
        assert 0 < len(report.failures) < samples


@pytest.mark.parametrize("scale", [1.0, 3.0, 1e-310, 1e-318, 1e-320, 1e300])
def test_reports_classify_once_and_give_the_weights_of_the_form_itself(scale):
    # both reports run classify_natred once, on the form divided by its
    # power-of-two scale, and multiply the weights back: bit for bit what
    # classify_natred gives on the form itself, subnormal weights included
    metrics = [
        MetricT(np.array([[1.5, -1.5], [-1.5, 1.5]])),
        form_to_T(MetricForm(np.array([[1.0, 0.3], [0.3, 2.0]]))),
        laplacian_metric(4, [(1, 4, 2.0), (2, 4, 1.0), (3, 4, 0.5)]),
        laplacian_metric(4, [(1, 2, 2.0), (1, 3, 1.0), (1, 4, 0.5)]),
        invariant_form_metric([1.0, 1.0, 1.0, 2.0, -9.0]),
        dense_nonreductive_metric(np.random.default_rng(5), 5),
    ]
    cases = []
    for metric in metrics:
        # scaled as a form, like a "repr": "form" input: T would lose its zero row sums
        metric = form_to_T(MetricForm(scale * T_to_form(metric).a))
        want = dumps_numeric(natred_report(classify_natred(T_to_form(metric))))
        assert dumps_numeric(classify_report(metric)["natred"]) == want
        assert dumps_numeric(verify_report(metric, samples=8)["natred"]) == want
        cases.append(classify_natred(T_to_form(metric)).case.value)
    # far below the smallest normal double the rounded form may change case
    assert scale < 1e-310 or cases == [
        "invariant_form", "invariant_form", "diagonal", "ideal", "invariant_form",
        "not_naturally_reductive",
    ]


def test_bracket_properties_on_go_and_dense_metrics(backend):
    metric, _, _ = go_family(np.array([0.7, 1.4, 2.2, 3.0]), rho=1.0, lam=0.1)
    report = brackets_property_check(metric, backend, samples=30, seed=6)
    assert report.verdict

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


def bracket_residuals_by_loop(metric, sc, samples, seed, include_centralizers=False):
    """The bracket check's residuals, one sample at a time with np.linalg.lstsq.

    With ``include_centralizers`` each cluster pair also takes the residual of
    the centralizer identity, the split of [x, y] through the centralizers of
    x and y, which the check no longer runs.
    """
    eigen = eigendecompose(metric)
    vectors, gammas, clusters = eigen.system.vectors, eigen.system.gammas, eigen.clusters
    d, gram = sc.dim, sc.gram
    pairs = [(a, b) for a in range(len(clusters)) for b in range(len(clusters)) if a < b]

    residuals = np.zeros(samples)
    # one cluster leaves no pair, and nothing to measure
    for i in range(samples if pairs else 0):
        # x and y of the pair i % P
        draw = sample_stream(seed, i).standard_normal((2, len(vectors), d))

        def sample_in(part, cluster):
            x = vectors[list(cluster)].T @ draw[part, list(cluster)]
            return x / max(np.linalg.norm(x), 1e-300)

        ca, cb = pairs[i % len(pairs)]
        x = sample_in(0, clusters[ca])
        y = sample_in(1, clusters[cb])
        alpha, beta = gammas[clusters[ca][0]], gammas[clusters[cb][0]]
        target = product_bracket(sc, x, y)
        ads_x, ads_y = _ad_rows(sc, x), _ad_rows(sc, y)
        shared = -(alpha / (beta - alpha) * ads_x + beta / (beta - alpha) * ads_y)
        residuals[i] = _weighted_lstsq(gram, shared, target)
        if include_centralizers:
            null_x = _null_space(ads_x.reshape(-1, d))
            null_y = _null_space(ads_y.reshape(-1, d))
            columns = np.concatenate(
                [-np.einsum("lab,bk->lak", ads_y, null_x),
                 -np.einsum("lab,bk->lak", ads_x, null_y)],
                axis=2,
            )
            residuals[i] = max(residuals[i], _weighted_lstsq(gram, columns, target))
    return residuals


def keeps_verdict_with_centralizers(report, metric, sc, seed, tol):
    """Whether the centralizer identity, on ``report``'s samples, leaves its verdict as it is."""
    residuals = bracket_residuals_by_loop(
        metric, sc, report.samples, seed, include_centralizers=True
    )
    return report.verdict == bool(residuals.max() < tol)


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
    # a generic eigenplane, whose pairs with the simple clusters give identity
    # (i) residuals of 0.02-0.65 at seed 17: a tolerance inside that range
    "dense-repeated-cluster": (generic_eigenspace_metric([1.0, 1.0, 2.0, 3.0]), 0.3),
}


def assert_bracket_check_matches_sample_loop(metric, sc, samples, tol):
    """Compare the bracket check's report at seed 17 with the loop's; returns the report."""
    report = brackets_property_check(metric, sc, samples=samples, seed=17, tol=tol)
    residuals = bracket_residuals_by_loop(metric, sc, samples, 17)
    assert report.samples == samples
    assert report.failures == tuple(int(i) for i in np.nonzero(residuals >= tol)[0])
    assert abs(report.max_residual - residuals.max()) <= 1e-12
    assert abs(report.residual_min - residuals.min()) <= 1e-12
    assert abs(report.residual_median - np.median(residuals)) <= 1e-12
    assert report.verdict == bool(residuals.max() < tol)
    return report


@IDENTITIES
@pytest.mark.parametrize("samples", SAMPLE_COUNTS)
@pytest.mark.parametrize("name", sorted(BRACKET_METRICS))
def test_brackets_property_check_chunks_match_sample_loop(backend, name, samples, identities):
    metric, tol = BRACKET_METRICS[name]
    report = assert_bracket_check_matches_sample_loop(metric, backend, samples, tol)
    if name.startswith("dense") and samples > CHUNK:
        assert 0 < len(report.failures) < samples
    if identities == "centralizers":
        assert keeps_verdict_with_centralizers(report, metric, backend, 17, tol)


def test_brackets_property_check_chunks_match_sample_loop_under_so5():
    # d = 10: each part of a sample's (2, m - 1, d) draw spans ten columns
    metric, _ = BRACKET_METRICS["dense-repeated-cluster"]
    assert sorted(len(cluster) for cluster in eigendecompose(metric).clusters) == [1, 1, 2]
    # a tolerance inside identity (i)'s residual range, 0.30-1.11 at seed 17,
    # makes failures a proper subset
    samples = CHUNK + 1
    sc = from_entries(*so_n_entries(5))
    report = assert_bracket_check_matches_sample_loop(metric, sc, samples, 0.6)
    assert 0 < len(report.failures) < samples


@pytest.mark.parametrize(
    "name, symmetric", [("dense-m5", True), ("dense-repeated-cluster", False)]
)
def test_identity_i_ignores_a_weight_swap_only_between_one_dimensional_clusters(
    backend, monkeypatch, name, symmetric
):
    # both clusters of every pair of dense-m5 are one-dimensional; the
    # generic eigenplane of dense-repeated-cluster is not
    metric, _ = BRACKET_METRICS[name]
    pair_residuals = oracle._pair_residuals
    seen = []

    def both_ways(sc, x, y, alpha, beta):
        out = pair_residuals(sc, x, y, alpha, beta)
        seen.append((out, pair_residuals(sc, x, y, beta, alpha)))
        return out

    monkeypatch.setattr(oracle, "_pair_residuals", both_ways)
    brackets_property_check(metric, backend, samples=131, seed=17)
    straight, swapped = (np.concatenate(side) for side in zip(*seen))
    gap = float(np.max(np.abs(straight - swapped)))
    if symmetric:
        assert gap <= 1e-12
    else:
        assert gap > 1e-3


def simple_spectrum_metrics(m):
    """Two dense metrics and two GO family metrics at m, each with m - 1 simple eigenvalues."""
    rng = np.random.default_rng([m, 29])
    metrics = [dense_nonreductive_metric(rng, m) for _ in range(2)]
    metrics += [go_family(random_nodes(rng, m), rho=1.0, lam=lam)[0] for lam in (0.0, 0.2)]
    for metric in metrics:
        assert all(len(cluster) == 1 for cluster in eigendecompose(metric).clusters)
    return metrics


@pytest.mark.parametrize("table", ["so3", "so5"])
def test_bracket_identities_have_closed_forms_on_one_dimensional_clusters(monkeypatch, table):
    # between one-dimensional clusters i and j, with x = b^i (x) X and
    # y = b^j (x) Y, identity (i) leaves |[X, Y]|_K times the distance of
    # b^i <> b^j from span(b^i, b^j); identity (ii), which the check no
    # longer runs, vanishes on every self-saturated cluster (see
    # test_leak_vanishes_exactly_on_self_saturated_clusters)
    sc = so3() if table == "so3" else from_entries(*so_n_entries(5))
    pair_residuals = oracle._pair_residuals
    pairs = []

    def recorded_pairs(sc, x, y, alpha, beta):
        out = pair_residuals(sc, x, y, alpha, beta)
        pairs.append((x, y, out))
        return out

    monkeypatch.setattr(oracle, "_pair_residuals", recorded_pairs)
    checked = 0
    for m in range(3, 7):
        for metric in simple_spectrum_metrics(m):
            pairs.clear()
            brackets_property_check(metric, sc, samples=64, seed=11)
            vectors = eigendecompose(metric).system.vectors

            def factor(z):
                # z = b^i (x) Z for one eigenvector b^i and a unit Z in the algebra
                rows = vectors @ z
                i = int(np.argmax(np.linalg.norm(rows, axis=1)))
                assert np.max(np.abs(z - np.outer(vectors[i], rows[i]))) <= 1e-14
                return i, rows[i]

            for x, y, residuals in pairs:
                for xs, ys, residual in zip(x, y, residuals):
                    (i, big_x), (j, big_y) = factor(xs), factor(ys)
                    bracket = np.einsum("a,b,abc->c", big_x, big_y, sc.unit.c)
                    norm = math.sqrt(bracket @ sc.unit.gram @ bracket)
                    diamond = vectors[i] * vectors[j]
                    rest = diamond - (diamond @ vectors[[i, j]].T) @ vectors[[i, j]]
                    closed = norm * float(np.linalg.norm(rest))
                    if max(residual, closed) > 1e-10:
                        assert abs(residual - closed) <= 1e-12 * closed, (m, i, j)
                    else:
                        assert max(residual, closed) < 1e-12, (m, i, j)
                    checked += 1
    assert checked == 4 * 4 * 64


def cluster_leaks(sc, eigen, cluster, rng, count=16):
    """Identity (ii) on ``count`` random elements x and raw second elements of ``cluster``."""
    vectors = eigen.system.vectors
    mask = np.zeros((count, len(vectors)), dtype=bool)
    mask[:, list(cluster)] = True
    x = vectors.T @ (rng.standard_normal((count, len(vectors), sc.dim)) * mask[..., None])
    x /= np.linalg.norm(x, axis=(1, 2))[:, None, None]
    raw = rng.standard_normal((count, len(vectors), sc.dim)) * mask[..., None]
    return leak_residuals_by_einsum(sc, vectors, x, raw, mask)


# the standard metric at m = 6 has one cluster of dimension 5, and equal
# weights of an invariant form give clusters of dimension 1 to 4
SELF_SATURATED = [standard_metric(6)] + [
    invariant_form_metric(alphas)
    for alphas in [(1, 1, 1, 2, 3), (1, 1, 1, 1, 2, 2), (2, 2, 2, 2, 5), (1, 1, 2, 2, 3, 3),
                   (1, 1, 1, 1, 1, 3)]
]


@pytest.mark.parametrize("table", ["so3", "so3-skewed", "so5"])
def test_leak_vanishes_exactly_on_self_saturated_clusters(table):
    # identity (ii), which the bracket check no longer runs: on a
    # self-saturated cluster nothing leaks, and on a generic eigenspace the
    # leak measures the failure that makes classify_go say no
    sc = {"so3": so3, "so3-skewed": skewed_so3,
          "so5": lambda: from_entries(*so_n_entries(5))}[table]().unit
    rng = np.random.default_rng(41)
    sizes = set()
    for metric in SELF_SATURATED:
        eigen = eigendecompose(metric)
        assert all(eigen.self_saturated)
        for cluster in eigen.clusters:
            assert cluster_leaks(sc, eigen, cluster, rng).max() <= 1e-12, (metric.m, cluster)
            sizes.add(len(cluster))
    assert sizes == {1, 2, 3, 4, 5}
    generic = 0
    for gammas in [(1, 1, 2, 3), (3, 2, 1, 1), (1, 1, 1, 2), (2, 1, 1, 1), (1, 1, 2, 2)]:
        metric = generic_eigenspace_metric(list(map(float, gammas)))
        result = classify_go(metric)
        assert result.verdict is GoVerdict.NO
        assert "is not self-saturated" in result.reason
        eigen = eigendecompose(metric)
        for cluster in eigen.clusters:
            if len(cluster) > 1:
                assert cluster_leaks(sc, eigen, cluster, rng).max() > 1e-2, (gammas, cluster)
                generic += 1
    assert generic == 6


ONE_CLUSTER_NOTE = "one eigenvalue cluster: no cluster pair to test"


@pytest.mark.parametrize("name", ["standard-m4", "standard-m6", "equal-weights-m5"])
def test_bracket_check_says_when_there_is_no_cluster_pair(backend, name):
    metric = {
        "standard-m4": standard_metric(4),
        "standard-m6": standard_metric(6),
        "equal-weights-m5": invariant_form_metric([2.5] * 5),
    }[name]
    assert len(eigendecompose(metric).clusters) == 1
    report = brackets_property_check(metric, backend, samples=CHUNK + 1, seed=5)
    assert (report.max_residual, report.residual_min, report.residual_median) == (0.0, 0.0, 0.0)
    assert report.verdict and report.notes == ONE_CLUSTER_NOTE
    section = verify_report(metric, samples=20, seed=5)["bracket_properties"]
    assert (section["max_residual"], section["notes"]) == (0.0, ONE_CLUSTER_NOTE)
    # with two clusters there is a pair to test, and no note
    two = BRACKET_METRICS["go-repeated-cluster"][0]
    assert brackets_property_check(two, backend, samples=20, seed=5).notes == ""


def rotated(metric, i, j, angle=0.3):
    """``metric`` with its eigenvectors b^i and b^j turned by ``angle`` in their plane."""
    system = eigendecompose(metric).system
    vectors = system.vectors.copy()
    c, s = np.cos(angle), np.sin(angle)
    vectors[[i, j]] = np.array([[c, s], [-s, c]]) @ system.vectors[[i, j]]
    return metric_from_system(AdaptedSystem(vectors, system.gammas))


# GO metrics, the rotations of two eigenvectors that the bracket check must
# catch, and those that it must pass.  Across clusters at m >= 4 a rotation
# gives a metric that is not GO.  Inside an eigenspace it leaves the metric
# as it was, and at m = 3, where every metric is GO, it gives another GO metric.
# Eigenvectors 2 and 3 of the invariant form are left out: turning them gives
# a metric that is not GO (the GO oracle refutes it), yet the check passes it.
MUTATIONS = {
    "go-m3": (go_family(np.array([0.7, 1.4, 2.2]), rho=1.0, lam=0.1)[0], [], [(0, 1)]),
    "go-m4": (
        go_family(np.array([0.7, 1.4, 2.2, 3.0]), rho=1.0, lam=0.1)[0],
        [(0, 1), (0, 2), (1, 2)],
        [],
    ),
    "go-m5": (
        go_family(np.array([0.6, 1.1, 1.9, 2.6, 3.4]), rho=1.0, lam=0.2)[0],
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
        [],
    ),
    # equal weights give the two-dimensional eigenspace of b^0 and b^1
    "go-repeated-cluster": (
        BRACKET_METRICS["go-repeated-cluster"][0], [(0, 2), (0, 3), (1, 2), (1, 3)], [(0, 1)]
    ),
}


@pytest.mark.parametrize("table", ["so3", "so5"])
def test_bracket_check_catches_eigenvector_rotations_across_clusters(table):
    sc = so3() if table == "so3" else from_entries(*so_n_entries(5))
    for name, (metric, caught, passed) in MUTATIONS.items():
        assert brackets_property_check(metric, sc, samples=20, seed=3).verdict, name
        for i, j in caught + passed:
            report = brackets_property_check(rotated(metric, i, j), sc, samples=20, seed=3)
            if (i, j) in caught:
                assert report.max_residual > 1e-2, (name, i, j)
            else:
                assert report.max_residual < 1e-12, (name, i, j)


def verdict_corpus():
    """GO metrics and their mutations, by name: no random draw, so the corpus is fixed.

    Per GO metric: each pair of eigenvectors turned by 0.3 rad, within a
    cluster or across two; each cluster's weight scaled by 1.01; and for
    each pair of clusters, their weights swapped and the second merged into
    the first.
    """
    bases = {
        "go-m4": go_family(np.array([0.7, 1.4, 2.2, 3.0]), rho=1.0, lam=0.1)[0],
        # clusters [[0, 1], [2], [3]]
        "invariant-m5": invariant_form_metric([1.0, 1.0, 1.0, 2.0, 3.0]),
    }
    corpus = {}
    for base, metric in bases.items():
        corpus[base] = metric
        eigen = eigendecompose(metric)
        gammas = eigen.system.gammas
        clusters = [list(cluster) for cluster in eigen.clusters]
        owner = {i: k for k, cluster in enumerate(clusters) for i in cluster}
        for i, j in itertools.combinations(sorted(owner), 2):
            where = "within" if owner[i] == owner[j] else "across"
            corpus[f"{base}/rotate-{where}-{i}{j}"] = rotated(metric, i, j)
        mutated = {}
        for k, cluster in enumerate(clusters):
            mutated[f"scale-{k}"] = gammas.copy()
            mutated[f"scale-{k}"][cluster] *= 1.01
        for k, l in itertools.combinations(range(len(clusters)), 2):
            first, second = gammas[clusters[k][0]], gammas[clusters[l][0]]
            mutated[f"swap-{k}{l}"], mutated[f"merge-{k}{l}"] = gammas.copy(), gammas.copy()
            mutated[f"swap-{k}{l}"][clusters[k]] = second
            mutated[f"swap-{k}{l}"][clusters[l]] = first
            mutated[f"merge-{k}{l}"][clusters[l]] = first
        for name, weights in mutated.items():
            system = AdaptedSystem(eigen.system.vectors, weights)
            corpus[f"{base}/{name}"] = metric_from_system(system)
    return corpus


def verdict_row(report, code):
    """What ``lot verify`` decided: the GO classifier, the GO assessment, the
    certificate and bracket verdicts (None where the section is left out),
    ``ok`` and the exit code."""
    sections = [report.get(key) for key in ("natred_certificate", "bracket_properties")]
    return (report["go"]["verdict"], report["go_oracle_assessment"],
            *(None if section is None else section["verdict"] for section in sections),
            report["ok"], code)


@pytest.mark.parametrize("table", ["so3", "so5"])
def test_verdict_table_of_mutated_go_metrics(tmp_path, capsys, monkeypatch, table):
    if table == "so5":
        dim, entries = so_n_entries(5)
        path = tmp_path / "so5.json"
        path.write_text(json.dumps({"dim": dim, "c": entries, "name": "so5"}))
        monkeypatch.setenv(ENV_TABLE, str(path))
    rows = {}
    for name, metric in verdict_corpus().items():
        path = tmp_path / "metric.json"
        path.write_text(json.dumps({"m": metric.m, "repr": "T", "T": metric.matrix.tolist()}))
        code = cli.main(["verify", "--input", str(path), "--format", "json"])
        rows[name] = verdict_row(json.loads(capsys.readouterr().out), code)
    assert rows == VERDICT_TABLE


# (GO classifier, GO assessment, certificate, bracket check, ok, exit code);
# the bracket check gave the same table when it also sampled identity (ii)
GO_CONFIRMED = ("yes", "confirmed", True, True, True, 0)
# the classifier says no, so `lot verify` leaves out both checks
NOT_GO = ("no", "refuted", None, None, True, 0)
VERDICT_TABLE = {
    "go-m4": GO_CONFIRMED,
    "go-m4/rotate-across-01": NOT_GO,
    "go-m4/rotate-across-02": NOT_GO,
    "go-m4/rotate-across-12": NOT_GO,
    "go-m4/scale-0": NOT_GO,
    "go-m4/scale-1": NOT_GO,
    "go-m4/scale-2": NOT_GO,
    "go-m4/swap-01": NOT_GO,
    "go-m4/merge-01": NOT_GO,
    "go-m4/swap-02": NOT_GO,
    "go-m4/merge-02": NOT_GO,
    "go-m4/swap-12": NOT_GO,
    "go-m4/merge-12": NOT_GO,
    "invariant-m5": GO_CONFIRMED,
    "invariant-m5/rotate-within-01": GO_CONFIRMED,
    "invariant-m5/rotate-across-02": NOT_GO,
    "invariant-m5/rotate-across-03": NOT_GO,
    "invariant-m5/rotate-across-12": NOT_GO,
    "invariant-m5/rotate-across-13": NOT_GO,
    "invariant-m5/rotate-across-23": NOT_GO,
    "invariant-m5/scale-0": NOT_GO,
    "invariant-m5/scale-1": NOT_GO,
    "invariant-m5/scale-2": NOT_GO,
    "invariant-m5/swap-01": NOT_GO,
    "invariant-m5/merge-01": NOT_GO,
    "invariant-m5/swap-02": NOT_GO,
    "invariant-m5/merge-02": NOT_GO,
    "invariant-m5/swap-12": NOT_GO,
    "invariant-m5/merge-12": NOT_GO,
}


@PLAIN
def test_brackets_property_check_working_set_does_not_grow_with_samples(backend, identities):
    metric = dense_nonreductive_metric(np.random.default_rng(3), 6)
    brackets_property_check(metric, backend, samples=CHUNK, seed=1)
    tracemalloc.start()
    try:
        report = brackets_property_check(metric, backend, samples=3200, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.samples == 3200
    # the draws of all 3200 samples alone would take 1.5 MB
    assert peak < 1024 * 1024


@pytest.mark.parametrize("n", [1, 2, 3, 8, 200, 515])
def test_median_is_np_median_bit_for_bit(n):
    rng = np.random.default_rng(n)
    signed = rng.random(n) * rng.choice([-1.0, 1.0], size=n)
    signed[: n // 2] = -0.0
    huge = rng.random(n) * 1.7e308
    with_nan, with_inf = rng.random(n), rng.random(n)
    with_nan[n // 2], with_inf[0] = np.nan, np.inf
    for values in [rng.random(n), np.full(n, -0.0), signed, huge, with_nan, with_inf]:
        with np.errstate(over="ignore"):  # the middle of ``huge`` sums to inf
            want = float(np.median(values))
        # repr tells -0.0 from 0.0, and every other bit too
        assert repr(oracle._median(values)) == repr(want)


def test_oracle_report_round_trip(backend):
    metric, _, _ = go_family(np.array([1.0, 2.0, 3.0]), rho=1.0, lam=0.0)
    report = go_oracle(metric, backend, samples=5, seed=1)
    data = report.to_dict()
    assert data["kind"] == "geodesic_orbit"
    assert data["samples"] == 5
    assert data["seed"] == 1
    assert data["verdict"] is True
    assert (data["failed"], data["first_failures"]) == (0, [])
    assert list(data) == [
        "kind",
        "samples",
        "seed",
        "tol",
        "verdict",
        "max_residual",
        "residual_min",
        "residual_median",
        "failed",
        "first_failures",
        "notes",
    ]
    # the JSON form counts every failing sample and lists the first five
    dense = dense_nonreductive_metric(np.random.default_rng(77), 4)
    report = go_oracle(dense, backend, samples=12, seed=5)
    assert len(report.failures) > oracle.FIRST_FAILURES
    data = report.to_dict()
    assert data["failed"] == len(report.failures)
    assert data["first_failures"] == list(report.failures[: oracle.FIRST_FAILURES])


# -- the einsum kernels that the matmul kernels replaced ----------------------
#
# Kept as the reference, the way tests/test_diamond_products.py keeps the pair
# loops.  Each is the earlier multi-operand einsum form of a kernel; the
# matmul forms reorder the sums, so they agree to rounding level, not bitwise.

TABLES = {"so3": so3, "so3-skewed": skewed_so3}


def product_bracket_by_einsum(sc, u, v):
    return np.einsum("...i,...j,ijk->...k", u, v, sc.c)


def go_residuals_by_einsum(metric, x, sc, shift=None):
    d, gram = sc.dim, sc.gram
    ax = metric.matrix @ x
    base = product_bracket_by_einsum(sc, x, ax)
    base -= base.mean(axis=1, keepdims=True)
    coef = -_ad_rows(sc, ax)
    coef -= coef.mean(axis=1, keepdims=True)
    if shift is None:
        lhs = np.einsum("slab,ac,slcd->sbd", coef, gram, coef)
        rhs = -np.einsum("slab,ac,slc->sb", coef, gram, base)
        trace = np.trace(lhs, axis1=1, axis2=2)
        ridge = oracle.RIDGE * trace / d
        solvable = trace > 0.0
        shift = np.zeros((len(x), d))
        shift[solvable] = np.linalg.solve(
            lhs[solvable] + ridge[solvable, None, None] * np.eye(d),
            rhs[solvable, :, None],
        )[..., 0]
    rest = base + np.einsum("slab,sb->sla", coef, shift)
    quad = np.einsum("sla,ab,slb->s", rest, gram, rest)
    return np.sqrt(np.maximum(quad, 0.0)), shift


def off_range_by_einsum(lhs, rhs, size):
    u, svals, _ = np.linalg.svd(lhs, full_matrices=False)
    keep = svals > np.finfo(float).eps * size * svals[:, :1]
    coef = np.einsum("snk,sn->sk", u, rhs) * keep
    return rhs - np.einsum("snk,sk->sn", u, coef)


def lstsq_residuals_by_einsum(root, columns, target):
    lhs = np.einsum("ab,slbk->slak", root.T, columns).reshape(len(columns), -1, columns.shape[3])
    rhs = (target @ root).reshape(len(target), -1)
    return np.linalg.norm(off_range_by_einsum(lhs, rhs, lhs.shape[1]), axis=1)


def pair_residuals_by_einsum(sc, x, y, alpha, beta):
    root = np.linalg.cholesky(sc.gram)
    target = product_bracket_by_einsum(sc, x, y)
    ads_x, ads_y = _ad_rows(sc, x), _ad_rows(sc, y)
    shared = -(
        (alpha / (beta - alpha))[:, None, None, None] * ads_x
        + (beta / (beta - alpha))[:, None, None, None] * ads_y
    )
    return lstsq_residuals_by_einsum(root, shared, target)


# identity (ii) of the bracket check, which the check no longer runs: the
# reference of test_leak_vanishes_exactly_on_self_saturated_clusters
def leak_residuals_by_einsum(sc, vectors, x, raw, mask):
    d = sc.dim
    constraint = np.einsum("al,slbc->sacb", vectors, _ad_rows(sc, x)) * mask[..., None, None]
    constraint = constraint.reshape(len(x), -1, d)
    sizes = d * mask.sum(axis=1)[:, None]
    kept = off_range_by_einsum(constraint, raw.reshape(len(x), -1), sizes).reshape(raw.shape)
    y = vectors.T @ kept
    norm = np.linalg.norm(y, axis=(1, 2))
    live = norm > 1e-10
    y /= np.where(live, norm, 1.0)[:, None, None]
    rest = product_bracket_by_einsum(sc, x, y)
    rest -= rest.mean(axis=1, keepdims=True)
    leak = rest - vectors.T @ ((vectors @ rest) * mask[..., None])
    quad = np.einsum("sla,ab,slb->s", leak, sc.gram, leak)
    return np.where(live, np.sqrt(np.maximum(quad, 0.0)), 0.0)


def unit_stack(rng, count, m, d):
    x = rng.standard_normal((count, m, d))
    x -= x.mean(axis=1, keepdims=True)
    return x / np.linalg.norm(x, axis=(1, 2))[:, None, None]


@pytest.mark.parametrize("m", [3, 5, 7])
@pytest.mark.parametrize("table", sorted(TABLES))
def test_matmul_kernels_match_the_einsum_kernels(table, m):
    sc = TABLES[table]()
    rng = np.random.default_rng([m, len(table)])
    # a fixed count, so that the data does not depend on the oracle's CHUNK:
    # the kernels are called directly, and no batching takes place
    count, d = 67, sc.dim
    x, y = unit_stack(rng, count, m, d), unit_stack(rng, count, m, d)

    assert np.max(np.abs(product_bracket(sc, x, y) - product_bracket_by_einsum(sc, x, y))) <= 1e-12
    assert np.max(np.abs(ad_rows(sc, x) - _ad_rows(sc, x))) <= 1e-12

    metric = dense_nonreductive_metric(rng, m)
    scaled = MetricT(metric.matrix / power_of_two_scale(metric.matrix))
    got, shifts = oracle._go_residuals(scaled.matrix, x, sc)
    want, want_shifts = go_residuals_by_einsum(scaled, x, sc)
    assert np.max(np.abs(got - want)) <= 1e-12
    assert np.max(np.abs(shifts - want_shifts)) <= 1e-12
    given = rng.standard_normal((count, d))
    got = oracle._go_residuals(scaled.matrix, x, sc, given)[0]
    assert np.max(np.abs(got - go_residuals_by_einsum(scaled, x, sc, given)[0])) <= 1e-12
    # a GO metric leaves residuals at rounding level in both forms
    got = oracle._go_residuals(standard_metric(m).matrix, x, sc)[0]
    assert np.max(got) <= 1e-12

    # certificate_residuals_by_loop measures each sample with the einsum
    # "i,ia,ab,ib->"; a certificate inconsistent with its form gives O(1) residuals
    form = T_to_form(metric)
    alphas = rng.uniform(0.5, 2.0, size=m)
    claimed = NatRedResult(case=NatRedCase.INVARIANT_FORM, alphas=alphas, alpha_sum=0.5)
    report = natred_certificate_check(form, claimed, sc, samples=count, seed=m)
    want = certificate_residuals_by_loop(form, claimed, sc, count, m)
    assert abs(report.residual_median - np.median(want)) <= 1e-12
    assert abs(report.residual_min - np.min(want)) <= 1e-12
    assert np.median(want) > 1e-3

    alpha, beta = rng.uniform(0.5, 1.0, size=count), rng.uniform(1.5, 3.0, size=count)
    # generic x and y, and rank-one elements b (x) X
    rank_one = [rng.standard_normal((count, m, 1)) * rng.standard_normal((count, 1, d))
                for _ in range(2)]
    for u, v in [(x, y), rank_one]:
        got = oracle._pair_residuals(sc, u, v, alpha, beta)
        assert np.max(np.abs(got - pair_residuals_by_einsum(sc, u, v, alpha, beta))) <= 1e-12


def test_fit_residuals_match_the_einsum_kernel_with_padded_columns():
    rng = np.random.default_rng(29)
    lhs = rng.standard_normal((CHUNK, 4, 3, 6))
    lhs[..., 4:] = 0.0  # zero columns
    lhs[: CHUNK // 2, ..., 3] = lhs[: CHUNK // 2, ..., 0]  # rank-deficient slices
    rhs = rng.standard_normal((CHUNK, 4, 3))
    got = oracle._fit_residuals(lhs, rhs)
    flat = lhs.reshape(CHUNK, 12, 6), rhs.reshape(CHUNK, 12)
    assert np.max(np.abs(got - np.linalg.norm(off_range_by_einsum(*flat, 12), axis=1))) <= 1e-12
    for s in range(CHUNK):
        # each problem solved alone, at lstsq's default cutoff
        a, b = flat[0][s], flat[1][s]
        assert abs(got[s] - np.linalg.norm(b - a @ np.linalg.lstsq(a, b, rcond=None)[0])) <= 1e-12
    root = np.linalg.cholesky(skewed_so3().gram)
    columns = rng.standard_normal((CHUNK, 4, 3, 5))
    target = rng.standard_normal((CHUNK, 4, 3))
    got = oracle._fit_residuals(root.T @ columns, target @ root)
    assert np.max(np.abs(got - lstsq_residuals_by_einsum(root, columns, target))) <= 1e-12


def test_oracles_confirm_the_standard_metric_in_a_skewed_basis():
    sc = skewed_so3()
    # every entry but those of [E'_a, E'_a], and every entry of the Gram matrix
    assert np.count_nonzero(np.abs(sc.c) > 1e-12) == 18
    assert np.count_nonzero(np.abs(sc.gram) > 1e-12) == 9
    metric = standard_metric(5)
    word, report = assess_geodesic_orbit(metric, sc)
    assert (word, report.samples) == ("confirmed", 200)
    form = T_to_form(metric)
    certificate = natred_certificate_check(form, classify_natred(form), sc)
    assert certificate.verdict, certificate.notes
    assert brackets_property_check(metric, sc).verdict
    # and a dense metric stays refuted
    dense = dense_nonreductive_metric(np.random.default_rng(8), 5)
    assert assess_geodesic_orbit(dense, sc)[0] == "refuted"


# -- the shared pass of `lot verify` -------------------------------------------


def perturbed_metric(alphas, size=2e-6):
    """An invariant-form metric plus a zero-row-sum perturbation of relative size ``size``.

    Its GO residuals, about ``size``, sit between the oracle's thresholds.
    """
    t = invariant_form_metric(alphas).matrix
    e = np.random.default_rng(12).normal(size=t.shape)
    e = (e + e.T) / 2
    e -= e.mean(axis=0, keepdims=True)
    e -= e.mean(axis=1, keepdims=True)
    return MetricT(t + size * np.linalg.norm(t) / np.linalg.norm(e) * e)


def certified(alphas):
    """The naturally-reductive certificate of the invariant form with weights ``alphas``."""
    return classify_natred(T_to_form(invariant_form_metric(alphas)))


# name: (metric, certificate or None, bracket tol, GO assessment at 2C + 3 samples)
SHARED_PASS = {
    "go-invariant": (invariant_form_metric([0.8, 1.3, 2.1, 2.9]), "own", 1e-8, "confirmed"),
    "go-repeated-cluster": (BRACKET_METRICS["go-repeated-cluster"][0], "own", 1e-8, "confirmed"),
    "standard-m5": (standard_metric(5), "own", 1e-8, "confirmed"),
    # a certificate of another form on five copies: every check fails some samples
    "dense-m5": (
        BRACKET_METRICS["dense-m5"][0], certified([0.7, 1.1, 1.9, 2.3, 2.6]), 0.1, "refuted"
    ),
    # GO rounds 1 and 2 run after the shared pass
    "perturbed-m4": (perturbed_metric([0.8, 1.3, 2.1, 2.9]), None, 1e-8, "marginal"),
    # no certificate: the bracket draw (2, 5, 3) is longer than the GO draw (6, 3)
    "dense-m6": (dense_nonreductive_metric(np.random.default_rng(3), 6), None, 0.1, "refuted"),
}


def shared_checks(name, backend):
    """The checks that `lot verify` runs beside GO round 0, and their standalone calls."""
    metric, certificate, bracket_tol, _ = SHARED_PASS[name]
    form = T_to_form(metric)
    if certificate == "own":
        certificate = classify_natred(form)
    eigen = eigendecompose(metric)
    checks = [oracle._bracket_check(eigen, backend, bracket_tol)]
    calls = [
        lambda samples, seed: brackets_property_check(metric, backend, samples, seed, bracket_tol)
    ]
    if certificate is not None:
        checks.insert(0, oracle._certificate_check(form, certificate, backend, 1e-8))
        calls.insert(
            0, lambda samples, seed: natred_certificate_check(form, certificate, backend, samples, seed)
        )
    return metric, checks, calls


@PLAIN
@pytest.mark.parametrize("samples", SAMPLE_COUNTS)
@pytest.mark.parametrize("name", sorted(SHARED_PASS))
def test_shared_pass_reports_equal_standalone_calls(backend, name, samples, identities):
    metric, checks, calls = shared_checks(name, backend)
    seed = 17
    alone = [call(samples, seed) for call in calls]
    # with GO round 0, as when the classifier decided
    word, report, reports = oracle._assess(metric, backend, samples, seed, checks)
    assert (word, report) == assess_geodesic_orbit(metric, backend, samples, seed)
    assert reports == alone
    # without it, as when the classifier's fallback ran the GO rounds already
    assert oracle._sampled(checks, samples, seed) == alone
    if samples == 2 * CHUNK + 3:
        assert word == SHARED_PASS[name][3]


@IDENTITIES
@pytest.mark.parametrize("name", ["go-invariant", "dense-m5", "perturbed-m4"])
def test_reports_do_not_depend_on_the_chunk_size(backend, monkeypatch, name, identities):
    metric, checks, _ = shared_checks(name, backend)
    if name == "perturbed-m4":
        # the certificate of the form before the perturbation
        unperturbed = certified([0.8, 1.3, 2.1, 2.9])
        checks.insert(0, oracle._certificate_check(T_to_form(metric), unperturbed, backend, 1e-8))
    assert len(checks) == 2
    samples, seed = 2 * CHUNK + 3, 17
    runs = []
    for chunk in [1, 7, 64, CHUNK]:
        monkeypatch.setattr(oracle, "CHUNK", chunk)
        runs.append(oracle._assess(metric, backend, samples, seed, checks))
    assert runs[0][0] == SHARED_PASS[name][3]
    # repr tells every bit of a float apart, -0.0 from 0.0 too
    assert all(repr(run) == repr(runs[0]) for run in runs[1:])
    if identities == "centralizers":
        bracket, tol = runs[0][2][-1], SHARED_PASS[name][2]
        assert keeps_verdict_with_centralizers(bracket, metric, backend, seed, tol)


# metrics that the GO classifier says no on, so that `lot verify` leaves the
# bracket check out of its pass: name: (metric, certificate or None)
CLASSIFIER_NO = {
    # a certificate of another form on five copies
    "dense-m5": SHARED_PASS["dense-m5"][:2],
    "dense-m6": SHARED_PASS["dense-m6"][:2],
    # a generic three-dimensional eigenspace: the bracket draw (2, 4, 3) is
    # the longest of the pass, so leaving it out shortens every row
    "dense-repeated-cluster": (generic_eigenspace_metric([1.0, 1.0, 1.0, 2.0]), None),
}


@pytest.mark.parametrize("name", sorted(CLASSIFIER_NO))
def test_leaving_out_the_bracket_check_moves_no_other_digit(backend, name):
    metric, certificate = CLASSIFIER_NO[name]
    assert classify_go(metric).verdict is GoVerdict.NO
    checks = []
    if certificate is not None:
        checks.append(oracle._certificate_check(T_to_form(metric), certificate, backend, 1e-8))
    bracket = oracle._bracket_check(eigendecompose(metric), backend, 1e-8)
    if name == "dense-repeated-cluster":
        assert math.prod(bracket.shape) > metric.m * backend.dim
    samples, seed = 2 * CHUNK + 3, 17
    word, report, reports = oracle._assess(metric, backend, samples, seed, [*checks, bracket])
    without = oracle._assess(metric, backend, samples, seed, checks)
    assert word == "refuted"
    # repr tells every bit of a float apart, -0.0 from 0.0 too
    assert repr(without) == repr((word, report, reports[:-1]))


def test_shared_pass_draws_each_sample_once(backend, monkeypatch):
    normals = oracle._normals
    streams = []

    def recording(seed, indices, shape, start=0):
        streams.extend((seed, int(i)) for i in indices)
        return normals(seed, indices, shape, start)

    monkeypatch.setattr(oracle, "_normals", recording)
    samples, seed = 2 * CHUNK + 3, 17
    metric, checks, _ = shared_checks("perturbed-m4", backend)
    word, report, _ = oracle._assess(metric, backend, samples, seed, checks)
    assert word == "marginal"
    # round 0 seeds each stream once for all checks; rounds 1 and 2 run GO alone
    expected = [(seed + 7919 * r, i) for r in range(3) for i in range(samples << r)]
    assert streams == expected


def test_shared_pass_working_set_does_not_grow_with_samples(backend):
    metric = dense_nonreductive_metric(np.random.default_rng(3), 8)
    form = T_to_form(metric)
    certificate = certified(np.linspace(0.6, 2.4, 8))
    checks = [
        oracle._certificate_check(form, certificate, backend, 1e-8),
        oracle._bracket_check(eigendecompose(metric), backend, 1e-8),
    ]
    oracle._assess(metric, backend, CHUNK, 1, checks)
    tracemalloc.start()
    try:
        word, report, reports = oracle._assess(metric, backend, 3200, 1, checks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert word == "refuted"
    assert [r.samples for r in (report, *reports)] == [3200] * 3
    # the certificate's (2, 8, 3) draws of all 3200 samples alone would take 1.2 MB
    assert peak < 1024 * 1024
