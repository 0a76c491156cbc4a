"""Acceptance suite: one test per required behavior, pinned tolerances.

Criteria 2 and 5 each carry a strict-xfail companion documenting a stated
value that contradicts the defining identities; the main tests assert the
self-consistent values.
"""

import time
from itertools import combinations

import numpy as np
import pytest

from ledger_obata.classify import (
    GoVerdict,
    NatRedCase,
    classify_go,
    classify_natred,
    go_family,
    super_adapted_family,
)
from ledger_obata.coeff import is_adapted, is_super_adapted
from ledger_obata.liealg import so3
from ledger_obata.metrics import (
    MetricForm,
    T_to_form,
    form_to_T,
    standard_metric,
)
from ledger_obata.oracle import (
    assess_geodesic_orbit,
    go_oracle,
    natred_certificate_check,
)
from ledger_obata.reduce import check_split, decompose
from ledger_obata.report import decompose_report
from ledger_obata.trees import enumerate_partition_pairs

from conftest import (
    DOUBLE_STAR_PAIR,
    SEVEN_SPLIT_PAIR,
    double_star_product,
    holonomy_generators,
    invariance_residual,
    invariant_form_from_weights,
    random_nodes,
    splitting_subspaces,
    worked_seven_metric,
)

BACKEND = so3()


def bounded_pd_form(rng, m):
    """Random positive-definite form with eigenvalue ratio at most 5.

    The oracle's confirm threshold measures method error; an unbounded
    anisotropy draw loses digits to conditioning alone.
    """
    n = m - 1
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    eigs = rng.uniform(0.5, 2.5, n)
    scale = rng.uniform(0.5, 2.0)
    return MetricForm(scale * (q * eigs) @ q.T)


def ideal_pattern_form(betas_head, tail, dropped):
    """Form whose row ``dropped`` carries the negated weights of the others."""
    n = len(betas_head) + 1
    a = np.zeros((n, n))
    others = [i for i in range(n) if i != dropped]
    for i, beta in zip(others, betas_head):
        a[i, i] = beta
        a[i, dropped] = a[dropped, i] = -beta
    a[dropped, dropped] = sum(betas_head) + tail
    return MetricForm(a)


def perturbed_form(rng, form, fraction=0.3):
    """Symmetric perturbation scaled well inside the smallest eigenvalue."""
    a = form.a
    n = a.shape[0]
    noise = rng.normal(size=(n, n))
    noise = (noise + noise.T) / 2
    noise /= np.linalg.norm(noise, 2)
    delta = fraction * float(np.linalg.eigvalsh(a)[0])
    return MetricForm(a + delta * noise)


def test_criterion_01_every_m3_metric_is_naturally_reductive_and_go():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    for i in range(1000):
        form = bounded_pd_form(rng, 3)
        metric = form_to_T(form)
        nr = classify_natred(form)
        assert nr.case is not NatRedCase.NOT_NR, f"instance {i}"
        go = classify_go(metric)
        assert go.verdict is GoVerdict.YES, f"instance {i}: {go.reason}"
        report = go_oracle(metric, BACKEND, samples=50, seed=i)
        assert report.verdict and report.max_residual < 1e-8, f"instance {i}"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f} s"


def test_criterion_02_closed_form_weights_for_pinned_m3_form():
    form = MetricForm(np.array([[2.0, 1.0], [1.0, 3.0]]))
    result = classify_natred(form)
    assert result.case is NatRedCase.INVARIANT_FORM
    # the three weights as an unordered set, each to 1e-12
    got = sorted(result.alphas)
    expected = sorted([1.25, -5.0, 5.0 / 3.0])
    assert np.allclose(got, expected, atol=1e-12)
    assert result.alpha_sum == pytest.approx(-25.0 / 12.0, abs=1e-12)
    head = result.alphas[:-1]
    rebuilt = np.diag(head) - np.outer(head, head) / result.alpha_sum
    assert np.max(np.abs(rebuilt - form.a)) < 1e-12


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated component order (5/4, -5, 5/3) fails the reconstruction "
        "identity a_12 = -w_1 w_2 / S; the consistent order swaps the last "
        "two entries"
    ),
)
def test_criterion_02_displayed_component_order():
    form = MetricForm(np.array([[2.0, 1.0], [1.0, 3.0]]))
    result = classify_natred(form)
    assert np.allclose(result.alphas, [1.25, -5.0, 5.0 / 3.0], atol=1e-12)


def test_criterion_03_standard_metric_suite():
    for m in range(2, 7):
        metric = standard_metric(m)
        nr = classify_natred(T_to_form(metric))
        assert nr.case is NatRedCase.INVARIANT_FORM, f"m={m}"
        assert np.ptp(nr.alphas) < 1e-12, f"m={m}"
        assert nr.normal, f"m={m}"
        go = classify_go(metric)
        assert go.verdict is GoVerdict.YES, f"m={m}: {go.reason}"
        assert np.max(np.abs(go.certificate.constants)) < 1e-12, f"m={m}"
        decomp = decompose(metric)
        assert decomp.factor_sizes == (m,), f"m={m}"
        assert decomp.isometry_group_exponent == m, f"m={m}"


def test_criterion_04_three_node_family_reproduction():
    z = np.array([1.0, 2.0, 3.0])
    family = super_adapted_family(z)
    exact = np.array([(11.0 - np.sqrt(13.0)) / 6.0, (11.0 + np.sqrt(13.0)) / 6.0])
    assert np.allclose(family.roots, exact, atol=1e-10)

    system = family.system(family.roots)
    assert is_adapted(system, tol=1e-12)
    ok, check = is_super_adapted(system, tol=1e-12)
    assert ok, check.max_residual

    metric, _, gammas = go_family(z, 1.0, 0.0)
    assert np.allclose(gammas, family.roots, atol=1e-12)
    result = classify_go(metric)
    assert result.verdict is GoVerdict.YES
    report = go_oracle(metric, BACKEND, samples=100, seed=4)
    assert report.verdict and report.max_residual < 1e-8


def test_criterion_05_seven_copy_example_split_and_holonomy():
    metric = worked_seven_metric()
    outcome = check_split(metric, SEVEN_SPLIT_PAIR)
    assert outcome.ok
    assert (outcome.first.m, outcome.second.m) == (3, 5)

    ops, eigen = holonomy_generators(metric, BACKEND)
    rows1, rows2 = splitting_subspaces(SEVEN_SPLIT_PAIR, 7)
    assert invariance_residual(ops, rows1, eigen, BACKEND.dim) < 1e-8
    assert invariance_residual(ops, rows2, eigen, BACKEND.dim) < 1e-8

    # the full decomposition refines the binary split; k = m + s - 1
    decomp = decompose(metric)
    assert sorted(decomp.factor_sizes) == [2, 2, 3, 3]
    assert decomp.isometry_group_exponent == 10


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated exponent 8 conflicts with the identity k = m + s - 1: the "
        "two factors of the binary split decompose further, giving k = 10"
    ),
)
def test_criterion_05_isometry_exponent_as_stated():
    assert decompose(worked_seven_metric()).isometry_group_exponent == 8


def _mixed_metric(rng, m, kind):
    if kind == 0:
        return form_to_T(bounded_pd_form(rng, m))
    if kind == 1:
        return form_to_T(MetricForm(np.diag(rng.uniform(0.3, 3.0, m - 1))))
    if kind == 2:
        dropped = int(rng.integers(0, m - 1))
        betas = rng.uniform(0.4, 2.0, m - 2)
        tail = float(rng.uniform(0.4, 2.0))
        return form_to_T(ideal_pattern_form(list(betas), tail, dropped))
    if kind == 3:
        if rng.uniform() < 0.5:
            alphas = rng.uniform(0.5, 2.5, m)
        else:
            head = rng.uniform(0.5, 2.5, m - 1)
            alphas = np.append(head, -(head.sum() + rng.uniform(0.5, 2.0)))
        return form_to_T(invariant_form_from_weights(alphas))
    if kind == 4:
        z = random_nodes(rng, m)
        metric, _, _ = go_family(z, float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.0, 0.4)))
        return metric
    base = invariant_form_from_weights(rng.uniform(0.5, 2.5, m))
    return form_to_T(perturbed_form(rng, base))


def test_criterion_06_classifier_and_oracle_never_disagree():
    rng = np.random.default_rng(606)
    disagreements = []
    for m in (3, 4, 5):
        for i in range(300):
            metric = _mixed_metric(rng, m, i % 6)
            nr = classify_natred(T_to_form(metric)).is_naturally_reductive
            go = classify_go(metric)
            if go.verdict is GoVerdict.INDETERMINATE:
                disagreements.append((m, i, "classifier indeterminate"))
                continue
            if nr != (go.verdict is GoVerdict.YES):
                disagreements.append((m, i, "classifiers split"))
                continue
            word, _ = assess_geodesic_orbit(metric, BACKEND, samples=24, seed=1000 * m + i)
            if word == "marginal" or (word == "confirmed") != nr:
                disagreements.append((m, i, f"oracle says {word}, classifier {nr}"))
    assert disagreements == []


def test_criterion_07_go_manifold_verdict_flips_with_the_factor():
    rng = np.random.default_rng(707)
    n = 4
    g = rng.normal(size=(n, n))
    dense_form = MetricForm(g @ g.T + float(n) * np.eye(n))
    inner = form_to_T(dense_form).matrix
    assert classify_natred(dense_form).case is NatRedCase.NOT_NR
    word, _ = assess_geodesic_orbit(form_to_T(dense_form), BACKEND, samples=20, seed=7)
    assert word == "refuted"

    product = double_star_product(inner, u1=0.9, u2=1.2)
    outcome = check_split(product, DOUBLE_STAR_PAIR)
    assert outcome.ok
    assert np.max(np.abs(outcome.second.matrix - inner)) < 1e-12
    decomp = decompose(product)
    assert sorted(decomp.factor_sizes) == [2, 2, 5]
    assert len(decomp.records) == 2
    assert decompose_report(product)["go_manifold"] is False

    good_inner, _, _ = go_family(random_nodes(rng, 5), 1.0, 0.2)
    flipped = double_star_product(good_inner.matrix, u1=0.9, u2=1.2)
    flipped_decomp = decompose(flipped)
    assert sorted(flipped_decomp.factor_sizes) == [2, 2, 5]
    assert decompose_report(flipped)["go_manifold"] is True


def _all_set_partitions(items):
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for smaller in _all_set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [smaller[i] + [head]] + smaller[i + 1 :]
        yield [[head]] + smaller


def _admissible(p1, p2):
    for a in p1:
        for b in p2:
            if len(set(a) & set(b)) > 1:
                return False
    unions1 = set()
    for r in range(1, len(p1)):
        for combo in combinations(p1, r):
            unions1.add(frozenset(x for part in combo for x in part))
    for r in range(1, len(p2)):
        for combo in combinations(p2, r):
            if frozenset(x for part in combo for x in part) in unions1:
                return False
    return True


def test_criterion_08_enumeration_equals_brute_force_through_m7():
    for m in range(3, 8):
        by_count = {}
        for part in _all_set_partitions(list(range(1, m + 1))):
            canon = tuple(sorted(tuple(sorted(p)) for p in part))
            by_count.setdefault(len(canon), []).append(canon)
        expected = set()
        for c1, group1 in by_count.items():
            c2 = m + 1 - c1
            if c1 < 2 or c2 < 2 or c2 not in by_count:
                continue
            for p1 in group1:
                for p2 in by_count[c2]:
                    if _admissible(p1, p2):
                        expected.add(tuple(sorted((p1, p2))))
        pairs = enumerate_partition_pairs(m)
        emitted = {tuple(sorted((p.first, p.second))) for p in pairs}
        assert emitted == expected, f"m={m}"
        for pair in pairs:
            pair.validate()


def test_criterion_09_family_instances_have_simple_spectra_and_nonzero_constants():
    rng = np.random.default_rng(909)
    for i in range(100):
        m = 3 + i % 3
        z = random_nodes(rng, m)
        rho = float(rng.uniform(0.5, 2.0))
        lam = float(rng.uniform(0.0, 0.4))
        metric, family, _ = go_family(z, rho, lam)
        assert np.min(np.abs(family.vectors)) > 1e-10, f"instance {i}"
        result = classify_go(metric)
        assert result.verdict is GoVerdict.YES, f"instance {i}: {result.reason}"
        assert all(len(cl) == 1 for cl in result.eigen.clusters), f"instance {i}"
        assert np.min(np.abs(result.certificate.constants)) > 1e-10, f"instance {i}"


def test_criterion_10_corrupted_certificates_and_perturbed_metrics_are_rejected():
    rng = np.random.default_rng(1010)
    rejected = 0

    for i in range(25):
        kind = i % 3
        m = 4 + i % 3
        if kind == 0:
            form = MetricForm(np.diag(rng.uniform(0.5, 2.0, m - 1)))
            result = classify_natred(form)
            bad = dict(result.betas)
            bad[1 + i % (m - 1)] *= 1.05
            fake = type(result)(case=result.case, normal=True, betas=bad)
        elif kind == 1:
            dropped = i % (m - 1)
            form = ideal_pattern_form(
                list(rng.uniform(0.5, 2.0, m - 2)), float(rng.uniform(0.5, 2.0)), dropped
            )
            result = classify_natred(form)
            bad = dict(result.betas)
            bad[m] += 0.1
            fake = type(result)(
                case=result.case,
                normal=True,
                betas=bad,
                ideal_index=result.ideal_index,
            )
        else:
            form = invariant_form_from_weights(rng.uniform(0.5, 2.5, m))
            result = classify_natred(form)
            twisted = np.array(result.alphas)
            twisted[i % m] *= 1.06
            fake = type(result)(
                case=result.case,
                normal=result.normal,
                alphas=twisted,
                alpha_sum=result.alpha_sum,
            )
        report = natred_certificate_check(form, fake, BACKEND, samples=12, seed=i)
        if not report.verdict and report.max_residual > 1e-4:
            rejected += 1

    for i in range(25):
        m = 4 + i % 2
        metric, _, _ = go_family(
            random_nodes(rng, m), float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.0, 0.4))
        )
        broken = form_to_T(perturbed_form(rng, T_to_form(metric)))
        report = go_oracle(broken, BACKEND, samples=16, seed=i)
        if not report.verdict and report.max_residual > 1e-4:
            rejected += 1

    assert rejected == 50
