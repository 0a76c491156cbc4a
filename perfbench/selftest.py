"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench/selftest.py

They check that each generator yields inputs of its declared class, that
each check rejects a planted wrong answer, and that one pass of each
workload runs with no failed operation.
"""

import contextlib
import copy
import io
import json

import numpy as np
import pytest

import run
from checks import CHECKS, check_groups, rebuild_natred
from inputs import cases_for

cli = run.import_program()

SEEDS = (0, 7)


def _is_metric(t: np.ndarray) -> bool:
    m = t.shape[0]
    scale = np.max(np.abs(t))
    eigs = np.linalg.eigvalsh(t)
    return (
        np.array_equal(t, t.T)
        and np.max(np.abs(t.sum(axis=1))) <= 1e-12 * scale * m
        and abs(eigs[0]) <= 1e-10 * scale
        and eigs[1] > 1e-6 * scale
    )


def _couplings(t: np.ndarray) -> set:
    m = t.shape[0]
    small = 1e-12 * np.max(np.abs(t))
    return {(i, j) for i in range(m) for j in range(i + 1, m) if abs(t[i, j]) > small}


def _spectrum(t):
    """Nonzero eigenvalues (the kernel is the all-ones line)."""
    return np.linalg.eigvalsh(t)[1:]


def _largest_multiplicity(t) -> int:
    eigs = _spectrum(t)
    return max(int(np.sum(np.abs(eigs - e) <= 1e-9 * eigs[-1])) for e in eigs)


def _star_centre(t):
    """The copy every coupling touches, if the couplings form a star."""
    edges = _couplings(t)
    for c in range(t.shape[0]):
        if edges and all(c in e for e in edges) and len(edges) == t.shape[0] - 1:
            return c
    return None


def _invariant_weights(t, tol=1e-10):
    """Weights alpha with T = diag(alpha) - alpha alpha^T / sum(alpha) to
    ``tol`` relative, if any.

    From T_ii = alpha_i - alpha_i^2 / S and T_ij = -alpha_i alpha_j / S:
    alpha_i = T_ii - T_ij T_ik / T_jk for distinct i, j, k.
    """
    m = t.shape[0]
    alphas = np.array([
        t[i, i] - t[i, (i + 1) % m] * t[i, (i + 2) % m] / t[(i + 1) % m, (i + 2) % m]
        for i in range(m)
    ])
    rebuilt = np.diag(alphas) - np.outer(alphas, alphas) / alphas.sum()
    close = np.max(np.abs(rebuilt - t)) <= tol * np.max(np.abs(t))
    return alphas if close else None


@pytest.mark.parametrize("seed", SEEDS)
def test_classify_inputs_are_of_their_class(seed):
    cases = cases_for("classify", seed)
    by_name = {c.name: c for c in cases}
    for case in cases:
        t = case.t
        assert _is_metric(t), case.name
        kind = case.kind.removesuffix("-copy")
        full = len(_couplings(t)) == case.m * (case.m - 1) // 2
        if kind == "dense":
            assert full, case.name
            assert case.expect["naturally_reductive"] == (case.m == 3)
        elif kind == "invariant_distinct":
            alphas = _invariant_weights(t)
            assert alphas is not None, case.name
            assert (np.sum(alphas < 0) == 0) == case.expect["normal"], case.name
            assert _largest_multiplicity(t) == 1, case.name
        elif kind in ("diagonal_distinct", "ideal_distinct"):
            centre = _star_centre(t)
            assert centre is not None, case.name
            if case.kind == "diagonal_distinct":
                assert centre == case.m - 1, case.name
        elif kind in ("standard", "invariant_equal", "diagonal_equal", "ideal_equal",
                      "invariant_most_equal"):
            assert _largest_multiplicity(t) >= case.m - 3 >= 2, case.name
            if kind in ("diagonal_equal", "ideal_equal"):
                assert _star_centre(t) is not None, case.name
            else:
                assert _invariant_weights(t) is not None, case.name
        else:
            raise AssertionError(f"unknown kind {case.kind}")
        if case.group not in (None, case.name):
            base = by_name[case.group]
            ratio = _spectrum(t) / _spectrum(base.t)
            assert np.allclose(ratio, ratio[0], rtol=1e-9), case.name
    repeated = [c for c in cases if _largest_multiplicity(c.t) > 1]
    assert 0 < len(repeated) < len(cases) / 2


@pytest.mark.parametrize("seed", SEEDS)
def test_decompose_inputs_are_of_their_class(seed):
    for case in cases_for("decompose", seed):
        t = case.t
        assert _is_metric(t), case.name
        within = set()
        rebuilt = np.zeros_like(t)
        for copies, block_t, natred in case.blocks:
            assert _is_metric(block_t), case.name
            assert len(_couplings(block_t)) == len(copies) * (len(copies) - 1) // 2
            rebuilt[np.ix_(copies, copies)] += block_t
            within |= {(min(a, b), max(a, b)) for a in copies for b in copies if a != b}
            if len(copies) <= 3:
                assert natred, case.name
        assert np.max(np.abs(rebuilt - t)) <= 1e-12 * np.max(np.abs(t)), case.name
        assert _couplings(t) == within, case.name
        # the blocks form a tree: sum of sizes exceeds m by (blocks - 1)
        sizes = [len(b[0]) for b in case.blocks]
        assert sum(sizes) - case.m == len(sizes) - 1, case.name
        if case.kind == "block_tree":
            assert len(sizes) > 1 and 3 <= case.m <= 6
        else:
            assert case.m in (5, 6, 7)
    go_values = {c.expect["go_manifold"] for c in cases_for("decompose", seed)}
    assert go_values == {True, False}


@pytest.mark.parametrize("seed", SEEDS)
def test_verify_inputs_are_of_their_class(seed):
    for case in cases_for("verify", seed):
        t = case.t
        assert _is_metric(t), case.name
        if case.kind == "go_invariant":
            assert _invariant_weights(t) is not None
        elif case.kind == "go_random_m3":
            assert case.m == 3
        elif case.kind == "dense_non_go":
            assert len(_couplings(t)) == case.m * (case.m - 1) // 2 and case.m >= 4
            assert _invariant_weights(t) is None
        elif case.kind == "perturbed_go":
            # an invariant form moved by about 2e-6 relative
            assert case.m >= 4 and _invariant_weights(t) is None
            assert _invariant_weights(t, tol=1e-4) is not None
        else:
            raise AssertionError(f"unknown kind {case.kind}")


def _report(command, case, tmp_path):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"m": case.m, "repr": "T", "T": case.t.tolist()}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([command, "--input", str(path), "--format", "json"])
    return code, json.loads(out.getvalue())


def _first(workload, kind):
    return next(c for c in cases_for(workload, 3) if c.kind == kind)


def test_classify_check_rejects_planted_errors(tmp_path):
    check = CHECKS["classify"]
    case = _first("classify", "invariant_distinct")
    code, report = _report("classify", case, tmp_path)
    assert check(case, code, report) == []
    rebuilt = rebuild_natred(report["natred"], case.m)
    assert np.max(np.abs(rebuilt - case.t)) <= 1e-9 * np.max(np.abs(case.t))

    flipped = copy.deepcopy(report)
    flipped["natred"]["naturally_reductive"] = False
    assert check(case, code, flipped)
    flipped = copy.deepcopy(report)
    flipped["go_final"] = "no"
    assert check(case, code, flipped)
    weight = copy.deepcopy(report)
    weight["natred"]["alphas"][0] *= 1 + 1e-6
    assert check(case, code, weight)
    gamma = copy.deepcopy(report)
    gamma["go"]["certificate"]["gammas"][-1] *= 1 + 1e-6
    assert check(case, code, gamma)
    assert check(case, 1, report)

    star = _first("classify", "ideal_distinct")
    code, report = _report("classify", star, tmp_path)
    assert check(star, code, report) == []
    weight = copy.deepcopy(report)
    key = next(iter(weight["natred"]["betas"]))
    weight["natred"]["betas"][key] *= 1 + 1e-6
    assert check(star, code, weight)


def test_group_check_rejects_a_copy_with_other_verdicts(tmp_path):
    cases = [c for c in cases_for("classify", 3) if c.group == "dense-m05"]
    assert len(cases) == 2
    reports = [_report("classify", c, tmp_path)[1] for c in cases]
    assert check_groups(cases, reports) == {}
    reports[1]["go_final"] = "yes"
    assert list(check_groups(cases, reports)) == [1]


def test_decompose_check_rejects_planted_errors(tmp_path):
    check = CHECKS["decompose"]
    case = next(c for c in cases_for("decompose", 3)
                if c.kind == "block_tree" and len({len(b[0]) for b in c.blocks}) > 1)
    code, report = _report("decompose", case, tmp_path)
    assert check(case, code, report) == []

    swapped = copy.deepcopy(report)
    a, b = swapped["factors"][0], swapped["factors"][1]
    a["m"], b["m"] = b["m"], a["m"]
    assert check(case, code, swapped)
    sizes = copy.deepcopy(report)
    sizes["factor_sizes"][0] += 1
    assert check(case, code, sizes)
    for key in ("reducible", "go_manifold"):
        flipped = copy.deepcopy(report)
        flipped[key] = not flipped[key]
        assert check(case, code, flipped)
    k = copy.deepcopy(report)
    k["isometry_group_k"] -= 1
    assert check(case, code, k)
    spectrum = copy.deepcopy(report)
    spectrum["factors"][0]["T"][0][0] *= 1 + 1e-6
    assert check(case, code, spectrum)


def test_verify_check_rejects_planted_errors(tmp_path):
    check = CHECKS["verify"]
    case = _first("verify", "go_invariant")
    code, report = _report("verify", case, tmp_path)
    assert check(case, code, report) == []
    for path, value in ((("go_oracle_assessment",), "marginal"), (("ok",), False),
                        (("natred_certificate", "verdict"), False),
                        (("bracket_properties", "verdict"), False)):
        planted = copy.deepcopy(report)
        target = planted
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        assert check(case, code, planted), path
    assert check(case, 2, report)


@pytest.mark.parametrize("workload", ("classify", "decompose", "verify"))
def test_one_pass_has_no_failed_operation(workload, tmp_path):
    cases = cases_for(workload, 5)
    paths = run.write_inputs(cases, tmp_path)
    argvs = [[workload, "--input", str(p), "--format", "json"] for p in paths]
    latencies, outputs = [], []
    run.run_pass(cli, argvs, latencies, outputs)
    problems = {}
    assert run.check_outputs(workload, cases, outputs, problems) == 0, problems
    assert len(latencies) == len(cases)
