"""End-to-end tests of the command line driven in process."""

import argparse
import json
import os
import re
import subprocess
import sys
import warnings
from importlib.metadata import EntryPoint, PackageNotFoundError, distribution
from pathlib import Path

import numpy as np
import pytest

from ledger_obata import cli, oracle, report as reports
from ledger_obata.classify import (
    GoResult,
    GoVerdict,
    NatRedCase,
    NatRedResult,
    go_family,
)
from ledger_obata.errors import InputError, ParameterError
from ledger_obata.liealg import so3
from ledger_obata.metrics import T_to_form, eigendecompose, standard_metric
from ledger_obata.report import natred_from_dict
from ledger_obata.serialize import metric_from_dict, metric_to_dict, read_json, write_metric
from ledger_obata.trees import PartitionPair

from conftest import SEVEN_SPLIT_PAIR, dense_nonreductive_metric, laplacian_metric, skewed_so3

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
README = ROOT / "README.md"

CLASSIFY_FLAGS = {"--input", "--output", "--format", "--tol", "--cluster-tol"}
COMMAND_FLAGS = {
    "classify": CLASSIFY_FLAGS,
    "decompose": {"--input", "--output", "--format", "--tol", "--split-tol"},
    "verify": CLASSIFY_FLAGS | {"--samples", "--seed"},
    "generate": {
        "--z", "--rho", "--lambda", "--tol", "--cluster-tol", "--output", "--format"
    },
    "trees": {"--m", "--output", "--format"},
}

SO3_ENTRIES = [
    [0, 1, 2, 2.0],
    [1, 0, 2, -2.0],
    [1, 2, 0, 2.0],
    [2, 1, 0, -2.0],
    [2, 0, 1, 2.0],
    [0, 2, 1, -2.0],
]


# classify and decompose draw no samples, so they do not take --samples
SAMPLES_FLAG = {"classify": [], "decompose": [], "verify": ["--samples", "5"]}


def run_json(capsys, argv):
    code = cli.main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_classify_standard_metric(tmp_path, capsys):
    path = tmp_path / "standard5.json"
    write_metric(standard_metric(5), str(path))
    code, report = run_json(capsys, ["classify", "--input", str(path)])
    assert code == 0
    assert report["m"] == 5
    assert report["natred"]["case"] == "invariant_form"
    assert report["natred"]["normal"] is True
    assert np.allclose(report["natred"]["alphas"], np.ones(5), atol=1e-10)
    assert report["natred"]["alpha_sum"] == pytest.approx(5.0)
    assert report["go"]["verdict"] == "yes"
    assert report["go_final"] == "yes"
    assert report["agreement"] is True


def test_classify_form_file(tmp_path, capsys):
    path = tmp_path / "pinned.json"
    path.write_text(json.dumps({"m": 3, "repr": "form", "a": [[2.0, 1.0], [1.0, 3.0]]}))
    code, report = run_json(capsys, ["classify", "--input", str(path)])
    assert code == 0
    assert report["natred"]["case"] == "invariant_form"
    assert report["natred"]["normal"] is False
    assert np.allclose(report["natred"]["alphas"], [1.25, 5.0 / 3.0, -5.0], atol=1e-10)
    assert report["go_final"] == "yes"
    assert report["agreement"] is True


def test_decompose_star_metric(tmp_path, capsys):
    metric = laplacian_metric(4, [(1, 4, 2.0), (2, 4, 1.0), (3, 4, 0.5)])
    path = tmp_path / "star.json"
    write_metric(metric, str(path))
    code, report = run_json(capsys, ["decompose", "--input", str(path)])
    assert code == 0
    assert report["reducible"] is True
    assert sorted(report["factor_sizes"]) == [2, 2, 2]
    assert report["isometry_group_k"] == 6
    assert report["go_manifold"] is True
    assert len(report["splits"]) == 2


def test_decompose_m12_has_no_cap_and_no_warning(tmp_path, capsys):
    # blocks: the cycle 1..8 with a chord, the triangle 8-9-10, edges 10-11, 11-12
    cycle = [(i, i % 8 + 1, 1.0 + 0.1 * i) for i in range(1, 9)] + [(2, 6, 0.4)]
    tail = [(8, 9, 0.9), (9, 10, 1.1), (8, 10, 0.6), (10, 11, 1.3), (11, 12, 0.8)]
    path = tmp_path / "m12.json"
    for edges, sizes in ((cycle + tail, [2, 2, 3, 8]), (cycle + tail + [(1, 12, 0.5)], [12])):
        write_metric(laplacian_metric(12, edges), str(path))
        code = cli.main(["decompose", "--input", str(path), "--format", "json"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        report = json.loads(captured.out)
        assert sorted(report["factor_sizes"]) == sizes
        assert report["isometry_group_k"] == 12 + len(sizes) - 1
        assert len(report["splits"]) == len(sizes) - 1
        for split in report["splits"]:
            pair = PartitionPair(
                tuple(map(tuple, split["first"])), tuple(map(tuple, split["second"]))
            )
            pair.validate()
            assert pair.m == split["m"]


@pytest.mark.parametrize(
    "payload",
    [
        '{"m": 3, "repr": "form", "a": [[1e308, 1e307], [1e307, 1e308]]}',
        '{"m": 3, "repr": "form", "a": [[Infinity, 0.0], [0.0, 1.0]]}',
        '{"m": 3, "repr": "form", "a": [[NaN, 0.0], [0.0, 1.0]]}',
    ],
    ids=["overflow", "infinity", "nan"],
)
@pytest.mark.parametrize("command", ["classify", "decompose", "verify"])
def test_non_finite_and_overflowing_input_is_a_typed_error(tmp_path, capsys, payload, command):
    path = tmp_path / "extreme.json"
    path.write_text(payload)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow warning is not a typed error
        code = cli.main([command, "--input", str(path)] + SAMPLES_FLAG[command])
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    assert err.startswith("error: form matrix ")
    assert "positive definite" not in err


STANDARD_M3_T = "[[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]"


@pytest.mark.parametrize(
    "m", ["3.5", "true", "1e400", "1" + "0" * 400], ids=["3.5", "true", "1e400", "10**400"]
)
@pytest.mark.parametrize("command", ["classify", "decompose", "verify"])
def test_a_non_integer_m_is_a_typed_error(tmp_path, capsys, m, command):
    # m is read by the rule of ideal_index: integral values pass, and 3.5, a
    # boolean, infinity and an integer past the largest double do not
    path = tmp_path / "metric.json"
    path.write_text(f'{{"m": {m}, "repr": "T", "T": {STANDARD_M3_T}}}')
    code = cli.main([command, "--input", str(path)] + SAMPLES_FLAG[command])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: metric JSON needs integer 'm' and string 'repr': ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["classify", "decompose", "verify"])
def test_an_integral_float_m_is_read_as_an_integer(tmp_path, capsys, command):
    path = tmp_path / "metric.json"
    path.write_text(f'{{"m": 3.0, "repr": "T", "T": {STANDARD_M3_T}}}')
    code, report = run_json(capsys, [command, "--input", str(path)] + SAMPLES_FLAG[command])
    assert code == 0
    assert report["m"] == 3


@pytest.mark.parametrize("command", ["classify", "decompose", "verify"])
def test_an_integer_m_above_2_to_the_53_is_read_exactly(tmp_path, capsys, command):
    # through a float, 2**53 + 1 would be read as 2**53
    path = tmp_path / "metric.json"
    path.write_text(f'{{"m": 9007199254740993, "repr": "T", "T": {STANDARD_M3_T}}}')
    code = cli.main([command, "--input", str(path)] + SAMPLES_FLAG[command])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: 'T' must be 9007199254740993x9007199254740993, got (3, 3)")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["classify", "decompose", "verify"])
def test_huge_well_conditioned_form_runs_without_warnings(tmp_path, capsys, command):
    path = tmp_path / "huge.json"
    path.write_text('{"m": 3, "repr": "form", "a": [[1e200, 1e199], [1e199, 1e200]]}')
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(
            [command, "--input", str(path), "--format", "json"] + SAMPLES_FLAG[command]
        )
    out, err = capsys.readouterr()
    assert code in (0, 1)
    assert "Traceback" not in err
    if command == "classify":
        assert code == 0
        assert json.loads(out)["natred"]["case"] == "invariant_form"


@pytest.mark.parametrize("scale", [2.0**-30, 1e-9, 1.0, 1e9])
def test_oracle_refutes_a_dense_metric_at_every_scale(tmp_path, capsys, scale):
    # oracle residuals are measured on the metric divided by a power of two
    # near its largest entry, so they do not shrink with the metric
    metric = dense_nonreductive_metric(np.random.default_rng(3), 4)
    path = tmp_path / "dense.json"
    path.write_text(json.dumps({"m": 4, "repr": "T", "T": (scale * metric.matrix).tolist()}))
    code, report = run_json(capsys, ["verify", "--input", str(path), "--samples", "40"])
    assert code == 0
    assert report["go_oracle_assessment"] == "refuted"
    assert report["go_final"] == "no"
    assert report["ok"] is True


def test_oracle_confirms_a_large_geodesic_orbit_metric(tmp_path, capsys):
    metric, _, _ = go_family(np.array([1.0, 2.0, 3.0, 5.5]), rho=1.0, lam=0.2)
    path = tmp_path / "go.json"
    path.write_text(json.dumps({"m": 4, "repr": "T", "T": (1e9 * metric.matrix).tolist()}))
    code, report = run_json(capsys, ["verify", "--input", str(path), "--samples", "40"])
    assert code == 0
    assert report["go_oracle_assessment"] == "confirmed"
    assert report["natred_certificate"]["verdict"] is True
    assert report["ok"] is True


def test_consecutive_calls_share_no_flags(tmp_path, capsys, monkeypatch):
    seen = []
    validate = cli._validate

    def recording(args):
        seen.append(args)
        validate(args)

    monkeypatch.setattr(cli, "_validate", recording)
    path = tmp_path / "standard4.json"
    write_metric(standard_metric(4), str(path))
    code = cli.main(
        ["decompose", "--input", str(path), "--tol", "1e-5", "--format", "json"]
    )
    assert code == 0
    json.loads(capsys.readouterr().out)
    code = cli.main(["trees", "--m", "3"])
    assert code == 0
    assert capsys.readouterr().out.startswith("m = 3: 3 admissible partition pairs")
    first, second = seen
    assert (first.command, first.tol, first.format, first.input) == (
        "decompose", 1e-5, "json", str(path)
    )
    assert (second.command, second.format, second.output) == ("trees", "text", None)
    assert not hasattr(second, "tol") and not hasattr(second, "input")
    assert second.func is cli.cmd_trees
    assert cli._parser() is cli._parser()


def test_generate_then_classify_round_trip(tmp_path, capsys):
    out = tmp_path / "family.json"
    code, report = run_json(
        capsys,
        [
            "generate",
            "--z",
            "1,2,3",
            "--rho",
            "1.0",
            "--lambda",
            "0.25",
            "--output",
            str(out),
        ],
    )
    assert code == 0
    assert report["written"] == str(out)
    assert report["go_verdict"] == "yes"
    roots = np.array(report["roots"])
    exact = np.array([(11.0 - np.sqrt(13.0)) / 6.0, (11.0 + np.sqrt(13.0)) / 6.0])
    assert np.allclose(roots, exact, atol=1e-10)

    metric = metric_from_dict(read_json(str(out)))
    eigen = eigendecompose(metric)
    assert np.allclose(eigen.system.gammas, np.array(report["gammas"]), atol=1e-12)

    code, classify_report = run_json(capsys, ["classify", "--input", str(out)])
    assert code == 0
    assert classify_report["go_final"] == "yes"
    assert np.allclose(
        classify_report["go"]["eigenvalues"], report["gammas"], atol=1e-12
    )


def test_text_output_carries_same_numbers(tmp_path, capsys):
    path = tmp_path / "pinned.json"
    path.write_text(json.dumps({"m": 3, "repr": "form", "a": [[2.0, 1.0], [1.0, 3.0]]}))
    code = cli.main(["classify", "--input", str(path), "--format", "text"])
    assert code == 0
    text = capsys.readouterr().out
    # 17-significant-digit rendering matches the JSON payload exactly
    assert format(-25.0 / 12.0, ".17g") in text
    assert "go_final: \"yes\"" in text


def test_report_output_file(tmp_path, capsys):
    path = tmp_path / "standard4.json"
    write_metric(standard_metric(4), str(path))
    report_path = tmp_path / "report.json"
    code = cli.main(
        [
            "classify",
            "--input",
            str(path),
            "--format",
            "json",
            "--output",
            str(report_path),
        ]
    )
    assert code == 0
    stdout_report = json.loads(capsys.readouterr().out)
    file_report = json.loads(report_path.read_text())
    assert file_report == stdout_report


def test_exit_code_1_on_bad_inputs(tmp_path, capsys):
    assert cli.main(["classify"]) == 1
    assert "error" in capsys.readouterr().err

    missing = tmp_path / "nope.json"
    assert cli.main(["classify", "--input", str(missing)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot read {missing}: ")

    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert cli.main(["classify", "--input", str(bad)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad} is not valid JSON: ")

    not_metric = tmp_path / "eye.json"
    not_metric.write_text(json.dumps({"m": 3, "repr": "T", "T": np.eye(3).tolist()}))
    assert cli.main(["classify", "--input", str(not_metric)]) == 1
    capsys.readouterr()

    assert cli.main(["trees"]) == 1
    capsys.readouterr()
    assert cli.main(["trees", "--m", "1"]) == 1
    capsys.readouterr()
    assert cli.main(["trees", "--m", "12"]) == 1
    capsys.readouterr()

    good = tmp_path / "standard3.json"
    write_metric(standard_metric(3), str(good))
    assert cli.main(["classify", "--input", str(good), "--tol", "-1"]) == 1
    capsys.readouterr()
    assert cli.main(["verify", "--input", str(good), "--samples", "0"]) == 1
    capsys.readouterr()

    with pytest.raises(SystemExit) as exc:
        cli.main(["classify", "--format", "yaml"])
    assert exc.value.code == 1
    capsys.readouterr()


def test_verify_clean_metric_exits_zero(tmp_path, capsys):
    path = tmp_path / "standard4.json"
    write_metric(standard_metric(4), str(path))
    code, report = run_json(
        capsys, ["verify", "--input", str(path), "--samples", "20"]
    )
    assert code == 0
    assert report["ok"] is True
    assert report["disagreements"] == []
    assert report["go_oracle_assessment"] == "confirmed"
    assert report["go_oracle"]["verdict"] is True
    assert report["natred_certificate"]["verdict"] is True
    assert report["natred_certificate_source"] == "classifier"
    assert report["bracket_properties"]["verdict"] is True


def test_verify_corrupted_certificate_exits_two(tmp_path, capsys):
    data = metric_to_dict(standard_metric(4))
    data["natred_certificate"] = {
        "case": "invariant_form",
        "alphas": [1.0, 1.0, 1.0, 0.9],
        "alpha_sum": 3.9,
    }
    path = tmp_path / "claimed.json"
    path.write_text(json.dumps(data))
    code, report = run_json(
        capsys, ["verify", "--input", str(path), "--samples", "20"]
    )
    assert code == 2
    assert report["ok"] is False
    assert report["natred_certificate_source"] == "input file"
    assert report["natred_certificate"]["verdict"] is False
    assert any("certificate" in d for d in report["disagreements"])


# forms on the first m - 1 copies: an invariant form (alpha_sum -4), a dense
# form, and the invariant form with a relative perturbation of about 1e-6
INVARIANT_M4 = [[1.25, 0.375, 0.5625], [0.375, 2.0625, 0.84375], [0.5625, 0.84375, 3.515625]]
DENSE_M5 = [
    [3.0, 0.7, -0.4, 0.2], [0.7, 2.5, 0.3, -0.6], [-0.4, 0.3, 2.0, 0.5], [0.2, -0.6, 0.5, 1.8]
]
PERTURBED_M4 = [
    [1.25, 0.375002, 0.5625], [0.375002, 2.0625, 0.843748], [0.5625, 0.843748, 3.515625]
]

# `lot verify` at its defaults (200 samples, seed 42): the GO assessment, and
# per oracle (samples, seed, failed, first_failures, verdict, max_residual,
# residual_min, residual_median); the marginal GO report is its third round.  The GO
# classifier says no on the dense and perturbed forms, so their reports have
# no bracket check
PINNED_VERIFY = {
    "invariant-m4": (INVARIANT_M4, "confirmed", {
        "go_oracle": (200, 42, 0, [], True,
                      7.896067350696504e-13, 1.1693244990951495e-16, 4.359571870662964e-14),
        "natred_certificate": (200, 42, 0, [], True,
                               7.025630077706069e-17, 4.336808689942018e-19,
                               8.348356728138384e-18),
        "bracket_properties": (200, 42, 0, [], True,
                               1.0253844668657711e-15, 6.863890349860764e-17,
                               3.380619557019396e-16),
    }),
    "dense-m5": (DENSE_M5, "refuted", {
        "go_oracle": (200, 42, 200, [0, 1, 2, 3, 4], False,
                      0.06707159076398676, 0.004741163215629526, 0.03496353910552137),
    }),
    "perturbed-m4": (PERTURBED_M4, "marginal", {
        "go_oracle": (800, 42 + 2 * 7919, 798, [0, 1, 2, 3, 4], False,
                      3.1143719719781145e-07, 4.975179205293464e-09, 1.736095712277472e-07),
    }),
}


@pytest.mark.parametrize("name", sorted(PINNED_VERIFY))
def test_verify_reports_are_pinned(tmp_path, capsys, name):
    form, assessment, pinned = PINNED_VERIFY[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"m": len(form) + 1, "repr": "form", "a": form}))
    code, report = run_json(capsys, ["verify", "--input", str(path)])
    assert code == 0
    assert report["ok"] is True
    assert report["go_oracle_assessment"] == assessment
    oracles = {"go_oracle", "natred_certificate", "bracket_properties"}
    assert oracles & set(report) == set(pinned)
    for key, (samples, seed, failed, first, verdict, *residuals) in pinned.items():
        got = report[key]
        assert (got["samples"], got["seed"], got["failed"], got["first_failures"]) == (
            samples, seed, failed, first
        )
        assert got["verdict"] is verdict
        for field, value in zip(("max_residual", "residual_min", "residual_median"), residuals):
            assert got[field] == pytest.approx(value, rel=1e-12, abs=0.0), (key, field)


def test_verify_leaves_out_the_bracket_check_when_the_classifier_says_no(tmp_path, capsys):
    # the bracket verdict is read only when go_final is yes, which a
    # classifier no rules out
    sections = {}
    for name, form in (("invariant", INVARIANT_M4), ("dense", DENSE_M5)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"m": len(form) + 1, "repr": "form", "a": form}))
        code, report = run_json(capsys, ["verify", "--input", str(path), "--samples", "20"])
        assert (code, report["ok"]) == (0, True)
        sections[report["go"]["verdict"]] = "bracket_properties" in report
    assert sections == {"yes": True, "no": False}


def test_trees_text_and_json(tmp_path, capsys):
    code = cli.main(["trees", "--m", "3"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "m = 3: 3 admissible partition pairs"
    assert len(lines) == 4
    assert all("//" in line for line in lines[1:])

    out = tmp_path / "pairs.json"
    code = cli.main(["trees", "--m", "3", "--output", str(out)])
    assert code == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert report["count"] == 3
    assert len(report["pairs"]) == 3

    code, report = run_json(capsys, ["trees", "--m", "4"])
    assert code == 0
    assert report["count"] == 24


def test_trees_m7_contains_seven_split_pair(capsys):
    code, report = run_json(capsys, ["trees", "--m", "7"])
    assert code == 0
    assert report["count"] == 32767
    wanted = {
        "first": [list(p) for p in SEVEN_SPLIT_PAIR.first],
        "second": [list(p) for p in SEVEN_SPLIT_PAIR.second],
    }
    assert wanted in report["pairs"]


def test_custom_backend_via_environment(tmp_path, monkeypatch, capsys):
    table = tmp_path / "scaled.json"
    table.write_text(json.dumps({"dim": 3, "c": SO3_ENTRIES, "name": "scaled"}))
    monkeypatch.setenv("LOT_STRUCTURE_CONSTANTS", str(table))
    path = tmp_path / "standard3.json"
    write_metric(standard_metric(3), str(path))
    code, report = run_json(
        capsys, ["verify", "--input", str(path), "--samples", "10"]
    )
    assert code == 0
    assert report["ok"] is True


# a dense metric at m = 4: neither naturally reductive nor geodesic orbit
DENSE_M4_T = [
    [3.0, -1.2, -0.9, -0.9],
    [-1.2, 2.5, -0.3, -1.0],
    [-0.9, -0.3, 2.0, -0.8],
    [-0.9, -1.0, -0.8, 2.7],
]
TABLE_SCALES = [10.0**k for k in range(-6, 7)] + [1e100, 1e200]


def verify_verdicts(capsys, path):
    """Exit code, GO verdicts and the check verdicts of ``lot verify`` on ``path``."""
    code, report = run_json(capsys, ["verify", "--input", str(path), "--samples", "64"])
    checks = [report["go_oracle"]["verdict"]]
    for key in ("bracket_properties", "natred_certificate"):
        checks.append(report.get(key, {}).get("verdict"))
    return code, report["go_final"], report["go_oracle_assessment"], checks


@pytest.mark.parametrize("table", ["plain", "skewed"])
def test_verify_verdicts_do_not_depend_on_the_scale_of_the_table(
    tmp_path, capsys, monkeypatch, table
):
    # residuals grow like max|c|^2 (GO, brackets) and max|c|^3 (certificate);
    # the oracle measures on the table divided by a power of four, so so(3)'s
    # verdicts hold for every scale of its basis, without a warning
    go_metric, _, _ = go_family(np.array([1.0, 2.0, 3.0]), rho=1.0, lam=0.0)
    paths = [tmp_path / "g.json", tmp_path / "dense.json"]
    write_metric(go_metric, str(paths[0]))
    paths[1].write_text(json.dumps({"m": 4, "repr": "T", "T": DENSE_M4_T}))
    want = [verify_verdicts(capsys, path) for path in paths]
    assert [verdicts[:3] for verdicts in want] == [(0, "yes", "confirmed"), (0, "no", "refuted")]
    base = skewed_so3() if table == "skewed" else so3()
    for scale in TABLE_SCALES:
        c = scale * base.c
        entries = [[*index, float(c[index])] for index in np.ndindex(c.shape) if c[index]]
        file = tmp_path / f"{table}-{scale:g}.json"
        file.write_text(json.dumps({"dim": 3, "c": entries}))
        monkeypatch.setenv("LOT_STRUCTURE_CONSTANTS", str(file))
        assert [verify_verdicts(capsys, path) for path in paths] == want, scale


def test_a_bad_table_is_reported_before_a_bad_certificate(tmp_path, capsys, monkeypatch):
    # verify reads the table before it parses the certificate; classify runs
    # no oracle and reads no table
    table = tmp_path / "one-entry.json"
    table.write_text(json.dumps({"dim": 3, "c": [[0, 1, 2, 1]]}))
    monkeypatch.setenv("LOT_STRUCTURE_CONSTANTS", str(table))
    t = (3.0 * np.eye(3) - 1.0).tolist()
    path = tmp_path / "bogus.json"
    bogus = {"case": "bogus"}
    path.write_text(json.dumps({"m": 3, "repr": "T", "T": t, "natred_certificate": bogus}))
    code = cli.main(["verify", "--input", str(path), "--format", "json"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "", "error: structure constants are not antisymmetric\n")
    code, report = run_json(capsys, ["classify", "--input", str(path)])
    assert (code, report["go_final"]) == (0, "yes")
    assert "go_resolved_by" not in report


def test_verify_reports_a_not_nr_verdict_at_m3(tmp_path, capsys, monkeypatch):
    # every metric at m = 3 is naturally reductive, so a classifier that says
    # otherwise disagrees with the paper
    def not_nr(form, tol=1e-8):
        return NatRedResult(NatRedCase.NOT_NR, normal=False)

    monkeypatch.setattr(reports, "classify_natred", not_nr)
    path = tmp_path / "standard3.json"
    write_metric(standard_metric(3), str(path))
    code, report = run_json(capsys, ["verify", "--input", str(path), "--samples", "10"])
    assert (code, report["ok"]) == (2, False)
    message = "natred case not_naturally_reductive at m = 3, where every metric is naturally"
    assert f"{message} reductive" in report["disagreements"]


def test_verify_reports_a_failed_bracket_check_on_a_go_metric(tmp_path, capsys, monkeypatch):
    # at tol = 0 the rounding-level residuals of identity (i) fail the bracket
    # check on a GO metric with two clusters, which no other check sees
    bracket_check = reports._bracket_check

    def exact_bracket_check(eigen, sc, tol):
        return bracket_check(eigen, sc, 0.0)

    monkeypatch.setattr(reports, "_bracket_check", exact_bracket_check)
    metric, _, _ = go_family(np.array([1.0, 2.0, 3.0]), 1.0, 0.0)
    path = tmp_path / "go3.json"
    write_metric(metric, str(path))
    code, report = run_json(capsys, ["verify", "--input", str(path), "--samples", "10"])
    assert (code, report["ok"]) == (2, False)
    assert (report["go_final"], report["go_oracle_assessment"]) == ("yes", "confirmed")
    assert report["bracket_properties"]["verdict"] is False
    assert report["disagreements"] == ["bracket identity (i) fails although classifier says GO"]


def test_verify_tol_moves_the_checks_but_not_the_go_thresholds(tmp_path, capsys):
    # --tol is the classifier's tolerance and the certificate and bracket
    # checks'; the GO oracle confirms below 1e-8 and refutes above 1e-4
    path = tmp_path / "invariant.json"
    path.write_text(json.dumps({"m": 4, "repr": "form", "a": INVARIANT_M4}))
    argv = ["verify", "--input", str(path), "--samples", "10", "--tol", "1e-3"]
    code, report = run_json(capsys, argv)
    assert code == 0
    assert (oracle.CONFIRM_TOL, oracle.REFUTE_TOL) == (1e-8, 1e-4)
    assert report["go_oracle"]["tol"] == oracle.CONFIRM_TOL
    assert report["natred_certificate"]["tol"] == 1e-3
    assert report["bracket_properties"]["tol"] == 1e-3


@pytest.mark.parametrize(
    "data",
    [
        {"m": 3, "repr": "T", "T": (1.2e308 * (np.eye(3) - 1.0 / 3.0)).tolist()},
        {
            "m": 3,
            "repr": "eigen",
            "basis": [[2**-0.5, -(2**-0.5), 0.0], [6**-0.5, 6**-0.5, -2.0 * 6**-0.5]],
            "gammas": [1e308, 1e308],
        },
    ],
    ids=["T", "eigen"],
)
def test_near_overflow_metrics_end_without_a_warning(tmp_path, data):
    # eigendecompose diagonalises T divided by its power-of-two scale; a
    # reported weight past the largest double (alpha_sum = 3 * 8e307) is the
    # typed serialisation error
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    env = {**os.environ, "PYTHONWARNINGS": "error"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in [str(ROOT / "src"), env.get("PYTHONPATH")] if p)
    for command in ("classify", "decompose", "verify"):
        argv = [sys.executable, "-m", "ledger_obata.cli", command, "--input", str(path)]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode in (0, 1), command
        if proc.returncode:
            assert proc.stderr == "error: non-finite value inf cannot be serialized\n", command
        else:
            assert proc.stderr == "", command


def forced_indeterminate(metric, tol=1e-8, cluster_tol=1e-8):
    """A ``classify_go`` stand-in that leaves every GO verdict to the oracle."""
    # classify_go attaches its eigen data to every verdict, and verify's
    # bracket check reads them
    eigen = eigendecompose(metric, cluster_tol)
    return GoResult(GoVerdict.INDETERMINATE, reason="forced for the fallback path", eigen=eigen)


def recorded_streams(monkeypatch) -> list:
    """Record the (seed, index) of every sample stream that the oracle seeds."""
    normals = oracle._normals
    streams = []

    def recording(seed, indices, shape, start=0):
        streams.extend((seed, int(i)) for i in indices)
        return normals(seed, indices, shape, start)

    monkeypatch.setattr(oracle, "_normals", recording)
    return streams


def test_indeterminate_falls_back_to_oracle(tmp_path, monkeypatch, capsys):
    metric, _, _ = go_family(np.array([1.0, 2.0, 3.0]), rho=1.0, lam=0.0)
    path = tmp_path / "family.json"
    write_metric(metric, str(path))

    # verify's one GO assessment is the fallback: round 0 confirms, and its
    # pass draws each stream once for the other checks too
    monkeypatch.setattr(reports, "classify_go", forced_indeterminate)
    streams = recorded_streams(monkeypatch)
    code, report = run_json(capsys, ["verify", "--input", str(path), "--samples", "10"])
    assert code == 0
    assert streams == [(42, i) for i in range(10)]
    assert report["go"]["verdict"] == "indeterminate"
    assert report["go_resolved_by"] == "oracle"
    assert report["go_oracle_fallback"]["verdict"] is True
    assert report["go_oracle"] == report["go_oracle_fallback"]
    assert report["go_oracle_assessment"] == "confirmed"
    assert (report["go_final"], report["agreement"]) == ("yes", True)


def test_classify_leaves_an_indeterminate_verdict_to_verify(tmp_path, monkeypatch, capsys):
    # classify runs the two classifiers alone: with no table to read and no
    # backend to build, an indeterminate GO verdict is reported as it stands
    metric, _, _ = go_family(np.array([1.0, 2.0, 3.0]), rho=1.0, lam=0.0)
    path = tmp_path / "family.json"
    write_metric(metric, str(path))

    def no_backend():
        raise AssertionError("classify built the oracle's backend")

    monkeypatch.setattr(reports, "classify_go", forced_indeterminate)
    monkeypatch.setattr(reports, "default_backend", no_backend)
    monkeypatch.setenv("LOT_STRUCTURE_CONSTANTS", str(tmp_path / "missing.json"))
    code, report = run_json(capsys, ["classify", "--input", str(path)])
    assert code == 0
    assert report["go"]["verdict"] == "indeterminate"
    assert (report["go_final"], report["agreement"]) == ("indeterminate", None)
    assert not {"go_oracle_fallback", "go_resolved_by"} & set(report)
    assert report["natred"]["naturally_reductive"] is True

    # classify takes neither of the oracle's flags
    for flag, value in (("--samples", "10"), ("--seed", "1")):
        with pytest.raises(SystemExit) as exc:
            cli.main(["classify", "--input", str(path), flag, value])
        err = capsys.readouterr().err
        assert exc.value.code == 1
        assert err.startswith("usage: lot classify ")
        assert f"lot classify: error: unrecognized arguments: {flag} {value}\n" in err


def test_verify_runs_the_bracket_check_when_the_classifier_is_indeterminate(
    tmp_path, capsys, monkeypatch
):
    # an indeterminate verdict is the oracle's to resolve, and may end yes
    monkeypatch.setattr(reports, "classify_go", forced_indeterminate)
    for name, form, go_final in (("invariant", INVARIANT_M4, "yes"), ("dense", DENSE_M5, "no")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"m": len(form) + 1, "repr": "form", "a": form}))
        code, report = run_json(capsys, ["verify", "--input", str(path), "--samples", "20"])
        assert (code, report["go"]["verdict"], report["go_final"]) == (0, "indeterminate", go_final)
        assert report["bracket_properties"]["verdict"] is (go_final == "yes")


def test_console_entry_point_registered():
    # The declaration in pyproject.toml is the source of truth: installed
    # metadata exists only after an install, and the suite also runs from a
    # source checkout with the package on PYTHONPATH.
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert scripts.get("lot") == "ledger_obata.cli:main"
    declared = EntryPoint(name="lot", value=scripts["lot"], group="console_scripts")
    assert declared.load() is cli.main

    try:
        dist = distribution("ledger-obata")
    except PackageNotFoundError:
        return
    installed = [
        ep.value
        for ep in dist.entry_points
        if ep.group == "console_scripts" and ep.name == "lot"
    ]
    assert installed == [scripts["lot"]], "installed metadata is stale; reinstall"


def declared_flags() -> dict[str, set[str]]:
    """Option strings of each subcommand of ``build_parser()``, without --help."""
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }


def readme_flag_tables() -> dict[str, set[str]]:
    """Flags in the first column of each "#### `lot <command>`" table."""
    tables: dict[str, set[str]] = {}
    command = None
    for line in README.read_text().splitlines():
        heading = re.fullmatch(r"#### `lot (\w+)`", line)
        if heading:
            command = heading.group(1)
            tables[command] = set()
        elif command and line.startswith("|"):
            tables[command] |= set(re.findall(r"`(--[\w-]+)`", line.split("|")[1]))
        elif command and tables[command] and not line.strip():
            command = None
    return tables


def test_each_subcommand_declares_only_its_own_flags():
    assert declared_flags() == COMMAND_FLAGS


def test_readme_flag_tables_match_the_parser():
    assert readme_flag_tables() == declared_flags()


def readme_sample_output() -> dict[str, list[str]]:
    """Each "$ lot ..." command of the README's sample output, with its lines."""
    text = README.read_text().split("Sample output:", 1)[1]
    block = text.split("```", 2)[1].strip("\n")
    samples: dict[str, list[str]] = {}
    for chunk in block.split("\n\n"):
        command, *lines = chunk.splitlines()
        samples[command.removeprefix("$ lot ")] = lines
    return samples


def test_readme_sample_output_matches_the_cli(capsys):
    samples = readme_sample_output()
    assert sorted(samples) == ["generate --z 1,2,3 --rho 1.0 --lambda 0.25", "trees --m 3"]
    for command, lines in samples.items():
        assert cli.main(command.split()) == 0
        assert capsys.readouterr().out.splitlines() == lines


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_flags_of_other_subcommands_are_usage_errors(capsys, command):
    foreign = set().union(*COMMAND_FLAGS.values()) - COMMAND_FLAGS[command]
    assert foreign
    for flag in sorted(foreign):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, flag, "5"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: lot {command} ")
        assert f"unrecognized arguments: {flag}" in err
        assert "Traceback" not in err


def test_unread_flag_is_reported_with_the_subcommand_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["decompose", "--input", "F", "--samples", "5"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: lot decompose")
    assert "--split-tol" in err
    assert "lot decompose: error: unrecognized arguments: --samples 5" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--input", "F", "--samples", "5"],
        ["generate", "--input", "F"],
        # flags that lot no longer has
        ["verify", "--centralizers"],
        ["trees", "--max-m", "8"],
    ],
    ids=["decompose-samples", "generate-input", "verify-centralizers", "trees-max-m"],
)
def test_unread_flag_exits_1_from_the_console(argv):
    env = dict(os.environ)
    path = [str(ROOT / "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in path if p)
    argv = [sys.executable, "-m", "ledger_obata.cli", *argv]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "unrecognized arguments" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "nodes, code, message",
    [
        ("1,1.0000001,2", 0, ""),
        # roots within 6e-10 of the nodes: z / (z - t) cancels about seven digits
        (
            "1,1.000000001,1.000000002,3",
            1,
            "error: nodes are ill-conditioned: the closest gap, z_3 - z_2 = 1e-09, "
            "leaves the family an adaptedness error of",
        ),
        ("1,1.0000000000000002,2", 1, "no double lies strictly between the nodes"),
    ],
    ids=["close", "three-close", "adjacent-doubles"],
)
def test_generate_on_close_nodes_ends(nodes, code, message):
    # a subprocess, so that a hang fails at the timeout instead of stalling the suite
    env = dict(os.environ)
    path = [str(ROOT / "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in path if p)
    argv = [sys.executable, "-m", "ledger_obata.cli", "generate", "--z", nodes]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr


@pytest.mark.parametrize(
    "argv, nodes, rho, lam",
    [
        (["--z", "1,2,3", "--rho", "1e-320"], [1.0, 2.0, 3.0], 1e-320, 0.0),
        (["--z", "1,2,3", "--lambda", "1e308"], [1.0, 2.0, 3.0], 1.0, 1e308),
        (["--z", "1e-320,2e-320,3e-320"], [1e-320, 2e-320, 3e-320], 1.0, 0.0),
    ],
    ids=["tiny-rho", "huge-lambda", "subnormal-nodes"],
)
def test_generate_out_of_range_ends_in_a_parameter_error(argv, nodes, rho, lam):
    # in process, where a numpy warning is an error of the suite
    with pytest.raises(ParameterError):
        go_family(np.array(nodes), rho, lam)
    env = dict(os.environ)
    path = [str(ROOT / "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in path if p)
    argv = [sys.executable, "-m", "ledger_obata.cli", "generate", *argv]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert "Warning" not in proc.stderr


def test_generate_on_nodes_three_hundred_decades_apart(capsys):
    # the bisection of the gap (2, 1e308) runs until it reaches the root;
    # there phi is 1/(1-t) + 2/(2-t) + 1 to within t/1e308, with roots 3 -+ sqrt(3)
    code, report = run_json(capsys, ["generate", "--z", "1,2,1e308"])
    assert code == 0
    assert report["roots"] == pytest.approx([3 - np.sqrt(3), 3 + np.sqrt(3)], rel=1e-12)
    assert report["go_verdict"] == "yes"


PINNED_FORM = {"m": 3, "repr": "form", "a": [[2.0, 1.0], [1.0, 3.0]]}


@pytest.mark.parametrize(
    "certificate",
    [
        {"case": "ideal", "betas": {"9": 1.0}, "ideal_index": 1},
        {"case": "invariant_form"},
        {"case": "diagonal"},
        {"case": "ideal", "betas": {"1": 1.0}, "ideal_index": 7},
        {"case": "ideal", "betas": {"2": 1.0, "3": 1.0}},
        {"case": "diagonal", "betas": {"1": 1.0}},
        {"case": "diagonal", "betas": {"1": 1.0, "2": 1.0}, "ideal_index": 1},
        {"case": "invariant_form", "alphas": [1.0, 1.0], "alpha_sum": 2.0},
        {"case": "invariant_form", "alphas": [1.0, 1.0, -2.0], "alpha_sum": 0.0},
        {"case": "invariant_form", "alphas": [1.0, 1.0, 1.0]},
        {"case": "diagonal", "betas": {"1": 1.0, "2": float("nan")}},
    ],
)
def test_certificate_that_does_not_fit_m_exits_1(tmp_path, capsys, certificate):
    path = tmp_path / "claimed.json"
    path.write_text(json.dumps({**PINNED_FORM, "natred_certificate": certificate}))
    code = cli.main(["verify", "--input", str(path), "--samples", "5"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: certificate does not fit m = 3: ")


def test_certificate_whose_form_overflows_exits_1(tmp_path, capsys, monkeypatch):
    path = tmp_path / "claimed.json"
    certificate = {"case": "invariant_form", "alphas": [1e308] * 3, "alpha_sum": 1e-308}
    t = [[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]]
    path.write_text(json.dumps({"m": 3, "repr": "T", "T": t, "natred_certificate": certificate}))
    # a numpy warning is an error of the suite, so none is raised either
    code = cli.main(["verify", "--input", str(path), "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: certificate does not fit m = 3: ")
    assert "overflows" in err

    # the certificate check raises before it draws a sample
    def no_draws(*args):
        raise AssertionError("drew samples")

    monkeypatch.setattr(oracle, "_normals", no_draws)
    form, claimed = T_to_form(metric_from_dict(read_json(str(path)))), natred_from_dict(certificate)
    with pytest.raises(InputError, match="certificate does not fit m = 3: "):
        oracle.natred_certificate_check(form, claimed, samples=5)


def test_certificate_whose_projection_overflows_exits_1(tmp_path, capsys):
    # the form its weights rebuild is finite, but alphas / alpha_sum is not
    path = tmp_path / "claimed.json"
    certificate = {"case": "invariant_form", "alphas": [1, 1, 1e300], "alpha_sum": 1e-10}
    t = [[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]]
    path.write_text(json.dumps({"m": 3, "repr": "T", "T": t, "natred_certificate": certificate}))
    # in process a numpy warning is an error of the suite; in a subprocess it
    # would reach stderr
    code = cli.main(["verify", "--input", str(path), "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == "error: certificate does not fit m = 3: its weights over 'alpha_sum' overflow\n"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in [str(ROOT / "src"), env.get("PYTHONPATH")] if p)
    argv = [sys.executable, "-m", "ledger_obata.cli", "verify", "--input", str(path)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", err)


@pytest.mark.parametrize(
    "alphas, alpha_sum",
    [([1, 1, 1e200], 1e-10), ([1, 1, 1e150], 1e-10), ([1, 1, 1e300], 1.0)],
    ids=["1e200", "1e150", "1e300"],
)
def test_certificate_whose_samples_overflow_exits_1(tmp_path, capsys, alphas, alpha_sum):
    # alphas / alpha_sum is finite, but the draws it projects, or the
    # identity on them, pass the largest double; no sample may read as 0
    path = tmp_path / "claimed.json"
    certificate = {"case": "invariant_form", "alphas": alphas, "alpha_sum": alpha_sum}
    t = [[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]]
    path.write_text(json.dumps({"m": 3, "repr": "T", "T": t, "natred_certificate": certificate}))
    code = cli.main(["verify", "--input", str(path), "--format", "json"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == "error: certificate does not fit m = 3: its samples overflow\n"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in [str(ROOT / "src"), env.get("PYTHONPATH")] if p)
    argv = [sys.executable, "-m", "ledger_obata.cli", "verify", "--input", str(path)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", err)


@pytest.mark.parametrize("fallback", [False, True], ids=["round-0-pass", "after-fallback"])
def test_certificate_whose_samples_overflow_exits_1_in_the_shared_pass(
    tmp_path, capsys, monkeypatch, fallback
):
    # the certificate check shares its pass with GO round 0 and the bracket
    # check, whether the classifier decides or leaves GO to the oracle
    path = tmp_path / "claimed.json"
    certificate = {"case": "invariant_form", "alphas": [1, 1, 1e200], "alpha_sum": 1e-10}
    t = [[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]]
    path.write_text(json.dumps({"m": 3, "repr": "T", "T": t, "natred_certificate": certificate}))
    if fallback:
        monkeypatch.setattr(reports, "classify_go", forced_indeterminate)
    argv = ["verify", "--input", str(path), "--samples", "131"]
    code = cli.main(argv + ["--format", "json"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == "error: certificate does not fit m = 3: its samples overflow\n"


def recorded_eigendecompositions(monkeypatch) -> list:
    """Record the m of every ``eigendecompose`` call, whichever module of the package
    or ``forced_indeterminate`` makes it."""
    original = eigendecompose
    calls = []

    def recording(metric, *args, **kwargs):
        calls.append(metric.m)
        return original(metric, *args, **kwargs)

    package = [module for name, module in sys.modules.items() if name.split(".")[0] == "ledger_obata"]
    for module in [sys.modules[__name__], *package]:
        if getattr(module, "eigendecompose", None) is original:
            monkeypatch.setattr(module, "eigendecompose", recording)
    return calls


def test_verify_seeds_each_stream_once_and_reuses_the_eigen_data(tmp_path, capsys, monkeypatch):
    path = tmp_path / "invariant.json"
    path.write_text(json.dumps({"m": 4, "repr": "form", "a": INVARIANT_M4}))
    argv = ["verify", "--input", str(path), "--samples", "131"]
    # the classifier decides, or leaves the verdict to the oracle's fallback:
    # either way verify runs one GO assessment
    for indeterminate in (False, True):
        with monkeypatch.context() as patch:
            if indeterminate:
                patch.setattr(reports, "classify_go", forced_indeterminate)
            decompositions = recorded_eigendecompositions(patch)
            streams = recorded_streams(patch)
            code, report = run_json(capsys, argv)
        assert (code, report["go_oracle_assessment"]) == (0, "confirmed")
        # the GO classifier (or its stand-in) decomposes the metric, and the
        # bracket check reads its eigen data instead of decomposing again
        assert decompositions == [4]
        assert {"natred_certificate", "bracket_properties"} <= set(report)
        assert ("go_resolved_by" in report) is indeterminate
        # GO round 0, the certificate check and the bracket check share each draw
        assert streams == [(42, i) for i in range(131)]


def test_verify_does_not_import_numpy_random(tmp_path):
    # the oracle draws from its own splitmix64 hash, so numpy's generators,
    # about 6 MB of RSS per process, stay unloaded
    path = tmp_path / "invariant.json"
    path.write_text(json.dumps({"m": 4, "repr": "form", "a": INVARIANT_M4}))
    script = "; ".join([
        "import sys, ledger_obata.cli",
        "loaded = 'numpy.random' in sys.modules",
        f"code = ledger_obata.cli.main(['verify', '--input', {str(path)!r}, '--format', 'json'])",
        "print(loaded, code, 'numpy.random' in sys.modules, file=sys.stderr)",
    ])
    env = {**os.environ}
    env["PYTHONPATH"] = os.pathsep.join(p for p in [str(ROOT / "src"), env.get("PYTHONPATH")] if p)
    argv = [sys.executable, "-W", "error", "-c", script]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    loaded, code, after = proc.stderr.split()
    if loaded == "True":
        # numpy before 2.0 imports numpy.random with numpy itself
        pytest.skip("this numpy loads numpy.random on import")
    assert (code, after) == ("0", "False")
    assert json.loads(proc.stdout)["ok"] is True


def test_verify_never_exits_0_when_the_classifiers_split(tmp_path, capsys):
    # weights spread over six decades, where the invariant-form solver once
    # missed the form while the GO classifier said yes: a split must exit 2
    alphas = np.array([1.0, 1e2, 1e4, 1e6])
    t = np.diag(alphas) - np.outer(alphas, alphas) / alphas.sum()
    path = tmp_path / "spread.json"
    path.write_text(json.dumps({"m": 4, "repr": "T", "T": t.tolist()}))
    code, report = run_json(capsys, ["verify", "--input", str(path), "--samples", "20"])
    assert report["ok"] is (code == 0)
    if report["agreement"] is False:
        assert code == 2
        split = (
            f"classifiers split: natred case {report['natred']['case']}, "
            f"go_final {report['go_final']}"
        )
        assert split in report["disagreements"]
    else:
        assert report["agreement"] is True


def spread_metric_file(tmp_path, alphas):
    alphas = np.asarray(alphas, dtype=float)
    t = np.diag(alphas) - np.outer(alphas, alphas) / alphas.sum()
    path = tmp_path / "spread.json"
    path.write_text(json.dumps({"m": alphas.size, "repr": "T", "T": t.tolist()}))
    return str(path)


def test_weights_six_decades_apart_are_an_invariant_form(tmp_path, capsys):
    # what `lot generate --z 1,100,10000,1000000` writes; the solver has no
    # floor on single entries, so T_12 = -1e2 / S, about 1e-4, does not block it
    path = spread_metric_file(tmp_path, [1.0, 1e2, 1e4, 1e6])
    code, report = run_json(capsys, ["classify", "--input", path])
    assert code == 0
    assert report["natred"]["case"] == "invariant_form"
    assert report["natred"]["alphas"] == pytest.approx([1.0, 1e2, 1e4, 1e6], rel=1e-12)
    assert (report["go_final"], report["agreement"]) == ("yes", True)
    code, report = run_json(capsys, ["verify", "--input", path, "--samples", "20"])
    assert (code, report["ok"], report["disagreements"]) == (0, True, [])


@pytest.mark.parametrize(
    "m, reason",
    [(4, "compatibility values for direction"), (12, "eigenspace of weight")],
    ids=["m4-compatibility", "m12-cluster"],
)
def test_past_the_documented_spread_the_split_is_on_the_go_side(tmp_path, capsys, m, reason):
    # weights 10**(11 i / (m - 1)), beyond the first split of the README
    # table: NR still finds the form, GO says no (rounded eigenvectors spread
    # the compatibility values, or close eigenvalues merge into a cluster),
    # and lot verify exits 2 naming the split
    path = spread_metric_file(tmp_path, 10.0 ** (11.0 * np.arange(m) / (m - 1)))
    code, report = run_json(capsys, ["verify", "--input", path, "--samples", "20"])
    assert code == 2
    assert (report["natred"]["case"], report["go_final"]) == ("invariant_form", "no")
    assert report["go"]["reason"].startswith(reason)
    assert (
        "classifiers split: natred case invariant_form, go_final no"
        in report["disagreements"]
    )


def run_console(argv, **env_vars):
    """Run the lot console on this checkout's sources; returns the finished process."""
    env = {**os.environ, **env_vars}
    path = [str(ROOT / "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in path if p)
    argv = [sys.executable, "-m", "ledger_obata.cli", *argv]
    return subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)


def assert_typed_error(proc, message):
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: {message}")
    assert "Traceback" not in proc.stderr


def test_input_file_that_is_not_utf8_exits_1(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + '{"m": 2}'.encode("utf-16-le"))
    proc = run_console(["classify", "--input", str(path)])
    assert_typed_error(proc, f"{path} is not UTF-8 text")


def test_table_is_read_as_utf8_under_an_ascii_locale(tmp_path):
    # the C locale without coercion or UTF-8 mode makes open() default to ASCII
    name = "so3 – Lie algebra ü"
    table = tmp_path / f"{name}.json"
    table.write_text(json.dumps({"dim": 3, "c": SO3_ENTRIES, "name": name}, ensure_ascii=False),
                     encoding="utf-8")
    metric = tmp_path / "standard3.json"
    write_metric(standard_metric(3), str(metric))
    ascii_locale = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    proc = run_console(["verify", "--input", str(metric), "--samples", "10"],
                       LOT_STRUCTURE_CONSTANTS=str(table), **ascii_locale)
    assert (proc.returncode, proc.stderr) == (0, "")


# 2 000 brackets pass the interpreter's recursion limit
@pytest.mark.parametrize("text", ["[" * 2000, "[" * 100_000, "[" * 2000 + "]" * 2000],
                         ids=["open-2000", "open-100000", "closed-2000"])
def test_deeply_nested_json_exits_1(tmp_path, text):
    deep = tmp_path / "deep.json"
    deep.write_text(text)
    proc = run_console(["classify", "--input", str(deep)])
    assert_typed_error(proc, f"{deep} nests JSON too deeply to read")
    metric = tmp_path / "standard3.json"
    write_metric(standard_metric(3), str(metric))
    proc = run_console(["verify", "--input", str(metric)], LOT_STRUCTURE_CONSTANTS=str(deep))
    assert_typed_error(proc, f"malformed structure-constant file {deep}: JSON nested too deeply")


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unreadable_table_file_exits_1(tmp_path, kind):
    table = tmp_path / "table.json"
    if kind == "directory":
        table.mkdir()
    metric = tmp_path / "standard3.json"
    write_metric(standard_metric(3), str(metric))
    proc = run_console(["verify", "--input", str(metric)], LOT_STRUCTURE_CONSTANTS=str(table))
    assert_typed_error(proc, f"cannot read structure-constant file {table}: ")


def test_huge_cluster_tol_runs_without_an_overflow_warning(tmp_path, capsys):
    # cluster_tol * max|gamma| is 3e310: an infinite gap, not an overflow
    # warning (the suite turns warnings into errors)
    path = tmp_path / "huge.json"
    t = 1e10 * (3.0 * np.eye(3) - np.ones((3, 3)))
    path.write_text(json.dumps({"m": 3, "repr": "T", "T": t.tolist()}))
    code, report = run_json(capsys, ["classify", "--input", str(path), "--cluster-tol", "1e300"])
    assert code == 0
    assert report["go"]["clusters"] == [[0, 1]]


IDEAL = {"case": "ideal", "betas": {"2": 1.0, "3": 1.0}}
INVARIANT = {"case": "invariant_form", "alphas": [1.25, 1.5, -5.0]}


@pytest.mark.parametrize(
    "certificate, message",
    [
        ({**IDEAL, "ideal_index": "x"}, "'ideal_index': could not convert string to float: 'x'"),
        ({**IDEAL, "ideal_index": [1]}, "'ideal_index': float() argument must be"),
        ({**IDEAL, "ideal_index": 1.5}, "'ideal_index': 1.5 is not an integer"),
        ({**IDEAL, "ideal_index": True}, "'ideal_index': True is not an integer"),
        ({**IDEAL, "ideal_index": 1e400}, "'ideal_index': inf is not an integer"),
        ({**INVARIANT, "alpha_sum": "x"}, "'alpha_sum': could not convert string to float: 'x'"),
        ({**INVARIANT, "alpha_sum": [1]}, "'alpha_sum': float() argument must be"),
        ({"case": "diagonal", "betas": {"1": 10**400, "2": 1.0}}, "'betas': int too large"),
    ],
    ids=["index-text", "index-list", "index-fraction", "index-bool", "index-inf",
         "sum-text", "sum-list", "beta-huge"],
)
def test_malformed_certificate_field_exits_1(tmp_path, capsys, certificate, message):
    path = tmp_path / "claimed.json"
    path.write_text(json.dumps({**PINNED_FORM, "natred_certificate": certificate}))
    code = cli.main(["verify", "--input", str(path), "--samples", "5"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: malformed {message}")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "certificate",
    [
        {"case": "ideal", "betas": {"2": 1.0, "3": 1.0}, "ideal_index": 1},
        {"case": "diagonal", "betas": {"1": 2.0, "2": 3.0}},
        {"case": "invariant_form", "alphas": [1.25, 1.5, -5.0], "alpha_sum": -2.25},
    ],
)
def test_certificate_that_fits_m_but_not_the_metric_exits_2(tmp_path, capsys, certificate):
    path = tmp_path / "claimed.json"
    path.write_text(json.dumps({**PINNED_FORM, "natred_certificate": certificate}))
    code, report = run_json(capsys, ["verify", "--input", str(path), "--samples", "5"])
    assert code == 2
    assert report["natred_certificate_source"] == "input file"
    assert report["natred_certificate"]["verdict"] is False


def test_subnormal_form_matches_the_unscaled_form(tmp_path, capsys):
    # 1e-310 is below the smallest normal double, about 2.2e-308
    a = np.array([[1.0, 0.3], [0.3, 2.0]])
    reports = {}
    for scale in (1.0, 1e-310):
        path = tmp_path / f"form-{scale}.json"
        path.write_text(json.dumps({"m": 3, "repr": "form", "a": (scale * a).tolist()}))
        _, classified = run_json(capsys, ["classify", "--input", str(path)])
        _, decomposed = run_json(capsys, ["decompose", "--input", str(path)])
        code, verified = run_json(capsys, ["verify", "--input", str(path), "--samples", "20"])
        assert code == 0
        assert verified["ok"] is True
        reports[scale] = (
            classified["natred"]["case"],
            classified["go"]["clusters"],
            classified["go_final"],
            decomposed["factor_sizes"],
        )
    assert reports[1e-310] == reports[1.0] == ("invariant_form", [[0], [1]], "yes", [3])


@pytest.mark.parametrize("scale", [1e-318, 1e-320])
def test_verify_checks_the_classifier_certificate_at_any_scale(tmp_path, capsys, scale):
    # the reported weights keep only a few digits this far below 2.2e-308
    path = tmp_path / "form.json"
    a = scale * np.array([[1.0, 0.3], [0.3, 2.0]])
    path.write_text(json.dumps({"m": 3, "repr": "form", "a": a.tolist()}))
    code, report = run_json(capsys, ["verify", "--input", str(path), "--samples", "20"])
    assert code == 0
    assert report["natred"]["case"] == "invariant_form"
    assert report["natred_certificate_source"] == "classifier"
    assert report["natred_certificate"]["verdict"] is True
    assert report["ok"] is True


DENSE_FORM = {"m": 4, "repr": "form", "a": [[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.0]]}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["classify", "--tol", "nan"], "--tol must be finite and positive"),
        (["classify", "--tol", "inf"], "--tol must be finite and positive"),
        (["classify", "--tol=-1e-8"], "--tol must be finite and positive"),
        (["classify", "--cluster-tol", "inf"], "--cluster-tol must be finite and positive"),
        (["decompose", "--split-tol", "nan"], "--split-tol must be finite and positive"),
        (["verify", "--tol", "nan"], "--tol must be finite and positive"),
        (["verify", "--seed", "-1"], "--seed must be at least 0"),
        # a seed is two 64-bit key words, and GO round 2 draws with seed + 2 * 7919
        (["verify", "--seed", str(2**128)], "seed must be below 2**128 - 15838, "),
        (["generate", "--z", "1,2,3", "--rho", "nan"], "rho must be finite, got nan"),
        (["generate", "--z", "1,2,3", "--lambda", "inf"], "lambda must be finite, got inf"),
        (["generate", "--z", "1,2,3", "--cluster-tol", "nan"], "--cluster-tol must be"),
        (["generate", "--z", "1,nan,3"], "nodes must be finite"),
        (["generate", "--z", "1,2,inf"], "nodes must be finite"),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else "",
)
def test_non_finite_tolerance_or_negative_seed_exits_1(tmp_path, capsys, argv, message):
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(DENSE_FORM))
    if argv[0] != "generate":
        argv = argv + ["--input", str(path)]
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {message}")
    assert "Traceback" not in err
