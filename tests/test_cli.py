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

from ledger_obata import cli
from ledger_obata.classify import GoResult, GoVerdict, go_family
from ledger_obata.metrics import eigendecompose, standard_metric
from ledger_obata.oracle import assess_geodesic_orbit
from ledger_obata.serialize import metric_to_dict, read_metric, write_metric
from ledger_obata.trees import PartitionPair

from conftest import SEVEN_SPLIT_PAIR, dense_nonreductive_metric, laplacian_metric

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
README = ROOT / "README.md"

CLASSIFY_FLAGS = {
    "--input", "--output", "--format", "--tol", "--cluster-tol", "--samples", "--seed"
}
COMMAND_FLAGS = {
    "classify": CLASSIFY_FLAGS,
    "decompose": {"--input", "--output", "--format", "--tol", "--split-tol"},
    "verify": CLASSIFY_FLAGS | {"--centralizers"},
    "generate": {
        "--z", "--rho", "--lambda", "--tol", "--cluster-tol", "--output", "--format"
    },
    "trees": {"--m", "--max-m", "--output", "--format"},
}

SO3_ENTRIES = [
    [0, 1, 2, 2.0],
    [1, 0, 2, -2.0],
    [1, 2, 0, 2.0],
    [2, 1, 0, -2.0],
    [2, 0, 1, 2.0],
    [0, 2, 1, -2.0],
]


# decompose draws no samples, so it does not take --samples
SAMPLES_FLAG = {"classify": ["--samples", "5"], "decompose": [], "verify": ["--samples", "5"]}


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

    metric = read_metric(str(out))
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
    assert cli.main(["classify", "--input", str(good), "--samples", "0"]) == 1
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


def test_verify_with_centralizer_identity(tmp_path, capsys):
    metric, _, _ = go_family(np.array([1.0, 2.0, 3.0]), rho=1.0, lam=0.2)
    path = tmp_path / "family.json"
    write_metric(metric, str(path))
    code, report = run_json(
        capsys,
        ["verify", "--input", str(path), "--samples", "15", "--centralizers"],
    )
    assert code == 0
    assert report["ok"] is True


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


def test_indeterminate_falls_back_to_oracle(tmp_path, monkeypatch, capsys):
    metric, _, _ = go_family(np.array([1.0, 2.0, 3.0]), rho=1.0, lam=0.0)
    path = tmp_path / "family.json"
    write_metric(metric, str(path))

    def forced_indeterminate(metric, tol=1e-8, cluster_tol=1e-8):
        return GoResult(GoVerdict.INDETERMINATE, reason="forced for the fallback path")

    monkeypatch.setattr(cli, "classify_go", forced_indeterminate)
    code, report = run_json(
        capsys, ["classify", "--input", str(path), "--samples", "10"]
    )
    assert code == 0
    assert report["go"]["verdict"] == "indeterminate"
    assert report["go_resolved_by"] == "oracle"
    assert report["go_oracle_fallback"]["verdict"] is True
    assert report["go_final"] == "yes"
    assert report["agreement"] is True

    # verify reuses the fallback's assessment instead of running the oracle again
    calls = []

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return assess_geodesic_orbit(*args, **kwargs)

    monkeypatch.setattr(cli, "assess_geodesic_orbit", counted)
    code, report = run_json(capsys, ["verify", "--input", str(path), "--samples", "10"])
    assert code == 0
    assert len(calls) == 1
    assert report["go_oracle"] == report["go_oracle_fallback"]
    assert report["go_oracle_assessment"] == "confirmed"


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
    [["decompose", "--input", "F", "--samples", "5"], ["generate", "--input", "F"]],
    ids=["decompose-samples", "generate-input"],
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
