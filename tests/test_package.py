"""Tests for the package's public namespace."""

import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import ledger_obata
from ledger_obata.liealg import ENV_TABLE, from_entries, load_structure_constants, so3

from conftest import so_n_entries

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def test_all_lists_public_names_and_no_modules():
    names = ledger_obata.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert not name.startswith("_")
        value = getattr(ledger_obata, name)
        assert not isinstance(value, types.ModuleType), name
    for module in ("classify", "coeff", "reduce", "trees", "cli"):
        assert module not in names


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from ledger_obata import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(ledger_obata.__all__)
    assert {"decompose", "is_reducible", "MetricT"} <= set(namespace)


def test_ci_workflow_runs_both_suites_on_two_pythons():
    yaml = pytest.importorskip("yaml")
    job = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tests"]
    matrix = job["strategy"]["matrix"]
    assert matrix["python-version"] == ["3.10", "3.11"]
    # a third leg runs on the numpy floor that pyproject.toml declares
    (floor,) = re.findall(r'"numpy>=([0-9.]+)"', (ROOT / "pyproject.toml").read_text())
    assert matrix["numpy"] == ["latest"]
    assert matrix["include"] == [{"python-version": "3.10", "numpy": f"{floor}.*"}]
    (pin,) = [step for step in job["steps"] if step.get("name") == "Install the numpy floor"]
    assert pin["if"] == "matrix.numpy != 'latest'"
    assert pin["run"] == 'python -m pip install "numpy==${{ matrix.numpy }}"'
    assert 0 < job["timeout-minutes"] <= 30
    commands = "\n".join(step.get("run", "") for step in job["steps"])
    # without PyYAML this test would skip in CI
    assert "pip install numpy pytest hypothesis pyyaml" in commands
    assert "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q " \
        "--continue-on-collection-errors --durations=10" in commands
    assert "python -m pytest -q perfbench/selftest.py" in commands


# the form on the first four copies of the invariant form with weights (1, 1, 1, 2, 3)
INVARIANT_M5 = [
    [0.875, -0.125, -0.125, -0.25], [-0.125, 0.875, -0.125, -0.25],
    [-0.125, -0.125, 0.875, -0.25], [-0.25, -0.25, -0.25, 1.5],
]

# I - J/4, the standard metric on four copies: one eigenvalue cluster
STANDARD_M4 = [[0.75 if i == j else -0.25 for j in range(4)] for i in range(4)]


def test_ci_workflow_runs_the_installed_lot_outside_the_checkout():
    yaml = pytest.importorskip("yaml")
    steps = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tests"]["steps"]
    names = [step.get("name") for step in steps]
    install = steps[names.index("Install the package")]
    run = steps[names.index("Run the installed lot outside the checkout")]
    assert install["run"] == "python -m pip install ."
    # after both suites, which must keep importing from src/
    assert names.index("Benchmark self-test") < names.index("Install the package")
    assert names.index("Install the package") < names.index(run["name"])
    assert run["working-directory"] == "${{ runner.temp }}"
    assert run["env"] == {"PYTHONWARNINGS": "error"}
    lines = run["run"].splitlines()
    assert lines == [
        "lot generate --z 1,2,3 --output g.json --format json",
        "lot verify --input g.json --format json",
        "lot verify --input g.json --samples 515 --format json",
        "echo '" + json.dumps({"m": 5, "repr": "form", "a": INVARIANT_M5}) + "' > invariant5.json",
        "lot verify --input invariant5.json --samples 515 --format json",
        "lot classify --input g.json --format json",
        "LOT_STRUCTURE_CONSTANTS=missing.json lot classify --input g.json --format json",
        "lot decompose --input g.json --format json",
        "lot trees --m 5 --format json",
        "lot generate --z 1,100,10000,1000000 --output wide.json --format json",
        "lot verify --input wide.json --format json",
        "echo '" + json.dumps({"m": 4, "repr": "T", "T": STANDARD_M4}) + "' > standard4.json",
        "lot verify --input standard4.json --format json",
    ]


def test_ci_workflow_lot_steps_run_with_warnings_as_errors(tmp_path):
    yaml = pytest.importorskip("yaml")
    steps = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tests"]["steps"]
    names = [step.get("name") for step in steps]
    # every step after the install runs the installed lot
    lot_steps = steps[names.index("Install the package") + 1:]
    assert [step["name"] for step in lot_steps] == [
        "Run the installed lot outside the checkout",
        "Verify under a skewed so(3) table",
        "Verify under so(5)",
        "Verify under rescaled so(3) tables",
    ]
    for step in lot_steps:
        assert step["env"] == {"PYTHONWARNINGS": "error"}, step["name"]

    # replay the first step with the sources of this checkout
    env = {**os.environ, **lot_steps[0]["env"]}
    env["PYTHONPATH"] = os.pathsep.join(p for p in [str(ROOT / "src"), env.get("PYTHONPATH")] if p)
    reports = []
    for line in lot_steps[0]["run"].splitlines():
        written = re.fullmatch(r"echo '(.*)' > (\S+)", line)
        if written:
            text, path = written.groups()
            (tmp_path / path).write_text(text + "\n")
            continue
        table, command = re.fullmatch(r"(?:LOT_STRUCTURE_CONSTANTS=(\S+) )?lot (.*)", line).groups()
        argv = [sys.executable, "-m", "ledger_obata.cli", *command.split()]
        line_env = env if table is None else {**env, ENV_TABLE: table}
        proc = subprocess.run(argv, cwd=tmp_path, env=line_env, capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, ""), line
        reports.append(json.loads(proc.stdout))
    assert reports[0]["go_verdict"] == "yes"
    for report, samples in zip(reports[1:4], (200, 515, 515)):
        assert report["ok"] is True
        for key in ("go_oracle", "natred_certificate", "bracket_properties"):
            assert report[key]["samples"] == samples
    # the bracket check masks cluster pairs of two sizes
    assert reports[3]["go"]["clusters"] == [[0, 1], [2], [3]]
    # classify reads no table: naming a missing table file changes nothing
    assert not (tmp_path / "missing.json").exists()
    assert reports[5] == reports[4]
    # 6^3 - 1 pairs: one per edge-labelled tree on five edges that is not a star
    assert (reports[7]["m"], reports[7]["count"]) == (5, 215)
    # weights spread over six decades: both classifiers must see the invariant form
    wide = reports[9]
    assert (wide["natred"]["case"], wide["go_final"]) == ("invariant_form", "yes")
    assert wide["agreement"] is True and wide["ok"] is True
    # one eigenvalue cluster: the bracket check has no pair to test, and says so
    standard = reports[10]
    assert standard["go"]["clusters"] == [[0, 1, 2]] and standard["ok"] is True
    brackets = standard["bracket_properties"]
    assert [brackets[key] for key in ("max_residual", "residual_min", "residual_median")] == [0.0] * 3
    assert brackets["notes"] == "one eigenvalue cluster: no cluster pair to test"


def requirement_names(requirements):
    return {re.split(r"[<>=!~;\[ ]", req, maxsplit=1)[0].lower() for req in requirements}


def test_test_extra_lists_every_package_the_workflow_installs():
    yaml = pytest.importorskip("yaml")
    tomllib = pytest.importorskip("tomllib")
    steps = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tests"]["steps"]
    (install,) = [s["run"] for s in steps if s.get("name") == "Install test dependencies"]
    installed = set(install.split("pip install", 1)[1].split())
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    # numpy is the one runtime dependency; everything else is for the tests
    assert requirement_names(project["dependencies"]) == {"numpy"}
    missing = installed - {"numpy"} - requirement_names(project["optional-dependencies"]["test"])
    assert not missing


def run_table_step(name, after, tmp_path):
    """Run the workflow step ``name`` here: write its files, then run its verify lines.

    The step must come right after the step ``after``.  A heredoc writes
    its tables, to the file its stdout is redirected to or by itself, and
    each line after the heredoc verifies a metric under one table; g.json
    is the metric that the installed lot generated a few steps before.  The
    heredoc runs under the step's environment, with a directory of the
    checkout on its path where it names one.  The sources of this checkout
    stand in for the installed lot.  Returns the loaded table and the
    finished process of each verify line.
    """
    yaml = pytest.importorskip("yaml")
    steps = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tests"]["steps"]
    names = [step.get("name") for step in steps]
    assert names.index(name) == names.index(after) + 1
    step = steps[names.index(name)]
    assert step["working-directory"] == "${{ runner.temp }}"
    lines = step["run"].splitlines()
    head = re.fullmatch(r"""(?:PYTHONPATH="\$GITHUB_WORKSPACE/(\S+)" )?python - (?:> (\S+) )?<<'PY'""",
                        lines[0])
    assert head, lines[0]
    checkout, output = head.groups()
    verifies = [
        re.fullmatch(r"LOT_STRUCTURE_CONSTANTS=(\S+) lot verify --input (\S+) --format json", line)
        for line in lines[lines.index("PY") + 1:]
    ]
    assert verifies and all(verifies)

    script = "\n".join(lines[1:lines.index("PY")])
    env = {**os.environ, **step["env"]}
    env["PYTHONPATH"] = os.pathsep.join(p for p in [str(ROOT / "src"), env.get("PYTHONPATH")] if p)
    script_env = dict(env)
    if checkout:
        script_env["PYTHONPATH"] = os.pathsep.join([str(ROOT / checkout), env["PYTHONPATH"]])
    argv = [sys.executable, "-c", script]
    written = subprocess.run(argv, cwd=tmp_path, env=script_env, capture_output=True, text=True,
                             check=True)
    if output:
        (tmp_path / output).write_text(written.stdout)
    lot = [sys.executable, "-m", "ledger_obata.cli"]
    generate = ["generate", "--z", "1,2,3", "--output", "g.json", "--format", "json"]
    subprocess.run(lot + generate, cwd=tmp_path, env=env, capture_output=True, check=True)
    runs = []
    for match in verifies:
        table, metric = match.groups()
        env[ENV_TABLE] = table
        verify = ["verify", "--input", metric, "--format", "json"]
        proc = subprocess.run(lot + verify, cwd=tmp_path, env=env, capture_output=True, text=True)
        runs.append((load_structure_constants(str(tmp_path / table)), proc))
    return runs


def test_ci_workflow_verifies_under_a_skewed_table(tmp_path):
    name, after = "Verify under a skewed so(3) table", "Run the installed lot outside the checkout"
    ((sc, proc),) = run_table_step(name, after, tmp_path)
    assert np.count_nonzero(np.abs(sc.c) > 1e-12) == 18
    assert np.count_nonzero(np.abs(sc.gram) > 1e-12) == 9
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["go_oracle_assessment"] == "confirmed"


def test_ci_workflow_verifies_under_so5(tmp_path):
    name, after = "Verify under so(5)", "Verify under a skewed so(3) table"
    ((sc, proc),) = run_table_step(name, after, tmp_path)
    dim, entries = so_n_entries(5)
    assert np.array_equal(sc.c, from_entries(dim, entries).c)
    assert np.array_equal(sc.gram, 6.0 * np.eye(10))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["go_oracle_assessment"] == "confirmed"


def test_ci_workflow_verifies_under_rescaled_so3_tables(tmp_path):
    name, after = "Verify under rescaled so(3) tables", "Verify under so(5)"
    runs = run_table_step(name, after, tmp_path)
    # so(3) scaled by 1e3 on the GO metric, by 1e-6 on it and on a dense metric
    assert [sc.c[0, 1, 2] for sc, _ in runs] == [1e3, 1e-6, 1e-6]
    for sc, _ in runs:
        assert np.array_equal(sc.c, sc.c[0, 1, 2] * so3().c)
    for (_, proc), verdicts in zip(runs, [("yes", "confirmed")] * 2 + [("no", "refuted")]):
        assert (proc.returncode, proc.stderr) == (0, "")
        report = json.loads(proc.stdout)
        assert (report["go_final"], report["go_oracle_assessment"]) == verdicts
        assert report["ok"] is True


def test_ci_workflow_runs_the_benchmark_command_on_every_workload():
    yaml = pytest.importorskip("yaml")
    steps = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tests"]["steps"]
    names = [step.get("name") for step in steps]
    # after the self-test and before the install, so the installed-lot steps stay last
    assert names.index("Benchmark smoke runs") == names.index("Benchmark self-test") + 1
    assert names.index("Install the package") == names.index("Benchmark smoke runs") + 1
    step = steps[names.index("Benchmark smoke runs")]
    assert step["shell"] == "bash"
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = " ".join(workload["name"] for workload in bench["workloads"])
    lines = [line.strip() for line in step["run"].splitlines()]
    assert f"for workload in {workloads}; do" in lines
    assert "for trace in 0 1; do" in lines
    command = " ".join(bench["command"][1:])
    assert any(line.startswith(f"python {command} --workload $workload --seed 1 --seconds 1 "
                               "--trace $trace > ") for line in lines)

    # the check passes only a correct run with no failed operation
    def check(result):
        argv = [sys.executable, "-c", step["env"]["SMOKE_CHECK"], "verify --trace 1"]
        line = json.dumps({"attempted": 5, "metrics": {}, **result})
        return subprocess.run(argv, input=line, capture_output=True, text=True).returncode

    assert check({"correct": True, "failed": 0}) == 0
    assert check({"correct": False, "failed": 0}) != 0
    assert check({"correct": True, "failed": 1}) != 0
