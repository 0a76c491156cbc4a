"""Tests for the package's public namespace."""

import types
from pathlib import Path

import pytest

import ledger_obata

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tier1.yml"


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
    assert job["strategy"]["matrix"]["python-version"] == ["3.10", "3.11"]
    commands = "\n".join(step.get("run", "") for step in job["steps"])
    assert "pip install numpy pytest hypothesis" in commands
    assert "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q " \
        "--continue-on-collection-errors" in commands
    assert "python -m pytest -q perfbench/selftest.py" in commands
