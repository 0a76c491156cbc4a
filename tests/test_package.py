"""Tests for the package's public namespace."""

import types

import ledger_obata


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
