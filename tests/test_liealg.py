"""Tests for the structure-constant backend and product-algebra helpers."""

import json

import numpy as np
import pytest

from ledger_obata import cli
from ledger_obata.errors import StructureConstantError
from ledger_obata.liealg import (
    ENV_TABLE,
    StructureConstants,
    default_backend,
    from_entries,
    killing_gram,
    load_structure_constants,
    product_bracket,
    product_inner,
    product_norm,
    so3,
    split_diagonal,
)

SO3_ENTRIES = [
    [0, 1, 2, 1.0],
    [1, 0, 2, -1.0],
    [1, 2, 0, 1.0],
    [2, 1, 0, -1.0],
    [2, 0, 1, 1.0],
    [0, 2, 1, -1.0],
]


def test_so3_table_is_valid_and_killing_gram_is_2I():
    sc = so3()
    assert sc.dim == 3
    assert sc.name == "so3"
    assert np.allclose(sc.gram, 2.0 * np.eye(3), atol=1e-14)
    assert np.array_equal(killing_gram(sc.c), sc.gram)
    # independent antisymmetry and Jacobi checks with explicit loops
    rng = np.random.default_rng(5)
    for _ in range(20):
        x, y, z = rng.normal(size=(3, 3))
        assert np.allclose(sc.bracket(x, y), -sc.bracket(y, x), atol=1e-14)
        cyc = (
            sc.bracket(sc.bracket(x, y), z)
            + sc.bracket(sc.bracket(y, z), x)
            + sc.bracket(sc.bracket(z, x), y)
        )
        assert np.max(np.abs(cyc)) < 1e-12


def test_ad_matrix_matches_bracket():
    sc = so3()
    rng = np.random.default_rng(9)
    for _ in range(10):
        x, y = rng.normal(size=(2, 3))
        assert np.allclose(sc.ad(x) @ y, sc.bracket(x, y), atol=1e-14)
    # ad is skew w.r.t. the metric gram: gram ad + ad^T gram = 0
    x = rng.normal(size=3)
    skew = sc.gram @ sc.ad(x) + sc.ad(x).T @ sc.gram
    assert np.max(np.abs(skew)) < 1e-12


def test_from_entries_matches_dense_table():
    sc = from_entries(3, SO3_ENTRIES, name="sparse-so3")
    assert np.array_equal(sc.c, so3().c)
    assert sc.name == "sparse-so3"
    with pytest.raises(StructureConstantError):
        from_entries(3, [[0, 1, 3, 1.0]])


def test_invalid_tables_are_rejected():
    base = np.array(so3().c)
    missing_pair = base.copy()
    missing_pair[1, 0, 2] = 0.0
    with pytest.raises(StructureConstantError, match="antisymmetric"):
        StructureConstants(dim=3, c=missing_pair)

    deformed = base.copy()
    deformed[0, 1, 0] = 0.3
    deformed[1, 0, 0] = -0.3
    with pytest.raises(StructureConstantError, match="Jacobi"):
        StructureConstants(dim=3, c=deformed)

    heisenberg = np.zeros((3, 3, 3))
    heisenberg[0, 1, 2] = 1.0
    heisenberg[1, 0, 2] = -1.0
    with pytest.raises(StructureConstantError, match="positive definite"):
        StructureConstants(dim=3, c=heisenberg)

    with pytest.raises(StructureConstantError, match="shape"):
        StructureConstants(dim=4, c=base)

    with pytest.raises(StructureConstantError, match="Gram"):
        StructureConstants(dim=3, c=base, gram=np.eye(3))
    # the correct stored gram is accepted
    StructureConstants(dim=3, c=base, gram=2.0 * np.eye(3))


def test_load_structure_constants_round_trip(tmp_path):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"dim": 3, "c": SO3_ENTRIES, "name": "roundtrip"}))
    sc = load_structure_constants(str(path))
    assert sc.name == "roundtrip"
    assert np.array_equal(sc.c, so3().c)

    unnamed = tmp_path / "anon.json"
    unnamed.write_text(json.dumps({"dim": 3, "c": SO3_ENTRIES}))
    assert load_structure_constants(str(unnamed)).name == "anon.json"

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 3}))
    with pytest.raises(StructureConstantError):
        load_structure_constants(str(bad))


def test_default_backend_env_override(tmp_path, monkeypatch):
    monkeypatch.delenv(ENV_TABLE, raising=False)
    assert default_backend().name == "so3"
    path = tmp_path / "custom.json"
    path.write_text(json.dumps({"dim": 3, "c": SO3_ENTRIES, "name": "custom"}))
    monkeypatch.setenv(ENV_TABLE, str(path))
    assert default_backend().name == "custom"


def test_default_so3_is_built_once(monkeypatch):
    monkeypatch.delenv(ENV_TABLE, raising=False)
    assert default_backend() is default_backend()
    assert so3() is default_backend()


def test_table_named_after_a_cached_call_is_still_loaded(tmp_path, monkeypatch):
    monkeypatch.delenv(ENV_TABLE, raising=False)
    builtin = default_backend()
    path = tmp_path / "custom.json"
    path.write_text(json.dumps({"dim": 3, "c": SO3_ENTRIES, "name": "custom"}))
    monkeypatch.setenv(ENV_TABLE, str(path))
    assert default_backend().name == "custom"
    # the named file is read on every call
    path.write_text(json.dumps({"dim": 3, "c": SO3_ENTRIES, "name": "edited"}))
    assert default_backend().name == "edited"
    monkeypatch.delenv(ENV_TABLE)
    assert default_backend() is builtin


def test_product_bracket_matches_rowwise_loops():
    sc = so3()
    rng = np.random.default_rng(21)
    u = rng.normal(size=(4, 3))
    v = rng.normal(size=(4, 3))
    expected = np.array([sc.bracket(u[i], v[i]) for i in range(4)])
    assert np.allclose(product_bracket(sc, u, v), expected, atol=1e-14)
    with pytest.raises(ValueError):
        product_bracket(sc, u, v[:2])


def test_split_diagonal_reconstructs():
    rng = np.random.default_rng(33)
    u = rng.normal(size=(5, 3))
    w, rest = split_diagonal(u)
    assert np.allclose(w[None, :] + rest, u, atol=1e-14)
    assert np.max(np.abs(rest.sum(axis=0))) < 1e-12
    # a row-constant element is purely diagonal
    const = np.tile(rng.normal(size=3), (5, 1))
    w2, rest2 = split_diagonal(const)
    assert np.allclose(w2, const[0], atol=1e-14)
    assert np.max(np.abs(rest2)) < 1e-14


def test_product_inner_and_norm():
    sc = so3()
    rng = np.random.default_rng(40)
    u = rng.normal(size=(3, 3))
    v = rng.normal(size=(3, 3))
    expected = sum(float(u[i] @ sc.gram @ v[i]) for i in range(3))
    assert product_inner(sc, u, v) == pytest.approx(expected)
    assert product_norm(sc, u) == pytest.approx(np.sqrt(2.0) * np.linalg.norm(u))


def so_n_entries(n):
    """Structure constants of so(n) on the basis E_ij - E_ji, i < j, as (i, j, k, value)."""
    basis = []
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros((n, n))
            e[i, j], e[j, i] = 1.0, -1.0
            basis.append(e)
    entries = []
    for a, x in enumerate(basis):
        for b, y in enumerate(basis):
            bracket = x @ y - y @ x
            for k, e in enumerate(basis):
                # the basis is orthogonal with squared Frobenius norm 2
                value = float(np.sum(bracket * e)) / 2.0
                if value:
                    entries.append([a, b, k, value])
    return len(basis), entries


def test_simplicity_check_accepts_so5_and_rejects_so4():
    dim, entries = so_n_entries(5)
    assert from_entries(dim, entries).dim == 10
    # so(4) = so(3) + so(3): compact semisimple, with a two-dimensional commutant
    dim, entries = so_n_entries(4)
    with pytest.raises(StructureConstantError, match="algebra is not simple: 2 independent"):
        from_entries(dim, entries, name="so4")


def test_so4_table_from_the_environment_is_a_typed_error(tmp_path, monkeypatch, capsys):
    dim, entries = so_n_entries(4)
    table = tmp_path / "so4.json"
    table.write_text(json.dumps({"dim": dim, "c": entries, "name": "so4"}))
    metric = tmp_path / "form.json"
    metric.write_text(json.dumps({"m": 3, "repr": "form", "a": [[2.0, 1.0], [1.0, 3.0]]}))
    monkeypatch.setenv(ENV_TABLE, str(table))
    code = cli.main(["verify", "--input", str(metric), "--samples", "5"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: algebra is not simple: 2 independent matrices")
    assert "Traceback" not in err
