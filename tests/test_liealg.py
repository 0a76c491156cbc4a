"""Tests for the structure-constant backend and product-algebra helpers."""

import dataclasses
import json
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ledger_obata import cli
from ledger_obata.errors import StructureConstantError
from ledger_obata.liealg import (
    ENV_TABLE,
    StructureConstants,
    ad_rows,
    default_backend,
    from_entries,
    jacobi_tensor,
    killing_gram,
    killing_norms,
    load_structure_constants,
    product_bracket,
    so3,
    unit_scale,
)

from conftest import skewed_so3, so_n_entries

README = Path(__file__).resolve().parent.parent / "README.md"

SO3_ENTRIES = [
    [0, 1, 2, 1.0],
    [1, 0, 2, -1.0],
    [1, 2, 0, 1.0],
    [2, 1, 0, -1.0],
    [2, 0, 1, 1.0],
    [0, 2, 1, -1.0],
]


# -- einsum references for the operations that liealg implements as matmuls --


def bracket(sc, x, y):
    return np.einsum("...i,...j,ijk->...k", x, y, sc.c)


def ad(sc, x):
    return np.einsum("...i,ijk->...kj", x, sc.c)


def killing_gram_by_einsum(sc):
    return -np.einsum("iqp,jpq->ij", sc.c, sc.c)


def jacobi_by_einsum(sc):
    c = sc.c
    return (
        np.einsum("ijl,lkm->ijkm", c, c)
        + np.einsum("jkl,lim->ijkm", c, c)
        + np.einsum("kil,ljm->ijkm", c, c)
    )


def killing_norms_by_einsum(sc, x):
    return np.sqrt(np.maximum(np.einsum("...la,ab,...lb->...", x, sc.gram, x), 0.0))


def deformed_table():
    """so(3) with [E1, E2] given an E1 part: antisymmetric, but the Jacobi identity fails."""
    c = np.array(so3().c)
    c[0, 1, 0], c[1, 0, 0] = 0.3, -0.3
    return c


def test_so3_table_is_valid_and_killing_gram_is_2I():
    sc = so3()
    assert sc.dim == 3
    assert sc.name == "so3"
    assert np.allclose(sc.gram, 2.0 * np.eye(3), atol=1e-14)
    assert np.array_equal(killing_gram(sc), sc.gram)
    # independent antisymmetry and Jacobi checks on random elements
    rng = np.random.default_rng(5)
    for _ in range(20):
        x, y, z = rng.normal(size=(3, 3))
        assert np.allclose(bracket(sc, x, y), -bracket(sc, y, x), atol=1e-14)
        cyc = (
            bracket(sc, bracket(sc, x, y), z)
            + bracket(sc, bracket(sc, y, z), x)
            + bracket(sc, bracket(sc, z, x), y)
        )
        assert np.max(np.abs(cyc)) < 1e-12


def test_ad_matrix_matches_bracket():
    sc = so3()
    rng = np.random.default_rng(9)
    for _ in range(10):
        x, y = rng.normal(size=(2, 3))
        assert np.allclose(ad_rows(sc, x) @ y, bracket(sc, x, y), atol=1e-14)
    # ad is skew w.r.t. the metric gram: gram ad + ad^T gram = 0
    adx = ad_rows(sc, rng.normal(size=3))
    skew = sc.gram @ adx + adx.T @ sc.gram
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
        StructureConstants(c=missing_pair)

    with pytest.raises(StructureConstantError, match="Jacobi"):
        StructureConstants(c=deformed_table())

    heisenberg = np.zeros((3, 3, 3))
    heisenberg[0, 1, 2] = 1.0
    heisenberg[1, 0, 2] = -1.0
    with pytest.raises(StructureConstantError, match="positive definite"):
        StructureConstants(c=heisenberg)

    non_finite = base.copy()
    non_finite[0, 1, 2] = np.nan
    with pytest.raises(StructureConstantError, match="finite"):
        StructureConstants(c=non_finite)

    # the dimension is read off the table, which must be (d, d, d) with d >= 1
    for table in (base[0], base[:, :, :2], base[None], np.zeros((0, 0, 0)), np.float64(1.0)):
        message = f"table shape {np.shape(table)} is not (d, d, d) with d >= 1"
        with pytest.raises(StructureConstantError, match=re.escape(message)):
            StructureConstants(c=table)


@pytest.mark.parametrize(
    "table, scale",
    [("skewed", 1e3), ("skewed", 1e4), ("skewed", 1e5), ("skewed", 1e6), ("plain", 1e-7)],
)
def test_a_rescaled_basis_of_so3_is_valid(table, scale):
    # the checks are relative to max|c| and max|c|^2, so the scale of the
    # basis does not decide validity; the Gram matrix scales by scale^2
    base = skewed_so3() if table == "skewed" else so3()
    sc = StructureConstants(c=scale * base.c)
    assert np.allclose(sc.gram, scale**2 * base.gram, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("table", ["plain", "skewed"])
@pytest.mark.parametrize("scale", [1e-310, 1e-200, 1e100, 1e200, 1e300])
def test_tables_far_from_unit_scale_validate_without_overflow(table, scale):
    # the checks run on the table divided by a power of four; the Gram matrix
    # is scaled back, and reads inf (or 0) where scale^2 leaves the doubles
    base = skewed_so3() if table == "skewed" else so3()
    sc = StructureConstants(c=scale * base.c)
    assert np.array_equal(sc.c, scale * base.c)
    unit = sc.c / unit_scale(sc.c)
    assert 1.0 <= np.max(np.abs(unit)) < 4.0
    assert np.array_equal(StructureConstants(c=unit).c, unit)
    if scale < 1e150:
        assert np.allclose(sc.gram, scale * scale * base.gram, rtol=1e-12, atol=0.0)
    else:
        assert np.all(np.isinf(sc.gram[np.nonzero(base.gram)]))


def test_unit_scale_is_the_power_of_four_that_brings_max_c_into_1_to_4():
    for value, scale in [(1.0, 1.0), (2.75, 1.0), (3.999, 1.0), (4.0, 4.0), (0.3, 0.25),
                         (1e3, 256.0), (1e-6, 2.0**-20)]:
        assert unit_scale(np.array([[value, -0.5 * value]])) == scale
    # so(3), its skewed basis and so(5) are measured as they are
    for sc in (so3(), skewed_so3(), from_entries(*so_n_entries(5))):
        assert unit_scale(sc.c) == 1.0


def test_unit_is_the_table_at_unit_scale_built_once():
    # a table at unit scale is its own twin; any other gets one twin, whose
    # entries are the exact quotient and whose twin is itself
    for sc in (so3(), skewed_so3(), from_entries(*so_n_entries(5))):
        assert sc.unit is sc
    for base, scale in [(so3(), 1e3), (so3(), 1e-6), (skewed_so3(), 1e3), (so3(), 1e300)]:
        sc = StructureConstants(c=scale * base.c, name="scaled")
        twin = sc.unit
        assert twin is not sc
        assert np.array_equal(twin.c, sc.c / unit_scale(sc.c))
        assert twin.unit is twin
        assert twin.name == "scaled"
        with np.errstate(over="ignore"):
            assert np.array_equal(sc.gram, twin.gram * unit_scale(sc.c) * unit_scale(sc.c))
    # a table at unit scale refers to itself, so the field stays out of repr and ==
    (unit,) = [f for f in dataclasses.fields(StructureConstants) if f.name == "unit"]
    assert not (unit.init or unit.repr or unit.compare)
    assert "unit" not in repr(so3())


def test_lot_verify_validates_a_rescaled_table_once(tmp_path, monkeypatch, capsys):
    # the table and its twin are built once per run, and every check reads
    # the twin; the checks build no table of their own
    c = 1e3 * so3().c
    entries = [[*index, float(c[index])] for index in np.ndindex(c.shape) if c[index]]
    table = tmp_path / "so3x1e3.json"
    table.write_text(json.dumps({"dim": 3, "c": entries, "name": "so3x1e3"}))
    monkeypatch.setenv(ENV_TABLE, str(table))
    metric = tmp_path / "g.json"
    assert cli.main(["generate", "--z", "1,2,3", "--output", str(metric), "--format", "json"]) == 0
    capsys.readouterr()
    built = []
    post_init = StructureConstants.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(StructureConstants, "__post_init__", counting)
    assert cli.main(["verify", "--input", str(metric), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    assert len(built) == 2
    assert built[0].unit is built[1]


def test_readme_structure_constants_example_loads(tmp_path):
    section = README.read_text().split("### Structure constants JSON", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "so3.json"
    path.write_text(example)
    sc = load_structure_constants(str(path))
    assert sc.name == "so3"
    assert np.array_equal(sc.c, so3().c)


@pytest.mark.parametrize("scale", [1e-7, 1e6])
def test_invalid_tables_are_rejected_at_every_scale(scale):
    missing_pair = np.array(so3().c)
    missing_pair[1, 0, 2] = 0.0
    heisenberg = np.zeros((3, 3, 3))
    heisenberg[0, 1, 2], heisenberg[1, 0, 2] = 1.0, -1.0
    rejected = [
        (missing_pair, "antisymmetric"),
        (deformed_table(), "Jacobi"),
        (heisenberg, "positive definite"),
        (np.zeros((3, 3, 3)), "positive definite"),
    ]
    for table, message in rejected:
        with pytest.raises(StructureConstantError, match=message):
            StructureConstants(c=scale * table)
    # the zero table is at unit scale, so it is validated as it is, with no twin
    assert unit_scale(np.zeros((3, 3, 3))) == 1.0


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


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unreadable_table_file_is_a_structure_constant_error(tmp_path, monkeypatch, kind):
    path = tmp_path / "table.json"
    if kind == "directory":
        path.mkdir()
    message = f"cannot read structure-constant file {path}: "
    with pytest.raises(StructureConstantError, match=re.escape(message)):
        load_structure_constants(str(path))
    monkeypatch.setenv(ENV_TABLE, str(path))
    with pytest.raises(StructureConstantError, match=re.escape(message)):
        default_backend()


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
    expected = np.array([bracket(sc, u[i], v[i]) for i in range(4)])
    assert np.allclose(product_bracket(sc, u, v), expected, atol=1e-14)
    with pytest.raises(ValueError):
        product_bracket(sc, u, v[:2])


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


def unified_tables():
    """so(3), a skewed so(3), so(5) and a table that breaks the Jacobi identity."""
    dim, entries = so_n_entries(5)
    return {
        "so3": so3().c,
        "so3-skewed": skewed_so3().c,
        "so5": from_entries(dim, entries).c,
        "deformed": deformed_table(),
    }


@pytest.mark.parametrize("name", sorted(unified_tables()))
def test_operations_match_their_einsum_references(name):
    c = unified_tables()[name]
    # the operations read only the table, so a table that fails validation
    # is measured through a stand-in that carries c, dim and gram
    sc = SimpleNamespace(c=c, dim=len(c))
    sc.gram = killing_gram(sc)
    rng = np.random.default_rng(len(name))
    x, y = rng.standard_normal((2, 7, 4, sc.dim))

    def assert_close(value, reference, scale=None):
        scale = np.max(np.abs(reference)) if scale is None else scale
        assert np.max(np.abs(value - reference)) <= 1e-15 * scale

    assert_close(ad_rows(sc, x), ad(sc, x))
    assert_close(product_bracket(sc, x, y), bracket(sc, x, y))
    assert_close(sc.gram, killing_gram_by_einsum(sc))
    assert_close(killing_norms(sc, x), killing_norms_by_einsum(sc, x))
    # relative to the largest double bracket, since on a Lie algebra the sum is 0
    jacobi = jacobi_by_einsum(sc)
    assert_close(jacobi_tensor(sc), jacobi, np.max(np.abs(c)) ** 2 * sc.dim)
    assert (np.max(np.abs(jacobi)) > 1e-12) == (name == "deformed")
    if name != "deformed":
        assert np.array_equal(StructureConstants(c=c).gram, sc.gram)


MALFORMED_TABLES = {
    "short entry": '{"dim": 3, "c": [[0, 1]]}',
    "non-numeric value": '{"dim": 3, "c": [[0, 1, 2, "x"]]}',
    "non-finite value": '{"dim": 3, "c": [[0, 1, 2, NaN]]}',
    "not JSON": "{nope",
    "not an object": "[1, 2]",
    "non-numeric dim": '{"dim": "x", "c": []}',
    "zero dim": '{"dim": 0, "c": []}',
    "negative dim": '{"dim": -2, "c": []}',
    # 10**27 entries: numpy refuses the shape before it allocates anything
    "oversized dim": '{"dim": 1000000000, "c": []}',
    "entries not a list": '{"dim": 3, "c": 5}',
}


@pytest.mark.parametrize("case", sorted(MALFORMED_TABLES))
def test_malformed_table_file_is_a_typed_error(case, tmp_path, monkeypatch, capsys):
    table = tmp_path / "table.json"
    table.write_text(MALFORMED_TABLES[case])
    with pytest.raises(StructureConstantError):
        load_structure_constants(str(table))
    metric = tmp_path / "form.json"
    metric.write_text(json.dumps({"m": 3, "repr": "form", "a": [[2.0, 1.0], [1.0, 3.0]]}))
    monkeypatch.setenv(ENV_TABLE, str(table))
    code = cli.main(["verify", "--input", str(metric), "--samples", "5"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
