"""Tests for metric representations, conversions and eigen decomposition."""

import json

import numpy as np
import pytest

from ledger_obata.classify import classify_go, classify_natred
from ledger_obata.coeff import AdaptedSystem, is_adapted
from ledger_obata.errors import InputError, InvalidMetricError
from ledger_obata.metrics import (
    EigenData,
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
from ledger_obata.reduce import decompose
from ledger_obata.serialize import (
    dumps_numeric,
    metric_from_dict,
    metric_to_dict,
    read_metric,
    write_metric,
)

from conftest import laplacian_metric, random_metric, random_pd_form


def test_form_round_trip():
    rng = np.random.default_rng(1)
    for _ in range(25):
        m = int(rng.integers(2, 8))
        form = random_pd_form(rng, m)
        metric = form_to_T(form)
        assert metric.m == m
        assert np.max(np.abs(metric.matrix @ np.ones(m))) < 1e-12
        back = T_to_form(metric)
        assert np.allclose(back.a, form.a, atol=1e-13)


def test_T_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(25):
        m = int(rng.integers(2, 8))
        metric = random_metric(rng, m)
        again = form_to_T(T_to_form(metric))
        assert np.allclose(again.matrix, metric.matrix, atol=1e-12)


def test_standard_metric_is_centered_projector():
    for m in range(2, 7):
        t = standard_metric(m).matrix
        assert np.allclose(t, np.eye(m) - np.ones((m, m)) / m)
        assert np.allclose(t @ t, t, atol=1e-14)
    with pytest.raises(InvalidMetricError):
        standard_metric(1)


def test_zero_sum_basis_is_orthonormal():
    for m in range(2, 9):
        q = zero_sum_basis(m)
        assert q.shape == (m - 1, m)
        assert np.allclose(q @ q.T, np.eye(m - 1), atol=1e-14)
        assert np.max(np.abs(q.sum(axis=1))) < 1e-14


def test_eigendecompose_reconstructs_metric():
    rng = np.random.default_rng(4)
    for _ in range(20):
        m = int(rng.integers(2, 8))
        metric = random_metric(rng, m)
        eigen = eigendecompose(metric)
        system = eigen.system
        assert is_adapted(system, tol=1e-10)
        rebuilt = metric_from_system(system)
        assert np.max(np.abs(rebuilt.matrix - metric.matrix)) < 1e-10
        covered = sorted(i for cl in eigen.clusters for i in cl)
        assert covered == list(range(m - 1))
        assert len(eigen.self_saturated) == len(eigen.clusters)


def test_eigendecompose_standard_is_single_saturated_cluster():
    eigen = eigendecompose(standard_metric(4))
    assert eigen.clusters == ((0, 1, 2),)
    assert eigen.self_saturated == (True,)
    assert np.allclose(eigen.system.gammas, np.ones(3), atol=1e-12)
    # canonical replacement keeps pairwise products inside single lines
    v = eigen.system.vectors
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            prod = v[i] * v[j]
            res_i = np.linalg.norm(prod - (prod @ v[i]) * v[i])
            res_j = np.linalg.norm(prod - (prod @ v[j]) * v[j])
            assert min(res_i, res_j) < 1e-10


def test_eigendecompose_orders_weights_and_clusters():
    metric = laplacian_metric(4, [(1, 2, 1.0), (3, 4, 1.0), (1, 3, 0.4), (2, 4, 0.4)])
    eigen = eigendecompose(metric)
    gammas = eigen.system.gammas
    assert np.all(np.diff(gammas) >= -1e-12)
    for cl in eigen.clusters:
        if len(cl) > 1:
            block = gammas[list(cl)]
            assert np.max(block) - np.min(block) < 1e-8 * np.max(np.abs(gammas))


def test_metric_from_system_rejects_negative_weight_result():
    q = zero_sum_basis(3)
    with pytest.raises(InvalidMetricError):
        metric_from_system(AdaptedSystem(q, np.array([1.0, -2.0])))


def test_metric_T_validation_rejections():
    with pytest.raises(InvalidMetricError, match="symmetric"):
        MetricT(np.array([[1.0, 0.5], [-0.5, 1.0]]))
    with pytest.raises(InvalidMetricError, match="all-ones"):
        MetricT(np.eye(3))
    # ones in the kernel but a negative eigenvalue on the hyperplane
    q = zero_sum_basis(3)
    bad = (q.T * np.array([1.0, -1.0])) @ q
    with pytest.raises(InvalidMetricError, match="positive semidefinite"):
        MetricT(bad)
    # rank deficiency beyond the forced kernel direction
    degenerate = (q.T * np.array([1.0, 0.0])) @ q
    with pytest.raises(InvalidMetricError, match="kernel"):
        MetricT(degenerate)
    with pytest.raises(InvalidMetricError, match="square"):
        MetricT(np.zeros((2, 3)))


def test_metric_form_validation_rejections():
    with pytest.raises(InvalidMetricError, match="positive definite"):
        MetricForm(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(InvalidMetricError, match="symmetric"):
        MetricForm(np.array([[1.0, 0.2], [0.0, 1.0]]))


def test_non_finite_and_overflowing_entries_are_rejected_before_eigvalsh(monkeypatch):
    def no_spectrum(a):
        raise AssertionError("eigvalsh reached with a non-finite matrix")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_spectrum)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidMetricError, match="non-finite"):
            MetricForm(np.array([[bad, 0.0], [0.0, 1.0]]))
        with pytest.raises(InvalidMetricError, match="non-finite"):
            MetricT(np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, bad]]))
    with pytest.raises(InvalidMetricError, match="overflow"):
        MetricForm(np.array([[1e308, 1e307], [1e307, 1e308]]))


def test_form_whose_coefficient_matrix_overflows_is_rejected():
    with pytest.raises(InvalidMetricError, match="overflow"):
        form_to_T(MetricForm(np.array([[1e308, 5e307], [5e307, 1e308]]) / 1.2))


def test_validity_does_not_depend_on_scale():
    # condition number 1.2 at every scale: valid, with the same verdicts
    base = np.array([[1.0, 0.1], [0.1, 1.0]])
    verdicts = []
    for scale in (1.0, 1e-150):
        form = MetricForm(scale * base)
        metric = form_to_T(form)
        natred = classify_natred(form)
        verdicts.append(
            (
                natred.case,
                natred.normal,
                classify_go(metric).verdict,
                decompose(metric).factor_sizes,
            )
        )
    assert verdicts[0] == verdicts[1]
    # with no absolute floor, a tiny asymmetry is still an asymmetry
    with pytest.raises(InvalidMetricError, match="symmetric"):
        MetricForm(1e-150 * np.array([[1.0, 0.2], [0.0, 1.0]]))
    with pytest.raises(InvalidMetricError, match="positive definite"):
        MetricForm(1e-150 * np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_power_of_two_scale():
    assert power_of_two_scale(np.zeros((2, 2))) == 1.0
    for value in (0.75, 3.0, 1e-150, 1e200, -7.0):
        scale = power_of_two_scale(np.array([[value, 0.1 * value]]))
        assert 0.5 <= abs(value) / scale < 1.0
        assert scale == 2.0 ** np.round(np.log2(scale))


def test_linalg_failure_is_a_typed_error(monkeypatch):
    def failing(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    with pytest.raises(InvalidMetricError, match="did not converge"):
        MetricForm(np.eye(2))
    with pytest.raises(InvalidMetricError, match="did not converge"):
        standard_metric(3)


def test_serialize_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(8)
    for i in range(10):
        m = int(rng.integers(2, 7))
        metric = random_metric(rng, m)
        path = tmp_path / f"metric_{i}.json"
        write_metric(metric, str(path))
        back = read_metric(str(path))
        assert np.array_equal(back.matrix, metric.matrix)


def test_metric_from_dict_all_representations():
    rng = np.random.default_rng(12)
    form = random_pd_form(rng, 4)
    metric = form_to_T(form)
    via_T = metric_from_dict(metric_to_dict(metric))
    assert np.allclose(via_T.matrix, metric.matrix, atol=1e-15)

    via_form = metric_from_dict(
        {"m": 4, "repr": "form", "a": [list(r) for r in form.a]}
    )
    assert np.allclose(via_form.matrix, metric.matrix, atol=1e-12)

    eigen = eigendecompose(metric)
    via_eigen = metric_from_dict(
        {
            "m": 4,
            "repr": "eigen",
            "basis": [list(r) for r in eigen.system.vectors],
            "gammas": list(eigen.system.gammas),
        }
    )
    assert np.max(np.abs(via_eigen.matrix - metric.matrix)) < 1e-10


def test_metric_from_dict_diagnostics():
    with pytest.raises(InputError, match="'m'"):
        metric_from_dict({"repr": "T"})
    with pytest.raises(InputError, match="repr"):
        metric_from_dict({"m": 3, "repr": "matrix"})
    with pytest.raises(InputError, match="3x3"):
        metric_from_dict({"m": 3, "repr": "T", "T": [[1.0, 0.0], [0.0, 1.0]]})
    with pytest.raises(InputError, match="numeric"):
        metric_from_dict({"m": 3, "repr": "T", "T": [["x", 0, 0]] * 3})
    q = zero_sum_basis(3)
    with pytest.raises(InputError, match="positive"):
        metric_from_dict(
            {"m": 3, "repr": "eigen", "basis": [list(r) for r in q], "gammas": [1.0, -1.0]}
        )
    with pytest.raises(InputError, match="orthonormal"):
        metric_from_dict(
            {"m": 3, "repr": "eigen", "basis": [[1, -1, 0], [1, 1, -2]], "gammas": [1.0, 2.0]}
        )
    with pytest.raises(InputError, match="object"):
        metric_from_dict([1, 2, 3])


def test_read_metric_file_errors(tmp_path):
    with pytest.raises(InputError, match="cannot read"):
        read_metric(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputError, match="valid JSON"):
        read_metric(str(bad))


def test_dumps_numeric_17_digits_parse_back():
    values = [1.0 / 3.0, np.pi, 2.0 ** -40, 1e17 + 1.0, 5.0]
    text = dumps_numeric({"values": values})
    parsed = json.loads(text)
    assert parsed["values"] == values
    with pytest.raises(InputError):
        dumps_numeric({"bad": float("nan")})
