"""Metric representations and conversions.

Three equivalent encodings of an invariant metric on F^m/diag(F):

* MetricForm -- the (m-1) x (m-1) positive-definite quadratic form on the
  complement spanned by the first m-1 copies;
* MetricT -- the m x m symmetric coefficient matrix, positive semidefinite
  of rank m-1 with the all-ones vector as kernel;
* eigen data -- an adapted system b^i with weights gamma_i such that
  T = sum_i gamma_i b^i (b^i)^T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coeff import (
    AdaptedSystem,
    canonical_sign,
    cluster_indices,
    self_saturated_basis,
)
from .errors import InvalidMetricError, SelfSaturationError

SYM_RTOL = 1e-10


def _check_square_symmetric(a: np.ndarray, label: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidMetricError(f"{label} must be a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidMetricError(f"{label} has non-finite entries")
    with np.errstate(over="ignore"):
        if np.max(np.abs(a - a.T)) > SYM_RTOL * float(np.max(np.abs(a))):
            raise InvalidMetricError(f"{label} must be symmetric")
        sym = (a + a.T) / 2
    if not np.all(np.isfinite(sym)):
        raise InvalidMetricError(f"{label} entries overflow double precision")
    return sym


def _eigvalsh(a: np.ndarray, label: str) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise InvalidMetricError(f"{label} has no computable spectrum: {exc}") from exc


@dataclass(frozen=True)
class MetricForm:
    """Positive-definite quadratic form coefficients a_ij, 1 <= i,j <= m-1."""

    a: np.ndarray

    def __post_init__(self):
        a = _check_square_symmetric(self.a, "form matrix")
        if a.shape[0] < 1:
            raise InvalidMetricError("form matrix must be at least 1x1")
        eigs = _eigvalsh(a, "form matrix")
        if eigs[0] <= 1e-12 * eigs[-1]:
            raise InvalidMetricError("form matrix must be positive definite")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "a", a)

    @property
    def m(self) -> int:
        return self.a.shape[0] + 1


@dataclass(frozen=True)
class MetricT:
    """Coefficient matrix T: symmetric PSD, T @ ones = 0, rank m-1."""

    matrix: np.ndarray

    def __post_init__(self):
        t = _check_square_symmetric(self.matrix, "coefficient matrix")
        m = t.shape[0]
        if m < 2:
            raise InvalidMetricError("coefficient matrix must be at least 2x2")
        scale = float(np.max(np.abs(t)))
        if np.max(np.abs(t @ np.ones(m))) > 1e-8 * scale * np.sqrt(m):
            raise InvalidMetricError("coefficient matrix must annihilate the all-ones vector")
        eigs = _eigvalsh(t, "coefficient matrix")
        if np.sum(np.abs(eigs) <= 1e-10 * scale) != 1:
            raise InvalidMetricError("coefficient matrix must have one-dimensional kernel")
        if eigs[0] < -1e-10 * scale or eigs[1] <= 1e-10 * scale:
            raise InvalidMetricError(
                "coefficient matrix must be positive semidefinite of rank m-1"
            )
        t = t.copy()
        t.setflags(write=False)
        object.__setattr__(self, "matrix", t)

    @property
    def m(self) -> int:
        return self.matrix.shape[0]


def power_of_two_scale(a: np.ndarray) -> float:
    """The power of two 2**e with max|a| / 2**e in [0.5, 1), or 1 for a zero array.

    Dividing by it is exact, so a computation run on ``a / scale`` sees the
    same digits at every scale of ``a`` and cannot overflow.
    """
    return math.ldexp(1.0, math.frexp(float(np.max(np.abs(a))))[1])


def bordered(a: np.ndarray) -> np.ndarray:
    """The form bordered by negated row sums: its coefficient matrix T."""
    m1 = a.shape[0]
    t = np.zeros((m1 + 1, m1 + 1))
    t[:m1, :m1] = a
    row = -a.sum(axis=1)
    t[:m1, m1] = row
    t[m1, :m1] = row
    t[m1, m1] = a.sum()
    return t


def form_to_T(form: MetricForm) -> MetricT:
    """Extend the form to the coefficient matrix with zero row and column sums.

    The unique symmetric T with T @ ones = 0 whose pairing of the projected
    basis vectors e_i - ones/m reproduces a_ij is the form bordered by
    negated row sums.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        t = bordered(form.a)
    if not np.all(np.isfinite(t)):
        raise InvalidMetricError("form matrix entries overflow its coefficient matrix")
    return MetricT(t)


def T_to_form(metric: MetricT) -> MetricForm:
    """Leading (m-1) x (m-1) block of T."""
    m = metric.m
    return MetricForm(metric.matrix[: m - 1, : m - 1])


def standard_metric(m: int) -> MetricT:
    """Restriction of minus the Killing form: T = I - J/m."""
    if m < 2:
        raise InvalidMetricError("m must be at least 2")
    return MetricT(np.eye(m) - np.ones((m, m)) / m)


def zero_sum_basis(m: int) -> np.ndarray:
    """Classical orthonormal chain spanning the zero-sum hyperplane of R^m.

    Row i is proportional to (1, .., 1, -(i+1), 0, .., 0) with i+1 leading ones.
    """
    basis = np.zeros((m - 1, m))
    for i in range(m - 1):
        basis[i, : i + 1] = 1.0
        basis[i, i + 1] = -(i + 1.0)
        basis[i] /= np.linalg.norm(basis[i])
    return basis


@dataclass(frozen=True)
class EigenData:
    """Adapted system of T with its eigenvalue clusters.

    ``clusters`` lists the runs of consecutive indices with equal weights
    (ascending); ``self_saturated`` records, per cluster, whether the
    eigenspace is closed under diamond products of orthogonal pairs.  For
    self-saturated multi-dimensional clusters the basis rows are replaced by
    the canonical self-saturated basis.
    """

    system: AdaptedSystem
    clusters: tuple[tuple[int, ...], ...]
    self_saturated: tuple[bool, ...]


def eigendecompose(metric: MetricT, cluster_tol: float = 1e-8) -> EigenData:
    """Diagonalize T on the zero-sum hyperplane and canonicalize each eigenspace.

    T is diagonalised divided by its ``power_of_two_scale``, which is exact,
    so the eigenvectors and clusters are those of every scale of T and
    nothing overflows; the weights are multiplied back.
    """
    scale = power_of_two_scale(metric.matrix)
    m = metric.m
    q = zero_sum_basis(m)
    reduced = q @ (metric.matrix / scale) @ q.T
    reduced = (reduced + reduced.T) / 2
    gammas, vectors = np.linalg.eigh(reduced)
    b = vectors.T @ q  # rows are eigenvectors in R^m
    clusters = cluster_indices(gammas, cluster_tol)

    rows: list[np.ndarray] = []
    out_gammas: list[float] = []
    out_clusters: list[tuple[int, ...]] = []
    flags: list[bool] = []
    pos = 0
    for cl in clusters:
        block = b[cl]
        gamma = float(np.mean(gammas[cl])) * scale
        if len(cl) == 1:
            block = np.array([canonical_sign(block[0] / np.linalg.norm(block[0]))])
            saturated = True
        else:
            try:
                block = self_saturated_basis(block)
                saturated = True
            except SelfSaturationError:
                saturated = False
        rows.extend(block)
        out_gammas.extend([gamma] * len(cl))
        out_clusters.append(tuple(range(pos, pos + len(cl))))
        flags.append(bool(saturated))
        pos += len(cl)

    system = AdaptedSystem(np.array(rows), np.array(out_gammas))
    return EigenData(system, tuple(out_clusters), tuple(flags))


def metric_from_system(system: AdaptedSystem) -> MetricT:
    """Assemble T = sum_i gamma_i b^i (b^i)^T from an adapted system."""
    v = system.vectors
    t = (v.T * system.gammas) @ v
    return MetricT((t + t.T) / 2)
