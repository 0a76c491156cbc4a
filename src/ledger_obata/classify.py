"""Naturally reductive and geodesic-orbit classification.

A metric on F^m/diag(F) is naturally reductive exactly when it lies in one
of two families.  The first is the product metric on the ideal that drops
one copy k in 1..m: its coefficient matrix is
T = sum_{i != k} beta_i (e_i - e_k)(e_i - e_k)^T.  Copy k = m is tried
first and reported as ``diagonal`` (the form is diagonal); k < m is
reported as ``ideal`` with ``ideal_index`` k.  The second is the
restriction of an ad-invariant form with weights alpha_1..alpha_m,
T = diag(alpha) - alpha alpha^T / S with S = sum(alpha), reported as
``invariant_form``.  Its weights are read off T symmetrically in the
copies: alpha_i is the mean of T_ii - T_ij T_ik / T_jk and S the mean of
-alpha_i alpha_j / T_ij over distinct i, j, k.  Both families are matched
on the form divided by ``power_of_two_scale``, which is exact, so ``tol``
bounds the reconstruction residual relative to the largest form entry
and verdicts do not change when the metric is scaled.
Geodesic-orbit metrics are detected through the eigen data: every
eigenspace must be self-saturated, the combined system super-adapted, and
the weighted projection coefficients must collapse to one constant per
direction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .coeff import (
    ADAPTED_TOL,
    AdaptedSystem,
    adaptedness_error,
    cluster_indices,
    is_super_adapted,
)
from .errors import InputError, ParameterError
from .metrics import (
    EigenData,
    MetricForm,
    MetricT,
    bordered,
    eigendecompose,
    metric_from_system,
    power_of_two_scale,
)


class NatRedCase(enum.Enum):
    NOT_NR = "not_naturally_reductive"
    DIAGONAL = "diagonal"
    IDEAL = "ideal"
    INVARIANT_FORM = "invariant_form"


@dataclass(frozen=True)
class NatRedResult:
    """Classification outcome with the parameters certifying the case.

    diagonal and ideal: ``betas`` maps each copy but the dropped one to its
    positive weight; ``ideal_index`` is the dropped copy k (1-based) for
    ideal and None for diagonal, where copy m is dropped.
    invariant_form: ``alphas`` holds the m nonzero weights, ``alpha_sum`` their
    sum; the sign condition (all positive, or exactly one negative with a
    negative sum) certifies positive definiteness on the complement.
    ``normal`` is True for both product cases and for invariant forms with
    all weights positive.
    """

    case: NatRedCase
    normal: bool = False
    betas: dict[int, float] | None = None
    ideal_index: int | None = None
    alphas: np.ndarray | None = None
    alpha_sum: float | None = None

    @property
    def is_naturally_reductive(self) -> bool:
        return self.case is not NatRedCase.NOT_NR


def solve_invariant_form(
    form: MetricForm, tol: float = 1e-8
) -> tuple[np.ndarray, float] | None:
    """Recover invariant-form weights alpha_1..alpha_m from the form, or None.

    m = 2 admits every form with the canonical weights (2a, 2a).  For
    m >= 3, T = diag(alpha) - alpha alpha^T / S gives
    alpha_i = T_ii - T_ij T_ik / T_jk and S = -alpha_i alpha_j / T_ij for
    any distinct i, j, k; each is the mean over all choices, taken on the
    coefficient matrix of the scaled form.  The weights are accepted when
    they rebuild the form to ``tol`` relative to its largest entry, are
    nonzero, and meet the sign condition.
    """
    a = form.a
    m = form.m
    if m == 2:
        alphas = np.array([2 * a[0, 0], 2 * a[0, 0]])
        return alphas, float(alphas.sum())

    scale = power_of_two_scale(a)
    a = a / scale
    small = tol * float(np.max(np.abs(a)))
    t = bordered(a)
    off = ~np.eye(m, dtype=bool)
    if np.any(np.abs(t[off]) <= small):
        return None

    # ratios[i, j, k] = T_ij T_ik / T_jk, averaged over distinct i, j, k
    ratios = t[:, :, None] * t[:, None, :] / t[None, :, :]
    distinct = off[:, :, None] & off[:, None, :] & off[None, :, :]
    alphas = np.diag(t) - np.where(distinct, ratios, 0.0).sum(axis=(1, 2)) / (
        (m - 1) * (m - 2)
    )
    alpha_sum = float(np.mean(-np.outer(alphas, alphas)[off] / t[off]))

    if np.any(np.abs(alphas) <= small) or abs(alpha_sum) <= small:
        return None
    rebuilt = np.diag(alphas) - np.outer(alphas, alphas) / alpha_sum
    if np.max(np.abs(a - rebuilt[:-1, :-1])) > small:
        return None
    negatives = int(np.sum(alphas < 0))
    if negatives > 1 or (negatives == 1 and alpha_sum >= 0):
        return None
    return alphas * scale, alpha_sum * scale


def classify_natred(form: MetricForm, tol: float = 1e-8) -> NatRedResult:
    """Match the form against the dropped-copy and invariant-form families."""
    m = form.m
    if m == 2:
        # every metric on F^2/diag(F) is the restriction of an invariant form
        alphas, alpha_sum = solve_invariant_form(form, tol)  # never None at m = 2
        return NatRedResult(
            case=NatRedCase.INVARIANT_FORM,
            normal=True,
            alphas=alphas,
            alpha_sum=alpha_sum,
        )

    scale = power_of_two_scale(form.a)
    a = form.a / scale
    n = m - 1
    small = tol * float(np.max(np.abs(a)))
    diag = np.append(np.diag(a), 0.0)
    trace = diag.sum()
    e = np.eye(m, n)  # e_1..e_m on the first m-1 copies, so e_m = 0
    # copy m first: its dropped-copy product is reported as the diagonal case
    for k in (n, *range(n)):
        weights = diag.copy()
        if k < n:
            tail = a[k, k] - (trace - a[k, k])
            if tail <= small:
                continue
            weights[n] = tail
        weights[k] = 0.0
        # the product sum_i w_i (e_i - e_k)(e_i - e_k)^T
        v = e - e[k]
        if np.max(np.abs(a - (v.T * weights) @ v)) > small:
            continue
        betas = {i + 1: float(w * scale) for i, w in enumerate(weights) if i != k}
        if k == n:
            return NatRedResult(case=NatRedCase.DIAGONAL, normal=True, betas=betas)
        return NatRedResult(
            case=NatRedCase.IDEAL, normal=True, betas=betas, ideal_index=k + 1
        )

    solved = solve_invariant_form(form, tol)
    if solved is not None:
        alphas, alpha_sum = solved
        return NatRedResult(
            case=NatRedCase.INVARIANT_FORM,
            normal=bool(np.all(alphas > 0)),
            alphas=alphas,
            alpha_sum=alpha_sum,
        )
    return NatRedResult(case=NatRedCase.NOT_NR)


def natred_from_dict(data: dict) -> NatRedResult:
    """Parse a naturally-reductive certificate back from its JSON form.

    Coherence of the parameters with a particular metric is not checked
    here; certificate verification does that against the backend algebra.
    """
    if not isinstance(data, dict):
        raise InputError("certificate must be a JSON object")
    try:
        case = NatRedCase(data["case"])
    except (KeyError, ValueError, TypeError):
        allowed = ", ".join(c.value for c in NatRedCase)
        raise InputError(f"certificate needs a 'case' among: {allowed}")
    betas = None
    if data.get("betas") is not None:
        try:
            betas = {int(k): float(v) for k, v in data["betas"].items()}
        except (AttributeError, TypeError, ValueError) as exc:
            raise InputError(f"malformed 'betas': {exc}")
    alphas = None
    if data.get("alphas") is not None:
        try:
            alphas = np.array(data["alphas"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise InputError(f"malformed 'alphas': {exc}")
    ideal_index = data.get("ideal_index")
    alpha_sum = data.get("alpha_sum")
    return NatRedResult(
        case=case,
        normal=bool(data.get("normal", False)),
        betas=betas,
        ideal_index=None if ideal_index is None else int(ideal_index),
        alphas=alphas,
        alpha_sum=None if alpha_sum is None else float(alpha_sum),
    )


def natred_report(result: NatRedResult) -> dict:
    """JSON-ready rendering of a naturally-reductive classification."""
    out: dict = {
        "case": result.case.value,
        "naturally_reductive": result.is_naturally_reductive,
        "normal": result.normal,
    }
    if result.betas is not None:
        out["betas"] = {str(k): v for k, v in sorted(result.betas.items())}
    if result.ideal_index is not None:
        out["ideal_index"] = result.ideal_index
    if result.alphas is not None:
        out["alphas"] = result.alphas
        out["alpha_sum"] = result.alpha_sum
    return out


# -- geodesic-orbit classification -------------------------------------------


class GoVerdict(enum.Enum):
    YES = "yes"
    NO = "no"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class GoCertificate:
    """Witness for the geodesic-orbit property.

    ``system`` is the canonical adapted system; ``coef_on_first`` and
    ``coef_on_second`` hold the projections of b^i <> b^j onto b^i and b^j;
    ``constants`` holds the per-direction values C_i with
    (1 - gamma_i/gamma_j) * coef_on_second[i, j] = C_i for every j != i.
    """

    system: AdaptedSystem
    coef_on_first: np.ndarray
    coef_on_second: np.ndarray
    constants: np.ndarray


@dataclass(frozen=True)
class GoResult:
    verdict: GoVerdict
    certificate: GoCertificate | None = None
    reason: str = ""
    eigen: EigenData | None = None

    @property
    def is_go(self) -> bool:
        return self.verdict is GoVerdict.YES


def classify_go(
    metric: MetricT, tol: float = 1e-8, cluster_tol: float = 1e-8
) -> GoResult:
    """Decide the geodesic-orbit property from the eigen data.

    No is definitive: each failed test is a necessary condition and holds
    for every admissible choice of eigenbasis.  Indeterminate arises only
    when a repeated eigenvalue is present and the canonical bases fail the
    cross-cluster span test; callers should then fall back to the naturally
    reductive classifier and the numeric oracle.
    """
    eigen = eigendecompose(metric, cluster_tol)
    system = eigen.system
    n = system.vectors.shape[0]
    multi = [cl for cl in eigen.clusters if len(cl) > 1]

    for cl, saturated in zip(eigen.clusters, eigen.self_saturated):
        if not saturated:
            gamma = system.gammas[cl[0]]
            return GoResult(
                GoVerdict.NO,
                reason=f"eigenspace of weight {gamma:.12g} is not self-saturated",
                eigen=eigen,
            )

    ok, check = is_super_adapted(system, tol, cluster_tol)
    if not ok:
        if multi:
            return GoResult(
                GoVerdict.INDETERMINATE,
                reason=(
                    "cross-cluster span test failed at pair "
                    f"{check.worst_pair} with repeated eigenvalues present"
                ),
                eigen=eigen,
            )
        return GoResult(
            GoVerdict.NO,
            reason=f"span test failed at pair {check.worst_pair}",
            eigen=eigen,
        )

    label = np.empty(n, dtype=int)
    for ci, cl in enumerate(eigen.clusters):
        label[list(cl)] = ci
    cluster_size = {ci: len(cl) for ci, cl in enumerate(eigen.clusters)}
    gammas = system.gammas

    constants = np.zeros(n)
    for i in range(n):
        values = [
            (1.0 - gammas[i] / gammas[j]) * check.on_second[i, j]
            for j in range(n)
            if label[j] != label[i]
        ]
        if cluster_size[label[i]] > 1:
            bad = [v for v in values if abs(v) > tol]
            if bad:
                return GoResult(
                    GoVerdict.NO,
                    reason=(
                        f"direction {i} sits in a repeated eigenvalue but has "
                        f"nonzero compatibility value {bad[0]:.3e}"
                    ),
                    eigen=eigen,
                )
            constants[i] = 0.0
        elif values:
            spread = max(values) - min(values)
            if spread > tol:
                return GoResult(
                    GoVerdict.NO,
                    reason=f"compatibility values for direction {i} spread by {spread:.3e}",
                    eigen=eigen,
                )
            constants[i] = float(np.mean(values))
        else:
            constants[i] = 0.0

    cert = GoCertificate(system, check.on_first, check.on_second, constants)
    return GoResult(GoVerdict.YES, certificate=cert, eigen=eigen)


def go_report(result: GoResult) -> dict:
    """JSON-ready rendering of a geodesic-orbit classification."""
    out: dict = {"verdict": result.verdict.value}
    if result.reason:
        out["reason"] = result.reason
    if result.eigen is not None:
        out["eigenvalues"] = result.eigen.system.gammas
        out["clusters"] = [list(c) for c in result.eigen.clusters]
    if result.certificate is not None:
        out["certificate"] = {
            "vectors": result.certificate.system.vectors,
            "gammas": result.certificate.system.gammas,
            "constants": result.certificate.constants,
        }
    return out


# -- explicit super-adapted families ------------------------------------------


@dataclass(frozen=True)
class SuperAdaptedFamily:
    """Super-adapted system built from positive nodes z_1 < .. < z_m.

    ``roots`` are the m-1 zeros t_i of phi(t) = sum_k z_k / (z_k - t), one
    in each gap (z_i, z_{i+1}); row i of ``vectors`` is proportional to
    z_k / (z_k - t_i) with positive normalizer ``normalizers[i]``.
    """

    vectors: np.ndarray
    roots: np.ndarray
    normalizers: np.ndarray

    def system(self, gammas: np.ndarray) -> AdaptedSystem:
        return AdaptedSystem(self.vectors, np.asarray(gammas, dtype=float))


def _phi(z: np.ndarray, t: float) -> float:
    return float(np.sum(z / (z - t)))


def _bisect_root(z: np.ndarray, lo: float, hi: float) -> float:
    """Root of phi in the open gap (lo, hi), where phi climbs from -inf just
    above ``lo`` to +inf just below ``hi``; so bisection never evaluates an end."""
    a, b = lo, hi
    if not a < 0.5 * (a + b) < b:
        raise ParameterError(
            f"no double lies strictly between the nodes {float(lo)!r} and {float(hi)!r}"
        )
    for _ in range(200):
        mid = 0.5 * (a + b)
        if not a < mid < b:
            break
        if _phi(z, mid) < 0:
            a = mid
        else:
            b = mid
        if b - a <= 1e-12 * max(abs(a), abs(b)):
            break
    t = 0.5 * (a + b)
    if not lo < t < hi:  # a and b are adjacent doubles, one of them an end
        t = b if a == lo else a
    # Newton polish; derivative of phi is sum z_k / (z_k - t)^2 > 0 on the gap
    for _ in range(3):
        deriv = float(np.sum(z / (z - t) ** 2))
        step = _phi(z, t) / deriv
        t_new = t - step
        if lo < t_new < hi:
            t = t_new
    return t


def super_adapted_family(z: np.ndarray) -> SuperAdaptedFamily:
    """Construct the rational-node super-adapted system for nodes z."""
    z = np.asarray(z, dtype=float)
    m = z.size
    if m < 2:
        raise ParameterError("need at least two nodes")
    if np.any(z <= 0):
        raise ParameterError("nodes must be positive")
    if np.any(np.diff(z) <= 0):
        raise ParameterError("nodes must be strictly increasing")
    roots = np.array([_bisect_root(z, z[i], z[i + 1]) for i in range(m - 1)])
    vectors = z / (z - roots[:, None])
    norms = np.linalg.norm(vectors, axis=1)
    vectors = vectors / norms[:, None]
    return SuperAdaptedFamily(vectors, roots, 1.0 / norms)


def go_family(
    z: np.ndarray, rho: float, lam: float
) -> tuple[MetricT, SuperAdaptedFamily, np.ndarray]:
    """Geodesic-orbit metric with weights gamma_i = t_i / (rho + lam * t_i).

    ``rho`` must be nonzero and every denominator positive so the weights
    are positive.  Nodes so close that the family misses ``ADAPTED_TOL``
    are a ParameterError: the roots then lie so near the nodes that
    z / (z - t) loses its digits to cancellation.  Returns the metric, the
    underlying family and the weights.
    """
    if rho == 0:
        raise ParameterError("rho must be nonzero")
    fam = super_adapted_family(z)
    error = adaptedness_error(fam.vectors)
    if error > ADAPTED_TOL:
        gaps = np.diff(np.asarray(z, dtype=float))
        i = int(np.argmin(gaps))
        raise ParameterError(
            f"nodes are ill-conditioned: the closest gap, z_{i + 2} - z_{i + 1} = "
            f"{gaps[i]:.3g}, leaves the family an adaptedness error of {error:.3g} "
            f"({ADAPTED_TOL:g} allowed)"
        )
    denom = rho + lam * fam.roots
    if np.any(denom <= 0):
        bad = int(np.argmin(denom))
        raise ParameterError(
            f"rho + lam * t_{bad + 1} = {denom[bad]:.6g} must be positive"
        )
    gammas = fam.roots / denom
    if np.any(gammas <= 0):
        raise ParameterError("weights must come out positive")
    metric = metric_from_system(fam.system(gammas))
    return metric, fam, gammas
