"""Independent numeric verification over a concrete backend algebra.

The geodesic-orbit property, the naturally-reductive certificates and the
bracket identities behind the classifier are all checked here by brute
force: draw random tangent elements, reduce each claim to a small linear
least-squares problem in the diagonal subalgebra, and record residuals.
The checks share no code with the classifier beyond the structure-constant
backend, so agreement between the two is meaningful evidence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import GoCertificate, NatRedCase, NatRedResult
from .errors import InputError, ParameterError
from .liealg import StructureConstants, default_backend, product_bracket
from .metrics import MetricForm, MetricT, eigendecompose, power_of_two_scale

RIDGE = 1e-14
CONFIRM_TOL = 1e-8
REFUTE_TOL = 1e-4


@dataclass(frozen=True)
class OracleReport:
    """Residual summary of one verification run.

    ``failures`` lists the per-sample seeds whose residual reached ``tol``
    (replay with default_rng([seed, s])); structural problems (certificate
    reconstruction, positive definiteness) are folded into ``max_residual``
    and described in ``notes``.
    """

    kind: str
    samples: int
    max_residual: float
    verdict: bool
    tol: float
    seed: int
    failures: tuple[int, ...]
    residual_min: float
    residual_median: float
    notes: str = ""

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "samples": self.samples,
            "seed": self.seed,
            "tol": self.tol,
            "verdict": self.verdict,
            "max_residual": self.max_residual,
            "residual_min": self.residual_min,
            "residual_median": self.residual_median,
            "failures": list(self.failures),
            "notes": self.notes,
        }


def _report(kind, residuals, extra, samples, seed, tol, notes=""):
    residuals = np.asarray(residuals, dtype=float)
    worst = float(max(residuals.max() if residuals.size else 0.0, *extra, 0.0))
    failures = tuple(int(i) for i in np.nonzero(residuals >= tol)[0])
    return OracleReport(
        kind=kind,
        samples=int(residuals.size),
        max_residual=worst,
        verdict=bool(worst < tol),
        tol=tol,
        seed=seed,
        failures=failures,
        residual_min=float(residuals.min()) if residuals.size else 0.0,
        residual_median=float(np.median(residuals)) if residuals.size else 0.0,
        notes=notes,
    )


def _ad_rows(sc: StructureConstants, u: np.ndarray) -> np.ndarray:
    """Stack of ad matrices, one per row of u: out[l] @ w = [u_l, w]."""
    return np.einsum("li,ijk->lkj", u, sc.c)


def _weighted_norm(gram: np.ndarray, u: np.ndarray) -> float:
    return float(np.sqrt(max(np.einsum("la,ab,lb->", u, gram, u), 0.0)))


def _sample_tangent(rng: np.random.Generator, m: int, d: int) -> np.ndarray:
    x = rng.standard_normal((m, d))
    x = x - x.mean(axis=0)
    norm = np.linalg.norm(x)
    if norm < 1e-12:
        return _sample_tangent(rng, m, d)
    return x / norm


def go_sample_residual(
    metric: MetricT,
    x: np.ndarray,
    backend: StructureConstants | None = None,
    shift: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Geodesic-condition residual for one tangent element.

    Measures the complement component of [x + 1 (x) shift, A x] in the
    minus-Killing norm.  With ``shift`` None the optimal diagonal shift is
    found by ridge-regularized least squares and returned.
    """
    sc = backend if backend is not None else default_backend()
    ax = metric.matrix @ x
    base = product_bracket(sc, x, ax)
    base = base - base.mean(axis=0)
    coef = -_ad_rows(sc, ax)
    coef = coef - coef.mean(axis=0)
    gram = sc.gram
    if shift is None:
        lhs = np.einsum("lab,ac,lcd->bd", coef, gram, coef)
        trace = float(np.trace(lhs))
        if trace <= 0.0:
            shift = np.zeros(sc.dim)
        else:
            rhs = -np.einsum("lab,ac,lc->b", coef, gram, base)
            ridge = RIDGE * trace / sc.dim
            shift = np.linalg.solve(lhs + ridge * np.eye(sc.dim), rhs)
    rest = base + np.einsum("lab,b->la", coef, shift)
    return _weighted_norm(gram, rest), shift


def certificate_shift(certificate: GoCertificate, x: np.ndarray) -> np.ndarray:
    """Diagonal shift predicted by a geodesic-orbit certificate.

    Expanding x over the certified eigen directions with components Z_j,
    the shift is -sum_j C_j Z_j.
    """
    components = certificate.system.vectors @ x
    return -np.einsum("j,ja->a", certificate.constants, components)


def go_oracle(
    metric: MetricT,
    backend: StructureConstants | None = None,
    samples: int = 200,
    seed: int = 42,
    tol: float = 1e-8,
) -> OracleReport:
    """Test the geodesic-orbit property on random tangent directions.

    For each seeded sample the diagonal shift is optimized by least
    squares; the verdict is true when every residual stays below ``tol``.
    Residuals are linear in the metric, so they are measured on the metric
    divided by its ``power_of_two_scale`` and do not change when it is
    scaled.  Sample i is drawn from default_rng([seed, i]).
    """
    sc = backend if backend is not None else default_backend()
    scaled = MetricT(metric.matrix / power_of_two_scale(metric.matrix))
    residuals = np.empty(samples)
    for i in range(samples):
        x = _sample_tangent(np.random.default_rng([seed, i]), metric.m, sc.dim)
        residuals[i], _ = go_sample_residual(scaled, x, sc)
    return _report("geodesic_orbit", residuals, (), samples, seed, tol)


def assess_geodesic_orbit(
    metric: MetricT,
    backend: StructureConstants | None = None,
    samples: int = 200,
    seed: int = 42,
    confirm_tol: float = CONFIRM_TOL,
    refute_tol: float = REFUTE_TOL,
    rounds: int = 3,
) -> tuple[str, OracleReport]:
    """Three-way oracle verdict with resampling between the thresholds.

    Returns ('confirmed' | 'refuted' | 'marginal', last report): confirmed
    when the worst residual is below ``confirm_tol``, refuted when it
    exceeds ``refute_tol``; otherwise the sample count doubles for another
    round before settling on marginal.
    """
    sc = backend if backend is not None else default_backend()
    report = None
    for round_index in range(max(rounds, 1)):
        report = go_oracle(
            metric,
            sc,
            samples << round_index,
            seed + 7919 * round_index,
            confirm_tol,
        )
        if report.max_residual < confirm_tol:
            return "confirmed", report
        if report.max_residual > refute_tol:
            return "refuted", report
    return "marginal", report


# -- naturally reductive certificate verification ----------------------------


def _certified_weights(result: NatRedResult, m: int) -> tuple[np.ndarray, int | None]:
    """Copy weights of the certified product and the dropped copy, if any.

    Parameters that cannot describe a metric on m copies are an InputError:
    invariant_form needs m ``alphas`` and a nonzero ``alpha_sum``; diagonal
    drops copy m and ideal drops ``ideal_index`` in 1..m-1, and both need
    ``betas`` keyed by copies in 1..m that cover every copy but the dropped
    one.  Every weight must be finite.
    """

    def unfit(what: str) -> InputError:
        return InputError(f"certificate does not fit m = {m}: {what}")

    if result.case is NatRedCase.INVARIANT_FORM:
        if np.shape(result.alphas) != (m,):
            raise unfit(f"'alphas' must list {m} weights")
        if not result.alpha_sum:
            raise unfit("'alpha_sum' must be present and nonzero")
        weights, dropped = np.asarray(result.alphas, dtype=float), None
    else:
        index, ideal = result.ideal_index, result.case is NatRedCase.IDEAL
        if (index is not None) != ideal or (ideal and not 1 <= index <= m - 1):
            raise unfit(f"'ideal_index' must be in 1..{m - 1} for ideal, absent for diagonal")
        dropped = index or m
        copies = set(result.betas or ())
        if not set(range(1, m + 1)) - {dropped} <= copies <= set(range(1, m + 1)):
            raise unfit(f"'betas' keys must lie in 1..{m} and cover every copy but {dropped}")
        weights = np.zeros(m)
        for copy, beta in result.betas.items():
            weights[copy - 1] = beta
    if not (np.all(np.isfinite(weights)) and np.isfinite(result.alpha_sum or 0.0)):
        raise unfit("weights must be finite")
    return weights, dropped


def _reconstructed_form(
    weights: np.ndarray, dropped: int | None, alpha_sum: float | None
) -> np.ndarray:
    """The form on the first m-1 copies that the certified weights describe."""
    m = weights.size
    if dropped is None:
        head = weights[:-1]
        return np.diag(head) - np.outer(head, head) / alpha_sum
    # sum over copies i of w_i (e_i - e_k)(e_i - e_k)^T with e_m := 0
    e = np.eye(m, m - 1)
    v = e - e[dropped - 1]
    return (v.T * weights) @ v


def natred_certificate_check(
    form: MetricForm,
    result: NatRedResult,
    backend: StructureConstants | None = None,
    samples: int = 200,
    seed: int = 42,
    tol: float = 1e-8,
) -> OracleReport:
    """Verify a naturally-reductive certificate against the backend.

    Three independent checks feed the report: the certificate parameters
    must reconstruct the input form, the certified product must be
    positive definite on the certified complement, and the reductivity
    identity ((bracket of two complement elements, projected back), first
    element) = 0 must hold on seeded samples.  All three matter: the
    identity alone holds for any invariant weights, so a corrupted
    certificate is caught by the reconstruction residual.  The form and
    the certified weights are both divided by the form's
    ``power_of_two_scale`` first, so every residual is scale-free.
    """
    if result.case is NatRedCase.NOT_NR:
        raise ParameterError("nothing to verify: classification is not naturally reductive")
    sc = backend if backend is not None else default_backend()
    m = form.m
    d = sc.dim
    gram = sc.gram
    notes = []

    scale = power_of_two_scale(form.a)
    a = form.a / scale
    weights, dropped = _certified_weights(result, m)
    weights = weights / scale
    alpha_sum = None if result.alpha_sum is None else result.alpha_sum / scale
    rebuilt = _reconstructed_form(weights, dropped, alpha_sum)
    recon_residual = float(np.max(np.abs(a - rebuilt))) / float(np.max(np.abs(a)))
    if recon_residual >= tol:
        notes.append(f"certificate does not reconstruct the form ({recon_residual:.3e})")

    if dropped is not None:
        mask = np.ones(m, dtype=bool)
        mask[dropped - 1] = False
        kept = weights[mask]
        pd_margin = float(kept.min() / max(kept.max(), 1e-300)) if kept.size else -1.0

        def project(u: np.ndarray) -> np.ndarray:
            return u - u[dropped - 1][None, :]

    else:
        kernel = np.linalg.svd(weights[None, :])[2][1:]
        pd_eigs = np.linalg.eigvalsh(kernel @ np.diag(weights) @ kernel.T)
        pd_margin = float(pd_eigs[0] / max(np.max(np.abs(pd_eigs)), 1e-300))

        def project(u: np.ndarray) -> np.ndarray:
            return u - (weights @ u)[None, :] / alpha_sum

    pd_residual = 0.0
    if pd_margin <= 0.0:
        pd_residual = max(abs(pd_margin), 10.0 * tol)
        notes.append("certified product is not positive definite on the complement")

    residuals = np.empty(samples)
    for i in range(samples):
        rng = np.random.default_rng([seed, i])
        x = project(rng.standard_normal((m, d)))
        y = project(rng.standard_normal((m, d)))
        x /= max(np.linalg.norm(x), 1e-300)
        y /= max(np.linalg.norm(y), 1e-300)
        braid = project(product_bracket(sc, x, y))
        residuals[i] = abs(np.einsum("i,ia,ab,ib->", weights, braid, gram, x))
    return _report(
        "naturally_reductive_certificate",
        residuals,
        (recon_residual, pd_residual),
        samples,
        seed,
        tol,
        notes="; ".join(notes),
    )


# -- bracket identities behind the classifier --------------------------------


def _null_space(mat: np.ndarray, rtol: float = 1e-10) -> np.ndarray:
    """Orthonormal columns spanning the right null space."""
    _, svals, vt = np.linalg.svd(mat)
    if svals.size == 0 or svals[0] == 0.0:
        return np.eye(mat.shape[1])
    rank = int(np.sum(svals > rtol * svals[0]))
    return vt[rank:].T


def _weighted_lstsq(gram: np.ndarray, columns: np.ndarray, target: np.ndarray) -> float:
    """Minimal weighted norm of target - columns @ u over u.

    ``columns`` has shape (m, d, k) mapping the unknown u to row blocks;
    ``target`` is (m, d); rows are weighted by the Gram matrix.
    """
    if columns.shape[2] == 0:
        return _weighted_norm(gram, target)
    root = np.linalg.cholesky(gram)
    lhs = np.einsum("ab,lbk->lak", root.T, columns).reshape(-1, columns.shape[2])
    rhs = (target @ root).reshape(-1)
    solution, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    return float(np.linalg.norm(rhs - lhs @ solution))


def brackets_property_check(
    metric: MetricT,
    backend: StructureConstants | None = None,
    samples: int = 200,
    seed: int = 42,
    tol: float = 1e-8,
    cluster_tol: float = 1e-8,
    include_centralizers: bool = False,
) -> OracleReport:
    """Sample the bracket identities that geodesic-orbit metrics satisfy.

    Per sample: (i) for elements of two different eigenvalue clusters a
    common diagonal correction solves the weighted bracket identity;
    optionally (ii) the same bracket splits through the two centralizers;
    (iii) two same-cluster elements with vanishing paired brackets have
    their bracket's complement part inside the cluster.  On non-GO input
    some residual is expected to blow up, documenting necessity.
    """
    sc = backend if backend is not None else default_backend()
    eigen = eigendecompose(metric, cluster_tol)
    vectors = eigen.system.vectors
    gammas = eigen.system.gammas
    d = sc.dim
    gram = sc.gram
    clusters = eigen.clusters
    pairs = [
        (a, b) for a in range(len(clusters)) for b in range(len(clusters)) if a < b
    ]

    def sample_in(rng, cluster):
        basis = vectors[list(cluster)]
        x = basis.T @ rng.standard_normal((len(cluster), d))
        return x / max(np.linalg.norm(x), 1e-300)

    residuals = np.empty(samples)
    for i in range(samples):
        rng = np.random.default_rng([seed, i])
        worst = 0.0
        if pairs:
            ca, cb = pairs[i % len(pairs)]
            x = sample_in(rng, clusters[ca])
            y = sample_in(rng, clusters[cb])
            alpha = gammas[clusters[ca][0]]
            beta = gammas[clusters[cb][0]]
            target = product_bracket(sc, x, y)
            shared = -(
                alpha / (beta - alpha) * _ad_rows(sc, x)
                + beta / (beta - alpha) * _ad_rows(sc, y)
            )
            worst = max(worst, _weighted_lstsq(gram, shared, target))
            if include_centralizers:
                ads_x = _ad_rows(sc, x)
                ads_y = _ad_rows(sc, y)
                null_x = _null_space(ads_x.reshape(-1, d))
                null_y = _null_space(ads_y.reshape(-1, d))
                columns = np.concatenate(
                    [-np.einsum("lab,bk->lak", ads_y, null_x),
                     -np.einsum("lab,bk->lak", ads_x, null_y)],
                    axis=2,
                )
                worst = max(worst, _weighted_lstsq(gram, columns, target))
        cluster = clusters[i % len(clusters)]
        basis = vectors[list(cluster)]
        x = sample_in(rng, cluster)
        raw = rng.standard_normal((len(cluster), d))
        # constraint: the paired brackets of x and y sum to zero
        constraint = np.einsum("al,lbc->bac", basis, _ad_rows(sc, x)).reshape(d, -1)
        flat = raw.reshape(-1)
        correction, *_ = np.linalg.lstsq(constraint, constraint @ flat, rcond=None)
        y = basis.T @ (flat - correction).reshape(len(cluster), d)
        norm = np.linalg.norm(y)
        if norm > 1e-10:
            y /= norm
            rest = product_bracket(sc, x, y)
            rest = rest - rest.mean(axis=0)
            leak = rest - (basis.T @ basis) @ rest
            worst = max(worst, _weighted_norm(gram, leak))
        residuals[i] = worst
    return _report("bracket_properties", residuals, (), samples, seed, tol)
