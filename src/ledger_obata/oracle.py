"""Independent numeric verification over a concrete backend algebra.

The geodesic-orbit property, the naturally-reductive certificates and the
bracket identities behind the classifier are all checked here by brute
force: draw random tangent elements, reduce each claim to a small linear
least-squares problem in the diagonal subalgebra, and record residuals.
The checks share no code with the classifier beyond the structure-constant
backend, so agreement between the two is meaningful evidence.

Replay contract: sample i of a run with base seed ``seed`` is drawn from
``default_rng([seed, i])``, so any failing sample can be recomputed alone.

All three checks run batched.  Samples are drawn one chunk of ``CHUNK`` at
a time (only the generator calls loop in Python), stacked into (S, m, d)
arrays, and centred, normalised, projected, solved and measured for the
whole chunk in numpy; only the residual vector is kept, so the working set
does not grow with ``samples``.  In the GO oracle and the certificate check
each slice of a chunk goes through the same operations, in the same order,
as a lone sample, so ``go_sample_residual`` replays any sample of
``go_oracle`` bit for bit.  ``brackets_property_check`` solves its
least-squares steps by batched SVD instead of one ``np.linalg.lstsq`` per
sample, with the same cutoff.  All three agree with a one-sample-at-a-time
loop to rounding level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import GoCertificate, NatRedCase, NatRedResult
from .errors import InputError, ParameterError
from .liealg import StructureConstants, default_backend, product_bracket
from .metrics import MetricForm, MetricT, eigendecompose, power_of_two_scale

RIDGE = 1e-14
# samples per batched oracle pass: large enough that numpy's per-call cost is
# shared, small enough that the working set does not grow with ``samples``
CHUNK = 64
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
    """Stack of ad matrices, one per row of u: out[..., l, :, :] @ w = [u_l, w]."""
    return np.einsum("...i,ijk->...kj", u, sc.c)


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each (m, d) slice of x, bit for bit np.linalg.norm's.

    A (1, n) @ (n, 1) matmul takes the same dot routine as the norm of one
    flattened slice, so a replay of one sample sees the same digits.
    """
    flat = x.reshape(len(x), -1)
    return np.sqrt(np.matmul(flat[:, None, :], flat[:, :, None]))[:, 0, 0]


def _sample_tangents(seed: int, indices: range, m: int, d: int) -> np.ndarray:
    """Unit complement elements for samples ``indices``, stacked to (S, m, d).

    Sample i is drawn from default_rng([seed, i]) and centred; a draw whose
    centred norm is below 1e-12 is replaced by the next draw of the same
    generator.
    """
    rngs = [np.random.default_rng([seed, i]) for i in indices]
    x = np.stack([rng.standard_normal((m, d)) for rng in rngs])
    x -= x.mean(axis=1, keepdims=True)
    norm = _norms(x)
    for j in np.flatnonzero(norm < 1e-12):
        while norm[j] < 1e-12:
            x[j] = rngs[j].standard_normal((m, d))
            x[j] -= x[j].mean(axis=0)
            norm[j] = np.linalg.norm(x[j])
    return x / norm[:, None, None]


def _require_samples(samples: int) -> None:
    if samples < 1:
        raise ParameterError(f"samples must be at least 1, got {samples}")


def _go_residuals(
    metric: MetricT,
    x: np.ndarray,
    sc: StructureConstants,
    shift: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Geodesic-condition residuals of a stack x of tangent elements (S, m, d).

    Measures the complement component of [x + 1 (x) shift, A x] in the
    minus-Killing norm, for every slice at once.  With ``shift`` None the
    optimal diagonal shift of each slice is found by ridge-regularized
    least squares; otherwise ``shift`` holds one shift per slice, (S, d).
    Returns the residuals (S,) and the shifts (S, d).  Each slice is
    computed on its own, so its digits do not depend on S.
    """
    d = sc.dim
    gram = sc.gram
    ax = metric.matrix @ x
    base = product_bracket(sc, x, ax)
    base -= base.mean(axis=1, keepdims=True)
    coef = -_ad_rows(sc, ax)
    coef -= coef.mean(axis=1, keepdims=True)
    if shift is None:
        lhs = np.einsum("slab,ac,slcd->sbd", coef, gram, coef)
        rhs = -np.einsum("slab,ac,slc->sb", coef, gram, base)
        trace = np.trace(lhs, axis1=1, axis2=2)
        ridge = RIDGE * trace / d
        solvable = trace > 0.0
        shift = np.zeros((len(x), d))
        shift[solvable] = np.linalg.solve(
            lhs[solvable] + ridge[solvable, None, None] * np.eye(d),
            rhs[solvable, :, None],
        )[..., 0]
    rest = base + np.einsum("slab,sb->sla", coef, shift)
    quad = np.einsum("sla,ab,slb->s", rest, gram, rest)
    return np.sqrt(np.maximum(quad, 0.0)), shift


def go_sample_residual(
    metric: MetricT,
    x: np.ndarray,
    backend: StructureConstants | None = None,
    shift: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Geodesic-condition residual for one tangent element.

    The one-sample view of ``_go_residuals``: measures the complement
    component of [x + 1 (x) shift, A x] in the minus-Killing norm.  With
    ``shift`` None the optimal diagonal shift is found by ridge-regularized
    least squares and returned.
    """
    sc = backend if backend is not None else default_backend()
    given = None if shift is None else np.asarray(shift, dtype=float)[None]
    residuals, shifts = _go_residuals(metric, np.asarray(x, dtype=float)[None], sc, given)
    return float(residuals[0]), shifts[0]


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
    _require_samples(samples)
    sc = backend if backend is not None else default_backend()
    scaled = MetricT(metric.matrix / power_of_two_scale(metric.matrix))
    residuals = np.empty(samples)
    for start in range(0, samples, CHUNK):
        chunk = range(start, min(start + CHUNK, samples))
        x = _sample_tangents(seed, chunk, metric.m, sc.dim)
        residuals[chunk.start:chunk.stop] = _go_residuals(scaled, x, sc)[0]
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
    _require_samples(samples)
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
            return u - u[..., dropped - 1 : dropped, :]

    else:
        kernel = np.linalg.svd(weights[None, :])[2][1:]
        pd_eigs = np.linalg.eigvalsh(kernel @ np.diag(weights) @ kernel.T)
        pd_margin = float(pd_eigs[0] / max(np.max(np.abs(pd_eigs)), 1e-300))

        def project(u: np.ndarray) -> np.ndarray:
            return u - (weights @ u)[..., None, :] / alpha_sum

    pd_residual = 0.0
    if pd_margin <= 0.0:
        pd_residual = max(abs(pd_margin), 10.0 * tol)
        notes.append("certified product is not positive definite on the complement")

    residuals = np.empty(samples)
    for start in range(0, samples, CHUNK):
        chunk = range(start, min(start + CHUNK, samples))
        # x and y are the first and second (m, d) draws of each sample
        draws = np.stack([np.random.default_rng([seed, i]).standard_normal((2, m, d))
                          for i in chunk])
        x = project(draws[:, 0])
        y = project(draws[:, 1])
        x /= np.maximum(_norms(x), 1e-300)[:, None, None]
        y /= np.maximum(_norms(y), 1e-300)[:, None, None]
        braid = project(product_bracket(sc, x, y))
        residuals[chunk.start:chunk.stop] = np.abs(
            np.einsum("l,sla,ab,slb->s", weights, braid, gram, x)
        )
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


def _off_range(lhs: np.ndarray, rhs: np.ndarray, size) -> np.ndarray:
    """rhs minus its least-squares fit by the columns of lhs, for each slice.

    ``lhs`` is (S, M, N) and ``rhs`` (S, M).  Singular values up to
    eps * size times the largest count as zero: with ``size`` the larger
    dimension of the unpadded problem this is the cutoff of
    ``np.linalg.lstsq(..., rcond=None)``.  Zero columns of ``lhs`` change
    neither the fit nor the singular values kept, so callers may pad with
    them.
    """
    u, svals, _ = np.linalg.svd(lhs, full_matrices=False)
    keep = svals > np.finfo(float).eps * size * svals[:, :1]
    coef = np.einsum("snk,sn->sk", u, rhs) * keep
    return rhs - np.einsum("snk,sk->sn", u, coef)


def _lstsq_residuals(root: np.ndarray, columns: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Minimal weighted norm of target - columns @ u over u, for each slice.

    ``columns`` is (S, m, d, k), mapping the unknown u to row blocks, with
    k <= m*d; ``target`` is (S, m, d); rows are weighted by the Gram matrix
    ``root @ root.T``.
    """
    lhs = np.einsum("ab,slbk->slak", root.T, columns).reshape(len(columns), -1, columns.shape[3])
    rhs = (target @ root).reshape(len(target), -1)
    return np.linalg.norm(_off_range(lhs, rhs, lhs.shape[1]), axis=1)


def _draw_in_clusters(seed, indices, rows, pairs, shape):
    """Draws of the bracket check for samples ``indices``, as (4, S, *shape).

    Sample i is drawn from default_rng([seed, i]): x and y for cluster pair
    i % len(pairs) (when there are pairs), then x and a raw second element
    for cluster i % len(rows).  A draw for a cluster fills that cluster's
    slice of ``rows``, its coefficients over the cluster's eigenvectors,
    and leaves every other row zero.
    """
    draws = np.zeros((4, len(indices), *shape))
    for j, i in enumerate(indices):
        rng = np.random.default_rng([seed, i])
        if pairs:
            for k, c in enumerate(pairs[i % len(pairs)]):
                rng.standard_normal(out=draws[k, j, rows[c]])
        for k in (2, 3):
            rng.standard_normal(out=draws[k, j, rows[i % len(rows)]])
    return draws


def _pair_residuals(sc, x, y, alpha, beta, include_centralizers):
    """Identities (i) and (ii) of the bracket check on stacks x, y (S, m, d).

    x and y come from clusters with weights alpha and beta (S,).  Returns
    the larger least-squares residual of the two identities per slice.
    """
    root = np.linalg.cholesky(sc.gram)
    target = product_bracket(sc, x, y)
    ads_x, ads_y = _ad_rows(sc, x), _ad_rows(sc, y)
    shared = -(
        (alpha / (beta - alpha))[:, None, None, None] * ads_x
        + (beta / (beta - alpha))[:, None, None, None] * ads_y
    )
    worst = _lstsq_residuals(root, shared, target)
    if include_centralizers:
        d = sc.dim
        ads = np.stack([ads_x, ads_y]).reshape(2 * len(x), -1, d)
        _, svals, vt = np.linalg.svd(ads, full_matrices=False)
        # right null space at 1e-10 relative, as zero-padded columns;
        # all of f when ad vanishes
        null = vt.transpose(0, 2, 1) * (svals <= 1e-10 * svals[:, :1])[:, None, :]
        null_x, null_y = null.reshape(2, len(x), d, d)
        columns = -np.concatenate(
            [np.einsum("slab,sbk->slak", ads_y, null_x),
             np.einsum("slab,sbk->slak", ads_x, null_y)],
            axis=3,
        )
        worst = np.maximum(worst, _lstsq_residuals(root, columns, target))
    return worst


def _leak_residuals(sc, vectors, x, raw, mask):
    """Identity (iii) of the bracket check on a stack x (S, m, d).

    ``raw`` (S, m-1, d) holds coefficients over the eigenvectors
    ``vectors`` of a second element, zero off the rows that ``mask``
    (S, m-1) marks as x's cluster.  It is projected onto the elements whose
    paired brackets with x sum to zero, and the complement part of their
    bracket is measured off the cluster.
    """
    d = sc.dim
    # column (b) of the transposed constraint holds component b of the
    # paired brackets sum_l [x_l, y_l] as a function of y's coefficients
    constraint = np.einsum("al,slbc->sacb", vectors, _ad_rows(sc, x)) * mask[..., None, None]
    constraint = constraint.reshape(len(x), -1, d)
    # removing the min-norm lstsq correction leaves the part of raw that
    # meets the constraint; lstsq's cutoff is taken on the unpadded (d, k*d)
    sizes = d * mask.sum(axis=1)[:, None]
    kept = _off_range(constraint, raw.reshape(len(x), -1), sizes).reshape(raw.shape)
    y = vectors.T @ kept
    norm = np.linalg.norm(y, axis=(1, 2))
    live = norm > 1e-10
    y /= np.where(live, norm, 1.0)[:, None, None]
    rest = product_bracket(sc, x, y)
    rest -= rest.mean(axis=1, keepdims=True)
    leak = rest - vectors.T @ ((vectors @ rest) * mask[..., None])
    quad = np.einsum("sla,ab,slb->s", leak, sc.gram, leak)
    return np.where(live, np.sqrt(np.maximum(quad, 0.0)), 0.0)


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

    Runs batched like the other two oracles.  Only the draws loop in
    Python; each draw is lifted through the full eigenbasis with zeros off
    its cluster, so every sample of a chunk stacks into one (S, m, d) array
    whatever its cluster sizes.  The brackets, the least-squares steps
    (batched SVD with ``lstsq``'s default cutoff), the leak norm and the
    centralizers then run once per chunk.  Residuals agree with a
    one-sample-at-a-time loop over ``np.linalg.lstsq`` to rounding level.
    """
    _require_samples(samples)
    sc = backend if backend is not None else default_backend()
    eigen = eigendecompose(metric, cluster_tol)
    vectors = eigen.system.vectors
    # clusters are runs of consecutive eigenvectors
    rows = [slice(cluster[0], cluster[-1] + 1) for cluster in eigen.clusters]
    members = np.zeros((len(rows), len(vectors)), dtype=bool)
    for c, cluster in enumerate(rows):
        members[c, cluster] = True
    pairs = [(a, b) for a in range(len(rows)) for b in range(len(rows)) if a < b]
    pair_gammas = eigen.system.gammas[[rows[c].start for pair in pairs for c in pair]]
    pair_gammas = pair_gammas.reshape(-1, 2)

    residuals = np.empty(samples)
    for start in range(0, samples, CHUNK):
        chunk = range(start, min(start + CHUNK, samples))
        index = np.arange(chunk.start, chunk.stop)
        draws = _draw_in_clusters(seed, chunk, rows, pairs, (len(vectors), sc.dim))
        # lift to (S, m, d) and normalise; a zero draw stays zero
        lifted = vectors.T @ draws[:3]
        lifted /= np.maximum(np.linalg.norm(lifted, axis=(2, 3)), 1e-300)[..., None, None]
        worst = _leak_residuals(sc, vectors, lifted[2], draws[3], members[index % len(rows)])
        if pairs:
            alpha, beta = pair_gammas[index % len(pairs)].T
            pair = _pair_residuals(sc, lifted[0], lifted[1], alpha, beta, include_centralizers)
            worst = np.maximum(worst, pair)
        residuals[chunk.start:chunk.stop] = worst
    return _report("bracket_properties", residuals, (), samples, seed, tol)
