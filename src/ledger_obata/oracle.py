"""Independent numeric verification over a concrete backend algebra.

The geodesic-orbit property, the naturally-reductive certificates and the
bracket identities behind the classifier are all checked here by brute
force: draw random tangent elements, reduce each claim to a small linear
least-squares problem in the diagonal subalgebra, and record residuals.
The checks share no code with the classifier beyond the structure-constant
backend, so agreement between the two is meaningful evidence.  Only
``verify_report`` at the end calls both; ``classify_report`` runs the classifiers.

Replay contract: sample i of a run with base seed ``seed`` draws from its
own splitmix64 stream (Steele, Lea & Flood, OOPSLA 2014), a counter hash:
``_streams`` derives the stream's state from the seed's two 64-bit key
words and i, ``_words`` hashes the state with a word counter, and
``_normals`` turns words 2p and 2p + 1 into normal entries 2p and 2p + 1
by Box-Muller.  Entry k of sample i depends on (seed, i, k) alone, so any
failing sample can be recomputed alone; ``tests/conftest.py`` holds an
independent pure-Python copy of the stream.  A chunk is drawn at once in
wrapping uint64 arrays, with no loop over samples: a (6, 3) draw takes
0.62 µs per sample (best of 5 x 300 calls on one 256-sample chunk,
2-vCPU shared Xeon VM, numpy 2.4), against 2.4 µs for the per-sample
Philox generators it replaced.

One driver, ``_sampled``, runs all three checks: it draws one chunk of
``CHUNK`` samples at a time and keeps only the residual vectors, so the
working set does not grow with ``samples``.  At 256 samples a default
``lot verify`` round is one chunk per check.  Each check states the shape of
a sample's draw and measures a whole chunk in numpy:
- ``go_oracle`` draws (m, d), a tangent element to centre and normalise; a
  draw that centres to zero is replaced by the next draw of its stream;
- ``natred_certificate_check`` draws (2, m, d), the elements x and y;
- ``brackets_property_check`` draws (4, m-1, d), the coefficients over the
  eigenvectors of x and y for a cluster pair, then of x and a raw second
  element for one cluster, each part masked to zero off its cluster's rows.
Checks that share ``(samples, seed)`` share one pass: each sample is
drawn once, at the largest shape, and each check reads the prefix of the
draw that its own shape takes.  ``lot verify`` runs GO round 0, the
certificate check and the bracket check in one such pass (``_assess``), so
each of its sample streams is drawn once per run, whether the GO verdict is
the classifier's or the oracle's; a check that ``verify_report`` leaves out
moves no digit of the others.  For a GO invariant form at m = 5 (draws of
15, 30 and 48 normals), drawing one 256-sample chunk takes 1.4 µs per
sample against 3.1 µs for three separate draws, and the three checks at
200 samples take 14.8 µs per sample in one pass against 17.2 µs in three
(best of 5 x 200 and of 5 x 60 calls, same machine).

In the GO oracle and the certificate check each slice of a chunk goes
through the same operations, in the same order, as a lone sample, so
``go_sample_residual`` replays any sample of ``go_oracle`` bit for bit, and
a chunk of one sample replays any sample of the certificate check.
``brackets_property_check`` solves its least-squares steps by batched SVD
instead of one ``np.linalg.lstsq`` per sample, with the same cutoff.  All
three agree with a one-sample-at-a-time loop to rounding level, and no
report depends on the chunk size.

The bracket check's largest arrays are its (S, m, d, d) ad stacks, 108 KB
each at S = 256, m = 6 over so(3).  It builds its least-squares columns in
place, drops each stack once read and holds only the weighted columns
through an SVD (``_shared_lhs``); in-place arithmetic gives the bits of
the expression it replaces.

The backend enters only through ``liealg``: brackets, ad matrices and
minus-Killing norms come from ``product_bracket``, ``ad_rows`` and
``killing_norms``, each a matmul against the reshaped table.  The other
kernels are 2-D or batched matmuls too, and the GO normal matrix is Y^T Y
against a (d^2, d^2) table built per call (see ``_go_residuals``).  A
batched matmul multiplies slice by slice, so a slice's digits do not
depend on the chunk it sits in.  At m = 5 over so(3) the GO kernel takes
1.2 µs per sample (best of 300 calls on one 256-sample chunk, same
machine).  The bracket check's batched SVD costs more than the GO kernel.

Every check measures on the metric divided by ``power_of_two_scale``, as a
plain matrix, and on ``sc.unit``, the table divided by ``liealg.unit_scale``
once when it was built; both divisions are exact, and this module builds no
validated object.  GO and bracket residuals grow like max|c|^2 and
certificate residuals like max|c|^3, so on the caller's table fixed
tolerances would give verdicts that depend on the scale of the basis.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, fields, replace

import numpy as np

from .classify import (
    GoCertificate, GoVerdict, NatRedCase, NatRedResult, classify_go, classify_natred, go_report,
    natred_from_dict, natred_report,
)
from .coeff import _cluster_labels, _norms
from .errors import InputError, ParameterError
from .liealg import (
    StructureConstants,
    ad_rows,
    default_backend,
    killing_norms,
    product_bracket,
)
from .metrics import EigenData, MetricForm, MetricT, T_to_form, eigendecompose, power_of_two_scale

RIDGE = 1e-14
# samples per chunk of an oracle pass: a default `lot verify` round (200
# samples) is one chunk, so numpy's per-call cost is shared; the working set
# stays within the bounds its tests set and does not grow with ``samples``
CHUNK = 256
# GO assessment: confirmed below CONFIRM_TOL, refuted above REFUTE_TOL, and
# resampled in between, with twice the samples each round, up to ROUNDS rounds
CONFIRM_TOL = 1e-8
REFUTE_TOL = 1e-4
ROUNDS = 3
# failing samples that a report's JSON form lists; it counts all of them
FIRST_FAILURES = 5


@dataclass(frozen=True)
class OracleReport:
    """Residual summary of one verification run.

    ``failures`` lists the samples whose residual reached ``tol``; each
    replays alone from its seeded stream (``_normals``).  The JSON form,
    ``to_dict``, gives their count as ``failed`` and the first
    ``FIRST_FAILURES`` of them as ``first_failures``.  Structural problems
    (certificate reconstruction, positive definiteness) are folded into
    ``max_residual`` and described in ``notes``.
    """

    kind: str
    samples: int
    seed: int
    tol: float
    verdict: bool
    max_residual: float
    residual_min: float
    residual_median: float
    failures: tuple[int, ...]
    notes: str = ""

    def to_dict(self) -> dict:
        # every field but ``failures`` is a scalar, so no deep copy is needed
        data = {}
        for f in fields(self):
            if f.name == "failures":
                data["failed"] = len(self.failures)
                data["first_failures"] = list(self.failures[:FIRST_FAILURES])
            else:
                data[f.name] = getattr(self, f.name)
        return data


# splitmix64 (Steele, Lea & Flood, OOPSLA 2014): the golden-ratio step of its
# state and the two multipliers of its output function
GAMMA = np.uint64(0x9E3779B97F4A7C15)
MIX = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))


def _mix(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The splitmix64 output function of the uint64 array ``z``, in place; returns z.

    ``tmp`` is scratch of z's shape.  Array arithmetic wraps modulo 2**64
    without a warning.
    """
    for shift, factor in zip((30, 27), MIX):
        z ^= np.right_shift(z, shift, out=tmp)
        z *= factor
    z ^= np.right_shift(z, 31, out=tmp)
    return z


def _streams(seed: int, indices) -> np.ndarray:
    """The splitmix64 state of the stream of each sample of ``indices``, (S,) uint64.

    The seed enters as its key words k1 = seed >> 64 and k0 = seed mod 2**64,
    through h = mix(k0 ^ mix(k1 + GAMMA)); sample i starts from
    mix(h + (i + 1) GAMMA), word i of a splitmix64 stream in state h.
    """
    one = np.empty(1, np.uint64)
    h = _mix(np.array([seed >> 64], np.uint64) + GAMMA, one)
    h ^= np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    _mix(h, one)
    states = np.array(indices, np.uint64) + np.uint64(1)
    states *= GAMMA
    states += h
    return _mix(states, np.empty_like(states))


def _words(states: np.ndarray, counters: np.ndarray, out: np.ndarray, tmp: np.ndarray):
    """Word ``counters[j]`` of the stream in state ``states[s]``, into ``out[s, j]``; returns out.

    Word c of a splitmix64 stream in state z is mix(z + (c + 1) GAMMA).
    ``out`` and ``tmp`` are uint64 arrays of shape (S, len(counters)).
    """
    np.add(states[:, None], (counters + np.uint64(1)) * GAMMA, out=out)
    return _mix(out, tmp)


def _normals(seed: int, indices, shape: tuple[int, ...], start: int = 0) -> np.ndarray:
    """Normal entries ``start`` on of the samples ``indices``, stacked to (S, *shape).

    Entries 2p and 2p + 1 of a sample are the Box-Muller pair of its words
    2p and 2p + 1, each read as u = (w >> 11) 2**-53 in [0, 1): with
    r = sqrt(-2 log1p(-u_2p)) and t = 2 pi u_2p+1, they are r cos(t) and
    r sin(t).  The pairs of the whole chunk are drawn at once, in two
    (S, pairs) uint64 buffers besides the output.
    """
    size = math.prod(shape)
    first = start // 2
    pairs = (start + size + 1) // 2 - first
    states = _streams(seed, indices)
    draws = np.empty((len(states), 2 * pairs))
    words, tmp = np.empty((2, len(states), pairs), np.uint64)
    counters = np.arange(2 * first, 2 * (first + pairs), 2, dtype=np.uint64)
    # r fills the odd entries and t the even ones until both are read
    radius, angle = draws[:, 1::2], draws[:, 0::2]
    # scaling by a power of two is exact: the products are -u and 2 pi u
    np.right_shift(_words(states, counters, words, tmp), 11, out=words)
    np.log1p(np.multiply(words, -(2.0**-53), out=radius), out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    np.right_shift(_words(states, counters + np.uint64(1), words, tmp), 11, out=words)
    np.multiply(words, 2.0 * math.pi * 2.0**-53, out=angle)
    cos = np.cos(angle, out=words.view(np.float64))
    sin = np.sin(angle, out=tmp.view(np.float64))
    np.multiply(radius, cos, out=angle)
    radius *= sin
    skip = start - 2 * first
    return draws[:, skip : skip + size].reshape(len(states), *shape)


def _require_draws(samples: int, seed: int) -> None:
    """Reject fewer than one sample, more than 2**32, and a seed outside 0..2**128 - 1.

    The seed enters the hash as two 64-bit key words.  The residuals of 2**32
    samples alone would take 32 GiB, so more are refused before any draw.
    """
    if samples < 1:
        raise ParameterError(f"samples must be at least 1, got {samples}")
    if samples > 2**32:
        raise ParameterError(f"samples must be at most 2**32, got {samples}")
    if seed < 0:
        raise ParameterError(f"seed must be at least 0, got {seed}")
    if seed >= 2**128:
        raise ParameterError(f"seed must be below 2**128, got {seed}")


@dataclass(frozen=True)
class _Check:
    """One oracle's part of a chunk pass of ``_sampled``.

    ``measure(chunk, draws)`` turns a range of sample indices and their
    draws, shaped (S, *shape), into one residual per sample.  It reads the
    draws and does not write them, since other checks of the pass read the
    same memory.  ``extra`` holds residuals of checks that draw nothing;
    they count towards the worst residual only.
    """

    kind: str
    tol: float
    shape: tuple[int, ...]
    measure: Callable[[range, np.ndarray], np.ndarray]
    extra: tuple[float, ...] = ()
    notes: str = ""

    def report(self, seed: int, residuals: np.ndarray) -> OracleReport:
        worst = float(max(residuals.max(), *self.extra, 0.0))
        return OracleReport(
            kind=self.kind,
            samples=len(residuals),
            max_residual=worst,
            verdict=bool(worst < self.tol),
            tol=self.tol,
            seed=seed,
            failures=tuple(np.flatnonzero(residuals >= self.tol).tolist()),
            residual_min=float(residuals.min()),
            residual_median=_median(residuals),
            notes=self.notes,
        )


def _median(values: np.ndarray) -> float:
    """``np.median`` of a 1-D float array, bit for bit.

    ``np.median`` imports ``numpy.ma`` on its first call, to check for NaNs,
    which costs about 9 ms and 1.3 MB of RSS in each ``lot verify`` process.
    This is its arithmetic: a partition that also moves the largest value,
    a NaN, to the end, and the mean of the middle one or two values, a sum
    that starts from 0.0 (so -0.0 reads as 0.0).
    """
    half = len(values) // 2
    even = len(values) % 2 == 0
    part = np.partition(values, [half - 1, half, -1] if even else [half, -1])
    if np.isnan(part[-1]):
        return float(part[-1])
    # Python floats: the same IEEE arithmetic, and no warning when it overflows
    if even:
        return (0.0 + float(part[half - 1]) + float(part[half])) / 2
    return 0.0 + float(part[half])


def _sampled(checks, samples: int, seed: int) -> list[OracleReport]:
    """Measure ``samples`` seeded samples for each check, one chunk of ``CHUNK`` at a time.

    The checks share one draw per sample: each chunk makes one ``_normals``
    draw in the shape of the largest check, and each check reads the first
    ``prod(shape)`` entries of every row, in its shape.  Those are entries
    0 to prod(shape) - 1 of sample i's stream in C order, its draw in that
    shape, so each report equals that of a pass over its check alone.
    Only the residual vectors outlive a chunk.  Returns one report per
    check, in order.
    """
    _require_draws(samples, seed)
    sizes = [math.prod(check.shape) for check in checks]
    largest = checks[int(np.argmax(sizes))].shape
    residuals = np.empty((len(checks), samples))
    for start in range(0, samples, CHUNK):
        chunk = range(start, min(start + CHUNK, samples))
        flat = _normals(seed, chunk, largest).reshape(len(chunk), -1)
        for check, size, out in zip(checks, sizes, residuals):
            out[start : chunk.stop] = check.measure(
                chunk, flat[:, :size].reshape(len(chunk), *check.shape)
            )
    return [check.report(seed, out) for check, out in zip(checks, residuals)]


def _unit_tangents(seed: int, indices: range, x: np.ndarray) -> np.ndarray:
    """Centre and normalise the draws x (S, m, d) of samples ``indices`` into a new array.

    A draw whose centred norm is below 1e-12 is replaced by the next draw of
    its stream, the next (m, d) entries of sample i past its first draw.
    """
    x = x - x.mean(axis=1, keepdims=True)
    norm = _norms(x)
    for j in np.flatnonzero(norm < 1e-12):
        start = 0
        while norm[j] < 1e-12:
            start += x[j].size
            x[j] = _normals(seed, [indices[j]], x.shape[1:], start)[0]
            x[j] -= x[j].mean(axis=0)
            norm[j] = np.linalg.norm(x[j])
    return x / norm[:, None, None]


def _go_residuals(
    a: np.ndarray,
    x: np.ndarray,
    sc: StructureConstants,
    shift: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Geodesic-condition residuals of a stack x of tangent elements (S, m, d).

    Measures the complement component of [x + 1 (x) shift, A x] in the
    minus-Killing norm, with A the metric's matrix ``a``, for every slice
    at once.  With ``shift`` None the optimal diagonal shift of each slice
    is found by ridge-regularized least squares; otherwise ``shift`` holds
    one shift per slice, (S, d).
    Returns the residuals (S,) and the shifts (S, d).

    The shift enters through -[y, shift], with y = A x centred: centring
    the coefficients -ad(A x) over the copies gives -ad(y), since ad is
    linear.
    The normal matrix sum_l ad(y_l)^T G ad(y_l) is then Y^T Y, flattened,
    times the (d^2, d^2) table of ad(E_i)^T G ad(E_j); the right-hand side
    is Y^T (base G), flattened, times the ad(E_i) stacked to (d^2, d); and
    [shift, y_l] is y_l times ad(shift)^T.  Every product is a matmul with
    the slices as its batch axis, so each slice is computed on its own and
    its digits do not depend on S.
    """
    count, m, d = x.shape
    gram = sc.gram
    # both centrings over the copies are matmuls: by I - J/m on the left, and
    # through A with its columns centred
    base = (np.eye(m) - 1.0 / m) @ product_bracket(sc, x, a @ x)
    y = (a - a.mean(axis=0)) @ x
    if shift is None:
        ads = ad_rows(sc, np.eye(d))
        normal = ((ads.swapaxes(1, 2) @ gram)[:, None] @ ads).reshape(d * d, d * d)
        # a contiguous Y^T multiplies by gemm, several times faster than the view
        yt = np.ascontiguousarray(y.swapaxes(1, 2))
        lhs = ((yt @ y).reshape(count, 1, d * d) @ normal).reshape(count, d, d)
        rhs = ((yt @ (base @ gram)).reshape(count, 1, d * d) @ ads.reshape(d * d, d))[:, 0]
        trace = np.trace(lhs, axis1=1, axis2=2)
        solvable = trace > 0.0
        # slices with nothing to solve get the identity, and a zero shift
        eye = np.eye(d)
        ridged = lhs + (RIDGE * trace / d)[:, None, None] * eye
        system = np.where(solvable[:, None, None], ridged, eye)
        shift = np.where(solvable[:, None], np.linalg.solve(system, rhs[..., None])[..., 0], 0.0)
    # each shift as a (1, d) slice: in one 2-D matmul a row's digits depend on S
    rest = base + y @ ad_rows(sc, shift[:, None])[:, 0].swapaxes(1, 2)
    return killing_norms(sc, rest), shift


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
    residuals, shifts = _go_residuals(metric.matrix, np.asarray(x, dtype=float)[None], sc, given)
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
    scaled; the table is read at unit scale, as ``backend.unit``.
    Sample i is ``_normals(seed, [i], (m, d))``, centred and normalised, and
    replays through ``go_sample_residual`` on the divided metric and
    ``backend.unit``.
    """
    sc = backend if backend is not None else default_backend()
    (report,) = _sampled([_go_check(metric, sc, seed, tol)], samples, seed)
    return report


def _go_check(metric: MetricT, sc: StructureConstants, seed: int, tol: float) -> _Check:
    """The check of ``go_oracle`` in a pass with base seed ``seed``."""
    scaled = metric.matrix / power_of_two_scale(metric.matrix)
    sc = sc.unit

    def measure(chunk: range, draws: np.ndarray) -> np.ndarray:
        return _go_residuals(scaled, _unit_tangents(seed, chunk, draws), sc)[0]

    return _Check("geodesic_orbit", tol, (metric.m, sc.dim), measure)


def assess_geodesic_orbit(
    metric: MetricT,
    backend: StructureConstants | None = None,
    samples: int = 200,
    seed: int = 42,
) -> tuple[str, OracleReport]:
    """Three-way oracle verdict with resampling between the thresholds.

    Returns ('confirmed' | 'refuted' | 'marginal', last report): confirmed
    when the worst residual is below ``CONFIRM_TOL``, refuted when it
    exceeds ``REFUTE_TOL``; otherwise the sample count doubles for another
    round, up to ``ROUNDS`` rounds, before settling on marginal.
    """
    sc = backend if backend is not None else default_backend()
    word, report, _ = _assess(metric, sc, samples, seed)
    return word, report


def _assess(
    metric: MetricT,
    sc: StructureConstants,
    samples: int,
    seed: int,
    shared=(),
) -> tuple[str, OracleReport, list[OracleReport]]:
    """``assess_geodesic_orbit`` with the checks ``shared`` measured in round 0's pass.

    Round 0 draws once per sample for the GO check and every shared check;
    rounds 1 and up, with seed ``seed + 7919 * round``, run ``go_oracle``
    alone.  The last round's seed is checked before round 0 draws, so an
    assessment that starts also ends.  Returns the word, the last GO report
    and the shared checks' reports.
    """
    step = 7919 * (ROUNDS - 1)
    if seed + step >= 2**128:
        last = f"GO round {ROUNDS - 1} draws with seed + {step}"
        raise ParameterError(f"seed must be below 2**128 - {step}, as {last}; got {seed}")
    round_zero = _go_check(metric, sc, seed, CONFIRM_TOL)
    report, *reports = _sampled([round_zero, *shared], samples, seed)
    for round_index in range(1, ROUNDS):
        if report.max_residual < CONFIRM_TOL or report.max_residual > REFUTE_TOL:
            break
        round_seed = seed + 7919 * round_index
        report = go_oracle(metric, sc, samples << round_index, round_seed, CONFIRM_TOL)
    if report.max_residual < CONFIRM_TOL:
        return "confirmed", report, reports
    if report.max_residual > REFUTE_TOL:
        return "refuted", report, reports
    return "marginal", report, reports


# -- naturally reductive certificate verification ----------------------------


def _certified_form(
    result: NatRedResult, m: int, scale: float
) -> tuple[np.ndarray, float | None, int | None, np.ndarray]:
    """The certified copy weights, their sum, the dropped copy and their form.

    Parameters that cannot describe a metric on m copies are an InputError:
    invariant_form needs m ``alphas`` and a nonzero ``alpha_sum``; diagonal
    drops copy m and ideal drops ``ideal_index`` in 1..m-1, and both need
    ``betas`` keyed by copies in 1..m that cover every copy but the dropped
    one.  Every weight must be finite, and so must the weights divided by
    ``scale``, the form on the first m-1 copies that they rebuild and, for
    invariant_form, the weights over ``alpha_sum``, the coefficients of the
    projection onto the complement; the weights, their sum and the form are
    returned divided by ``scale``.
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

    # overflow here is reported below, before any sample is drawn
    with np.errstate(all="ignore"):
        weights = weights / scale
        alpha_sum = None if result.alpha_sum is None else result.alpha_sum / scale
        if dropped is None:
            head = weights[:-1]
            rebuilt = np.diag(head) - np.outer(head, head) / alpha_sum
            projection = weights / alpha_sum
        else:
            # sum over copies i of w_i (e_i - e_k)(e_i - e_k)^T with e_m := 0
            e = np.eye(m, m - 1)
            v = e - e[dropped - 1]
            rebuilt = (v.T * weights) @ v
    if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(rebuilt))):
        raise unfit("the form its weights describe overflows")
    if dropped is None and not np.all(np.isfinite(projection)):
        raise unfit("its weights over 'alpha_sum' overflow")
    return weights, alpha_sum, dropped, rebuilt


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
    ``power_of_two_scale`` first, and the table is read as ``backend.unit``,
    so every residual is scale-free.
    """
    sc = backend if backend is not None else default_backend()
    (report,) = _sampled([_certificate_check(form, result, sc, tol)], samples, seed)
    return report


def _certificate_check(
    form: MetricForm, result: NatRedResult, sc: StructureConstants, tol: float
) -> _Check:
    """The check of ``natred_certificate_check``, with its two residuals that draw nothing.

    A certificate that cannot describe a metric on m copies is an
    InputError here, before any sample is drawn, and so is one whose
    samples overflow, when the pass measures them.
    """
    if result.case is NatRedCase.NOT_NR:
        raise ParameterError("nothing to verify: classification is not naturally reductive")
    m = form.m
    sc = sc.unit
    notes = []
    scale = power_of_two_scale(form.a)
    a = form.a / scale
    weights, alpha_sum, dropped, rebuilt = _certified_form(result, m, scale)
    recon_residual = float(np.max(np.abs(a - rebuilt))) / float(np.max(np.abs(a)))
    if recon_residual >= tol:
        notes.append(f"certificate does not reconstruct the form ({recon_residual:.3e})")

    if dropped is not None:
        kept = np.delete(weights, dropped - 1)
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

    def measure(chunk: range, draws: np.ndarray) -> np.ndarray:
        # weights far from the form they should rebuild can project a draw,
        # or the identity, past the largest double; such a sample has no
        # residual, and reading its norm as inf would zero it
        try:
            with np.errstate(over="raise"):
                # x and y are the first and second (m, d) draws of each sample
                x, y = project(draws[:, 0]), project(draws[:, 1])
                x /= np.maximum(_norms(x), 1e-300)[:, None, None]
                y /= np.maximum(_norms(y), 1e-300)[:, None, None]
                braid = project(product_bracket(sc, x, y))
                # each row as a (1, m) slice: in one 2-D matmul a row's digits depend on S
                return np.abs((((braid @ sc.gram) * x).sum(axis=2)[:, None] @ weights)[:, 0])
        except FloatingPointError:
            raise InputError(f"certificate does not fit m = {m}: its samples overflow") from None

    kind = "naturally_reductive_certificate"
    extra = (recon_residual, pd_residual)
    return _Check(kind, tol, (2, m, sc.dim), measure, extra, "; ".join(notes))


# -- bracket identities behind the classifier --------------------------------


def _off_range(lhs: np.ndarray, rhs: np.ndarray, size) -> np.ndarray:
    """rhs minus its least-squares fit by the columns of lhs, for each slice.

    ``lhs`` is (S, M, N) and ``rhs`` (S, M).  Singular values up to
    eps * size times the largest count as zero: with ``size`` the larger
    dimension of the unpadded problem, one number or one per slice as
    (S, 1), this is the cutoff of ``np.linalg.lstsq(..., rcond=None)``.
    Rows that are zero in both ``lhs`` and ``rhs`` change neither the fit nor
    the singular values, so ``_leak_residuals`` pads each slice's rows to a
    common M and passes the unpadded sizes.
    """
    u, svals, _ = np.linalg.svd(lhs, full_matrices=False)
    keep = svals > np.finfo(float).eps * size * svals[:, :1]
    coef = (rhs[:, None, :] @ u)[:, 0] * keep
    fit = (u @ coef[..., None])[..., 0]
    del u
    return rhs - fit


def _fit_residuals(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Minimal norm of rhs - lhs @ u over u, for each slice.

    ``lhs`` is (S, m, d, k), mapping the unknown u to row blocks, with
    k <= m*d, and ``rhs`` is (S, m, d).  To weight rows by the Gram matrix
    ``root @ root.T``, pass columns as ``root.T @ columns``, a target as ``target @ root``.
    """
    lhs = lhs.reshape(len(lhs), -1, lhs.shape[3])
    return np.linalg.norm(_off_range(lhs, rhs.reshape(len(rhs), -1), lhs.shape[1]), axis=1)


def _pair_residuals(sc, x, y, alpha, beta):
    """Identity (i) of the bracket check on stacks x, y (S, m, d).

    x and y come from clusters with weights alpha and beta (S,).  Returns
    the least-squares residual of the identity per slice.
    """
    root = np.linalg.cholesky(sc.gram)
    rhs = product_bracket(sc, x, y) @ root
    return _fit_residuals(_shared_lhs(sc, root, x, y, alpha, beta), rhs)


def _shared_lhs(sc, root: np.ndarray, x, y, alpha, beta) -> np.ndarray:
    """The columns of identity (i), weighted by ``root.T``: (S, m, d, d).

    The columns are -(alpha ad(x) + beta ad(y)) / (beta - alpha).  The ad
    stacks, (S, m, d, d), are the largest arrays of the bracket
    check, so the sum is built in place in the stack of x; in-place
    arithmetic gives the bits of the expression it replaces.  Only the
    weighted columns outlive the call.
    """
    shared = ad_rows(sc, x)
    shared *= (alpha / (beta - alpha))[:, None, None, None]
    ads_y = ad_rows(sc, y)
    ads_y *= (beta / (beta - alpha))[:, None, None, None]
    shared += ads_y
    del ads_y
    return root.T @ np.negative(shared, out=shared)


def _leak_residuals(sc, vectors, x, raw, mask):
    """Identity (ii) of the bracket check on a stack x (S, m, d).

    ``raw`` (S, m-1, d) holds coefficients over the eigenvectors
    ``vectors`` of a second element, zero off the rows that ``mask``
    (S, m-1) marks as x's cluster.  It is projected onto the elements whose
    paired brackets with x sum to zero, and the complement part of their
    bracket is measured off the cluster.
    """
    d = sc.dim
    # column (b) of the transposed constraint holds component b of the
    # paired brackets sum_l [x_l, y_l] as a function of y's coefficients:
    # block a is ad((vectors @ x)[a]) transposed
    constraint = ad_rows(sc, vectors @ x).swapaxes(-1, -2)
    constraint *= mask[..., None, None]
    constraint = constraint.reshape(len(x), -1, d)
    # removing the min-norm lstsq correction leaves the part of raw that
    # meets the constraint; lstsq's cutoff is taken on the unpadded (d, k*d)
    sizes = d * mask.sum(axis=1)[:, None]
    kept = _off_range(constraint, raw.reshape(len(x), -1), sizes).reshape(raw.shape)
    del constraint
    y = vectors.T @ kept
    del kept
    norm = np.linalg.norm(y, axis=(1, 2))
    live = norm > 1e-10
    y /= np.where(live, norm, 1.0)[:, None, None]
    rest = product_bracket(sc, x, y)
    rest -= rest.mean(axis=1, keepdims=True)
    leak = rest - vectors.T @ ((vectors @ rest) * mask[..., None])
    return np.where(live, killing_norms(sc, leak), 0.0)


def brackets_property_check(
    metric: MetricT,
    backend: StructureConstants | None = None,
    samples: int = 200,
    seed: int = 42,
    tol: float = 1e-8,
    cluster_tol: float = 1e-8,
) -> OracleReport:
    """Sample the bracket identities that geodesic-orbit metrics satisfy.

    Per sample: (i) for elements of two different eigenvalue clusters a
    common diagonal correction solves the weighted bracket identity;
    (ii) two same-cluster elements with vanishing paired brackets have
    their bracket's complement part inside the cluster.  Both are necessary
    conditions for GO, checked on the classifier's eigen data; passing them
    does not show GO.  Rotating the two simple eigenvectors of the invariant
    form with weights (1, 1, 1, 2, 3) by 0.3 rad gives a metric that
    ``classify_go`` and the GO oracle call not GO, and the check passes it.
    So ``verify_report`` reads this verdict only when the final GO verdict is yes.

    On one-dimensional clusters both identities have closed forms, over any
    table (a test pins them per sample).  Identity (ii) vanishes: for
    x = b^i (x) X the constraint forces [X, Y] = 0, so every copy's bracket
    b_l^2 [X, Y] is zero.  Identity (i) between x = b^i (x) X and
    y = b^j (x) Y, both of unit norm, leaves |[X, Y]|_K times the distance
    of b^i <> b^j from span(b^i, b^j), ``is_super_adapted``'s residual for
    the pair: u = lambda Y + mu X fits the part in the span exactly, whatever
    the weights, and the rest is orthogonal to every column.  So identity (i)
    tests the weights only where a cluster has dimension two or more.

    A mutation probe found that the check misses changed weights.  It
    mutated the GO metrics among the benchmark's ``verify`` inputs of seeds
    1-10 over so(3) (110 metrics), and those of seeds 1-3 with m <= 5 over
    so(5) (27 metrics).  Swapping the weights of two equal-size clusters,
    or scaling the last cluster's weight by 1.01, never failed the check,
    under either table; the GO oracle refutes such metrics.  Rotating two
    eigenvectors of different clusters does fail it at m >= 4 (a test pins
    this under both tables).

    Runs batched like the other two oracles.  Each sample draws (4, m-1, d),
    the coefficients of its four parts over the eigenvectors; each part is
    masked to zero off its cluster's rows and lifted through the full
    eigenbasis, so every sample of a chunk stacks into one (S, m, d) array
    whatever its cluster sizes.  The brackets, the least-squares steps
    (batched SVD with ``lstsq``'s default cutoff) and the leak norm then run
    once per chunk, as matmuls around the SVD.  Residuals agree with a
    one-sample-at-a-time loop over ``np.linalg.lstsq`` to rounding level.
    """
    sc = backend if backend is not None else default_backend()
    check = _bracket_check(eigendecompose(metric, cluster_tol), sc, tol)
    (report,) = _sampled([check], samples, seed)
    return report


def _bracket_check(eigen: EigenData, sc: StructureConstants, tol: float) -> _Check:
    """The check of ``brackets_property_check`` on the metric's eigen data ``eigen``."""
    sc = sc.unit
    vectors = eigen.system.vectors
    count = len(eigen.clusters)
    members = _cluster_labels(eigen.clusters, len(vectors)) == np.arange(count)[:, None]
    pairs = np.array(list(itertools.combinations(range(count), 2)), dtype=int).reshape(-1, 2)
    pair_gammas = eigen.system.gammas[[cluster[0] for cluster in eigen.clusters]][pairs]

    def lift(part: np.ndarray) -> np.ndarray:
        # to (S, m, d), normalised; a zero draw stays zero
        lifted = vectors.T @ part
        lifted /= np.maximum(np.linalg.norm(lifted, axis=(1, 2)), 1e-300)[:, None, None]
        return lifted

    def measure(chunk: range, draws: np.ndarray) -> np.ndarray:
        # each part, (S, n, d), is zero off the rows of its cluster
        index = np.arange(chunk.start, chunk.stop)
        own = members[index % count]
        x, raw = draws[:, 2] * own[..., None], draws[:, 3] * own[..., None]
        worst = _leak_residuals(sc, vectors, lift(x), raw, own)
        if len(pairs):
            pair = index % len(pairs)
            alpha, beta = pair_gammas[pair].T
            first, second = members[pairs[pair].T]
            x, y = lift(draws[:, 0] * first[..., None]), lift(draws[:, 1] * second[..., None])
            worst = np.maximum(worst, _pair_residuals(sc, x, y, alpha, beta))
        return worst

    return _Check("bracket_properties", tol, (4, len(vectors), sc.dim), measure)


# -- the reports of `lot classify` and `lot verify` ---------------------------


def _classified(metric: MetricT, tol: float, cluster_tol: float):
    """The report's first sections, the form over its scale, the NR result on it and the GO result.

    ``classify_natred`` divides by that scale anyway; the report multiplies its weights back.
    """
    # the form is T's leading block (``T_to_form``); it is validated once, divided
    block = metric.matrix[:-1, :-1]
    scale = power_of_two_scale(block)
    unit = MetricForm(block / scale)
    nr = classify_natred(unit, tol)
    go = classify_go(metric, tol, cluster_tol)
    report = {"m": metric.m, "natred": natred_report(_times(nr, scale)), "go": go_report(go)}
    return report, unit, nr, go


def _times(result: NatRedResult, scale: float) -> NatRedResult:
    """``result`` with its weights times ``scale``, and ``normal`` read again: one may underflow."""
    if result.alphas is None:
        betas = result.betas and {k: float(w * scale) for k, w in result.betas.items()}
        return replace(result, betas=betas)
    alphas = result.alphas * scale
    normal = bool(np.all(alphas > 0))
    return replace(result, alphas=alphas, alpha_sum=result.alpha_sum * scale, normal=normal)


def _concluded(report: dict, final: GoVerdict) -> dict:
    """``report`` with the final GO verdict, and whether its NR verdict agrees with it."""
    agree = report["natred"]["naturally_reductive"] == (final is GoVerdict.YES)
    report["go_final"] = final.value
    report["agreement"] = None if final is GoVerdict.INDETERMINATE else agree
    return report


def classify_report(metric: MetricT, tol: float = 1e-8, cluster_tol: float = 1e-8) -> dict:
    """JSON-ready report of ``lot classify``: the classifiers alone; an indeterminate GO stays so."""
    report, _, _, go = _classified(metric, tol, cluster_tol)
    return _concluded(report, go.verdict)


def verify_report(
    metric: MetricT, certificate: dict | None = None, tol: float = 1e-8, cluster_tol: float = 1e-8,
    samples: int = 200, seed: int = 42,
) -> dict:
    """JSON-ready report of ``lot verify``: the classification checked against the oracle.

    ``certificate``, the JSON form of an NR certificate, is parsed after the
    table is read and the metric classified; None checks the classifier's.
    The GO assessment resolves an indeterminate GO verdict (``go_oracle_fallback``).
    ``disagreements`` lists every claim that fails, and ``ok`` says none does.
    The report has ``natred_certificate`` only when the claim is naturally
    reductive, and ``bracket_properties`` only when the GO classifier says
    yes or indeterminate: a classifier no makes the final verdict no, and the
    bracket verdict is read only when it is yes.
    """
    sc = default_backend()
    report, unit, nr, go = _classified(metric, tol, cluster_tol)
    # reported weights are rounded where subnormal: check the exact ones,
    # found on the form divided by its scale
    form, claim, source = unit, nr, "classifier"
    if certificate is not None:
        form, claim, source = T_to_form(metric), natred_from_dict(certificate), "input file"
    # GO round 0 and these checks draw each sample once, in one pass
    checks = []
    if claim.is_naturally_reductive:
        checks.append(_certificate_check(form, claim, sc, tol))
    # the bracket check reads the classifier's eigen data
    if go.verdict is not GoVerdict.NO:
        checks.append(_bracket_check(go.eigen, sc, tol))
    word, last, reports = _assess(metric, sc, samples, seed, checks)
    final = go.verdict
    if final is GoVerdict.INDETERMINATE:
        final = {"confirmed": GoVerdict.YES, "refuted": GoVerdict.NO}.get(word, final)
        report["go_resolved_by"] = "oracle"
        report["go_oracle_fallback"] = last.to_dict()
    _concluded(report, final)
    report["go_oracle"] = last.to_dict()
    report["go_oracle_assessment"] = word
    reports = {checked.kind: checked for checked in reports}
    certified = reports.get("naturally_reductive_certificate")
    brackets = reports.get("bracket_properties")
    if certified is not None:
        report["natred_certificate"] = certified.to_dict()
        report["natred_certificate_source"] = source
    if brackets is not None:
        report["bracket_properties"] = brackets.to_dict()

    case, yes = report["natred"]["case"], final is GoVerdict.YES
    # (failed, text) for each claim, in the order the report lists them
    table = (
        (report["agreement"] is False,
         f"classifiers split: natred case {case}, go_final {final.value}"),
        (metric.m == 3 and case == NatRedCase.NOT_NR.value,
         f"natred case {case} at m = 3, where every metric is naturally reductive"),
        (yes and word == "refuted", "classifier says geodesic orbit, oracle refutes"),
        (final is GoVerdict.NO and word == "confirmed",
         "classifier denies geodesic orbit, oracle confirms"),
        (certified is not None and not certified.verdict,
         f"naturally-reductive certificate from {source} fails verification"),
        # a final "yes" comes from a classifier "yes" or "indeterminate", so
        # the bracket check ran
        (yes and not brackets.verdict, "bracket identities fail although classifier says GO"),
    )
    report["disagreements"] = [text for failed, text in table if failed]
    report["ok"] = not report["disagreements"]
    return report
