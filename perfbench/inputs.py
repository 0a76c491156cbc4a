"""Seeded inputs for the three workloads, each with its expected answer.

Every input is a coefficient matrix T (m x m, symmetric, zero row sums,
rank m - 1) built by this module's own numpy code, together with what its
construction and the paper's theorems say the program must answer.  The
counts of each input class and their sizes m are fixed; the seed only draws
the weights, the random blocks, the attachment points and the relabellings.
That keeps the work in one pass nearly the same for every seed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

@dataclass
class Case:
    """One input file and the answer its construction implies.

    ``expect`` holds the expected verdicts; ``blocks`` (decompose only)
    lists the copies of each irreducible block together with the block's own
    coefficient matrix and whether it is naturally reductive; ``group``
    names the relabel/scale family an input belongs to (classify only).
    """

    name: str
    kind: str
    t: np.ndarray
    expect: dict
    group: str | None = None
    blocks: list = field(default_factory=list)

    @property
    def m(self) -> int:
        return self.t.shape[0]


# -- coefficient matrices ----------------------------------------------------


def border(a: np.ndarray) -> np.ndarray:
    """T = B a B^T with B = [I; -1^T]: the form a bordered by zero row sums."""
    n = a.shape[0]
    b = np.vstack([np.eye(n), -np.ones((1, n))])
    t = b @ a @ b.T
    return (t + t.T) / 2


def bounded_form(rng: np.random.Generator, n: int, ratio: float = 5.0) -> np.ndarray:
    """Dense positive-definite n x n form with eigenvalue ratio at most ``ratio``."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    eigs = rng.uniform(1.0, ratio, n)
    return (q * eigs) @ q.T


def dense_t(rng: np.random.Generator, m: int) -> np.ndarray:
    """Metric with every coupling nonzero; generically not naturally reductive."""
    return border(bounded_form(rng, m - 1))


def invariant_form_t(alphas) -> np.ndarray:
    """Restriction of the ad-invariant form with weights alpha_1..alpha_m."""
    alphas = np.asarray(alphas, dtype=float)
    t = np.diag(alphas) - np.outer(alphas, alphas) / alphas.sum()
    return (t + t.T) / 2


def star_t(weights: dict[int, float], centre: int, m: int) -> np.ndarray:
    """Product metric on the ideal that drops copy ``centre`` (0-based).

    T = sum_i beta_i (e_i - e_c)(e_i - e_c)^T over i != c; with c = m - 1
    this is the diagonal case, otherwise the dropped-copy ideal case.
    """
    t = np.zeros((m, m))
    for i, beta in weights.items():
        e = np.zeros(m)
        e[i] = 1.0
        e[centre] = -1.0
        t += beta * np.outer(e, e)
    return t


def relabel(t: np.ndarray, perm: np.ndarray) -> np.ndarray:
    return t[np.ix_(perm, perm)]


def distinct_weights(rng: np.random.Generator, k: int, lo=0.5, hi=3.0) -> np.ndarray:
    """k weights drawn from k disjoint bins, shuffled: gaps stay above 1e-2."""
    edges = np.linspace(lo, hi, k + 1)
    w = rng.uniform(edges[:-1] + 0.01, edges[1:] - 0.01)
    return rng.permutation(w)


def natred_invariant_weights(rng, m: int, negative: bool) -> np.ndarray:
    """Distinct weights meeting the sign condition: all positive, or one
    negative weight with a negative sum."""
    alphas = distinct_weights(rng, m)
    if negative:
        j = int(rng.integers(m))
        rest = alphas.sum() - alphas[j]
        alphas[j] = -(rest + rng.uniform(0.5, 2.0))
    return alphas


# -- classify -----------------------------------------------------------------


def _classify_case(name, kind, t, nr, normal, group=None) -> Case:
    expect = {
        "naturally_reductive": nr,
        "normal": normal,
        # GO <=> naturally reductive on these spaces
        "go_final": "yes" if nr else "no",
    }
    return Case(name, kind, t, expect, group)


def classify_cases(seed: int) -> list[Case]:
    """Mostly simple spectra, with a minority of large repeated eigenvalues.

    Simple spectra: dense random forms (naturally reductive only at m = 3),
    invariant forms with distinct weights (some with one negative weight),
    diagonal and ideal patterns with distinct weights, m = 3..12.
    Repeated spectra: I - J/m, invariant forms with all or most weights
    equal, diagonal and ideal patterns with equal weights, and relabelled
    and scaled copies of these.  I - J/m is fixed by relabelling, so its
    copies cost the same and the slowest share of the pass is one plateau.
    """
    rng = np.random.default_rng([seed, 1])
    cases: list[Case] = []

    def add_copy(base: Case, label: str) -> None:
        perm = rng.permutation(base.m)
        scale = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        cases.append(
            _classify_case(
                f"{base.name}-{label}",
                base.kind + "-copy",
                scale * relabel(base.t, perm),
                base.expect["naturally_reductive"],
                base.expect["normal"],
                group=base.name,
            )
        )
        base.group = base.name

    for m in range(3, 13):
        # every metric on F^3/diag(F) is naturally reductive; whether a
        # random one is normal is left unchecked
        nr3 = m == 3
        normal = None if nr3 else False
        cases.append(_classify_case(f"dense-m{m:02d}", "dense", dense_t(rng, m), nr3, normal))
        negative = m % 2 == 0
        alphas = natred_invariant_weights(rng, m, negative)
        cases.append(
            _classify_case(
                f"invariant-m{m:02d}", "invariant_distinct", invariant_form_t(alphas),
                True, not negative,
            )
        )
        betas = distinct_weights(rng, m - 1)
        diag = star_t(dict(enumerate(betas)), m - 1, m)
        cases.append(_classify_case(f"diagonal-m{m:02d}", "diagonal_distinct", diag, True, True))
        centre = int(rng.integers(m - 1))
        others = [i for i in range(m) if i != centre]
        betas = distinct_weights(rng, m - 1)
        ideal = star_t(dict(zip(others, betas)), centre, m)
        cases.append(_classify_case(f"ideal-m{m:02d}", "ideal_distinct", ideal, True, True))
    for extra in range(2):
        cases.append(_classify_case(f"dense-m03-{extra}", "dense", dense_t(rng, 3), True, None))
    for base in [c for c in cases if c.m in (5, 9)]:
        add_copy(base, "copy")

    heavy: list[Case] = []

    def add_heavy(name: str, kind: str, t: np.ndarray) -> Case:
        case = _classify_case(f"{name}-m{t.shape[0]:02d}", kind, t, True, True)
        heavy.append(case)
        return case

    for m in (6, 9):
        add_heavy("standard", "standard", np.eye(m) - 1.0 / m)
    for m in (7, 10):
        c = float(rng.uniform(0.5, 3.0))
        add_heavy("invariant-equal", "invariant_equal", invariant_form_t([c] * m))
    for m in (8, 11):
        # most weights equal: one repeated eigenvalue of multiplicity m - 3
        alphas = np.full(m, float(rng.uniform(0.5, 3.0)))
        alphas[:2] = distinct_weights(rng, 2, 3.5, 6.0)
        t = invariant_form_t(rng.permutation(alphas))
        add_heavy("invariant-most-equal", "invariant_most_equal", t)
    for m in (7, 10):
        beta = float(rng.uniform(0.5, 3.0))
        t = star_t({i: beta for i in range(m - 1)}, m - 1, m)
        add_heavy("diagonal-equal", "diagonal_equal", t)
    for m in (8, 11):
        beta = float(rng.uniform(0.5, 3.0))
        centre = int(rng.integers(m - 1))
        t = star_t({i: beta for i in range(m) if i != centre}, centre, m)
        add_heavy("ideal-equal", "ideal_equal", t)
    top = add_heavy("standard", "standard", np.eye(12) - 1.0 / 12)
    cases.extend(heavy)
    for base in heavy:
        if base.m in (8, 10):
            add_copy(base, "copy")
    for index in range(9):
        add_copy(top, f"copy{index}")
    return cases


# -- decompose ----------------------------------------------------------------

# Block sizes of the reducible inputs, one tuple per input.  Small products
# of 2-copy blocks are 63% of the pass: 12 on m = 3 copies (one split) and
# 12 on m = 4 (two splits).  They cost about the same whatever the
# relabelling, and the median operation sits well inside them, not on the
# step to another kind of input.  Products on m = 5, 6 exit the pair scan
# after a seed-dependent number of pairs.  Blocks of four copies alternate
# between a dense block and an invariant form, so both values of
# go_manifold occur.  Products on m = 7 copies are left to the worked
# example: under a random relabelling their first splitting pair sits
# anywhere in the 32 767-pair list, which moves one input's cost between
# 20 ms and 450 ms with the seed.
SMALL_PRODUCTS = ((2, 2),) * 12 + ((2, 2, 2),) * 12
LARGER_PRODUCTS = ((3, 3), (4, 2), (2, 3, 2), (4, 3), (3, 3, 2), (4, 2, 2))
BLOCK_SIZES = SMALL_PRODUCTS + LARGER_PRODUCTS
# dense irreducible inputs per m; the m = 7 ones are 13% of the pass, so
# p90 is a full scan of all 32 767 pairs
DENSE_IRREDUCIBLE = {5: 1, 6: 1, 7: 5}


def _block(rng, size: int, invariant: bool) -> tuple[np.ndarray, bool]:
    """A block's own metric and whether it is naturally reductive."""
    if size == 2:
        return border(np.array([[rng.uniform(0.5, 3.0)]])), True
    if invariant:
        return invariant_form_t(distinct_weights(rng, size)), True
    # every metric on three copies is naturally reductive
    return dense_t(rng, size), size == 3


def _block_tree_case(name, rng, sizes, invariant_fours) -> Case:
    """Blocks glued along cut copies into a tree, then randomly relabelled.

    ``invariant_fours`` yields, for each block of four copies in turn,
    whether it is an invariant form (else a dense block).
    """
    m = sizes[0]
    members = [list(range(sizes[0]))]
    for size in sizes[1:]:
        cut = int(rng.integers(m))
        members.append([cut] + list(range(m, m + size - 1)))
        m += size - 1
    t = np.zeros((m, m))
    blocks = []
    for copies in members:
        invariant = len(copies) == 4 and next(invariant_fours)
        block_t, natred = _block(rng, len(copies), invariant)
        t[np.ix_(copies, copies)] += block_t
        blocks.append((copies, block_t, natred))
    perm = rng.permutation(m)
    inverse = np.argsort(perm)
    t = relabel(t, perm)
    blocks = [([int(inverse[c]) for c in copies], bt, nr) for copies, bt, nr in blocks]
    return _decompose_case(name, "block_tree", t, blocks)


def _decompose_case(name, kind, t, blocks) -> Case:
    m = t.shape[0]
    s = len(blocks)
    expect = {
        "factor_sizes": sorted(len(b[0]) for b in blocks),
        "isometry_group_k": m + s - 1,
        "reducible": s > 1,
        "go_manifold": all(b[2] for b in blocks),
    }
    return Case(name, kind, t, expect, blocks=blocks)


def worked_seven_t(x, y) -> tuple[np.ndarray, list]:
    """Triangles 123 and 467 joined by the rungs 14 and 25 (1-based)."""
    def edge(i, j, w):
        return ([i, j], border(np.array([[w]])), True)

    def triangle(copies, w):
        a, b, c = w
        lap = np.array([[a + b, -a, -b], [-a, a + c, -c], [-b, -c, b + c]])
        return (copies, lap, True)

    blocks = [
        triangle([0, 1, 2], x[:3]),
        triangle([3, 5, 6], x[3:]),
        edge(0, 3, y[0]),
        edge(1, 4, y[1]),
    ]
    t = np.zeros((7, 7))
    for copies, bt, _ in blocks:
        t[np.ix_(copies, copies)] += bt
    return t, blocks


def decompose_cases(seed: int) -> list[Case]:
    """Reducible block-tree products on m = 3..6 copies, dense irreducible
    metrics on m = 5..7 copies, and the worked m = 7 example."""
    rng = np.random.default_rng([seed, 2])
    cases = []
    invariant_fours = itertools.cycle((False, True))
    for index, sizes in enumerate(BLOCK_SIZES):
        cases.append(_block_tree_case(f"tree-{index:02d}", rng, sizes, invariant_fours))
    for m, count in DENSE_IRREDUCIBLE.items():
        for index in range(count):
            t = dense_t(rng, m)
            blocks = [(list(range(m)), t, False)]
            cases.append(_decompose_case(f"dense-m{m}-{index}", "dense_irreducible", t, blocks))
    t, blocks = worked_seven_t(rng.uniform(0.5, 2.0, 6), rng.uniform(0.5, 2.0, 2))
    cases.append(_decompose_case("worked-m7", "worked_example", t, blocks))
    return cases


# -- verify -------------------------------------------------------------------

PERTURBATION = 2e-6


def perturb(rng, t: np.ndarray, size: float = PERTURBATION) -> np.ndarray:
    """Add a random symmetric zero-row-sum matrix of relative Frobenius size."""
    m = t.shape[0]
    e = rng.normal(size=(m, m))
    e = (e + e.T) / 2
    e -= e.mean(axis=0, keepdims=True)
    e -= e.mean(axis=1, keepdims=True)
    return t + size * np.linalg.norm(t) / np.linalg.norm(e) * e


def verify_cases(seed: int) -> list[Case]:
    """GO metrics the oracle confirms in one round, dense non-GO metrics it
    refutes in one round, and GO metrics perturbed by 2e-6 relative whose
    residual, about 1e-6, sits between the thresholds for all three rounds."""
    rng = np.random.default_rng([seed, 3])
    cases = []

    def add(name, kind, t, nr, assessment):
        cases.append(Case(name, kind, t, {"naturally_reductive": nr, "assessment": assessment}))

    for m in range(3, 7):
        for index in range(2):
            t = invariant_form_t(distinct_weights(rng, m))
            add(f"invariant-m{m}-{index}", "go_invariant", t, True, "confirmed")
    for index in range(3):
        add(f"random-m3-{index}", "go_random_m3", border(bounded_form(rng, 2)), True, "confirmed")
    for m in (4, 5, 6):
        for index in range(3):
            add(f"dense-m{m}-{index}", "dense_non_go", dense_t(rng, m), False, "refuted")
    for m in (4, 5, 6):
        for index in range(2):
            base = invariant_form_t(distinct_weights(rng, m))
            add(f"perturbed-m{m}-{index}", "perturbed_go", perturb(rng, base), False, "marginal")
    return cases


def cases_for(workload: str, seed: int) -> list[Case]:
    if workload == "classify":
        return classify_cases(seed)
    if workload == "decompose":
        return decompose_cases(seed)
    if workload == "verify":
        return verify_cases(seed)
    raise ValueError(f"unknown workload {workload!r}")
