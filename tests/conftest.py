"""Shared builders for the test suite.

Everything is seed-driven so failures reproduce; builders return fresh
arrays each call and never share state.
"""

import math

import numpy as np
import pytest

from ledger_obata.liealg import StructureConstants, so3
from ledger_obata.metrics import MetricForm, MetricT, form_to_T
from ledger_obata.trees import PartitionPair


# splitmix64 (Steele, Lea & Flood, OOPSLA 2014), on Python integers
WORD = 2**64 - 1
GAMMA = 0x9E3779B97F4A7C15


def splitmix64_mix(z: int) -> int:
    """The splitmix64 output function of a 64-bit word."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & WORD
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & WORD
    return z ^ (z >> 31)


class SampleStream:
    """The oracle's stream of sample ``i`` in a run with base seed ``seed``: its replay contract.

    The stream is a splitmix64 generator: its word c is
    mix(state + (c + 1) GAMMA), and the state of sample i is word i of a
    generator in state h = mix(k0 ^ mix(k1 + GAMMA)), with k1 and k0 the
    high and low 64 bits of the seed.  Normal entries 2p and 2p + 1 are the
    Box-Muller pair of words 2p and 2p + 1.  ``standard_normal`` returns the
    next entries in C order, as numpy's generators do.
    """

    def __init__(self, seed: int, i: int):
        h = splitmix64_mix((seed & WORD) ^ splitmix64_mix(((seed >> 64) + GAMMA) & WORD))
        self.state = splitmix64_mix((h + (i + 1) * GAMMA) & WORD)
        self.entry = 0

    def word(self, c: int) -> int:
        return splitmix64_mix((self.state + (c + 1) * GAMMA) & WORD)

    def normals(self, start: int, count: int) -> np.ndarray:
        """Entries start .. start + count - 1, without moving the stream."""
        entries = range(start, start + count)
        # the top 53 bits of a word, as a float in [0, 1)
        first = np.array([(self.word(k - k % 2) >> 11) * 2.0**-53 for k in entries])
        second = np.array([(self.word(k - k % 2 + 1) >> 11) * 2.0**-53 for k in entries])
        radius = np.sqrt(-2.0 * np.log1p(-first))
        angle = second * (2.0 * math.pi)
        odd = np.array([k % 2 == 1 for k in entries], dtype=bool)
        return radius * np.where(odd, np.sin(angle), np.cos(angle))

    def standard_normal(self, shape) -> np.ndarray:
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        draw = self.normals(self.entry, math.prod(shape)).reshape(shape)
        self.entry += draw.size
        return draw


def sample_stream(seed: int, i: int) -> SampleStream:
    """The oracle's stream of sample ``i`` in a run with base seed ``seed``."""
    return SampleStream(seed, i)


def random_pd_form(rng: np.random.Generator, m: int, floor: float = 1e-2) -> MetricForm:
    """Random positive-definite (m-1)x(m-1) form."""
    n = m - 1
    g = rng.normal(size=(n, n))
    return MetricForm(g @ g.T + floor * np.eye(n))


def random_metric(rng: np.random.Generator, m: int) -> MetricT:
    return form_to_T(random_pd_form(rng, m))


def laplacian_metric(m: int, edges: list[tuple[int, int, float]]) -> MetricT:
    """Coefficient matrix of a weighted graph Laplacian on 1-based vertices.

    The graph must be connected with weights making the result positive
    semidefinite of rank m-1 (all positive suffices).
    """
    t = np.zeros((m, m))
    for i, j, w in edges:
        t[i - 1, j - 1] -= w
        t[j - 1, i - 1] -= w
        t[i - 1, i - 1] += w
        t[j - 1, j - 1] += w
    return MetricT(t)


def worked_seven_metric(
    x: tuple[float, ...] = (1.0,) * 6, y: tuple[float, float] = (1.0, 1.0)
) -> MetricT:
    """The m=7 two-summand matrix: triangles 123 and 467 plus rungs 14, 25."""
    x1, x2, x3, x4, x5, x6 = x
    y1, y2 = y
    return laplacian_metric(
        7,
        [
            (1, 2, x1),
            (1, 3, x2),
            (2, 3, x3),
            (4, 6, x4),
            (4, 7, x5),
            (6, 7, x6),
            (1, 4, y1),
            (2, 5, y2),
        ],
    )


SEVEN_SPLIT_PAIR = PartitionPair(
    ((1, 2, 3), (4, 6, 7), (5,)), ((1, 4), (2, 5), (3,), (6,), (7,))
)

DOUBLE_STAR_PAIR = PartitionPair(
    ((1, 2, 3, 4, 5), (6,), (7,)), ((1, 6), (2, 7), (3,), (4,), (5,))
)


def double_star_product(inner: np.ndarray, u1: float = 1.0, u2: float = 1.0) -> MetricT:
    """m=7 product whose 5-copy factor is the given zero-row-sum block.

    Elements 1..5 carry the block; leaves 6 and 7 couple to 1 and 2 with
    weights u1 and u2.  Splitting by DOUBLE_STAR_PAIR recovers the block
    exactly as the second factor.
    """
    t = np.zeros((7, 7))
    t[:5, :5] = inner
    for i, j, w in [(0, 5, u1), (1, 6, u2)]:
        t[i, j] = t[j, i] = -w
        t[i, i] += w
        t[j, j] += w
    return MetricT(t)


def dense_nonreductive_metric(rng: np.random.Generator, m: int) -> MetricT:
    """All-entries-nonzero metric that generically fails every product shape."""
    n = m - 1
    g = rng.normal(size=(n, n))
    form = g @ g.T + float(n) * np.eye(n)
    t = np.zeros((m, m))
    t[:n, :n] = form
    t[n, :] = -t.sum(axis=0)
    t[:, n] = t[n, :]
    t[n, n] = -t[n, :n].sum()
    return MetricT(t)


def random_nodes(rng: np.random.Generator, m: int, min_gap: float = 0.05) -> np.ndarray:
    z = np.sort(rng.uniform(0.5, 4.0, size=m))
    while np.min(np.diff(z)) < min_gap:
        z = np.sort(rng.uniform(0.5, 4.0, size=m))
    return z


# a change of basis whose table has no zero but the [E'_a, E'_a] entries
SKEW = np.array([[1.0, 0.5, -0.25], [0.25, 1.0, 0.5], [-0.5, 0.25, 1.0]])


def skewed_so3() -> StructureConstants:
    """so(3) in the basis E'_a = sum_i SKEW[a, i] E_i: dense c, non-diagonal Gram."""
    c = np.einsum("ai,bj,ijk,kc->abc", SKEW, SKEW, so3().c, np.linalg.inv(SKEW))
    return StructureConstants(c=c, name="so3-skewed")


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


@pytest.fixture(scope="session")
def backend():
    return so3()
