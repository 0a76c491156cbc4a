"""Enumeration of admissible partition pairs via edge-labeled trees.

A splitting of F^m/diag(F) into two factors is encoded by a pair of set
partitions of {1..m} subject to three rules: the part counts m1, m2 both
exceed 1 and satisfy m1 + m2 = m + 1, no proper nonempty union of parts of
the first partition is also a union of parts of the second, and any two
parts from opposite partitions meet in at most one index.  Such pairs
correspond one to one with the trees whose m edges are labeled 1..m and
that are not stars.  A tree is stored as the tuple of its vertices' index
sets, the labels of the edges at each vertex; this is the parts graph of
the pair, and the two color classes of the tree are its two partitions.

Contracting edge m of a tree on 1..m merges its ends into one vertex v of
a tree on 1..m-1; splitting v into (v less moved) + m and moved + m, for
any set ``moved`` of v's indices other than its smallest, is the inverse.
So every tree on 1..m arises exactly once, from one of the
sum_v 2^(deg v - 1) splits of one tree on 1..m-1.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .errors import ParameterError

Partition = tuple[tuple[int, ...], ...]
Vertices = Sequence[tuple[int, ...]]  # each vertex's index set

MAX_M = 8


def _canon(parts: Iterable[Iterable[int]]) -> Partition:
    return tuple(sorted(tuple(sorted(p)) for p in parts))


def _holders(vertices: Vertices) -> dict[int, tuple[int, ...]]:
    """The vertices holding each index: the two ends of its edge in a tree."""
    holders: dict[int, tuple[int, ...]] = {}
    for v, part in enumerate(vertices):
        for x in part:
            holders[x] = holders.get(x, ()) + (v,)
    return holders


def _depths(vertices: Vertices, holders: dict[int, tuple[int, ...]]) -> list[int]:
    """Breadth-first depth from vertex 0 (-1 where unreached), moving between
    vertices that hold a common index; on a tree its parity 2-colors it."""
    depth = [-1] * len(vertices)
    depth[0] = 0
    order = [0]
    for v in order:
        for x in vertices[v]:
            for w in holders[x]:
                if depth[w] < 0:
                    depth[w] = depth[v] + 1
                    order.append(w)
    return depth


@dataclass(frozen=True)
class PartitionPair:
    """Pair of partitions of {1..m} describing one binary splitting."""

    first: Partition
    second: Partition

    @property
    def m(self) -> int:
        return sum(len(p) for p in self.first)

    @property
    def factor_sizes(self) -> tuple[int, int]:
        return len(self.first), len(self.second)

    def validate(self) -> None:
        """Raise ParameterError unless the pair is admissible.

        Once both sides partition 1..m into at least two parts with
        m1 + m2 = m + 1, the rules are read off the parts graph, with m + 1
        vertices and m edges: two parts share two indices exactly when an
        edge repeats, and a common proper union of parts is exactly the
        index set of a component when the graph is disconnected.  Such a
        graph is a tree exactly when it is connected, so the pair is
        admissible exactly when its parts graph is a tree.
        """
        m = self.m
        ground = set(range(1, m + 1))
        for label, partition in (("first", self.first), ("second", self.second)):
            seen: set[int] = set()
            for part in partition:
                if not part:
                    raise ParameterError(f"{label} partition has an empty part")
                if seen & set(part):
                    raise ParameterError(f"{label} partition has overlapping parts")
                seen |= set(part)
            if seen != ground:
                raise ParameterError(f"{label} partition does not cover 1..{m}")
        m1, m2 = self.factor_sizes
        if m1 < 2 or m2 < 2:
            raise ParameterError("both partitions need at least two parts")
        if m1 + m2 != m + 1:
            raise ParameterError(
                f"part counts {m1} + {m2} must equal m + 1 = {m + 1}"
            )
        vertices = self.first + self.second
        graph = _holders(vertices)
        # counted in the order of second's parts, which fixes the edge a message names
        edges = Counter(graph[x] for part in self.second for x in part)
        (u, v), count = edges.most_common(1)[0]
        if count > 1:
            raise ParameterError(
                f"parts {vertices[u]} and {vertices[v]} share more than one index"
            )
        depth = _depths(vertices, graph)
        if min(depth) < 0:
            component = sorted(
                x for part, d in zip(self.first, depth) if d >= 0 for x in part
            )
            raise ParameterError(f"common proper invariant index set {component}")

    def tree_edges(self) -> list[tuple[int, int]]:
        """Edges of the parts graph by index: the pair's tree when it is admissible."""
        graph = _holders(self.first + self.second)
        return [graph[x] for x in sorted(graph)]


def _trees(m: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every tree with edges labeled 1..m (m >= 2), as its vertices' index sets."""
    if m == 2:
        yield ((1,), (1, 2), (2,))
        return
    for tree in _trees(m - 1):
        for v, (low, *rest) in enumerate(tree):
            others = tree[:v] + tree[v + 1 :]
            for size in range(len(rest) + 1):
                for moved in combinations(rest, size):
                    kept = (low, *(x for x in rest if x not in moved))
                    yield (*others, (*kept, m), (*moved, m))


def _pair(tree: Vertices) -> PartitionPair:
    """The pair whose partitions are the tree's two color classes."""
    depth = _depths(tree, _holders(tree))
    sides: tuple[list, list] = ([], [])
    for part, d in zip(tree, depth):
        sides[d % 2].append(part)
    first, second = sorted(_canon(side) for side in sides)
    return PartitionPair(first, second)


@functools.lru_cache(maxsize=8)
def _enumerate_cached(m: int) -> tuple[PartitionPair, ...]:
    # the star, one vertex holding all m indices, gives a one-part partition
    pairs = [_pair(tree) for tree in _trees(m) if max(map(len, tree)) < m]
    return tuple(sorted(pairs, key=lambda p: (p.first, p.second)))


def enumerate_partition_pairs(m: int) -> list[PartitionPair]:
    """All admissible partition pairs for F^m/diag(F), canonically ordered.

    There are (m + 1)^(m - 2) - 1 pairs, one per edge-labeled tree that is
    not a star, so m is capped at ``MAX_M``.  On a 2-core machine m = 7
    (32 767 pairs) takes about 1.2 s cold, and m = 8 (531 440 pairs) about
    22 s and 520 MB.
    """
    if m < 2:
        raise ParameterError("m must be at least 2")
    if m > MAX_M:
        raise ParameterError(f"m = {m} exceeds the enumeration cap {MAX_M}")
    if m == 2:
        return []
    return list(_enumerate_cached(m))
