"""Enumeration of admissible partition pairs via labeled trees.

A splitting of F^m/diag(F) into two factors is encoded by a pair of set
partitions of {1..m} subject to three rules: the part counts m1, m2 both
exceed 1 and satisfy m1 + m2 = m + 1, no proper nonempty union of parts of
the first partition is also a union of parts of the second, and any two
parts from opposite partitions meet in at most one index.  Such pairs
correspond to vertex-labeled trees on m + 1 nodes that are not stars:
rooting the tree anywhere and two-coloring by depth parity, the indices are
the edges (each edge named by its child endpoint under a fixed rooting) and
each partition collects edges incident to vertices of one color.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from itertools import product

from .errors import ParameterError

Partition = tuple[tuple[int, ...], ...]

MAX_M_DEFAULT = 8


def _canon(parts: list[list[int]]) -> Partition:
    return tuple(sorted(tuple(sorted(p)) for p in parts))


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

    def _parts_graph(self) -> dict[int, tuple[int, int]]:
        """Index x as the edge (its part in first, m1 + its part in second)."""
        m1 = len(self.first)
        first = {x: i for i, part in enumerate(self.first) for x in part}
        return {x: (first[x], m1 + j) for j, part in enumerate(self.second) for x in part}

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
        graph = self._parts_graph()
        (u, v), count = Counter(graph.values()).most_common(1)[0]
        if count > 1:
            raise ParameterError(
                f"parts {self.first[u]} and {self.second[v - m1]} share more than one index"
            )
        reached, frontier = {0}, {0}
        while frontier:
            frontier = {w for e in graph.values() if frontier & set(e) for w in e} - reached
            reached |= frontier
        if len(reached) <= m:
            component = sorted(x for x, (u, _) in graph.items() if u in reached)
            raise ParameterError(f"common proper invariant index set {component}")

    def tree_edges(self) -> list[tuple[int, int]]:
        """Edges of the parts graph by index: the pair's tree when it is admissible."""
        graph = self._parts_graph()
        return [graph[x] for x in sorted(graph)]


def _decode_pruefer(seq: tuple[int, ...], size: int) -> list[tuple[int, int]]:
    """Standard Pruefer decoding into an edge list on vertices 0..size-1."""
    degree = [1] * size
    for v in seq:
        degree[v] += 1
    edges = []
    ptr = 0
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    for v in seq:
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
        if degree[v] == 1 and v < ptr:
            leaf = v
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    last = [v for v in range(size) if degree[v] == 1]
    edges.append((last[0], last[1]))
    return edges


def _pair_from_tree(edges: list[tuple[int, int]], size: int) -> PartitionPair | None:
    """Root at vertex 0, label each edge by its child, color by depth parity."""
    adj: list[list[int]] = [[] for _ in range(size)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    if max(len(nb) for nb in adj) == size - 1:
        return None  # a star yields the trivial one-part partition on one side
    parent = [-1] * size
    depth = [0] * size
    order = [0]
    seen = [False] * size
    seen[0] = True
    for u in order:
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                parent[v] = u
                depth[v] = depth[u] + 1
                order.append(v)
    label = [0] * size  # label[v] = index carried by edge (v, parent[v])
    for v in range(1, size):
        label[v] = v
    even_parts: list[list[int]] = []
    odd_parts: list[list[int]] = []
    for u in range(size):
        incident = [label[v] for v in adj[u] if parent[v] == u]
        if parent[u] >= 0:
            incident.append(label[u])
        if (depth[u] % 2) == 0:
            even_parts.append(incident)
        else:
            odd_parts.append(incident)
    return PartitionPair(_canon(even_parts), _canon(odd_parts))


@functools.lru_cache(maxsize=8)
def _enumerate_cached(m: int) -> tuple[PartitionPair, ...]:
    size = m + 1
    found: dict[tuple[Partition, Partition], PartitionPair] = {}
    for seq in product(range(size), repeat=size - 2):
        edges = _decode_pruefer(seq, size)
        pair = _pair_from_tree(edges, size)
        if pair is None:
            continue
        key = tuple(sorted((pair.first, pair.second)))
        if key not in found:
            found[key] = PartitionPair(key[0], key[1])
    ordered = sorted(found.values(), key=lambda p: (p.first, p.second))
    return tuple(ordered)


def enumerate_partition_pairs(
    m: int, max_m: int = MAX_M_DEFAULT
) -> list[PartitionPair]:
    """All admissible partition pairs for F^m/diag(F), canonically ordered.

    There are (m + 1)^(m - 2) - 1 pairs, found by decoding all
    (m + 1)^(m - 1) Pruefer codes of trees on m + 1 vertices, so m is
    capped (default 8) to keep enumeration affordable; raise ``max_m`` to
    go higher.  On a 2-core machine m = 7 (32 767 pairs) takes 6-8 s, and
    m = 8 (531 440 pairs) about 146 s, plus 25 s to ``validate`` them.
    """
    if m < 2:
        raise ParameterError("m must be at least 2")
    if m > max_m:
        raise ParameterError(
            f"m = {m} exceeds the enumeration cap {max_m}; pass a larger max_m"
        )
    if m == 2:
        return []
    return list(_enumerate_cached(m))
