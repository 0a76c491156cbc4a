"""Tests for the admissible partition-pair enumeration."""

from itertools import combinations

import pytest

from ledger_obata.errors import ParameterError
from ledger_obata.trees import (
    MAX_M,
    PartitionPair,
    enumerate_partition_pairs,
)


def all_set_partitions(items):
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for smaller in all_set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [smaller[i] + [head]] + smaller[i + 1 :]
        yield [[head]] + smaller


def admissible_by_rules(p1, p2, m):
    """Direct transcription of the three pairing rules on raw partitions."""
    if len(p1) < 2 or len(p2) < 2 or len(p1) + len(p2) != m + 1:
        return False
    for a in p1:
        for b in p2:
            if len(set(a) & set(b)) > 1:
                return False
    unions1 = set()
    for r in range(1, len(p1)):
        for combo in combinations(p1, r):
            unions1.add(frozenset(x for part in combo for x in part))
    for r in range(1, len(p2)):
        for combo in combinations(p2, r):
            if frozenset(x for part in combo for x in part) in unions1:
                return False
    return True


def canon(partition):
    return tuple(sorted(tuple(sorted(p)) for p in partition))


def edge_set(edges):
    return frozenset(frozenset(e) for e in edges)


def test_enumeration_matches_rule_filter():
    for m in range(3, 7):
        partitions = [
            [sorted(p) for p in part]
            for part in all_set_partitions(list(range(1, m + 1)))
        ]
        # each unordered pair once, the smaller partition first
        expected = sorted(
            {
                tuple(sorted((canon(p1), canon(p2))))
                for p1 in partitions
                for p2 in partitions
                if admissible_by_rules(p1, p2, m)
            }
        )
        emitted = [(pair.first, pair.second) for pair in enumerate_partition_pairs(m)]
        assert emitted == expected


def test_count_formula():
    for m in range(3, 8):
        count = len(enumerate_partition_pairs(m))
        assert count == (m + 1) ** (m - 2) - 1


def test_emitted_pairs_validate_and_give_trees():
    for pair in enumerate_partition_pairs(5):
        pair.validate()
        m = pair.m
        assert m == 5
        m1, m2 = pair.factor_sizes
        assert m1 + m2 == m + 1
        edges = pair.tree_edges()
        assert len(edges) == m
        # union-find connectivity over m + 1 part vertices
        parent = list(range(m + 1))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in edges:
            ru, rv = find(u), find(v)
            assert ru != rv  # acyclic
            parent[ru] = rv
        assert len({find(x) for x in range(m + 1)}) == 1


def test_validate_rejects_rule_violations():
    # a star tree shape: one side would need a single part
    with pytest.raises(ParameterError, match="two parts"):
        PartitionPair((( 1, 2, 3),), ((1,), (2,), (3,))).validate()
    # wrong part-count balance
    with pytest.raises(ParameterError, match="part counts"):
        PartitionPair(((1, 2), (3, 4)), ((1, 3), (2, 4))).validate()
    # two parts sharing two indices
    with pytest.raises(ParameterError, match="more than one"):
        PartitionPair(
            ((1, 2), (3,), (4,)), ((1, 2), (3, 4))
        ).validate()
    # proper unions {5} and {1, 2, 3, 4} appear on both sides
    with pytest.raises(ParameterError, match="invariant"):
        PartitionPair(
            ((1, 2), (3, 4), (5,)), ((1, 3), (2, 4), (5,))
        ).validate()
    with pytest.raises(ParameterError, match="empty"):
        PartitionPair(((1, 2, 3), ()), ((1,), (2,), (3,))).validate()
    with pytest.raises(ParameterError, match="cover"):
        PartitionPair(((1, 2),), ((1,), (2,), (4,))).validate()
    with pytest.raises(ParameterError, match="overlap"):
        PartitionPair(((1, 2), (2, 3)), ((1,), (2,), (3,))).validate()


def test_validate_raises_exactly_on_the_rule_violations():
    for m in range(2, 6):
        partitions = [
            canon(p) for p in all_set_partitions(list(range(1, m + 1)))
        ]
        for p1 in partitions:
            for p2 in partitions:
                try:
                    PartitionPair(p1, p2).validate()
                    admitted = True
                except ParameterError:
                    admitted = False
                assert admitted == admissible_by_rules(p1, p2, m), (p1, p2)


def path_pair(m):
    """The pair of the path 0 - 1 - .. - m whose edge x joins x - 1 and x."""
    first = [[x for x in (v, v + 1) if 1 <= x <= m] for v in range(0, m + 1, 2)]
    second = [[x for x in (v, v + 1) if 1 <= x <= m] for v in range(1, m + 1, 2)]
    return PartitionPair(canon(first), canon(second))


def test_long_path_pair_validates_and_violations_are_named():
    pair = path_pair(31)
    assert pair.factor_sizes == (16, 16)
    pair.validate()
    edges = pair.tree_edges()
    assert len(edges) == 31
    assert edge_set(edges) == edge_set(
        (x // 2, 16 + (x - 1) // 2) for x in range(1, 32)
    )
    # (29, 30), (31,) -> (29,), (30, 31) on the second side repeats the
    # edge 30, 31 of the part (30, 31) on the first side
    second = [p for p in pair.second if p not in ((29, 30), (31,))]
    looped = PartitionPair(pair.first, canon([*second, (29,), (30, 31)]))
    with pytest.raises(ParameterError, match=r"\(30, 31\) and \(30, 31\) share"):
        looped.validate()
    # m + 1 parts without a repeated edge: a 4-cycle beside the edge 5
    split = PartitionPair(((1, 2), (3, 4), (5,)), ((1, 3), (2, 4), (5,)))
    with pytest.raises(ParameterError, match=r"invariant index set \[1, 2, 3, 4\]"):
        split.validate()


def test_enumeration_bounds():
    assert enumerate_partition_pairs(2) == []
    with pytest.raises(ParameterError):
        enumerate_partition_pairs(1)
    with pytest.raises(ParameterError, match="^m = 9 exceeds the enumeration cap 8$"):
        enumerate_partition_pairs(MAX_M + 1)
