"""Generalized partitions: enumeration, statistics, text round-trip."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from hilbfock.partitions import (GenPartition, enumerate_genpartitions,
                                 enumerate_ordinary, genpartition_stats)


def totals(parts):
    """(positive total, negative total) of a part tuple."""
    return sum(p for p in parts if p > 0), -sum(p for p in parts if p < 0)


def brute_genpartitions(length, total, pos_bound):
    """Reference enumeration by filtering all sorted part tuples.

    A partition with positive total at most pos_bound and size equal to
    total has negative total pos_bound - total at most, so every part
    lies in a finite value range.
    """
    lo = -(pos_bound - total) if pos_bound - total > 0 else -1
    values = [v for v in range(lo, pos_bound + 1) if v != 0]
    out = set()
    for combo in itertools.combinations_with_replacement(values, length):
        gp = GenPartition(tuple(sorted(combo)))
        if gp.size == total and totals(gp.parts)[0] <= pos_bound:
            out.add(gp.parts)
    return out


def test_enumeration_matches_brute_force():
    for length in range(0, 4):
        for total in range(-4, 5):
            got = {gp.parts
                   for gp in enumerate_genpartitions(length, total, 3)}
            assert got == brute_genpartitions(length, total, 3), \
                (length, total)


def test_enumeration_counts_small():
    assert [gp.parts for gp in enumerate_genpartitions(0, 0, 5)] == [()]
    assert list(enumerate_genpartitions(0, 1, 5)) == []
    one = {gp.parts for gp in enumerate_genpartitions(1, -2, 5)}
    assert one == {(-2,)}
    two = {gp.parts for gp in enumerate_genpartitions(2, 0, 3)}
    assert two == {(-1, 1), (-2, 2), (-3, 3)}


def test_enumeration_window_is_complete():
    """Every sorted nonzero tuple within the caps appears exactly once."""
    seen = [gp.parts for gp in enumerate_genpartitions(2, -1, 4)]
    assert len(seen) == len(set(seen))
    for a in range(-6, 5):
        for b in range(a, 5):
            if a == 0 or b == 0 or a + b != -1:
                continue
            pos, neg = totals((a, b))
            inside = pos <= 4 and neg <= 4 + 1
            assert ((a, b) in seen) == inside, (a, b)


def test_statistics():
    gp = GenPartition((-3, -1, -1, 2))
    assert gp.length == 4
    assert gp.size == -3
    assert gp.weighted_square == 9 + 1 + 1 + 4
    assert gp.mult_factorial == 2
    rows = [row for row in genpartition_stats(4, -3, 2) if row[0] == gp.parts]
    assert [row[1:] for row in rows] == [(2, 5, 2, 15)]
    assert gp.negate().parts == (-2, 1, 1, 3)


def test_ordinary_partitions():
    fives = [gp.parts for gp in enumerate_ordinary(5)]
    assert len(fives) == 7
    assert all(all(v > 0 for v in p) for p in fives)
    twos = [gp.parts for gp in enumerate_ordinary(4, 2)]
    assert sorted(twos) == [(1, 3), (2, 2)]


parts_strategy = st.lists(
    st.integers(min_value=-6, max_value=6).filter(lambda v: v != 0),
    min_size=0, max_size=6)


@given(parts_strategy)
@settings(max_examples=200)
def test_negate_involution(parts):
    gp = GenPartition(tuple(sorted(parts)))
    assert gp.negate().negate() == gp
    assert gp.negate().weighted_square == gp.weighted_square
    assert gp.negate().mult_factorial == gp.mult_factorial
    assert gp.negate().size == -gp.size
