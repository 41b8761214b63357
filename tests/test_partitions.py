"""Generalized partitions: enumeration and the statistics of its rows."""

import itertools

from hilbfock.partitions import (enumerate_genpartitions, enumerate_ordinary,
                                 genpartition_stats)


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
        if sum(combo) == total and totals(combo)[0] <= pos_bound:
            out.add(tuple(sorted(combo)))
    return out


def test_enumeration_matches_brute_force():
    for length in range(0, 4):
        for total in range(-4, 5):
            got = set(enumerate_genpartitions(length, total, 3))
            assert got == brute_genpartitions(length, total, 3), \
                (length, total)


def test_enumeration_counts_small():
    assert enumerate_genpartitions(0, 0, 5) == [()]
    assert enumerate_genpartitions(0, 1, 5) == []
    assert enumerate_genpartitions(1, -2, 5) == [(-2,)]
    two = set(enumerate_genpartitions(2, 0, 3))
    assert two == {(-1, 1), (-2, 2), (-3, 3)}


def test_enumeration_window_is_complete():
    """Every sorted nonzero tuple within the caps appears exactly once."""
    seen = enumerate_genpartitions(2, -1, 4)
    assert len(seen) == len(set(seen))
    for a in range(-6, 5):
        for b in range(a, 5):
            if a == 0 or b == 0 or a + b != -1:
                continue
            pos, neg = totals((a, b))
            inside = pos <= 4 and neg <= 4 + 1
            assert ((a, b) in seen) == inside, (a, b)


def test_statistics():
    """A row of the generalized enumeration: positive and negative
    totals, mult! and sum of squares of (-3, -1, -1, 2)."""
    rows = [row for row in genpartition_stats(4, -3, 2)
            if row[0] == (-3, -1, -1, 2)]
    assert [row[1:] for row in rows] == [(2, 5, 2, 15)]


def test_ordinary_partitions():
    fives = [parts for parts, _, _ in enumerate_ordinary(5)]
    assert len(fives) == 7
    assert all(all(v > 0 for v in p) for p in fives)
    assert fives == sorted(fives)
    twos = [parts for parts, _, _ in enumerate_ordinary(4, 2)]
    assert twos == [(1, 3), (2, 2)]


def test_ordinary_rows_match_brute_force():
    """Every row of enumerate_ordinary, with and without a length, is
    (parts, lambda^!, s(lambda)) of a sorted partition: the parts are
    those of a filter of all sorted part tuples, lambda^! is counted as
    the permutations of the parts that fix them, and s(lambda) summed."""
    for total in range(1, 9):
        rows = enumerate_ordinary(total)
        want = [combo for length in range(1, total + 1)
                for combo in itertools.combinations_with_replacement(
                    range(1, total + 1), length)
                if sum(combo) == total]
        assert [parts for parts, _, _ in rows] == sorted(want), total
        for parts, mf, s in rows:
            assert mf == sum(1 for perm in itertools.permutations(parts)
                             if perm == parts), parts
            assert s == sum(p * p for p in parts), parts
        for length in range(1, total + 1):
            assert enumerate_ordinary(total, length) == [
                row for row in rows if len(row[0]) == length], \
                (total, length)
