"""Generalized partitions: finite multisets of nonzero integers.

A generalized partition indexes a product of Fock-space modes; negative
parts create, positive parts annihilate.  Stored as a sorted tuple, most
negative first.  The statistics follow the usual multiplicity notation
lambda = (... (-1)^{m_-1} 1^{m_1} 2^{m_2} ...):

    length            sum of multiplicities
    size              sum of i * m_i (the mode-number total)
    weighted_square   sum of i^2 * m_i
    mult_factorial    product of m_i!

The empty partition is representable but every operator series in this
package skips it.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, prod


class GenPartition:
    """Immutable multiset of nonzero integers, kept sorted ascending."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        ps = tuple(sorted(int(p) for p in parts))
        if any(p == 0 for p in ps):
            raise ValueError("parts must be nonzero")
        object.__setattr__(self, "parts", ps)

    def __setattr__(self, *a):
        raise AttributeError("GenPartition is immutable")

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __eq__(self, other):
        return isinstance(other, GenPartition) and self.parts == other.parts

    def __lt__(self, other):
        return self.parts < other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return "GenPartition(%r)" % (self.parts,)

    @property
    def length(self):
        return len(self.parts)

    @property
    def size(self):
        return sum(self.parts)

    @property
    def weighted_square(self):
        return sum(p * p for p in self.parts)

    @property
    def mult_factorial(self):
        return prod(factorial(m) for m in self.multiplicities().values())

    def multiplicities(self):
        out = {}
        for p in self.parts:
            out[p] = out.get(p, 0) + 1
        return out

    def negate(self):
        return GenPartition(-p for p in self.parts)

    __neg__ = negate


@lru_cache(maxsize=None)
def _exact_partitions(total, count):
    """Partitions of total >= 0 into exactly count positive parts, ascending."""
    if count == 0:
        return ((),) if total == 0 else ()
    if total < count:
        return ()

    def rec(rem, k, minimum):
        if k == 1:
            if rem >= minimum:
                yield (rem,)
            return
        for first in range(minimum, rem // k + 1):
            for rest in rec(rem - first, k - 1, first):
                yield (first,) + rest

    return tuple(rec(total, count, 1))


@lru_cache(maxsize=None)
def _exact_stats(total, count):
    """(parts, mult!, sum of squares) of each of _exact_partitions(total,
    count)."""
    return tuple((parts, prod(factorial(parts.count(p)) for p in set(parts)),
                  sum(p * p for p in parts))
                 for parts in _exact_partitions(total, count))


def genpartition_stats(length, total, pos_bound):
    """(parts, positive total, negative total, mult!, sum of squares) of
    each generalized partition with given length and size whose positive
    parts sum to at most pos_bound (the negative total is then
    determined), sorted by parts.  The one enumeration of generalized
    partitions: enumerate_genpartitions is a view of it."""
    out = []
    for npos in range(length + 1):
        nneg = length - npos
        lo = max(total, 0, npos)
        for ptotal in range(lo, pos_bound + 1):
            ntotal = ptotal - total
            if ntotal < 0 or (nneg == 0 and ntotal > 0):
                continue
            negs = [(tuple(-p for p in reversed(parts)), mf, ws)
                    for parts, mf, ws in _exact_stats(ntotal, nneg)]
            for pos, mfp, wsp in _exact_stats(ptotal, npos):
                for neg, mfn, wsn in negs:
                    out.append((neg + pos, ptotal, ntotal, mfn * mfp,
                                wsn + wsp))
    out.sort()
    return out


def enumerate_genpartitions(length, total, pos_bound):
    """All generalized partitions with given length and size.

    The positive parts sum to at most pos_bound (the negative total is then
    determined).  Returned sorted by the underlying part tuples.
    """
    return [GenPartition(row[0]) for row in
            genpartition_stats(length, total, pos_bound)]


def enumerate_ordinary(total, length=None):
    """Ordinary partitions of total > 0 into positive parts.

    With length given, exactly that many parts; otherwise all lengths.
    """
    if length is not None:
        return [GenPartition(p) for p in _exact_partitions(total, length)]
    out = []
    for k in range(1, total + 1):
        out.extend(GenPartition(p) for p in _exact_partitions(total, k))
    out.sort()
    return out
