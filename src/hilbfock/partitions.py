"""Generalized partitions: finite multisets of nonzero integers.

A generalized partition indexes a product of Fock-space modes; negative
parts create, positive parts annihilate.  It is a plain tuple of nonzero
ints, sorted ascending (most negative first); its length and size are
len(parts) and sum(parts).  The statistics the formulas read, in the
usual multiplicity notation lambda = (... (-1)^{m_-1} 1^{m_1} 2^{m_2} ...),

    mult!            product of m_i!    (lambda^!)
    sum of squares   sum of i^2 * m_i   (s(lambda))

are fields of the rows the enumeration builds, not properties of a
partition object.

The empty partition is representable but every operator series in this
package skips it.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, prod


@lru_cache(maxsize=None)
def _exact_stats(total, count):
    """(parts, mult!, sum of squares) of each partition of total >= 0
    into exactly count positive parts, ascending by parts."""
    if count == 0:
        return (((), 1, 0),) if total == 0 else ()

    def rec(rem, k, minimum):
        if k == 1:
            if rem >= minimum:
                yield (rem,)
            return
        for first in range(minimum, rem // k + 1):
            for rest in rec(rem - first, k - 1, first):
                yield (first,) + rest

    return tuple((parts, prod(factorial(parts.count(p)) for p in set(parts)),
                  sum(p * p for p in parts))
                 for parts in rec(total, count, 1))


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
    """The part tuples of genpartition_stats(length, total, pos_bound),
    sorted."""
    return [row[0] for row in genpartition_stats(length, total, pos_bound)]


def enumerate_ordinary(total, length=None):
    """(parts, mult!, sum of squares) of each ordinary partition of
    total > 0, sorted by parts.

    With length given, exactly that many parts; otherwise all lengths.
    """
    if length is not None:
        return list(_exact_stats(total, length))
    out = []
    for k in range(1, total + 1):
        out.extend(_exact_stats(total, k))
    out.sort()
    return out
