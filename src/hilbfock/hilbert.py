"""Cohomology classes and intersection numbers on Hilbert schemes.

The weight-n part of the Fock space is H*(X^[n]), and a class is a
{state: coeff} dict, as everywhere in the package.  Chern character
classes are obtained by applying the character operators to the
fundamental class; hilb_integral integrates any class, and intersection
numbers integrate cup products of character classes of the point class.

For K-trivial arguments the character class also has a closed creation
expansion: with 1_{-r} = a(-1;1)^r / r! for r >= 0 (zero otherwise),

    G_k(c, n) =
      sum_{0<=j<=k} sum_{lam |- (j+1), l(lam)=k-j+1}
        ((-1)^j / (lam^! (j+1)!)) 1_{-(n-j-1)} a_{-lam}(tau c) |0>
    + sum_{0<=j<=k} sum_{lam |- (j+1), l(lam)=k-j-1}
        ((-1)^{j+1} (j+1+s(lam)-2) / (24 lam^! (j+1)!))
        1_{-(n-j-1)} a_{-lam}(tau(e*c)) |0>

and the intersection numbers of classes G_{k_i}([x], n) with
sum (k_i + 2) = 2n reduce to the surface-independent rational

    sum over (j_i), 0<=j_i<=k_i, sum (j_i+1) = n, of the product over i of
    sum_{lam |- (j_i+1), l(lam)=k_i-j_i+1} (-1)^{j_i} / (lam^! (j_i+1)!).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import factorial

from .fock import combine, fundamental_class, pairing, vacuum
from .operators import heisenberg, monomial
from .partitions import enumerate_ordinary
from .walgebra import chern, require_canonical_trivial

Q = Fraction


def point_class(ring):
    """The degree-4 basis class."""
    top = [i for i, d in enumerate(ring.degrees) if d == 4]
    return ring.basis(top[0])


def chern_class(ring, k, elem, n):
    """G_k(elem) applied to the fundamental class of X^[n]."""
    return chern(ring, k, elem).act(fundamental_class(n))


def chern_class_closed(ring, k, elem, n):
    """Closed creation expansion of the same class (K-trivial elem)."""
    require_canonical_trivial(ring, elem)
    pieces = []
    e_elem = ring.e * elem
    for j in range(k + 1):
        r = n - j - 1
        if r < 0:
            continue
        lead = Q((-1) ** j, factorial(j + 1))
        terms = [(parts, lead / mf, elem)
                 for parts, mf, _ in enumerate_ordinary(j + 1, k - j + 1)]
        if j < k and not e_elem.is_zero():
            terms += [(parts, -lead * (j + 1 + s - 2) / (24 * mf), e_elem)
                      for parts, mf, s in enumerate_ordinary(j + 1,
                                                             k - j - 1)]
        for parts, coeff, cls in terms:
            lam = tuple(-p for p in reversed(parts))
            vec = monomial(ring, lam, cls).act(vacuum())
            pieces.append((coeff, _unit_shift(ring, r, vec)))
    return combine(*pieces)


def _unit_shift(ring, r, vec):
    """Multiply by a(-1;1)^r / r!."""
    op = heisenberg(ring, -1, ring.unit)
    for _ in range(r):
        vec = op.act(vec)
    return combine((Q(1, factorial(r)), vec))


def cup_product(ring, ks, elems, n):
    """Product of character classes on X^[n], applied right to left."""
    vec = fundamental_class(n)
    for k, elem in reversed(list(zip(ks, elems))):
        vec = chern(ring, k, elem).act(vec)
    return vec


def hilb_integral(ring, vec, n):
    """Integrate a vector over X^[n]: any {state: coeff} dict, whose
    states of weight other than n do not count.

    The point state a(-1;[x])^n |0> is the unique top-degree state and
    pairs to 1 with the fundamental class, so the pairing extracts its
    coefficient.
    """
    return pairing(ring, vec, fundamental_class(n))


def intersection_number(ring, ks, n):
    """Integral over X^[n] of the product of G_{k_i}([x])."""
    pt = point_class(ring)
    vec = cup_product(ring, ks, [pt] * len(ks), n)
    return hilb_integral(ring, vec, n)


def _closed_factor(k, j):
    """sum_{lam |- (j+1), l(lam)=k-j+1} (-1)^j / (lam^! (j+1)!), the
    factor of G_k([x]) in intersection_number_closed."""
    return sum((Q((-1) ** j, mf * factorial(j + 1))
                for _, mf, _ in enumerate_ordinary(j + 1, k - j + 1)), Q(0))


def intersection_number_closed(ks, n):
    """Surface-independent closed value of the same number."""
    total = Q(0)
    for js in product(*(range(k + 1) for k in ks)):
        if sum(j + 1 for j in js) != n:
            continue
        value = Q(1)
        for k, j in zip(ks, js):
            value *= _closed_factor(k, j)
            if not value:
                break
        total += value
    return total


def k_multisets(n):
    """Nonincreasing k-tuples with sum (k_i + 2) = 2n: the degree-matched
    products of character classes on n points."""
    out = []

    def rec(remaining, maxk, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for k in range(min(maxk, remaining - 2), -1, -1):
            rec(remaining - (k + 2), k, acc + [k])

    rec(2 * n, 2 * n, [])
    return out
