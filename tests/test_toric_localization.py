"""Torus localization on the Hilbert schemes of the toric surfaces P^2
and P^1 x P^1, as an oracle outside the paper's operator calculus.

A torus acting on a smooth toric surface X with isolated fixed points p,
of tangent weights (w1, w2), fixes the points of X^[n] given by one
partition lam_p per fixed point, with sizes summing to n (Ellingsrud-
Stromme; Nakajima's lectures, ch. 5).  Box (i, j) of lam is the monomial
x^i y^j, of weight c = -(i w1 + j w2); the tangent space at the point
has the weights (a + 1) w1 - l w2 and -a w1 + (l + 1) w2 for each box,
its arm a running along x and its leg l along y.  A class of degree
dim X^[n] = 2n integrates to the sum over the fixed points of its
restriction divided by the product of the tangent weights.  The
restriction of G_k(alpha) is sum_p alpha|_p sum_{box of lam_p}
c^k / k!: the Todd class of X cancels the Koszul class of the point.
The point class x restricts to w1 w2 at its own fixed point and to 0
elsewhere.  On P^1 x P^1 the fiber class f1 restricts to w1 at the two
fixed points over the first factor's chosen point and to 0 at the
others, and f2 likewise to w2, so that x = f1 f2.  The weights below are generic enough that no tangent weight
of a fixed point with n <= 4 vanishes.
"""

from fractions import Fraction
from itertools import product
from math import factorial, prod

import pytest

from hilbfock.fock import basis_states
from hilbfock.hilbert import (cup_product, hilb_integral,
                              intersection_number, k_multisets)
from hilbfock.ring import builtin_ring

N_MAX = 4

# Tangent weights at each torus-fixed point, the point class's first:
# P^2 with the torus weights (0, 7, 19) on its coordinates, and P^1 x P^1
# with the weights +-5 and +-13 on its two factors.
FIXED_POINTS = {
    "p2": ((7, 19), (-7, 12), (-19, -12)),
    "p1xp1": ((5, 13), (-5, 13), (5, -13), (-5, -13)),
}

EULER_NUMBERS = {"p2": (3, 9, 22, 51), "p1xp1": (4, 14, 40, 105)}


def partitions(n, most=None):
    """The partitions of n as nonincreasing row lengths."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, most or n), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def boxes(lam):
    """(i, j, arm, leg) of each box x^i y^j of lam: row j has lam[j]
    boxes along x."""
    cols = [sum(1 for r in lam if r > i) for i in range(lam[0])] if lam \
        else []
    return [(i, j, row - i - 1, cols[i] - j - 1)
            for j, row in enumerate(lam) for i in range(row)]


def fixed_points(surface, n):
    """The torus-fixed points of X^[n]: one partition per fixed point of
    X, sizes summing to n."""
    k = len(FIXED_POINTS[surface])
    for sizes in product(range(n + 1), repeat=k):
        if sum(sizes) == n:
            yield from product(*(list(partitions(s)) for s in sizes))


def tangent_euler(surface, xi):
    """The product of the tangent weights of X^[n] at xi."""
    out = 1
    for (w1, w2), lam in zip(FIXED_POINTS[surface], xi):
        for _, _, a, l in boxes(lam):
            out *= ((a + 1) * w1 - l * w2) * (-a * w1 + (l + 1) * w2)
    return out


def restriction(surface, cls, p):
    """x, or on P^1 x P^1 f1 - f2, restricted to the fixed point numbered
    p: f1 is w1 at the fixed points that share the first one's w1 and 0
    elsewhere, f2 likewise with w2, and x = f1 f2.  No other fixed point
    of P^2 shares a weight with the first."""
    (c1, c2), (w1, w2) = FIXED_POINTS[surface][0], FIXED_POINTS[surface][p]
    f1, f2 = (w1 if w1 == c1 else 0), (w2 if w2 == c2 else 0)
    return f1 * f2 if cls == "x" else f1 - f2


def chern_at(surface, xi, cls, k):
    """G_k(cls) restricted to xi."""
    return sum((restriction(surface, cls, p) * Fraction(sum(
        (-(i * w1 + j * w2)) ** k for i, j, _, _ in boxes(lam)),
        factorial(k)) for p, ((w1, w2), lam)
        in enumerate(zip(FIXED_POINTS[surface], xi))), Fraction(0))


def localized(surface, n, restriction):
    """The integral over X^[n] of a class given by its restriction to
    each fixed point."""
    return sum((Fraction(restriction(xi), tangent_euler(surface, xi))
                for xi in fixed_points(surface, n)), Fraction(0))


def test_no_tangent_weight_vanishes():
    for surface, n in product(FIXED_POINTS, range(1, N_MAX + 1)):
        for xi in fixed_points(surface, n):
            assert tangent_euler(surface, xi) != 0, (surface, xi)


@pytest.mark.parametrize("surface", sorted(FIXED_POINTS))
def test_euler_numbers_are_the_fock_block_dimensions(surface):
    """The top Chern class of the tangent bundle integrates to 3, 9, 22,
    51 on (P^2)^[n] and 4, 14, 40, 105 on (P^1 x P^1)^[n], the
    dimensions of the weight-n Fock blocks, while 1 integrates to 0."""
    ring = builtin_ring(surface)
    for n in range(1, N_MAX + 1):
        euler = localized(surface, n, lambda xi: tangent_euler(surface, xi))
        assert euler == EULER_NUMBERS[surface][n - 1], n
        assert euler == len(basis_states(ring, n)), n
        assert localized(surface, n, lambda xi: 1) == 0, n


@pytest.mark.parametrize("surface", sorted(FIXED_POINTS))
def test_products_of_point_characters_match_intersection_numbers(surface):
    """Every degree-matched product of the G_k(x) on X^[n], n <= 4, 14 per
    surface, integrates by localization to intersection_number."""
    ring = builtin_ring(surface)
    cases = [(ks, n) for n in range(1, N_MAX + 1) for ks in k_multisets(n)]
    assert len(cases) == 14
    for ks, n in cases:
        want = localized(surface, n, lambda xi: prod(
            chern_at(surface, xi, "x", k) for k in ks))
        assert intersection_number(ring, ks, n) == want, (ks, n)


def factor_lists(total, most):
    """The multisets of at most most factors (class, k), class x of
    degree k + 2 or f1 - f2 of degree k + 1, of degree total."""
    kinds = [(cls, k) for k in range(total) for cls in ("x", "f1-f2")]
    out = []

    def rec(left, start, acc):
        if not left:
            out.append(tuple(acc))
        elif len(acc) < most:
            for i, (cls, k) in enumerate(kinds[start:], start):
                if k + (2 if cls == "x" else 1) <= left:
                    rec(left - k - (2 if cls == "x" else 1), i,
                        acc + [(cls, k)])

    rec(total, 0, [])
    return out


def test_k_trivial_cup_products_match_localization():
    """On P^1 x P^1 every degree-matched product of at most 4 factors
    G_k(x) and G_k(f1 - f2) on X^[n], n <= 4, 96 of them and 43 nonzero,
    integrates by cup_product and hilb_integral to its localization."""
    ring = builtin_ring("p1xp1")
    elems = {"x": ring.basis("x"),
             "f1-f2": ring.basis("f1") - ring.basis("f2")}
    cases = [(fs, n) for n in range(1, N_MAX + 1)
             for fs in factor_lists(2 * n, 4)]
    assert len(cases) == 96
    nonzero = 0
    for fs, n in cases:
        want = localized("p1xp1", n, lambda xi: prod(
            chern_at("p1xp1", xi, cls, k) for cls, k in fs))
        got = hilb_integral(ring, cup_product(
            ring, [k for _, k in fs], [elems[cls] for cls, _ in fs], n), n)
        assert got == want, (fs, n)
        nonzero += want != 0
    assert nonzero == 43
