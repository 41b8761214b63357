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
elsewhere.  The weights below are generic enough that no tangent weight
of a fixed point with n <= 4 vanishes.
"""

from fractions import Fraction
from itertools import product
from math import factorial, prod

import pytest

from hilbfock.fock import basis_states
from hilbfock.hilbert import intersection_number, k_multisets
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


def chern_at_point_class(surface, xi, k):
    """G_k(x) restricted to xi, x the point class of the first fixed
    point."""
    (w1, w2), lam = FIXED_POINTS[surface][0], xi[0]
    return w1 * w2 * Fraction(sum((-(i * w1 + j * w2)) ** k
                                  for i, j, _, _ in boxes(lam)),
                              factorial(k))


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
            chern_at_point_class(surface, xi, k) for k in ks))
        assert intersection_number(ring, ks, n) == want, (ks, n)
