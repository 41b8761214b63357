"""Hilbert scheme classes, cup products, and intersection numbers."""

from fractions import Fraction as Q
from itertools import product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbfock.fock import combine, fundamental_class, vacuum
from hilbfock.hilbert import (chern_class, chern_class_closed, cup_product,
                              hilb_integral, intersection_number,
                              intersection_number_closed, k_multisets,
                              point_class)
from hilbfock.operators import heisenberg
from hilbfock.partitions import enumerate_ordinary
from hilbfock.ring import SURFACE_NAMES, builtin_ring
from hilbfock.walgebra import chern

P2 = builtin_ring("p2")
PP = builtin_ring("p1xp1")
K3 = builtin_ring("k3")
AB = builtin_ring("abelian")


def degree(state, ring):
    """Cohomological degree of the state on the Hilbert scheme."""
    return sum(2 * (-m - 1) + ring.degrees[i] for m, i in state)


def point_power(ring, n):
    """The state a(-1;[x])^n |0>, the class of n distinct points."""
    vec = vacuum()
    op = heisenberg(ring, -1, point_class(ring))
    for _ in range(n):
        vec = op.act(vec)
    return vec


def test_point_class_is_top_degree():
    assert point_class(P2).render() == "1*x"
    assert point_class(AB).render() == "1*t1234"
    for name in SURFACE_NAMES:
        ring = builtin_ring(name)
        assert point_class(ring).degree() == 4


def test_degree_zero_character_counts_points():
    one = K3.elem({"1": 1})
    for n in (1, 2, 3):
        lhs = chern_class(K3, 0, one, n)
        assert lhs == combine((Q(n), fundamental_class(n))), n


def test_character_class_empty_scheme():
    one = K3.elem({"1": 1})
    for k in (1, 2):
        assert chern_class(K3, k, one, 0) == {}, k
        assert chern_class_closed(K3, k, one, 0) == {}, k


def test_closed_route_matches_operator_route():
    one = K3.elem({"1": 1})
    u1 = K3.elem({"u1": 1})
    for k, elem, n in ((0, one, 2), (1, one, 2), (1, u1, 3), (2, one, 3)):
        a = chern_class(K3, k, elem, n)
        b = chern_class_closed(K3, k, elem, n)
        assert a == b, (k, n)
        assert a, (k, n)


def test_closed_route_odd_class():
    t1 = AB.elem({"t1": 1})
    a = chern_class(AB, 1, t1, 3)
    b = chern_class_closed(AB, 1, t1, 3)
    assert a == b and a


def test_closed_route_rejects_nontrivial_canonical_product():
    with pytest.raises(ValueError):
        chern_class_closed(P2, 1, P2.elem({"H": 1}), 2)


def test_character_class_is_homogeneous():
    """Each class lands in a single cohomological degree 2k + |elem|."""
    cases = ((K3, 1, K3.elem({"u1": 1}), 3, 4),
             (K3, 2, K3.elem({"1": 1}), 3, 4),
             (AB, 1, AB.elem({"t1": 1}), 3, 3))
    for ring, k, elem, n, want in cases:
        vec = chern_class(ring, k, elem, n)
        degs = {degree(s, ring) for s in vec}
        assert degs == {want}, (ring.name, k, n)


def test_point_power_integrates_to_one():
    for n in (1, 2, 3):
        assert hilb_integral(P2, point_power(P2, n), n) == 1, n


def test_fundamental_class_of_positive_degree_integrates_to_zero():
    for n in (2, 3):
        assert hilb_integral(K3, fundamental_class(n), n) == 0, n


def test_cup_product_hyperbolic_pair():
    u1 = K3.elem({"u1": 1})
    u2 = K3.elem({"u2": 1})
    assert K3.integrate(u1 * u2) == 1
    assert K3.integrate(u1 * u1) == 0
    assert hilb_integral(K3, cup_product(K3, (0, 0), [u1, u2], 1), 1) == 1
    assert hilb_integral(K3, cup_product(K3, (0, 0), [u1, u2], 2), 2) == 0


def tautological_classes(ring, n, top, sign, c1=()):
    """The Chern classes c_0..c_top of L^[n] (sign 1), or its Segre
    classes s = c^-1 (sign -1), as vectors, for the line bundle L whose
    first Chern class is the sum of the basis classes named in c1 (L = O
    by default).

    ch_k(L^[n]) is sum_j G_{k-j}(ch_j L) applied to the fundamental class,
    with ch(L) = 1 + c1 + c1^2/2, and c = exp(sum_{k>=1} (-1)^(k-1) (k-1)!
    ch_k); so Newton's identity m c_m = sum_{k=1}^m (-1)^(k-1) k! ch_k
    c_{m-k} builds c from the commuting cup operators G_k, and s the same
    way with the sign of the exponent flipped.
    """
    line = ring.elem(dict.fromkeys(c1, 1))
    ch = [(j, cls) for j, cls in enumerate(
        (ring.unit, line, line * line * Q(1, 2))) if not cls.is_zero()]
    out = [fundamental_class(n)]
    for m in range(1, top + 1):
        out.append(combine(*(
            (Q(sign * (-1) ** (k - 1) * factorial(k), m),
             chern(ring, k - j, cls).act(out[m - k]))
            for k in range(1, m + 1) for j, cls in ch if j <= k)))
    return out


# Marian-Oprea-Pandharipande, Segre classes and Hilbert schemes of
# points (Ann. Sci. ENS 50, 2017): the top Segre integrals of O^[n] for
# n = 1..4, expanded exactly from their closed series (a = 0, b = 6,
# c = 2 for K3 with H = O); every one vanishes on an abelian surface.
SEGRE_TOP = {"k3": (0, 12, -160, 2016), "abelian": (0, 0, 0, 0)}


@pytest.mark.parametrize("name", sorted(SEGRE_TOP))
def test_tautological_chern_and_segre_classes(name):
    """O^[n] has rank n and a nowhere vanishing section, so c_k(O^[n])
    is zero for n <= k <= 2n; the integral of s_2n(O^[n]) over X^[n]
    is the Marian-Oprea-Pandharipande number."""
    ring = builtin_ring(name)
    for n, want in enumerate(SEGRE_TOP[name], start=1):
        c = tautological_classes(ring, n, 2 * n, 1)
        assert c[n - 1], (n, "c_%d" % (n - 1))
        for k in range(n, 2 * n + 1):
            assert c[k] == {}, (n, k)
        s = tautological_classes(ring, n, 2 * n, -1)
        assert hilb_integral(ring, s[2 * n], n) == want, n


def lehn_series(ring, c1, n_max):
    """V_0..V_n_max, with sum_n V_n z^n = exp(sum_{m>=1} ((-1)^(m-1)/m)
    a_{-m}(1 + c1) z^m)|0>: the derivative in z gives n V_n = sum_m
    (-1)^(m-1) a_{-m}(1 + c1) V_{n-m}, since the creators commute."""
    total = ring.unit + ring.elem(dict.fromkeys(c1, 1))
    out = [vacuum()]
    for n in range(1, n_max + 1):
        out.append(combine(*(
            (Q((-1) ** (m - 1), n),
             heisenberg(ring, -m, total).act(out[n - m]))
            for m in range(1, n + 1))))
    return out


@pytest.mark.parametrize("name, c1, n_max", [
    ("k3", (), 3), ("k3", ("u1",), 3), ("k3", ("u1", "u2"), 4),
    ("abelian", (), 3), ("abelian", ("t12",), 3),
    ("abelian", ("t12", "t34"), 4)],
    ids=lambda v: ("+".join(v) or "0") if isinstance(v, tuple) else str(v))
def test_lehn_total_chern_class(name, c1, n_max):
    """Lehn's theorem (Invent. Math. 136 (1999), Thm 4.6): sum_n c(L^[n])
    z^n = exp(sum_{m>=1} ((-1)^(m-1)/m) a_{-m}(c(L)) z^m)|0>, for the line
    bundle L with first Chern class c1.  The left side comes from the
    character operators G_k, the right side from creators alone; c1 =
    u1 + u2 and t12 + t34 have c1^2 = 2 pt, so ch_2(L) enters."""
    ring = builtin_ring(name)
    want = lehn_series(ring, c1, n_max)
    for n in range(1, n_max + 1):
        c = tautological_classes(ring, n, 2 * n, 1, c1)
        assert combine(*((1, ck) for ck in c)) == want[n], n


FROZEN_NUMBERS = (
    ((0,), 1, Q(1)),
    ((2,), 2, Q(-1, 4)),
    ((0, 0), 2, Q(1)),
    ((2, 0), 3, Q(-1, 4)),
    ((4,), 3, Q(1, 36)),
    ((0, 0, 0), 3, Q(1)),
    ((6,), 4, Q(-1, 576)),
    ((0, 0, 2), 4, Q(-1, 4)),
)


def test_intersection_numbers_frozen():
    for ks, n, want in FROZEN_NUMBERS:
        assert intersection_number_closed(ks, n) == want, (ks, n)
        assert intersection_number(K3, ks, n) == want, (ks, n)


def test_intersection_numbers_surface_independent():
    for ks, n, want in (((2,), 2, Q(-1, 4)), ((0, 0), 2, Q(1))):
        for name in SURFACE_NAMES:
            ring = builtin_ring(name)
            assert intersection_number(ring, ks, n) == want, (name, ks, n)


def test_intersection_degree_mismatch_vanishes():
    """Outside the expected total degree both routes give zero."""
    for ks, n in (((1, 1), 2), ((1, 1, 0), 3), ((0,), 2)):
        assert intersection_number_closed(ks, n) == 0, (ks, n)
        assert intersection_number(P2, ks, n) == 0, (ks, n)


def _closed_reference(ks, n):
    """intersection_number_closed as it summed each factor inline."""
    total = Q(0)
    for js in product(*(range(k + 1) for k in ks)):
        if sum(j + 1 for j in js) != n:
            continue
        value = Q(1)
        for k, j in zip(ks, js):
            value *= sum((Q((-1) ** j, mf * factorial(j + 1)) for _, mf, _
                          in enumerate_ordinary(j + 1, k - j + 1)), Q(0))
            if not value:
                break
        total += value
    return total


def test_closed_numbers_equal_the_inline_factor_sums():
    """The closed value equals the inline sum on every degree-matched
    tuple up to 6 points."""
    for n in range(1, 7):
        for ks in k_multisets(n):
            assert intersection_number_closed(ks, n) == _closed_reference(
                ks, n), (ks, n)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=4), min_size=1,
                max_size=3), st.integers(min_value=1, max_value=4),
       st.randoms())
def test_closed_numbers_symmetric_in_factors(ks, n, rng):
    """The closed value does not depend on the factor order."""
    shuffled = list(ks)
    rng.shuffle(shuffled)
    assert (intersection_number_closed(tuple(ks), n)
            == intersection_number_closed(tuple(shuffled), n))
