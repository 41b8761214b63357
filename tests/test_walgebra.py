"""W-generator series: Virasoro, character series, structure polynomial."""

from fractions import Fraction as Q
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbfock.fock import basis_states, combine, vacuum, weight
from hilbfock.operators import (box_keep, commutator_column, heisenberg,
                                instantiate, series_bracket,
                                series_to_smeared)
from hilbfock.ring import builtin_ring, dump_ring, load_ring
from hilbfock.walgebra import (_NAMED_CAP, CENTRAL, apow_families, chern,
                               chern_families, deriv_coeff, fourier,
                               heis_families, jay, jay_families,
                               jay_field_families, omega, perm_sum,
                               shift_families, virasoro, wbracket, wparity,
                               wterm)

P2 = builtin_ring("p2")
K3 = builtin_ring("k3")
AB = builtin_ring("abelian")


def test_virasoro_annihilates_vacuum():
    for n in (-1, 0, 1, 2, 3):
        L = virasoro(P2, n, P2.elem({"1": 1}))
        assert L.act(vacuum()) == {}, n


def test_virasoro_weight_shift():
    v = heisenberg(P2, -2, P2.elem({"1": 1})).act(vacuum())
    moved = virasoro(P2, 1, P2.elem({"1": 1})).act(v)
    assert {weight(s) for s in moved} <= {1}


def test_virasoro_central_value_k3():
    """[L_m(1), L_-m(1)] on the vacuum is 2m L_0 + (m^3-m)/12 integral(e)."""
    one = K3.elem({"1": 1})
    for m in (2, 3):
        lm = virasoro(K3, m, one)
        lmm = virasoro(K3, -m, one)
        got = commutator_column(lm, lmm, ())
        want = combine((Q(m ** 3 - m, 12) * 24, vacuum()))
        assert got == want, m
    # the canonical spot value: 12 at m = 2
    got = commutator_column(virasoro(K3, 2, one), virasoro(K3, -2, one), ())
    assert got == combine((Q(12), vacuum()))


def test_virasoro_bracket_on_plane_states():
    """[L_m, L_n] = (m-n) L_{m+n} away from the central diagonal."""
    one = P2.elem({"1": 1})
    x = P2.elem({"x": 1})
    for m, n in ((1, 2), (-1, 2), (2, -1)):
        for s in basis_states(P2, 2):
            vec = {s: Q(1)}
            got = commutator_column(virasoro(P2, m, one),
                                    virasoro(P2, n, x), s)
            want = combine((Q(m - n), virasoro(P2, m + n, x).act(vec)))
            assert got == want, (m, n, s)


def test_jay_zero_is_minus_heisenberg():
    for n in (-3, -1, 2):
        sm = series_to_smeared(jay_families(0, n), 5, 5)
        assert sm.terms == {((n,), 0, 0): Q(-1)}


def test_jay_one_is_virasoro_series():
    for n in (-2, 0, 1):
        fams = jay_families(1, n)
        sm = series_to_smeared(fams, 5, 5)
        # weight-two partitions with coefficient -1/multiplicity factorial
        for (modes, ep, kp), c in sm.terms.items():
            assert ep == 0 and kp == 0
            assert len(modes) == 2
            assert sum(modes) == n
            mult = 2 if modes[0] == modes[1] else 1
            assert c == Q(-1, mult)


def test_jay_weight_zero_is_scaled_character():
    """J^p_0 = p! G_{p-1} as smeared series."""
    from math import factorial
    for p in (1, 2, 3):
        jp = series_to_smeared(jay_families(p, 0), 4, 4)
        gk = series_to_smeared(chern_families(p - 1), 4, 4)
        assert jp.terms == gk.scaled(Q(factorial(p))).terms, p


def test_jay_creation_identification():
    """J^p_{-1} = -(iterated derivative of a_{-1}) as smeared series."""
    from math import factorial
    for p in (1, 2, 3):
        jp = series_to_smeared(jay_families(p, -1), 5, 5)
        ap = series_to_smeared(apow_families(-1, p), 5, 5)
        assert jp.terms == ap.scaled(Q(-1)).terms, p


def test_apow_main_coefficients():
    """The k-th derivative of a_n expands over length k+1 partitions of
    size n with coefficient (-n)^k k! / multiplicity factorial."""
    from math import factorial
    for n, k in ((-1, 1), (-1, 2), (2, 1), (-2, 2)):
        lead = Q((-n) ** k * factorial(k))
        sm = series_to_smeared(apow_families(n, k), 6, 6)
        plain = {key: c for key, c in sm.terms.items() if key[1] == 0}
        assert plain, (n, k)
        for (modes, ep, kp), c in plain.items():
            assert len(modes) == k + 1 and sum(modes) == n
            mult = 1
            for v in set(modes):
                mult *= factorial(modes.count(v))
            assert c == lead / mult, (n, k, modes)


def test_chern_annihilates_vacuum_and_point_count():
    x = P2.elem({"x": 1})
    for k in (1, 2):
        G = chern(P2, k, x)
        assert G.act(vacuum()) == {}, k
    # with the unit smearing the degree-zero component counts points;
    # the unit is only admissible where the canonical class vanishes
    G0 = chern(K3, 0, K3.elem({"1": 1}))
    for w in (1, 2, 3):
        for s in basis_states(K3, w)[:6]:
            vec = {s: Q(1)}
            assert G0.act(vec) == combine((Q(w), vec)), (w, s)


def test_chern_gate_requires_canonical_trivial():
    with pytest.raises(ValueError):
        chern(P2, 1, P2.elem({"H": 1}))
    # K3 has trivial canonical class, so every class is allowed
    chern(K3, 1, K3.elem({"u1": 1}))


def test_jay_is_ungated():
    op = jay(P2, 2, 1, P2.elem({"H": 1}))
    assert op is not None


# -- the memo of named series ------------------------------------------------


def _own_ring(name):
    """A copy of a built-in ring with a memo of its own."""
    return load_ring(dump_ring(builtin_ring(name)))


def test_named_series_repeat_is_the_same_object():
    ring = _own_ring("k3")
    one, u1 = ring.basis("1"), ring.basis("u1")
    builds = [lambda: chern(ring, 2, one), lambda: jay(ring, 2, -1, u1),
              lambda: virasoro(ring, 1, one)]
    for build in builds:
        assert build() is build()
    # the key is the class's coefficients, not the element object
    assert chern(ring, 2, ring.elem({"1": 1})) is chern(ring, 2, one)


def test_named_series_differ_by_name_index_and_class():
    ring = _own_ring("k3")
    one, u1 = ring.basis("1"), ring.basis("u1")
    ops = [chern(ring, 1, one), chern(ring, 2, one), chern(ring, 1, u1),
           chern(ring, 1, one * 2), jay(ring, 2, 1, one),
           jay(ring, 3, 1, one), jay(ring, 2, -1, one),
           jay(ring, 2, 1, u1), virasoro(ring, 1, one),
           virasoro(ring, -1, one), virasoro(ring, 1, u1)]
    assert len({id(op) for op in ops}) == len(ops)
    # J^1_1 and L_1 are the same series under two names
    assert jay(ring, 1, 1, one) is not virasoro(ring, 1, one)


def test_named_memo_is_bounded():
    ring = _own_ring("p2")
    x = ring.basis("x")
    states = [s for w in range(3) for s in basis_states(ring, w)]
    first = virasoro(ring, 1, x)
    cols = [first.column(s) for s in states]
    assert any(cols)
    for n in range(2, _NAMED_CAP + 8):
        virasoro(ring, n, x)
    assert len(ring._cache["named"]) == _NAMED_CAP
    again = virasoro(ring, 1, x)
    assert again is not first
    assert [again.column(s) for s in states] == cols
    # a hit moves its entry to the recent end, away from eviction
    kept = virasoro(ring, 10, x)
    for n in range(_NAMED_CAP + 8, 2 * _NAMED_CAP + 6):
        virasoro(ring, n, x)
        assert virasoro(ring, 10, x) is kept
    assert len(ring._cache["named"]) == _NAMED_CAP


def test_failed_named_build_stores_nothing():
    ring = _own_ring("p2")
    with pytest.raises(ValueError, match="K \\* class"):
        chern(ring, 1, ring.basis("H"))
    with pytest.raises(ValueError, match="negative W-algebra weight"):
        jay(ring, -1, 1, ring.basis("x"))
    with pytest.raises(ValueError, match="negative Chern"):
        chern(ring, -1, ring.basis("x"))
    assert not ring._cache.get("named")


def test_omega_frozen_spots():
    assert omega(2, 1, 1, 1) == 6
    assert omega(0, 0, 5, -3) == 0
    assert omega(1, 1, 2, -2) == 0
    assert omega(1, 3, -3, -3) == 792
    assert omega(2, 2, 1, -2) == 48


def test_omega_refuses_negative_weights():
    for p, q in ((-1, 0), (0, -1), (-2, -2)):
        with pytest.raises(ValueError, match="W-weights"):
            omega(p, q, 1, 1)


def test_omega_vanishes_on_exceptional_cells():
    for m in range(-4, 5):
        for n in range(-4, 5):
            assert omega(1, 0, m, n) == 0
            assert omega(0, 1, m, n) == 0
            assert omega(1, 1, m, n) == 0
            assert omega(2, 0, m, n) == 0
            assert omega(0, 2, m, n) == 0
            assert omega(0, 0, m, n) == 0


int_small = st.integers(min_value=-5, max_value=5)
nat_small = st.integers(min_value=0, max_value=5)


@given(nat_small, nat_small, int_small, int_small)
@settings(max_examples=300)
def test_omega_antisymmetry(p, q, m, n):
    assert omega(p, q, m, n) == -omega(q, p, n, m)


def test_fourier_square_is_twice_virasoro():
    """The mode-m component of the normally ordered field square is
    -2 L_m as a smeared series."""
    from hilbfock.walgebra import fourier_families
    for m in (-2, 0, 1, 3):
        sq = series_to_smeared(fourier_families((0, 0), m), 5, 5)
        vir_sm = series_to_smeared(jay_families(1, m), 5, 5).scaled(Q(-2))
        assert sq.terms == vir_sm.terms, m


def test_jay_via_fields_matches_partition_route():
    for p, m in ((1, -2), (2, 1), (3, 0), (2, -3)):
        lhs = series_to_smeared(jay_field_families(p, m), 4, 5)
        rhs = series_to_smeared(jay_families(p, m), 4, 5)
        assert lhs.terms == rhs.terms, (p, m)


def test_shift_families_weights():
    """The d-shifted families stay supported on length k+1 and k-1."""
    for k, n, d in ((2, 1, -1), (2, 1, 2), (3, 0, -1)):
        fams = shift_families(k, n, d)
        lens = {f.ell for f in fams}
        assert lens <= {k + 1, k - 1}


def test_wterm_canonical_keying():
    t1 = AB.elem({"t1": 1})
    t234 = AB.elem({"t234": 1})
    ab = t1 * t234
    ba = t234 * t1
    assert ba == -ab
    # same basis direction keyed identically with opposite coefficients
    assert wterm(2, 1, ab) == {k: -v for k, v in wterm(2, 1, ba).items()}
    assert set(wterm(2, 1, ab)) == {("L", 2, 1, AB.index["t1234"])}
    # linear in the class: one key per basis index, none for zero
    mixed = AB.elem({"t1": 2, "t12": Q(1, 3)})
    assert wterm(1, 0, mixed, Q(3)) == {
        ("L", 1, 0, AB.index["t1"]): 6, ("L", 1, 0, AB.index["t12"]): 1}
    assert wterm(1, 0, AB.elem({})) == {}
    assert wterm(1, 0, t1, 0) == {}
    with pytest.raises(ValueError, match="mixed-parity"):
        wparity(AB, wterm(1, 0, mixed))


def test_wbracket_antisymmetry_including_odd():
    """[x, y] = -(-1)^{|x||y|} [y, x]; odd-odd pairs are symmetric."""
    cases = [(wterm(1, 2, AB.elem({"t1": 1})),
              wterm(2, -1, AB.elem({"t234": 1}))),
             (wterm(1, 1, AB.elem({"t12": 1})),
              wterm(2, -2, AB.elem({"t34": 1}))),
             (wterm(2, 0, AB.elem({"t2": 1})),
              wterm(1, 1, AB.elem({"t34": 1})))]
    for x, y in cases:
        sign = Q(1) if (wparity(AB, x) and wparity(AB, y)) else Q(-1)
        lhs = wbracket(AB, x, y)
        rhs = {k: sign * v for k, v in wbracket(AB, y, x).items() if v}
        lhs = {k: v for k, v in lhs.items() if v}
        assert lhs == rhs


def test_wbracket_linear_term_matches_structure_constants():
    u12 = AB.elem({"t12": 1})
    u34 = AB.elem({"t34": 1})
    x = wterm(1, 2, u12)
    y = wterm(1, -1, u34)
    got = {k: v for k, v in wbracket(AB, x, y).items() if v}
    want = wterm(1, 1, u12 * u34, Q(1 * 2 - 1 * (-1)))
    assert got == want
    assert CENTRAL not in got


def test_wbracket_of_int_inputs_has_int_values():
    """Over the built-in rings, whose products and traces are integral,
    brackets of int-coefficient elements, central terms and brackets of
    brackets included, have int values, not Fractions."""
    for ring in (P2, AB):
        xs = [wterm(p, m, ring.basis(i), c) for p in range(3)
              for m in (-1, 0, 1) for i in range(ring.dim) for c in (1, -2)]
        pairs = [wbracket(ring, x, y) for x in xs[::6] for y in xs]
        nested = [wbracket(ring, x, b) for x in xs[::9] for b in pairs[::11]]
        values = [v for out in pairs + nested for v in out.values()]
        assert any(CENTRAL in out for out in pairs), ring.name
        assert nested and any(nested), ring.name
        assert all(type(v) is int for v in values), ring.name


def test_wbracket_central_term_is_heisenberg_scalar():
    """The central term of [t^m D^0 (x) b_i, t^-m D^0 (x) b_j] is the
    scalar [a_m(b_i), a_-m(b_j)] leaves on the vacuum (trace = -integral),
    for every pair of basis classes, odd ones included."""
    for ring in (P2, AB):
        for m in (1, 2, 3):
            for i in range(ring.dim):
                for j in range(ring.dim):
                    got = wbracket(ring, {("L", 0, m, i): 1},
                                   {("L", 0, -m, j): 1}).get(CENTRAL, 0)
                    act = commutator_column(
                        heisenberg(ring, m, ring.basis(i)),
                        heisenberg(ring, -m, ring.basis(j)), ())
                    assert set(act) <= {()}
                    assert got == act.get((), 0), (ring.name, m, i, j)

def test_heis_families_single_term():
    (fam,) = heis_families(-2)
    assert fam.ell == 1 and fam.total == -2
    sm = series_to_smeared([fam], 4, 4)
    assert sm.terms == {((-2,), 0, 0): Q(1)}


def _perm_sum_oracle(parts, orders):
    """The defining sum over distinct orderings, by brute force."""
    total = 0
    for seq in set(permutations(parts)):
        term = 1
        for r, i in zip(orders, seq):
            for s in range(1, r + 1):
                term *= -i - s
        total += term
    return total


# The derived-slot shapes that lem53 and lem61 use, and one with d = 4
# derived slots (15 set partitions), padded with zeros.
_ORDER_SHAPES = ((), (2,), (1, 1), (1, 2), (3,), (1, 1, 1), (1, 2, 1, 3))
_PERM_PARTS = ((1,), (-2,), (-1, 1), (2, 2), (-3, -1, 2), (-1, -1, -1),
               (-2, -2, 1, 1), (1, 1, 1, 1), (-1, 1, 1, 3, 3),
               (-3, -1, 2, 2, 2, 4), (-2, -2, -2, 1, 1, 5))
# Parts repeated three times or more, tried at every derived placement.
_REPEATED_PARTS = ((-1, 2, 2, 2, 2), (-4, -4, 3, 3, 3), (1, 1, 1, 1, 1))


def test_perm_sum_matches_brute_force():
    """perm_sum, a sum over set partitions of the derived slots, equals
    the sum over every distinct ordering of the parts, for each order
    shape and placement of the derived slots."""
    for parts in _PERM_PARTS + _REPEATED_PARTS:
        for shape in _ORDER_SHAPES:
            if len(shape) > len(parts):
                continue
            orders = shape + (0,) * (len(parts) - len(shape))
            want = _perm_sum_oracle(parts, orders)
            placements = (set(permutations(orders))
                          if parts in _REPEATED_PARTS
                          else (orders, orders[::-1]))
            for placed in placements:
                got = perm_sum(parts, placed)
                assert type(got) is int and got == want, (parts, placed)


def test_deriv_coeff_is_an_int():
    assert deriv_coeff(0, 3) == 1
    assert deriv_coeff(2, -1) == 0
    got = deriv_coeff(3, 2)
    assert type(got) is int and got == (-3) * (-4) * (-5)


def _stats(modes):
    mf = 1
    for v in set(modes):
        mf *= factorial(modes.count(v))
    return mf, sum(v * v for v in modes)


def test_family_coefficients_match_rational_formulas():
    """num / den of every family equals its documented coefficient,
    computed here with Fractions from the partition statistics."""
    cases = [
        (jay_families(3, -1), lambda mf, ws, e:
         Q(factorial(3) * (ws + 1 - 2), 24 * mf) if e else Q(-6, mf)),
        (chern_families(2), lambda mf, ws, e:
         Q(ws - 2, 24 * mf) if e else Q(-1, mf)),
        (apow_families(-2, 3), lambda mf, ws, e:
         -Q(48) * (ws - 1) / (24 * mf) if e else Q(48, mf)),
        (shift_families(3, 1, 5), lambda mf, ws, e:
         Q(-(ws + 5), 24 * mf) if e else Q(1, mf)),
        (heis_families(-3), lambda mf, ws, e: Q(1)),
    ]
    for fams, coeff in cases:
        sm = series_to_smeared(fams, 5, 5)
        assert sm.terms
        for (modes, ep, kp), c in sm.terms.items():
            assert c == coeff(*_stats(modes), ep), (modes, ep)
    # the field route: -perm_sum / (p + 1) plus the two Euler families
    p, m = 3, -1
    sm = series_to_smeared(jay_field_families(p, m), 5, 5)
    for (modes, ep, kp), c in sm.terms.items():
        if not ep:
            want = Q(-perm_sum(modes, (0,) * (p + 1)), p + 1)
        else:
            want = (Q(p * (m * m - 3 * m - 2 * p), 24)
                    * perm_sum(modes, (0,) * (p - 1))
                    + Q(p * (p - 1), 24) * perm_sum(modes, (2, 0)))
        assert c == want, (modes, ep)
