"""Operator layer: transfer operators, smeared series, bracket engines."""

import gc
from fractions import Fraction as Q
from functools import cache
from itertools import product
from math import factorial, lcm

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from hilbfock import operators, walgebra
from hilbfock.fock import basis_states, canonical_factors, combine, vacuum
from hilbfock.operators import (Linear, OperatorSum, SmearedOp, arrangement,
                                combined, commutator_column, decode,
                                derivation, derivative, encode,
                                euler_shifted, heisenberg, instantiate,
                                monomial, normalize_arrangement,
                                quadratic_sum, s_bracket, s_derive,
                                series_bracket, series_to_smeared)
from hilbfock.ring import SURFACE_NAMES, builtin_ring
from hilbfock.walgebra import chern
from hilbfock.verify import _euler_families, _sound_pos
from hilbfock.walgebra import (apow_families, chern_families,
                               fourier_families, heis_families,
                               jay_families, jay_field_families,
                               scaled_families, shift_families)

P2 = builtin_ring("p2")
AB = builtin_ring("abelian")
K3 = builtin_ring("k3")


def st_vec(ring, *factors):
    vec = vacuum()
    for n, spec in reversed(factors):
        vec = heisenberg(ring, n, ring.elem(spec)).act(vec)
    return vec


def column(ring, src, state):
    """The column of a column source at a basis state, as a {state:
    coeff} dict."""
    return ring.vector(src.column(ring.state_id(state)))


def bracket(f, g, vec):
    """[f, g] applied to a vector, column by column."""
    ring = f.ring
    return ring.vector(combine(*((c, commutator_column(f, g,
                                                       ring.state_id(s)))
                                 for s, c in vec.items())))


def by_code(terms):
    """The SmearedOp of {(modes, e, K): rational coeff}, keyed by packed
    code over the lcm of the coefficients' denominators."""
    den = lcm(*[Q(c).denominator for c in terms.values()])
    return SmearedOp({encode(*key): int(c * den)
                      for key, c in terms.items()}, den)


def decoded(nums):
    """The nonzero numerators of a packed-code dict, keyed by (modes, e,
    K)."""
    return {decode(k): n for k, n in nums.items() if n}


def totals(modes):
    """(pos, neg): the sum of the positive modes and the size of the sum
    of the negative ones, which keep predicates read."""
    pos = sum(m for m in modes if m > 0)
    return pos, pos - sum(modes)


def diamond(radius):
    """Keep a term whose parts' sizes sum to at most radius."""
    return lambda pos, neg: pos + neg <= radius


def box_keep(poscap, negcap):
    """Keep a term whose positive parts sum to at most poscap and whose
    negative parts to at most negcap in size."""
    return lambda pos, neg: pos <= poscap and neg <= negcap


def cut(sm, keep):
    """The terms of a smeared list that keep(pos, neg) keeps, read from
    each decoded key."""
    return SmearedOp({k: c for k, c in sm.terms.items()
                      if keep(*totals(decode(k)[0]))}, sm.den)


def test_heisenberg_relation_on_states():
    """[a_m(a), a_n(b)] = -m delta (integral ab) id on sample states.

    Both sides are exact and compared with plain equality.
    """
    samples = [vacuum(),
               st_vec(P2, (-1, {"H": 1})),
               st_vec(P2, (-2, {"1": 1}), (-1, {"x": 1}))]
    for m in (-2, -1, 1, 2):
        for n in (-2, -1, 1, 2):
            f = heisenberg(P2, m, P2.elem({"H": 1}))
            g = heisenberg(P2, n, P2.elem({"H": 1}))
            central = Q(-m) if m == -n else Q(0)
            for v in samples:
                got = bracket(f, g, v)
                want = combine((central * P2.integrate(
                    P2.elem({"H": 1}) * P2.elem({"H": 1})), v))
                assert got == want, (m, n)


def test_creators_supercommute_on_abelian_states():
    """[a(m;i), a(n;j)] = 0 for m, n in {-2, -1}, all 16 x 16 classes, on
    every abelian state of weight at most 2.  Two odd creators
    anticommute through the Koszul sign of create_state, which heis
    counts by its mode rule without computing."""
    states = [s for w in range(3) for s in basis_states(AB, w)]
    ops = [heisenberg(AB, m, AB.basis(i))
           for m in (-2, -1) for i in range(AB.dim)]
    assert AB.dim == 16 and any(AB.parity)
    for f, g in product(ops, repeat=2):
        for s in states:
            assert commutator_column(f, g, AB.state_id(s)) == {}, s


def test_heisenberg_odd_anticommutator():
    """Odd-class transfer operators anticommute up to the central term."""
    t1 = AB.elem({"t1": 1})
    t234 = AB.elem({"t234": 1})
    f = heisenberg(AB, 1, t1)
    g = heisenberg(AB, -1, t234)
    v = st_vec(AB, (-1, {"t2": 1}))
    anti = combine((1, f.act(g.act(v))), (1, g.act(f.act(v))))
    # {a_1(t1), a_-1(t234)} = -integral(t1 t234) id = -1
    assert anti == combine((Q(-1) * AB.integrate(t1 * t234), v))


def test_monomial_orders_factors():
    op = monomial(P2, (-2, 1), P2.elem({"x": 1}))
    v = st_vec(P2, (-1, {"x": 1}))
    direct = heisenberg(P2, -2, P2.elem({"x": 1})).act(
        heisenberg(P2, 1, P2.elem({"x": 1})).act(v))
    assert op.act(v) == direct


def test_quadratic_sum_annihilates_vacuum():
    for n in (0, 1, 2):
        L = quadratic_sum(P2, n, P2.elem({"1": 1}))
        assert L.act(vacuum()) == {}


def test_derivation_frozen_plane_value():
    """d(a_-2(1)|0>) = -3 a_-2(H)|0> + 2 a_-1(1)a_-1(x)|0> + a_-1(H)^2|0>."""
    v = st_vec(P2, (-2, {"1": 1}))
    got = derivation(P2).act(v)
    want = combine((1, st_vec(P2, (-2, {"H": -3}))),
                   (Q(2), st_vec(P2, (-1, {"1": 1}), (-1, {"x": 1}))),
                   (1, st_vec(P2, (-1, {"H": 1}), (-1, {"H": 1}))))
    assert got == want


def derivative_of(op, vec):
    """[d, op] applied to vec, column by column of derivative(op, 1)."""
    return combine(*((c, column(op.ring, derivative(op, 1), s))
                     for s, c in vec.items()))


def test_derivation_vacuum_and_weight_one():
    assert derivation(P2).act(vacuum()) == {}
    # a_-1 states are exact point configurations; d acts by K only
    v = st_vec(P2, (-1, {"1": 1}))
    assert derivation(P2).act(v) == {}


# -- the derivation against the replacement rule ---------------------------


@cache
def _replacement(name, mode, i):
    """[d, a(mode; b_i)] = mode L(mode; b_i) - (mode(|mode|-1)/2)
    a(mode; K b_i) on the built-in ring name, by columns."""
    ring = builtin_ring(name)
    b = ring.basis(i)
    return Linear((mode, quadratic_sum(ring, mode, b)),
                  (Q(-mode * (abs(mode) - 1), 2),
                   heisenberg(ring, mode, ring.K * b)))


def ref_derive(ring, terms):
    """d applied to a {state: coeff} dict by the replacement rule, factor
    by factor: d|0> = 0 and d is even, so d(a_1 ... a_k|0>) is the sum
    over t of a_1 ... a_{t-1} [d, a_t] a_{t+1} ... a_k|0>."""
    out = {}
    for state, c in terms.items():
        for t, (mode, i) in enumerate(state):
            rep = column(ring, _replacement(ring.name, mode, i),
                         state[t + 1:])
            for s2, c2 in rep.items():
                s3, sign = canonical_factors(state[:t] + s2, ring.parity)
                if s3 is not None:
                    out[s3] = out.get(s3, 0) + sign * c * c2
    return {s: c for s, c in out.items() if c}


def ref_iter_deriv(op, k, terms):
    """D^k(op) applied to a dict by the recursion
    D^k(op) t = d(D^{k-1}(op) t) - D^{k-1}(op)(d t)."""
    if k == 0:
        return op.act(terms)
    ring = op.ring
    return combine((1, ref_derive(ring, ref_iter_deriv(op, k - 1, terms))),
                   (-1, ref_iter_deriv(op, k - 1, ref_derive(ring, terms))))


# The weights up to which the derivation meets the replacement rule.
DERIVE_WEIGHT = {"p2": 4, "p1xp1": 4, "k3": 3, "abelian": 3}


def derivation_mismatches(ring):
    """The states of weight at most DERIVE_WEIGHT where derivation(ring)
    differs from the replacement rule."""
    d = derivation(ring)
    return [s for w in range(DERIVE_WEIGHT[ring.name] + 1)
            for s in basis_states(ring, w)
            if column(ring, d, s) != ref_derive(ring, {s: 1})]


@pytest.mark.parametrize("name", SURFACE_NAMES)
def test_derivation_matches_the_replacement_rule(name):
    assert derivation_mismatches(builtin_ring(name)) == []


@pytest.mark.parametrize("name", ("k3", "abelian"))
def test_derivation_is_g1_of_the_unit(name):
    """On a surface with K = 0, d = G_1(1_X), column by column."""
    ring = builtin_ring(name)
    d, g1 = derivation(ring), chern(ring, 1, ring.unit)
    for s in [s for w in range(3) for s in basis_states(ring, w)]:
        assert column(ring, d, s) == column(ring, g1, s), s


@pytest.mark.parametrize("name", ("p2", "p1xp1"))
def test_derivation_without_its_k_term_breaks_the_rule(name, monkeypatch):
    """The replacement-rule check sees d's K-term: without its
    a_{-n} a_n(tau_2 K) items d differs from the rule where K != 0."""
    ring = builtin_ring(name)
    items = operators._derivation_items
    monkeypatch.setattr(operators, "_derivation_items", lambda r, w: [
        it for it in items(r, w) if len(it[0]) == 3])
    ring._cache.pop("derivation", None)
    try:
        assert derivation_mismatches(ring)
    finally:
        ring._cache.pop("derivation", None)


@pytest.mark.parametrize("name", ("p2", "abelian"))
def test_nested_derivatives_match_the_recursion(name):
    """derivative(a_{-1}(b), k), k nested brackets with d, against the
    recursion D^k s = d(D^{k-1} s) - D^{k-1}(d s) on every state of
    weight at most 2, odd classes included on the abelian surface."""
    ring = builtin_ring(name)
    states = [s for w in range(3) for s in basis_states(ring, w)]
    for cb in ring.basis_names[:3]:
        op = heisenberg(ring, -1, ring.basis(cb))
        for k in range(4):
            dk = derivative(op, k)
            for s in states:
                assert column(ring, dk, s) == ref_iter_deriv(
                    op, k, {s: 1}), (cb, k, s)


def test_replacement_rule_of_derivative():
    """a_n'(a) = n L_n(a) - n(|n|-1)/2 a_n(K a) as an action identity."""
    for n in (-2, -1, 1, 2):
        a = P2.elem({"H": 1})
        op = heisenberg(P2, n, a)
        L = quadratic_sum(P2, n, a)
        K_term = heisenberg(P2, n, P2.K * a)
        coef = Q(n * (abs(n) - 1), 2)
        for v in basis_states(P2, 2):
            vec = {v: Q(1)}
            got = derivative_of(op, vec)
            want = combine((Q(n), L.act(vec)), (-coef, K_term.act(vec)))
            assert got == want, n


def test_normalize_arrangement_corrections():
    assert normalize_arrangement((1, -1)) == [((-1, 1), 0, 1), ((), 1, -1)]
    assert normalize_arrangement((-1, 1)) == [((-1, 1), 0, 1)]
    got = normalize_arrangement((2, 1, -1))
    assert ((-1, 1, 2), 0, 1) in got
    assert ((2,), 1, -1) in got
    assert len(got) == 2
    # two separate inverted pairs give two corrections
    got = normalize_arrangement((2, 1, -1, -2))
    pairs = [(ms, im) for ms, ee, im in got if ee == 1]
    assert ((1, -1), -2) in [(p[0], p[1]) for p in pairs] or \
        ((-1, 1), -2) in pairs
    assert ((-2, 2), -1) in pairs


def test_s_bracket_matches_commutator_action():
    """The single-contraction bracket agrees with operator commutators.

    Inputs are diagonally smeared with classes a and b; the transfer
    property makes the bracket the same arrangement list smeared with
    the cup product ab.
    """
    x = P2.elem({"x": 1})
    one = P2.elem({"1": 1})
    arrs = [((-2, 1), (-1, 2)), ((1, 1), (-1, -1)), ((-1, 2), (-2, -1, 1))]
    for modes_a, modes_b in arrs:
        a = SmearedOp({encode(modes_a): 1})
        b = SmearedOp({encode(modes_b): 1})
        br = s_bracket(a, b)
        op_a = instantiate(a, P2, x)
        op_b = instantiate(b, P2, one)
        op_br = instantiate(br, P2, x * one)
        for s in basis_states(P2, 2):
            vec = {s: Q(1)}
            got = bracket(op_a, op_b, vec)
            assert got == op_br.act(vec), (modes_a, modes_b)


def test_s_derive_matches_recursive_derivative():
    """Also with classes c where K*c != 0 on the plane, so that the
    K-smeared terms -v(|v|-1)/2 count."""
    N = 5
    for cls in ("x", "H", "1"):
        x = P2.elem({cls: 1})
        for modes in ((-2, 1), (-1, -1, 2), (-3,)):
            a = SmearedOp({encode(modes): 1})
            r = sum(map(abs, modes)) + 2
            der = cut(s_derive(a, r, r, N, N), diamond(r))
            op = instantiate(a, P2, x)
            op_der = instantiate(der, P2, x)
            for s in basis_states(P2, 1):
                vec = {s: Q(1)}
                got = derivative_of(op, vec)
                assert got == op_der.act(vec), (cls, modes)


def ref_s_derive(a, keep, poscap, negcap, include_k=True):
    """The replacement rule by generic splitting, as a test-only
    reference: each split's arrangement goes through
    normalize_arrangement, and Fractions accumulate, on decoded keys."""
    out = {}
    for (modes, e0, k0), c in a.sorted_items():
        if include_k:
            ks = -sum(Q(v * (abs(v) - 1), 2) for v in modes)
            if ks and keep(*totals(modes)):
                key = (modes, e0, k0 + 1)
                out[key] = out.get(key, 0) + ks * c
        for j, v in enumerate(modes):
            for m1 in range(-negcap, poscap + 1):
                m2 = v - m1
                if m1 == 0 or m2 == 0 or not -negcap <= m2 <= poscap:
                    continue
                # both orders (m1, m2) and (m2, m1), each with weight -v/2
                arr = modes[:j] + (m1, m2) + modes[j + 1:]
                for ms, ee, im in normalize_arrangement(arr):
                    if e0 + ee <= 1 and keep(*totals(ms)):
                        key = (ms, e0 + ee, k0)
                        out[key] = out.get(key, 0) + Q(-v, 2) * c * im
    return by_code(out)


# Smeared lists whose parts repeat with mixed signs, so that one u meets
# several -u after a split: (1, 1, 3) splits 3 into (-1, 4) behind two
# 1s, (-3, -1, -1) splits -3 into (-4, 1) before two -1s.
DERIVE_INPUTS = (
    by_code({((1, 1, 3), 0, 0): Q(1), ((-3, -1, -1), 0, 0): Q(-2, 3)}),
    by_code({((-2, -1, -1, 1, 1, 2), 0, 0): Q(1, 3),
             ((-3, -1, 1, 1, 3), 0, 1): Q(-5, 2),
             ((-2, -2, 1, 3), 1, 0): Q(7),
             ((-1, -1, 2, 2), 1, 1): Q(2, 5)}),
    by_code({((-3, 1, 1, 1), 0, 0): Q(1, 4), ((-1, -1, -1, 3), 0, 1): 3,
             ((-2, 2, 2), 1, 0): Q(-1, 6), ((2, 2, 2), 0, 0): 1}),
)


@pytest.mark.parametrize("case", range(len(DERIVE_INPUTS)))
def test_s_derive_matches_generic_splitting(case):
    """s_derive, which finds each split's Euler corrections directly and
    counts repeated partners, equals the generic splitting through
    normalize_arrangement: with Euler and K powers 0 and 1, with and
    without the K-term, on box windows, and on diamond windows cut from
    the box that holds them."""
    a = DERIVE_INPUTS[case]
    windows = [(box_keep(p, n), p, n) for p, n in ((6, 6), (9, 4), (4, 9),
                                                   (3, 3))]
    windows += [(diamond(r), r, r) for r in (8, 12)]
    for keep, pos, neg in windows:
        for include_k in (True, False):
            got = cut(s_derive(a, pos, neg, pos, neg, include_k), keep)
            want = ref_s_derive(a, keep, pos, neg, include_k)
            assert got == want, (case, pos, neg, include_k)
            assert ([(k, type(c)) for k, c in got.sorted_items()]
                    == [(k, type(c)) for k, c in want.sorted_items()])


# Family pairs with their own num/den, including mixed denominators and
# Euler families, for the bracket agreement and exact-scalar tests.
FAMILY_PAIRS = {
    "jay": (jay_families(2, -2), jay_families(2, -1)),
    "chern-heis": (chern_families(1), heis_families(2)),
    "chern-jay": (chern_families(2), jay_families(1, -1)),
    "apow-jay": (apow_families(-1, 2), jay_families(2, 1)),
    "shift": (shift_families(2, 1, -1), shift_families(1, -1, 2)),
    "fourier": (fourier_families((1, 0), 1),
                fourier_families((2, 0, 0), -1)),
    "fourier-derived": (fourier_families((1, 2), -1),
                        fourier_families((0, 3, 0), 0)),
    "jay-field": (jay_field_families(2, 1), jay_field_families(3, -1)),
    "euler-jay": (scaled_families(_euler_families(2, 1), 5),
                  jay_families(2, -1)),
}


# Cells with their boxes whose Euler events shed a value w that the
# in-box survivors already hold, on the right family (1, 3, -3, -3) and
# on the left (2, 1, -3, 2): the swap kernel's update mult! * (count + 1)
# meets a count above zero.  The cells above already reach the contracted
# value's update.
REPEAT_CELLS = (((1, 3, -3, -3), (2, 8)), ((2, 1, -3, 2), (2, 5)))


def test_series_bracket_agrees_with_literal_bracket():
    """Windowed family bracket vs the explicit materialized route."""
    pad = 14
    cells = [(cell, box) for cell in ((1, 1, 2, -2), (1, 2, -1, 2),
                                      (2, 2, -2, -1))
             for box in ((3, 6), (2, 5))] + list(REPEAT_CELLS)
    for (p, qq, m, n), (pos, neg) in cells:
        keep = box_keep(pos, neg)
        fast = series_bracket(jay_families(p, m), jay_families(qq, n),
                              pos, neg)
        A = series_to_smeared(jay_families(p, m), pad, pad)
        B = series_to_smeared(jay_families(qq, n), pad, pad)
        slow = cut(s_bracket(A, B), keep)
        assert cut(fast, keep) == slow, (p, qq, m, n, pos, neg)
    for (p, qq, m, n), (pos, neg) in REPEAT_CELLS:
        fast = series_bracket(jay_families(p, m), jay_families(qq, n),
                              pos, neg)
        assert any(modes and ep for modes, ep, _ in map(decode, fast.terms)
                   ), (p, qq)
    for name, (fa, fb) in FAMILY_PAIRS.items():
        A = series_to_smeared(fa, pad, pad)
        B = series_to_smeared(fb, pad, pad)
        for pos, neg in ((3, 6), (5, 4)):
            fast = series_bracket(fa, fb, pos, neg)
            slow = cut(s_bracket(A, B), box_keep(pos, neg))
            assert fast.terms and fast == slow, (name, pos, neg)


# Cells (p, q, m, n) with p + q <= 4 and |m|, |n| <= 2, on window 6.
WINDOW_CELLS = [(p, q, m, n) for p in range(5) for q in range(5 - p)
                for m, n in product(range(-2, 3), repeat=2)]


def _window_brackets(order):
    """{(cell, N): series_bracket of the cell on (_sound_pos(N), N)} for
    each window N in order, from cleared family tables and partition
    lists, so that each window after the first reads the tables the
    earlier ones built."""
    walgebra.jay_families.cache_clear()
    operators._stats_list.cache_clear()
    return {((p, q, m, n), N): series_bracket(
        jay_families(p, m), jay_families(q, n), _sound_pos(N, m, n), N)
        for N in order for p, q, m, n in WINDOW_CELLS}


def _unstable_cells(brackets, N):
    """The cells whose window-N bracket differs from the window-(N + 2)
    bracket restricted to the window-N box."""
    return [cell for cell in WINDOW_CELLS
            if brackets[cell, N] != cut(brackets[cell, N + 2], box_keep(
                _sound_pos(N, *cell[2:]), N))]


def test_series_bracket_is_window_stable():
    """Each bracket equals the restriction of the bracket two windows
    wider to its box, and every bracket is the same whether its
    window's tables were built first or after the other window's: a
    stale or mis-cut contraction table would break one of the two."""
    assert len(WINDOW_CELLS) == 375
    narrow_first = _window_brackets((6, 8))
    assert _unstable_cells(narrow_first, 6) == []
    assert _window_brackets((8, 6)) == narrow_first


def test_contraction_tables_grow_for_a_wider_box():
    """A box wider in pos than its neg cap, asked after a narrower box of
    the same neg cap, gives the bracket that fresh families give: the
    tables the narrow box built are rebuilt, not read past their end."""
    walgebra.jay_families.cache_clear()
    fresh = walgebra.jay_families.__wrapped__
    for p, q, m, n in ((1, 2, -1, 2), (2, 2, 1, -2), (3, 1, 2, 1)):
        series_bracket(jay_families(p, m), jay_families(q, n), 2, 4)
        wide = series_bracket(jay_families(p, m), jay_families(q, n), 7, 4)
        assert wide == series_bracket(fresh(p, m), fresh(q, n), 7, 4)
        assert wide.terms, (p, q, m, n)


def test_window_stability_sees_a_window_edge_fault(monkeypatch):
    """Euler events cut one mode short of the box edge make cells of the
    narrow window differ from the wide one's restriction, in either
    window order."""
    swap = operators._swap_events
    monkeypatch.setattr(
        operators, "_swap_events", lambda fa, fb, poscap, negcap, *acc:
        swap(fa, fb, poscap - 1, negcap, *acc))
    for order in ((6, 8), (8, 6)):
        assert len(_unstable_cells(_window_brackets(order), 6)) == 40, order


def ref_swap_events(fa, fb, poscap, negcap):
    """The swap events of one family pair by candidate enumeration, the
    rule _swap_events reads from shed tables.

    Every candidate pair of in-box remainders sa, sb takes a shed part x
    on the left and -x on the right; the pair only inverts when
    x <= v (shed rightward) or v <= x < 0 (leftward), which bounds |x| by
    half the gap between the left family total and the left remainder
    total.  Each candidate's arrangement is sorted with its Euler
    corrections, and the outputs inside the box are kept."""
    keep = box_keep(poscap, negcap)
    tsum = fa.total + fb.total
    cands = set()
    for ta in range(-negcap, poscap + 1):
        surv_a = operators._stats_list(fa.ell - 2, ta, poscap, negcap)
        surv_b = operators._stats_list(fb.ell - 2, tsum - ta, poscap, negcap)
        gap = fa.total - ta
        xs = [x for w in range(1, abs(gap) // 2 + 1)
              for x in ((w,) if gap > 0 else (-w,))]
        for (sa, posa, nega, *_), (sb, posb, negb, *_) in product(
                surv_a, surv_b):
            if posa + posb > poscap or nega + negb > negcap:
                continue
            for x in xs:
                cands.add((tuple(sorted(sa + (x,))),
                           tuple(sorted(sb + (-x,))), gap - x))
    nums = {}
    for pa, pb, v in cands:
        lam = tuple(sorted(pa + (v,)))
        mu = tuple(sorted(pb + (-v,)))
        coeff = -v * lam.count(v) * _num(fa, lam) * _num(fb, mu)
        for j in range(len(mu)):
            if coeff and mu[j] == -v:
                for ms, im in operators._euler_corrections(
                        mu[:j] + pa + mu[j + 1:]):
                    if keep(*totals(ms)):
                        nums[ms] = nums.get(ms, 0) + coeff * im
    return {ms: n for ms, n in nums.items() if n}


def _num(fam, lam):
    """A family's numerator of the partition lam."""
    mf = 1
    for part in set(lam):
        mf *= factorial(lam.count(part))
    return fam.num(lam, mf, sum(part * part for part in lam))


# The benchmark's W-bracket grid, p + q <= 5 and |m|, |n| <= 3, and the
# few cells whose every box with caps 0..8 x 0..8 the kernels are checked
# on.
GRID_CELLS = [(p, q, m, n) for p in range(6) for q in range(6 - p)
              for m, n in product(range(-3, 4), repeat=2)]
FEW_CELLS = ((1, 3, -3, -3), (2, 1, -3, 2), (2, 2, 1, -1), (3, 1, 0, 2))


def _swapping_pairs(cells):
    """The family pairs of J-family cells that make swap events: both
    untagged and of length at least 2."""
    return [(cell, fa, fb) for cell in cells
            for fa in jay_families(cell[0], cell[2])
            for fb in jay_families(cell[1], cell[3])
            if fa.epow + fb.epow == 0 and min(fa.ell, fb.ell) >= 2]


def test_swap_events_match_the_candidate_enumeration():
    """The shed-table product gives the candidate enumeration's
    numerators on the 490 swapping family pairs of the benchmark's
    W-bracket grid (p + q <= 5, |m|, |n| <= 3, window 8), and on a few
    pairs over every box with caps 0..8 x 0..8; every output code
    carries the Euler bit."""
    grid = _swapping_pairs(GRID_CELLS)
    assert len(grid) == 490
    cases = [(fa, fb, (_sound_pos(8, m, n), 8)) for (_, _, m, n), fa, fb
             in grid]
    few = _swapping_pairs(FEW_CELLS)
    cases += [(fa, fb, box) for (_, fa, fb), box
              in product(few, product(range(9), repeat=2))]
    nonempty = 0
    for fa, fb, box in cases:
        got = decoded(operators._swap_events(fa, fb, *box, {}, 1))
        assert all(e == 1 for _, e, _ in got), (fa.total, fb.total, box)
        got = {ms: c for (ms, _, _), c in got.items()}
        assert got == ref_swap_events(fa, fb, *box), (fa.total, fb.total,
                                                      box)
        nonempty += bool(got)
    # 304 of the grid pairs and 226 of the 324 small cases have events
    assert nonempty == 304 + 226


def ref_survivors(fam, x, poscap, negcap):
    """The contraction table of the part x by parts: (parts, pos, c) for
    each partition lam = parts + (x,) of the family with a nonzero weight
    and parts on the window pos <= max(poscap, negcap), neg <= negcap,
    c being num(lam) times the multiplicity of x in lam, sorted by
    pos."""
    rows = []
    for parts, pos, *_ in operators._stats_list(
            fam.ell - 1, fam.total - x, max(poscap, negcap), negcap):
        lam = tuple(sorted(parts + (x,)))
        c = lam.count(x) * _num(fam, lam)
        if c:
            rows.append((parts, pos, c))
    return sorted(rows, key=lambda row: row[1])


def ref_shed(fam, v, x, poscap, negcap):
    """The shed table of the parts v and x by rest, as ref_survivors:
    c is num(lam) times m_v(lam) (m_x(lam) - [x = v])."""
    rows = []
    for rest, pos, *_ in operators._stats_list(
            fam.ell - 2, fam.total - v - x, max(poscap, negcap), negcap):
        lam = tuple(sorted(rest + (v, x)))
        c = lam.count(v) * (lam.count(x) - (x == v)) * _num(fam, lam)
        if c:
            rows.append((rest, pos, c))
    return sorted(rows, key=lambda row: row[1])


def ref_plain_events(fa, fb, poscap, negcap):
    """The plain contraction events of one family pair by sorted mode
    tuple: the products of the two families' table entries for v and -v
    whose survivors fit the box together."""
    nums = {}
    top = min(poscap, negcap + fa.total + fb.total)
    for v in range(max(fa.total - top, -negcap - fb.total),
                   min(fa.total + negcap, top - fb.total) + 1):
        if v == 0 or not (operators._holds(fa, v)
                          and operators._holds(fb, -v)):
            continue
        side_b = ref_survivors(fb, -v, poscap, negcap)
        for pa, posa, ca in ref_survivors(fa, v, poscap, negcap):
            if posa > top:
                break
            for pb, posb, cb in side_b:
                if posb > top - posa:
                    break
                ms = tuple(sorted(pa + pb))
                nums[ms] = nums.get(ms, 0) - v * ca * cb
    return nums


def ref_shed_events(fa, fb, poscap, negcap):
    """The Euler-corrected events of one family pair by sorted mode
    tuple, from the shed tables of (v, x) in fa and (-v, -x) in fb."""
    nums = {}
    top = min(poscap, negcap + fa.total + fb.total)
    for s in range(fa.total - poscap, fa.total + negcap + 1):
        if not (operators._holds(fa, s, 2)
                and operators._holds(fb, -s, 2)):
            continue
        for x in (range(1, s // 2 + 1) if s > 0
                  else range(-1, -(-s // 2) - 1, -1)):
            v = s - x
            side_b = ref_shed(fb, -v, -x, poscap, negcap)
            for pa, posa, ca in ref_shed(fa, v, x, poscap, negcap):
                if posa > top:
                    break
                ca = ca * v * abs(x) // (2 if x == v else 1)
                for pb, posb, cb in side_b:
                    if posb > top - posa:
                        break
                    ms = tuple(sorted(pa + pb))
                    nums[ms] = nums.get(ms, 0) + ca * cb
    return nums


def ref_bracket_nums(fams_a, fams_b, poscap, negcap):
    """series_bracket's numerators keyed by (modes, e, 0) and its
    denominator, assembled per family pair
    from the tuple-keyed event loops over tables of part tuples, each
    pair's events scaled to the common denominator; zeros dropped."""
    pairs = [(fa, fb) for fa in fams_a for fb in fams_b
             if fa.epow + fb.epow <= 1]
    den = lcm(*[fa.den * fb.den for fa, fb in pairs])
    nums = {}
    for fa, fb in pairs:
        scale = den // (fa.den * fb.den)
        e0 = fa.epow + fb.epow
        events = [(e0, ref_plain_events(fa, fb, poscap, negcap))]
        if e0 == 0 and fa.ell >= 2 and fb.ell >= 2:
            events.append((1, ref_shed_events(fa, fb, poscap, negcap)))
        for e, got in events:
            for ms, n in got.items():
                key = (ms, e, 0)
                nums[key] = nums.get(key, 0) + n * scale
    return {k: n for k, n in nums.items() if n}, den


def _decoded_bracket(fams_a, fams_b, poscap, negcap):
    sm = series_bracket(fams_a, fams_b, poscap, negcap)
    return decoded(sm.terms), sm.den


def test_bracket_nums_match_the_tuple_reference():
    """series_bracket, decoded, gives the tuple-keyed reference's
    numerators and denominator on each of the 2,009 family pairs and
    the 1,029 cells of the benchmark's W-bracket grid at window 8, and
    on the cells that the swap kernel is checked on over every box with
    caps 0..8 x 0..8."""
    pairs = [(fa, fb, (_sound_pos(8, m, n), 8))
             for p, q, m, n in GRID_CELLS
             for fa in jay_families(p, m) for fb in jay_families(q, n)
             if fa.epow + fb.epow <= 1]
    assert len(pairs) == 2009 and len(GRID_CELLS) == 1029
    for fa, fb, box in pairs:
        assert _decoded_bracket([fa], [fb], *box) == ref_bracket_nums(
            [fa], [fb], *box), (fa.ell, fa.total, fb.ell, fb.total)
    cases = [(cell, (_sound_pos(8, *cell[2:]), 8)) for cell in GRID_CELLS]
    cases += list(product(FEW_CELLS, product(range(9), repeat=2)))
    for (p, q, m, n), box in cases:
        fams = jay_families(p, m), jay_families(q, n)
        assert _decoded_bracket(*fams, *box) == ref_bracket_nums(
            *fams, *box), ((p, q, m, n), box)


def test_a_family_built_per_call_frees_its_tables():
    """Families built for one bracket, with their contraction and shed
    tables, are freed when the call returns, without the cycle
    collector: a table index holds no reference to its family."""
    gc.collect()
    gc.disable()
    try:
        before = sum(isinstance(o, operators.Family)
                     for o in gc.get_objects())
        fresh = walgebra.jay_families.__wrapped__
        assert series_bracket(fresh(2, 1), fresh(2, -1), 4, 4).terms
        assert series_bracket(heis_families(2), heis_families(-2), 4,
                              4).terms
        after = sum(isinstance(o, operators.Family)
                    for o in gc.get_objects())
    finally:
        gc.enable()
    assert after == before


def _grid_partitions():
    """Every partition of the _stats_list windows that the grid's
    families, their contraction rests and their shed rests read at
    window 8."""
    windows = {(fam.ell - k, fam.total - x, 8, 8)
               for p, q, m, n in GRID_CELLS
               for fam in jay_families(p, m) for k in range(3)
               for x in range(-16, 17) if fam.ell >= k}
    return {row[0] for w in windows for row in operators._stats_list(*w)}


def test_packed_codes_round_trip_and_add_as_multisets():
    """Every partition of the grid's windows decodes back from its code
    with either Euler power and with a K power; the sum of two codes
    decodes to the sorted union of their parts, with the powers of both
    added; a code holds at most 127 parts."""
    parts = sorted(_grid_partitions())
    assert len(parts) == 2415
    for ms in parts:
        for e, k in ((0, 0), (1, 0), (0, 1), (1, 2)):
            assert decode(encode(ms, e, k)) == (ms, e, k), ms
    few = parts[::97]
    for (pa, pb), (ea, eb) in product(product(few, repeat=2),
                                      ((0, 0), (0, 1), (1, 0))):
        assert decode(encode(pa, ea) + encode(pb, eb, 1)) == (
            tuple(sorted(pa + pb)), ea + eb, 1), (pa, pb)
    wide = (-9, -2, -2, 1, 1, 1, 17)
    assert decode(encode(wide[:2] * 60, 1)) == (
        tuple(sorted(wide[:2] * 60)), 1, 0)
    assert decode(encode(wide * 18)) == (tuple(sorted(wide * 18)), 0, 0)
    assert decode(encode(wide * 18) * 2) == (tuple(sorted(wide * 36)), 0, 0)
    assert decode(encode((-1,) * 127) + encode((-1,) * 127)) == (
        (-1,) * 254, 0, 0)
    with pytest.raises(ValueError, match="127 parts"):
        encode((1,) * 128)


def test_packed_code_powers_stay_within_their_fields():
    """encode refuses an Euler or K power that its four-bit field would
    not hold in a sum of two codes, as it refuses a 128th part; the sum
    of two codes at the largest powers and 127 parts each stays in range
    and decodes to the added powers and the united parts."""
    for e, k in ((8, 0), (0, 8), (-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="powers 0..7"):
            encode((1, -2), e, k)
    big = (-3,) * 64 + (2,) * 63
    top = encode(big, 7, 7)
    assert decode(top) == (tuple(sorted(big)), 7, 7)
    assert decode(top + top) == (tuple(sorted(big * 2)), 14, 14)
    assert decode(top + encode((), 7, 7)) == (tuple(sorted(big)), 14, 14)
    assert encode((), 1) == 1 and encode((), 0, 1) == 16
    assert encode((1, -1)) >= operators.SCALARS > encode((), 7, 7)


def _assert_exact_values(sm, label):
    """Every numerator a nonzero int over a positive int denominator, and
    every value read an int or a non-integral Fraction: never a float, a
    bool, an integral Fraction or a stored zero."""
    assert type(sm.den) is int and sm.den > 0, (label, sm.den)
    for key, n in sm.terms.items():
        assert type(n) is int and n, (label, key, n)
    for key, c in sm.sorted_items():
        assert (type(c) is int and c) or (
            type(c) is Q and c.denominator != 1), (label, key, c)


def test_smeared_values_are_exact_scalars():
    """series_to_smeared, series_bracket, s_derive, s_bracket, combined
    and euler_shifted give int numerators over a positive int
    denominator, each read as an int when integral and a Fraction
    otherwise, for every family constructor; the constructor refuses
    any other numerator or denominator."""
    for name, (fa, fb) in FAMILY_PAIRS.items():
        A = series_to_smeared(fa, 4, 4)
        B = series_to_smeared(fb, 4, 4)
        assert A.terms and B.terms, name
        for label, sm in (("smeared-a", A), ("smeared-b", B),
                          ("bracket", series_bracket(fa, fb, 3, 4)),
                          ("derive", s_derive(A, 4, 4, 4, 4)),
                          ("derive-no-k", s_derive(B, 4, 4, 4, 4,
                                                   include_k=False)),
                          ("literal", s_bracket(A, B)),
                          ("difference", combined((1, A), (Q(-1, 2), A))),
                          ("scaled", combined((Q(24), B))),
                          ("euler", euler_shifted(B))):
            _assert_exact_values(sm, (name, label))
    code = encode((-1, 1))
    for bad in (Q(1, 3), 0.5):
        with pytest.raises(ValueError, match="numerators are ints"):
            SmearedOp({code: bad})
    for den in (0, -1, Q(1, 2)):
        with pytest.raises(ValueError, match="positive int"):
            SmearedOp({code: 1}, den)


def test_series_bracket_shed_pair_regression():
    """Euler events whose reordering sheds an out-of-window pair.

    The coefficient of a(-8) a(2) with an Euler tag in the bracket of
    the weight-1 and weight-3 generator series at modes -3, -3 in the
    (2, 8) box is -87; truncating the shed pair to the box loses a +12
    slice of it.
    """
    fast = series_bracket(jay_families(1, -3), jay_families(3, -3), 2, 8)
    assert Q(fast.terms.get(encode((-8, 2), 1), 0), fast.den) == -87


def test_scaled_zero_is_empty():
    op = heisenberg(P2, -1, P2.elem({"H": 1}))
    assert op.scaled(Q(0)).terms == {}
    sm = SmearedOp({encode((-1, 1)): 2})
    assert combined((Q(0), sm)).terms == {}
    assert combined((Q(0), sm)).is_zero()


def test_apply_arrangement_matches_composition():
    x = P2.elem({"x": 1})
    v = st_vec(P2, (-1, {"H": 1}), (-1, {"x": 1}))
    got = arrangement(P2, (-2, 1), x).act(v)
    want = heisenberg(P2, -2, x).act(heisenberg(P2, 1, x).act(v))
    assert got == want


def test_instantiate_euler_and_canonical_tags():
    sm = by_code({((-1,), 1, 0): Q(1), ((-2,), 0, 1): Q(1)})
    op = instantiate(sm, P2, P2.elem({"1": 1}))
    v = vacuum()
    want = combine((1, heisenberg(P2, -1, P2.e).act(v)),
                   (1, heisenberg(P2, -2, P2.K).act(v)))
    assert op.act(v) == want


def test_euler_shift_kills_terms_with_e():
    """Times e, a term gains e unless it carries e already (e*e = 0),
    whatever its K power."""
    sm = by_code({((-2, 1), 0, 0): Q(1), ((-3,), 0, 0): Q(2),
                  ((-1,), 1, 0): Q(5), ((-1,), 0, 2): Q(3),
                  ((), 1, 1): Q(4)})
    assert euler_shifted(sm) == by_code({
        ((-2, 1), 1, 0): Q(1), ((-3,), 1, 0): Q(2), ((-1,), 1, 2): Q(3)})


mode_list = st.lists(
    st.integers(min_value=-3, max_value=3).filter(lambda v: v != 0),
    min_size=1, max_size=4)


@given(mode_list)
@settings(max_examples=80, deadline=None)
def test_normalize_arrangement_units(seq):
    """Main term is the sorted multiset; corrections drop one pair."""
    seq = tuple(seq)
    out = normalize_arrangement(seq)
    assert out[0] == (tuple(sorted(seq)), 0, 1)
    inverted = sum(1 for i in range(len(seq)) if seq[i] > 0
                   for j in range(i + 1, len(seq)) if seq[j] == -seq[i])
    assert len(out) == 1 + inverted
    for ms, ee, im in out[1:]:
        assert ee == 1
        assert len(ms) == len(seq) - 2
        assert sum(ms) == sum(seq)
        assert im < 0
