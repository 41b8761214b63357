"""Fock space states: canonical ordering, weight grading, pairing."""

from fractions import Fraction as Q
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from hilbfock.fock import (annihilate_state, basis_states, canonical_factors,
                           combine, create_state, fundamental_class, pairing,
                           render_state, render_terms, vacuum,
                           vector_records, weight)
from hilbfock.operators import heisenberg
from hilbfock.ring import SURFACE_NAMES, builtin_ring
from hilbfock.walgebra import chern

P2 = builtin_ring("p2")
K3 = builtin_ring("k3")
AB = builtin_ring("abelian")


def chain(ring, *modes_and_classes):
    """Apply creation operators right to left to the vacuum."""
    vec = vacuum()
    for n, spec in reversed(modes_and_classes):
        vec = heisenberg(ring, n, ring.elem(spec)).act(vec)
    return vec


def weights(vec):
    return sorted({weight(s) for s in vec})


def test_vacuum():
    v = vacuum()
    assert v == {(): Q(1)}
    assert weight(()) == 0


def test_create_state_matches_canonical_factors():
    """The bisect insertion agrees with sorting the new factor in, sign
    and repeated odd factor included, for a(-n; b_i), n <= 3, every i,
    on every state of weight at most 2 (at most 1 on k3)."""
    for name in SURFACE_NAMES:
        ring = builtin_ring(name)
        states = [s for w in range(2 if name == "k3" else 3)
                  for s in basis_states(ring, w)]
        for s, n, i in product(states, (1, 2, 3), range(ring.dim)):
            assert create_state(ring, n, i, s) == canonical_factors(
                ((-n, i),) + s, ring.parity), (name, s, n, i)


def test_annihilate_state_sums_equal_factors():
    """a(n; b_i), n <= 2, every i, on every state of weight at most 3 (2
    on k3) gives the per-position contractions -n integral(b_i b_j),
    with the Koszul sign of the odd factors before each, summed by
    result: one pair per distinct state, none with a zero coefficient."""
    for name in SURFACE_NAMES:
        ring = builtin_ring(name)
        g, par = ring.pairing_matrix(), ring.parity
        states = [s for w in range(3 if name == "k3" else 4)
                  for s in basis_states(ring, w)]
        for s, n, i in product(states, (1, 2), range(ring.dim)):
            want = {}
            for t, (m, j) in enumerate(s):
                if m == -n and g[i][j]:
                    odd = par[i] and sum(par[k] for _, k in s[:t])
                    rest = s[:t] + s[t + 1:]
                    want[rest] = want.get(rest, 0) + (
                        -1) ** odd * -n * g[i][j]
            got = annihilate_state(ring, n, i, s)
            assert len({t for t, _ in got}) == len(got), (name, s, n, i)
            assert dict(got) == {t: c for t, c in want.items() if c}, \
                (name, s, n, i)


def test_basis_counts_plane():
    assert [len(basis_states(P2, w)) for w in range(5)] == [1, 3, 9, 22, 51]


def test_basis_counts_with_odd_classes():
    assert len(basis_states(AB, 1)) == 16
    assert len(basis_states(AB, 2)) == 144
    assert len(basis_states(K3, 2)) == 324


def gottsche_counts(ring, top):
    """The q^0 .. q^top coefficients of Goettsche's generating function
    prod_n (1 + q^n)^b_odd / (1 - q^n)^b_even."""
    odd = sum(ring.parity)
    series = [1] + [0] * top
    for n in range(1, top + 1):
        for _ in range(odd):                    # times (1 + q^n)
            for w in range(top, n - 1, -1):
                series[w] += series[w - n]
        for _ in range(ring.dim - odd):         # over (1 - q^n)
            for w in range(n, top + 1):
                series[w] += series[w - n]
    return series


def test_basis_counts_match_gottsche():
    """Every built-in ring has as many basis states of weight w as the
    q^w coefficient of Goettsche's formula, for w <= 4 (w <= 3 on k3)."""
    tops = {"p2": 4, "p1xp1": 4, "abelian": 4, "k3": 3}
    assert sorted(tops) == sorted(SURFACE_NAMES)
    for name, top in tops.items():
        ring = builtin_ring(name)
        counts = [len(basis_states(ring, w)) for w in range(top + 1)]
        assert counts == gottsche_counts(ring, top), name
    assert gottsche_counts(builtin_ring("p1xp1"), 4) == [1, 4, 14, 40, 105]


def test_basis_states_have_right_weight():
    for w in range(4):
        for state in basis_states(P2, w):
            assert weight(state) == w


def test_weight_counts_points():
    state = ((-3, 0), (-1, 2), (-1, 2))
    assert weight(state) == 5


def test_creation_commutes_even():
    a = chain(P2, (-2, {"H": 1}), (-1, {"x": 1}))
    b = chain(P2, (-1, {"x": 1}), (-2, {"H": 1}))
    assert a == b


def test_creation_anticommutes_odd():
    a = chain(AB, (-1, {"t1": 1}), (-1, {"t234": 1}))
    b = chain(AB, (-1, {"t234": 1}), (-1, {"t1": 1}))
    assert a == combine((-1, b))
    # odd square kills the state
    c = chain(AB, (-1, {"t1": 1}), (-1, {"t1": 1}))
    assert c == {}


def test_vectors_keep_heavy_states():
    """Nothing truncates a vector: creation reaches any weight, and
    annihilation brings a heavy state back down."""
    v = chain(P2, (-4, {"1": 1}), (-3, {"1": 1}), (-2, {"1": 1}))
    assert v == {((-4, 0), (-3, 0), (-2, 0)): 1}
    assert weights(v) == [9]
    down = heisenberg(P2, 3, P2.elem({"x": 1})).act(v)
    assert down == {((-4, 0), (-2, 0)): -3}
    assert weights(combine((1, v), (1, down))) == [6, 9]


def test_annihilation_of_vacuum():
    for n in (1, 2, 3):
        assert heisenberg(P2, n, P2.elem({"H": 1})).act(vacuum()) == {}


def test_mode_zero_is_zero():
    v = chain(P2, (-1, {"H": 1}))
    assert heisenberg(P2, 0, P2.elem({"1": 1})).act(v) == {}


def test_pairing_frozen_values():
    v = chain(P2, (-2, {"H": 1}))
    assert pairing(P2, v, v) == Q(-2)
    u = chain(P2, (-1, {"1": 1}), (-1, {"x": 1}))
    assert pairing(P2, u, u) == Q(1)
    assert pairing(P2, u, chain(P2, (-1, {"x": 1}), (-1, {"1": 1}))) == Q(1)


def test_pairing_odd_sign():
    w1 = chain(AB, (-1, {"t1": 1}), (-1, {"t234": 1}))
    w2 = chain(AB, (-1, {"t234": 1}), (-1, {"t1": 1}))
    assert pairing(AB, w1, w1) == Q(-1)
    assert pairing(AB, w1, w2) == Q(1)


def test_cup_operators_are_super_self_adjoint():
    """<G u, v> = (-1)^{|G||u|} <u, G v> for the cup-product operators
    G_k(a), k <= 2, on the abelian blocks of weight at most 2: the
    pairing moves odd factors past each other with their Koszul sign."""
    par = AB.parity
    for w in range(3):
        states = basis_states(AB, w)
        gram = {(s, t): pairing(AB, {s: 1}, {t: 1})
                for s in states for t in states}
        for k, name in product(range(3), ("1", "t1", "t12", "t123")):
            g = chern(AB, k, AB.basis(name))
            cols = {s: AB.vector(g.column(AB.state_id(s))) for s in states}
            odd = par[AB.index[name]]
            for u in states:
                sign = -1 if odd and sum(par[i] for _, i in u) % 2 else 1
                for v in states:
                    lhs = sum(c * gram[t, v] for t, c in cols[u].items())
                    rhs = sum(c * gram[u, t] for t, c in cols[v].items())
                    assert lhs == sign * rhs, (k, name, u, v)


def test_pairing_is_int_first():
    """Integral pairings are ints, also through Fraction coefficients;
    the others are Fractions."""
    f = fundamental_class(2)
    pt = {((-1, 2), (-1, 2)): 1}
    v = chain(P2, (-2, {"H": 1}))
    w1 = chain(AB, (-1, {"t1": 1}), (-1, {"t234": 1}))
    for value, want in ((pairing(P2, f, pt), 1), (pairing(P2, v, v), -2),
                        (pairing(AB, w1, w1), -1), (pairing(P2, pt, pt), 0)):
        assert type(value) is int and value == want
    third = pairing(P2, combine((Q(1, 3), f)), pt)
    assert type(third) is Q and third == Q(1, 3)


def test_pairing_respects_weight_grading():
    u = chain(P2, (-1, {"1": 1}))
    v = chain(P2, (-2, {"1": 1}))
    assert pairing(P2, u, v) == 0


def test_pairing_nondegenerate_weight_two():
    states = basis_states(P2, 2)
    vecs = [{s: Q(1)} for s in states]
    gram = [[pairing(P2, a, b) for b in vecs] for a in vecs]
    # row of zeros would make the form degenerate
    for row in gram:
        assert any(row)


def test_fundamental_class():
    f = fundamental_class(3)
    assert f == {((-1, 0), (-1, 0), (-1, 0)): Q(1, 6)}
    assert pairing(P2, f, chain(P2, (-1, {"x": 1}), (-1, {"x": 1}),
                            (-1, {"x": 1}))) == Q(1)


def test_render_state():
    assert render_state(((-2, 1), (-1, 0)), P2) == "a(-2;H) a(-1;1) |0>"
    assert render_state((), P2) == "|0>"


def test_render_vector_sorted_and_exact():
    v = chain(P2, (-2, {"H": 2}))
    text = render_terms(v, P2)
    assert "2 * a(-2;H) |0>" in text
    half = combine((Q(1, 4), v))
    assert "1/2 * a(-2;H) |0>" in render_terms(half, P2)


def test_vector_records_round_trip_structure():
    v = chain(P2, (-2, {"H": 1}), (-1, {"x": 3}))
    recs = vector_records(v, P2)
    assert recs == [{"coeff": "3", "factors": [[-2, "H"], [-1, "x"]]}]


def test_scale_zero_empties():
    v = chain(P2, (-1, {"H": 1}))
    assert combine((Q(0), v)) == {}
    assert not combine((0, v))
    assert combine((1, v), (-1, v)) == {}


mode_strategy = st.lists(
    st.tuples(st.integers(min_value=-3, max_value=-1),
              st.integers(min_value=0, max_value=2)),
    min_size=0, max_size=3)


@given(mode_strategy)
@settings(max_examples=60, deadline=None)
def test_reordering_even_classes_stable(specs):
    """Applying even-class creation operators in any order agrees."""
    spec1 = [(n, {P2.basis_names[i]: 1}) for n, i in specs]
    spec2 = list(reversed(spec1))
    assert chain(P2, *spec1) == chain(P2, *spec2)


@given(st.permutations([(-1, 1), (-1, 9), (-2, 3)]))
@settings(max_examples=20, deadline=None)
def test_odd_reordering_alternates(order):
    """Reordering two odd factors flips the coefficient sign."""
    base = [(-1, 1), (-1, 9), (-2, 3)]
    vec = vacuum()
    for n, i in reversed(order):
        vec = heisenberg(AB, n, AB.basis(i)).act(vec)
    ref = vacuum()
    for n, i in reversed(base):
        ref = heisenberg(AB, n, AB.basis(i)).act(ref)
    odd = [p for p in order if AB.basis(p[1]).parity()]
    odd_ref = [p for p in base if AB.basis(p[1]).parity()]
    inversions = sum(1 for a in range(len(odd)) for b in range(a + 1, len(odd))
                     if odd_ref.index(odd[a]) > odd_ref.index(odd[b]))
    sign = Q(-1) ** inversions
    assert vec == combine((sign, ref))
