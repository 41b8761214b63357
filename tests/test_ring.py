"""Surface models: graded product, trace pairing, diagonal pushforward."""

import json
from fractions import Fraction as Q
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbfock.ring import (RingError, SURFACE_NAMES, SurfaceRing, builtin_ring,
                           dump_ring, load_ring)
from hilbfock.verify import SuiteSpec, run_suite

RINGS = {name: builtin_ring(name) for name in SURFACE_NAMES}


def basis_elems(ring):
    return [ring.basis(i) for i in range(ring.dim)]


def basis_pairs(ring):
    for a in basis_elems(ring):
        for b in basis_elems(ring):
            yield a, b


def test_builtin_names():
    assert SURFACE_NAMES == ("abelian", "k3", "p1xp1", "p2")
    for name, ring in RINGS.items():
        assert ring.validate() is None
        assert ring.name == name


def test_dimensions_and_distinguished_classes():
    assert RINGS["p2"].dim == 3
    assert RINGS["p1xp1"].dim == 4
    assert RINGS["k3"].dim == 24
    assert RINGS["abelian"].dim == 16
    # Euler class integrates to the topological Euler number
    assert RINGS["p2"].integrate(RINGS["p2"].e) == 3
    assert RINGS["p1xp1"].integrate(RINGS["p1xp1"].e) == 4
    assert RINGS["k3"].integrate(RINGS["k3"].e) == 24
    assert RINGS["abelian"].e.is_zero()
    assert RINGS["k3"].K.is_zero()
    assert RINGS["abelian"].K.is_zero()
    # canonical class of the plane is -3 times the hyperplane class
    p2 = RINGS["p2"]
    assert p2.K == p2.elem({"H": -3})


def test_euler_class_squares_to_zero():
    for ring in RINGS.values():
        assert (ring.e * ring.e).is_zero()


def test_integral_picks_top_degree():
    p2 = RINGS["p2"]
    assert p2.integrate(p2.elem({"x": 5})) == 5
    assert p2.integrate(p2.elem({"1": 7, "H": 2})) == 0
    ab = RINGS["abelian"]
    assert ab.integrate(ab.elem({"t1234": 1})) == 1


def test_pairing_matrix_nondegenerate():
    for ring in RINGS.values():
        mat = ring.pairing_matrix()
        inv = ring._pairing_inverse()
        n = ring.dim
        for i in range(n):
            for j in range(n):
                s = sum(mat[i][k] * inv[k][j] for k in range(n))
                assert s == (1 if i == j else 0)


def test_product_degree_additive():
    for ring in RINGS.values():
        for a, b in basis_pairs(ring):
            ab = a * b
            if not ab.is_zero():
                assert ab.degree() == a.degree() + b.degree()


def test_supercommutativity_on_basis():
    for ring in RINGS.values():
        for a, b in basis_pairs(ring):
            sign = -1 if (a.parity() and b.parity()) else 1
            assert a * b == (b * a) * Q(sign) or a * b == b * a * Q(sign)


def test_abelian_odd_classes_anticommute():
    ab = RINGS["abelian"]
    t1 = ab.elem({"t1": 1})
    t2 = ab.elem({"t2": 1})
    assert t1.parity() == 1
    assert t1 * t2 == -(t2 * t1)
    assert (t1 * t1).is_zero()
    t12 = ab.elem({"t12": 1})
    t34 = ab.elem({"t34": 1})
    assert t12 * t34 == ab.elem({"t1234": 1})
    assert t34 * t12 == ab.elem({"t1234": 1})


def test_associativity_on_basis():
    for ring in RINGS.values():
        elems = basis_elems(ring)
        for a in elems:
            for b in elems:
                for c in elems:
                    assert (a * b) * c == a * (b * c)


def test_tau2_frozen_plane():
    """The degree-4 diagonal of the plane: 1 (x) x + H (x) H + x (x) 1."""
    p2 = RINGS["p2"]
    tau = p2.tau(2, p2.elem({"1": 1}))
    assert sorted(tau.items()) == [
        ((0, 2), Q(1)), ((1, 1), Q(1)), ((2, 0), Q(1))]


def test_tau2_adjoint_to_product():
    """integral over the square of tau2(a) . (b (x) c) equals
    integral(a b c); the Koszul sign moves b past the second slot.  This
    checks the dual-basis formula for tau2 independently of it."""
    for ring in RINGS.values():
        for a in basis_elems(ring):
            tau = ring.tau(2, a)
            for b, c in basis_pairs(ring):
                lhs = Q(0)
                pb = b.parity()
                for (i, j), coeff in tau.items():
                    bi = ring.basis(i)
                    bj = ring.basis(j)
                    sign = -1 if (pb and bj.parity()) else 1
                    lhs += (coeff * sign * ring.integrate(bi * b)
                            * ring.integrate(bj * c))
                assert lhs == ring.integrate(a * b * c), \
                    (ring.name, a.render(), b.render(), c.render())


def test_tau2_refuses_an_inhomogeneous_table():
    """H H = H + x passes the pairing but not homogeneity, which tau2
    checks again on the rings built without validation."""
    ring = SurfaceRing("bad", ["1", "H", "x"], [0, 2, 4],
                       {(1, 1): {1: 1, 2: 1}}, {2: 1}, {},
                       {2: 3}, validate=False)
    with pytest.raises(RingError, match="tau2 produced inhomogeneous term"):
        ring.tau(2, ring.basis("H"))


def _contract(ring, tau):
    """Multiply all slots of a {index tuple: coeff} tensor."""
    out = ring.elem({})
    for key, c in tau.items():
        prod = ring.unit
        for i in key:
            prod = prod * ring.basis(i)
        out = out + prod * c
    return out


def _expand_slot(ring, tau, pos):
    """Apply tau2 to one slot, giving a tensor of one more slot."""
    out = {}
    for key, c in tau.items():
        for (p, q), c2 in ring.tau(2, ring.basis(key[pos])).items():
            nk = key[:pos] + (p, q) + key[pos + 1:]
            out[nk] = out.get(nk, 0) + c * c2
    return {k: v for k, v in out.items() if v}


def _superswap(ring, tau, pos):
    """Swap slots pos and pos + 1 with the Koszul sign."""
    par = ring.parity
    out = {}
    for key, c in tau.items():
        a, b = key[pos], key[pos + 1]
        nk = key[:pos] + (b, a) + key[pos + 2:]
        out[nk] = out.get(nk, 0) + (-c if par[a] and par[b] else c)
    return {k: v for k, v in out.items() if v}


def test_tau2_contract_gives_euler():
    for ring in RINGS.values():
        for a in basis_elems(ring):
            assert _contract(ring, ring.tau(2, a)) == ring.e * a


def test_tau_point_class_stays_single():
    for ring in RINGS.values():
        pt = ring.basis(ring.dim - 1)
        assert ring.degrees[ring.dim - 1] == 4
        for k in (2, 3, 4):
            terms = ring.tau(k, pt)
            assert list(terms.values()) == [Q(1)]
            (key,) = terms
            assert key == (ring.dim - 1,) * k


def test_tau_coassociative():
    """Expanding either slot of tau2 gives the same tau3."""
    for ring in ("p2", "p1xp1"):
        r = RINGS[ring]
        for a in basis_elems(r):
            left = _expand_slot(r, r.tau(2, a), 0)
            right = _expand_slot(r, r.tau(2, a), 1)
            assert left == right == r.tau(3, a)


def test_superswap_symmetry_of_diagonal():
    """The diagonal class is symmetric up to the Koszul sign."""
    for ring in RINGS.values():
        for a in basis_elems(ring):
            tau = ring.tau(2, a)
            assert _superswap(ring, tau, 0) == tau


def _composite_cases():
    p2 = RINGS["p2"]
    ab = RINGS["abelian"]
    ab_copy = load_ring(dump_ring(ab))
    yield p2, p2.elem({"H": 2, "x": 1})
    for ring in (ab, ab_copy):
        yield ring, ring.elem({"t1": 1, "t234": 1})


def test_tau_of_composite_class_is_linear():
    """tau_k(a) = sum a_i tau_k(b_i), k <= 4, for a class that is not a
    basis class, on p2, abelian and a dump/load copy of abelian."""
    for ring, a in _composite_cases():
        for k in (1, 2, 3, 4):
            want = {}
            for i, c in a.components():
                for key, v in ring.tau(k, ring.basis(i)).items():
                    want[key] = want.get(key, 0) + c * v
            assert ring.tau(k, a) == {t: v for t, v in want.items() if v}, \
                (ring.name, k)


def test_tau_tables_are_bounded_by_basis_and_arity():
    """After heis and thm31 on k3 the ring holds at most one tau table per
    (arity, basis class), and none keyed by a class's coefficients."""
    ring = RINGS["k3"]
    for suite, bounds in (("heis", {"m_max": 1}),
                          ("thm31", {"m_max": 1, "k_max": 1})):
        report = run_suite(SuiteSpec(suite, surface="k3", bounds=bounds))
        assert report.passed and not report.failed, suite
    keys = [key for key in ring._cache
            if isinstance(key, tuple) and key[0] == "tau"]
    assert keys
    assert len(keys) <= ring.dim * max(key[1] for key in keys)
    assert all(type(key[2]) is int for key in keys)


def test_dump_load_round_trip():
    for name in SURFACE_NAMES:
        text = dump_ring(RINGS[name])
        again = load_ring(text)
        assert dump_ring(again) == text
        assert again.validate() is None
        for a, b in basis_pairs(again):
            assert (a * b).coeffs == \
                (RINGS[name].basis(a.coeffs.index(Q(1)))
                 * RINGS[name].basis(b.coeffs.index(Q(1)))).coeffs


def test_load_rejects_malformed():
    with pytest.raises(RingError):
        load_ring("not json at all {")
    with pytest.raises(RingError):
        load_ring("{}")


def test_elem_unknown_name():
    with pytest.raises(KeyError):
        RINGS["p2"].elem({"nope": 1})


coeff_strategy = st.integers(min_value=-4, max_value=4)


@given(st.lists(coeff_strategy, min_size=3, max_size=3),
       st.lists(coeff_strategy, min_size=3, max_size=3),
       st.lists(coeff_strategy, min_size=3, max_size=3))
@settings(max_examples=100)
def test_plane_associative_random(u, v, w):
    p2 = RINGS["p2"]
    names = p2.basis_names
    a = p2.elem(dict(zip(names, u)))
    b = p2.elem(dict(zip(names, v)))
    c = p2.elem(dict(zip(names, w)))
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a


@given(st.integers(min_value=0, max_value=15),
       st.integers(min_value=0, max_value=15))
@settings(max_examples=100)
def test_abelian_supercommutative_random(i, j):
    ab = RINGS["abelian"]
    a = ab.basis(i)
    b = ab.basis(j)
    sign = Q(-1 if (a.parity() and b.parity()) else 1)
    assert a * b == (b * a) * sign


def test_unit_products_are_filled_in():
    """A ring given without its unit products validates and has the
    built-in p2 table; a listed unit product overrides the fill."""
    plane = SurfaceRing("p2", ["1", "H", "x"], [0, 2, 4],
                        {(1, 1): {2: 1}}, {2: 1}, {1: -3}, {2: 3})
    assert plane.table == RINGS["p2"].table
    assert plane.table[0] == [((0, 1),), ((1, 1),), ((2, 1),)]
    assert [row[0] for row in plane.table] == plane.table[0]
    loose = SurfaceRing("bad", ["1", "H", "x"], [0, 2, 4],
                        {(0, 1): {1: 2}, (1, 1): {2: 1}}, {2: 1}, {},
                        {2: 3}, validate=False)
    assert loose.table[0][1] == ((1, 2),) and loose.table[1][0] == ((1, 1),)


def _plane(extra, euler=None):
    return SurfaceRing("bad", ["1", "H", "x"], [0, 2, 4],
                       extra, {2: 1}, {}, euler or {2: 3})


# 1, t1, t2 (degree 1), u (degree 2), x: t1 t2 = u and u u = x, so
# (t1 t2) u = x while t1 (t2 u) = 0 for want of a degree-3 class.
_NONASSOCIATIVE = {(1, 2): {3: 1}, (2, 1): {3: -1}, (3, 3): {4: 1}}


VALIDATION_CASES = [
    ("unit law", lambda: _plane({(0, 1): {1: 2}, (1, 1): {2: 1}}),
     r"unit law fails on pair \('1', 'H'\)"),
    ("super-commutativity",
     lambda: SurfaceRing("bad", ["1", "f1", "f2", "x"], [0, 2, 2, 4],
                         {(1, 2): {3: 1}}, {3: 1}, {},
                         {3: 4}),
     r"product not super-commutative on pair \('f1', 'f2'\)"),
    ("homogeneity", lambda: _plane({(1, 1): {1: 1}}),
     r"product \('H', 'H'\) not homogeneous of degree 4"),
    ("associativity",
     lambda: SurfaceRing("bad", ["1", "t1", "t2", "u", "x"], [0, 1, 1, 2, 4],
                         _NONASSOCIATIVE, {4: 1}, {}, {4: 1}),
     r"product not associative on triple \('t1', 't2', 'u'\)"),
    ("euler square", lambda: _plane({(1, 1): {2: 1}}, euler={1: 1}),
     r"Euler class must square to zero"),
    ("euler number", lambda: _plane({(1, 1): {2: 1}}, euler={2: 5}),
     r"^Euler class integrates to 5, not to the Euler number 3$"),
    ("degenerate pairing", lambda: _plane({}),
     r"intersection pairing is degenerate"),
]


@pytest.mark.parametrize("build,message",
                         [case[1:] for case in VALIDATION_CASES],
                         ids=[case[0] for case in VALIDATION_CASES])
def test_validate_rejects_each_rule(build, message):
    with pytest.raises(RingError, match=message):
        build()


def _validate_errors(ring):
    """The error list of ring.validate(), empty when it passes."""
    try:
        ring.validate()
    except RingError as exc:
        return str(exc).split("; ")
    return []


def _nonassociative_triples(ring):
    """Every basis triple (i, j, k), the unit and every degree included,
    on which (b_i b_j) b_k differs from b_i (b_j b_k)."""
    b = basis_elems(ring)
    return [(i, j, k) for i, j, k in product(range(ring.dim), repeat=3)
            if (b[i] * b[j]) * b[k] != b[i] * (b[j] * b[k])]


def _associativity_oracle(ring):
    """validate's associativity messages, read off all dim^3 triples."""
    names = ring.basis_names
    return ["product not associative on triple (%r, %r, %r)"
            % tuple(names[x] for x in t) for t in _nonassociative_triples(ring)]


def _abelian_reweighted():
    """The abelian ring with t12 t34 = t34 t12 = 2 t1234: every check but
    associativity passes, the degree-3 triples all associate, and the
    failures are the triples of degrees 1, 1 and 2 that form t12 t34."""
    ab = RINGS["abelian"]
    prod = {(i, j): dict(ab.table[i][j])
            for i in range(ab.dim) for j in range(ab.dim)}
    t12, t34, top = ab.index["t12"], ab.index["t34"], ab.index["t1234"]
    prod[(t12, t34)] = prod[(t34, t12)] = {top: 2}
    return SurfaceRing("bad", ab.basis_names, ab.degrees, prod, {top: 1},
                       {}, {}, validate=False)


def test_validate_associativity_matches_all_triples():
    """validate checks only the non-unit triples of total degree at most
    4; on every ring here its errors are those of all dim^3 triples."""
    for ring in RINGS.values():
        assert _validate_errors(ring) == _associativity_oracle(ring) == []
    nonassociative = SurfaceRing(
        "bad", ["1", "t1", "t2", "u", "x"], [0, 1, 1, 2, 4],
        _NONASSOCIATIVE, {4: 1}, {}, {4: 1}, validate=False)
    reweighted = _abelian_reweighted()
    for ring in (nonassociative, reweighted):
        errors = _associativity_oracle(ring)
        assert errors and _validate_errors(ring) == errors
    assert {tuple(sorted(reweighted.degrees[x] for x in t))
            for t in _nonassociative_triples(reweighted)} == {(1, 1, 2)}


def _plane_doc(**changes):
    doc = json.loads(dump_ring(RINGS["p2"]))
    doc.update(changes)
    return json.dumps(doc)


LOAD_CASES = [
    ("integral not an object", _plane_doc(integral=[1]),
     "integral must be an object"),
    ("product not an object",
     _plane_doc(products=[["H", "H", ["x", "1"]]]),
     "a product must be an object"),
    ("zero denominator", _plane_doc(integral={"x": "1/0"}),
     'coefficient "1/0" is not an exact number'),
    ("empty basis", _plane_doc(basis=[], products=[], integral={}, K={},
                               e={}),
     "the basis is empty"),
    ("float coefficient", _plane_doc(integral={"x": 0.1}),
     "coefficient 0.1 is not an exact number"),
    ("float product", _plane_doc(products=[["H", "H", {"x": 1.0}]]),
     "coefficient 1.0 is not an exact number"),
    ("boolean coefficient", _plane_doc(K={"H": True}),
     "coefficient true is not an exact number"),
    ("float degree", _plane_doc(basis=[["1", 0], ["H", 2.9], ["x", 4]]),
     'degree 2.9 of class "H" is not an integer'),
    ("boolean degree", _plane_doc(basis=[["1", 0], ["H", True], ["x", 4]]),
     'degree true of class "H" is not an integer'),
    ("repeated product",
     _plane_doc(products=[["H", "H", {"x": 1}], ["H", "H", {"x": 2}]]),
     r"product \(H, H\) is listed twice"),
    ("nested too deep", "[" * 100000, "invalid JSON: maximum recursion"),
]


@pytest.mark.parametrize("text,message", [case[1:] for case in LOAD_CASES],
                         ids=[case[0] for case in LOAD_CASES])
def test_load_rejects_each_malformed_case(text, message):
    with pytest.raises(RingError, match=message):
        load_ring(text)


def test_load_accepts_fraction_strings():
    ring = load_ring(_plane_doc(K={"H": "-6/2"}, e={"x": "3/1"},
                                products=[["H", "H", {"x": 1}]]))
    assert ring.K.coeffs == (0, -3, 0) and ring.e.coeffs == (0, 0, 3)
    assert [type(c) for c in ring.K.coeffs + ring.e.coeffs] == [int] * 6
    assert load_ring(_plane_doc(K={"H": "3/2"})).K.coeffs[1] == Q(3, 2)


def _inexact(value):
    """The floats and bools inside a nested value."""
    if isinstance(value, (bool, float)):
        return [value]
    if isinstance(value, (list, tuple)):
        return [x for v in value for x in _inexact(v)]
    if isinstance(value, dict):
        return [x for kv in value.items() for x in _inexact(kv)]
    if hasattr(value, "coeffs"):
        return _inexact(value.coeffs)
    if hasattr(value, "terms"):
        return _inexact(value.terms)
    return []


def _int_first(values):
    """The values that are not an int or a non-integral Fraction."""
    return [c for c in values
            if not (type(c) is int
                    or (type(c) is Q and c.denominator != 1))]


def test_ring_scalars_are_exact():
    """No float or bool in the table, the distinguished classes, the Gram
    matrix and its inverse, tau2 or tau_k (k <= 4), for the built-in rings
    and a dump/load round trip; integrals and the Gram matrix are
    int-first."""
    rings = list(RINGS.values()) + [load_ring(dump_ring(RINGS["abelian"]))]
    p2 = RINGS["p2"]
    assert type(p2.integrate(p2.basis("x"))) is int
    assert p2.integrate(p2.elem({"x": Q(1, 2)})) == Q(1, 2)
    for ring in rings:
        ints = [ring.integrate(a * b) for a in basis_elems(ring)
                for b in basis_elems(ring)]
        ints += [ring.integrate(ring.e), ring.integrate(ring.K * ring.K)]
        ints += [g for row in ring.pairing_matrix() for g in row]
        assert _int_first(ints) == [], ring.name
        assert all(type(c) in (int, Q) for row in ring.table
                   for prod in row for _, c in prod)
        data = [ring.table, ring.integral_vec, ring.K, ring.e,
                ring.pairing_matrix(), ring._pairing_inverse()]
        data += [dict(ring.tau(k, b)) for k in (1, 2, 3, 4)
                 for b in basis_elems(ring)]
        assert _inexact(data) == [], ring.name
