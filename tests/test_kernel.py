"""The factor-word apply kernel: equivalence with raw mode composition,
exact coefficient types, exact columns of finite operators and of
series that grow to the weight they act on, the contraction index, and
the int-first expansion that builds expanded operators."""

from fractions import Fraction
from itertools import product
from math import factorial, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbfock import operators
from hilbfock.fock import (annihilate_state, basis_states, canonical_factors,
                           combine, create_state, exact, weight)
from hilbfock.operators import (_EMPTY, Bracket, OperatorFamily,
                                OperatorSum, SmearedOp, arrangement,
                                commutator_action, commutator_block,
                                commutator_column, derivation, derivative,
                                encode, heisenberg, instantiate, monomial,
                                quadratic_sum, series_to_smeared,
                                smeared_series)
from hilbfock.partitions import enumerate_genpartitions
from hilbfock.ring import (SURFACE_NAMES, RingError, builtin_ring, dump_ring,
                           load_ring)
from hilbfock.walgebra import (chern, chern_families, fourier,
                               fourier_families, jay, jay_families, virasoro)

P2 = builtin_ring("p2")
AB = builtin_ring("abelian")
RINGS = {"p2": P2, "abelian": AB}
# Classes the random words and states use; on the abelian surface they
# are closed under the pairing (t1 pairs with t234, t2 with t134).
CLASSES = {"p2": ("1", "H", "x"),
           "abelian": ("t1", "t2", "t134", "t234", "1", "t1234")}

# Fixed-seed profile: the same examples on every run.
KERNEL = settings(derandomize=True, database=None, deadline=None,
                  max_examples=120)

MODES = [m for m in range(-3, 4) if m]
COEFFS = st.one_of(st.integers(-3, 3).filter(bool),
                   st.fractions(-3, 3, max_denominator=4).filter(bool))


def ref_word(ring, word, terms):
    """Right-to-left composition of single modes, one new dict per
    factor: the reference for the single-state kernel apply_word."""
    cur = dict(terms)
    for mode, i in reversed(word):
        nxt = {}
        for s, c in cur.items():
            if mode > 0:
                images = annihilate_state(ring, mode, i, s)
            else:
                s2, sign = create_state(ring, -mode, i, s)
                images = [] if s2 is None else [(s2, sign)]
            for s2, c2 in images:
                nxt[s2] = nxt.get(s2, 0) + c * c2
        cur = {s: c for s, c in nxt.items() if c}
    return cur


class RefSum:
    """The literal accumulator behind the reference operators: one
    monomial or one scaled operator at a time, every sum through exact,
    zeros dropped."""

    def __init__(self, ring, scalar=0):
        self.ring = ring
        self.terms, self.scalar = {}, exact(scalar)

    def add_factors(self, factors, coeff):
        """Accumulate one monomial; modes must be nondecreasing already."""
        modes = [m for m, _ in factors]
        assert all(a <= b for a, b in zip(modes, modes[1:])), modes
        state, sign = canonical_factors(factors, self.ring.parity)
        if state is not None:
            self._add(state, coeff * sign)

    def merge(self, other, scale=1):
        for f, c in other.terms.items():
            self._add(f, c * scale)
        self.scalar = exact(self.scalar + other.scalar * scale)
        return self

    def _add(self, word, c):
        v = exact(self.terms.get(word, 0) + c)
        if v:
            self.terms[word] = v
        else:
            self.terms.pop(word, None)


def column(op, state):
    """op's column at a basis state, as a {state: coeff} dict."""
    ring = op.ring
    return ring.vector(op.column(ring.state_id(state)))


def bracket_at(f, g, state):
    """commutator_column(f, g) at a basis state, as a {state: coeff}
    dict."""
    ring = f.ring
    return ring.vector(commutator_column(f, g, ring.state_id(state)))


def ref_sum(pieces):
    """Sum of (coefficient, {state: coeff}) pieces."""
    out = {}
    for k, terms in pieces:
        for s, c in terms.items():
            out[s] = out.get(s, 0) + k * c
    return {s: c for s, c in out.items() if c}


@st.composite
def setups(draw, name, sorted_words):
    ring = RINGS[name]
    idx = [ring.index[c] for c in CLASSES[name]]
    states = [s for w in range(3)
              for s in basis_states(ring, w) if all(i in idx for _, i in s)]
    # odd-rich states first: Hypothesis draws early list entries more often
    states.sort(key=lambda s: -sum(ring.parity[i] for _, i in s))
    terms = draw(st.dictionaries(st.sampled_from(states), COEFFS,
                                 min_size=1, max_size=4))
    g = ring.pairing_matrix()
    # annihilators that contract with some factor of a drawn state
    hits = sorted({(-m, k) for s in terms for m, j in s for k in idx
                   if g[k][j]})
    classes = st.sampled_from(idx)
    factor = st.one_of(st.tuples(st.sampled_from(MODES), classes),
                       st.tuples(st.sampled_from((-1, -2)), classes),
                       st.sampled_from(hits or [(1, idx[0])]))
    words = draw(st.lists(st.lists(factor, min_size=1, max_size=3),
                          min_size=1, max_size=4))
    if sorted_words:
        words = [sorted(w, key=lambda f: f[0]) for w in words]
    return ring, terms, [tuple(w) for w in words]


@pytest.mark.parametrize("name", sorted(RINGS))
@KERNEL
@given(data=st.data())
def test_operator_apply_matches_composition(name, data):
    ring, terms, words = data.draw(setups(name, sorted_words=True))
    coeffs = data.draw(st.lists(COEFFS, min_size=4, max_size=4))
    scalar = data.draw(st.integers(-2, 2))
    ref = RefSum(ring)
    for word, c in zip(words, coeffs):
        ref.add_factors(word, c)
    op = OperatorSum(ring, ref.terms, scalar)
    want = ref_sum([(tc, ref_word(ring, w, terms))
                    for w, tc in op.terms.items()]
                   + [(op.scalar, terms)])
    assert op.act(terms) == want


@pytest.mark.parametrize("name", sorted(RINGS))
@KERNEL
@given(data=st.data())
def test_apply_arrangement_matches_composition(name, data):
    ring, terms, words = data.draw(setups(name, sorted_words=False))
    modes = [m for m, _ in words[0]]
    elem = ring.basis(words[0][0][1])
    want = ref_sum([(c0, ref_word(ring, tuple(zip(modes, key)), terms))
                    for key, c0 in ring.tau(len(modes), elem).items()])
    assert arrangement(ring, modes, elem).act(terms) == want


# Two classes that pair with each other on each surface; both odd on the
# abelian surface.
PARTNERS = {"p2": ("1", "x"), "p1xp1": ("f1", "f2"), "k3": ("u1", "u2"),
            "abelian": ("t1", "t234")}


def merged(pairs):
    """The {state: coeff} dict of (state, coeff) pairs, zeros dropped."""
    out = {}
    for s, c in pairs:
        out[s] = out.get(s, 0) + c
    return {s: c for s, c in out.items() if c}


def kernel_mismatches(ring, classes):
    """The (word, state) pairs on which the single-state apply_word,
    scaled by a fraction and merged, differs from the dict-per-factor
    reference ref_word on that multiple of the state: every word of
    length at most 3 in the factors a(m; c), |m| <= 2, c among classes,
    on every state of weight at most 3 in those classes; and the number
    of pairs with a nonzero image."""
    idx = [ring.index[c] for c in classes]
    states = [s for w in range(4) for s in basis_states(ring, w)
              if all(i in idx for _, i in s)]
    factors = [(m, i) for m in (-2, -1, 1, 2) for i in idx]
    c = Fraction(-3, 2)
    bad, live = [], 0
    for k in (1, 2, 3):
        for word in product(factors, repeat=k):
            for s in states:
                want = ref_word(ring, word, {s: c})
                got = merged((t, c * v)
                             for t, v in operators.apply_word(ring, word, s))
                if got != want:
                    bad.append((word, s))
                live += bool(want)
    return bad, live


@pytest.mark.parametrize("name", SURFACE_NAMES)
def test_single_state_kernel_matches_dict_per_factor_reference(name):
    ring = builtin_ring(name)
    bad, live = kernel_mismatches(ring, PARTNERS[name])
    assert bad == [] and live


def test_kernel_reference_sees_a_dropped_koszul_sign(monkeypatch):
    """With create_state's odd Koszul sign dropped in the kernel's copy
    only, the single-state kernel no longer matches the reference on the
    odd classes of the abelian surface."""
    def unsigned(ring, n, i, state):
        s2, _ = create_state(ring, n, i, state)
        return s2, 1 if s2 is not None else 0

    monkeypatch.setattr(operators, "create_state", unsigned)
    bad, _ = kernel_mismatches(AB, PARTNERS["abelian"])
    assert bad


def test_kernel_crosses_window_edge():
    """A word whose creation passes through a heavier state keeps it:
    nothing truncates creation, so the annihilator after it still
    finds the factor it contracts with."""
    vec = {((-1, 0),): 1}
    word = ((1, 2), (-2, 2))            # a(1;x) a(-2;x): weight 3 midway
    op = OperatorSum(P2, {word: 1})
    want = {((-2, 2),): -1}             # a(1;x) contracts a(-1;1)
    assert ref_word(P2, word, vec) == want
    assert op.act(vec) == want
    assert column(op, ((-1, 0),)) == want


def test_mixed_parity_is_refused():
    t1, one = AB.index["t1"], AB.index["1"]
    assert heisenberg(AB, 1, AB.basis("t1")).parity() == 1
    op = OperatorSum(AB, {((1, t1),): 1, ((1, one),): 1})
    with pytest.raises(ValueError, match="mixed parity"):
        op.parity()
    # a series takes its parity from its class, before it holds a word
    assert quadratic_sum(AB, 1, AB.basis("t1")).parity() == 1
    with pytest.raises(RingError, match="mixed-parity"):
        quadratic_sum(AB, 1, AB.basis("t1") + AB.basis("1"))


# -- cached columns ---------------------------------------------------------


PARTS = ((-1,), (1,), (2,), (-2, 1), (-1, 1), (1, 1), (-1, -1), (-2, 2))

# The reference operators hold every word that creates and annihilates
# at most REACH points: all words that act on the states below, through
# the heaviest images of a commutator (weight 2 + 4).
REACH = 8


def ref_image(ref, terms):
    """ref applied to a {state: coeff} dict word by word, with no cache;
    a word that annihilates more points than every state holds is
    skipped, since it kills them all."""
    top = max(map(weight, terms), default=0)
    return ref_sum([(tc, ref_word(ref.ring, w, terms))
                    for w, tc in ref.terms.items()
                    if sum(m for m, _ in w if m > 0) <= top]
                   + [(ref.scalar, terms)])


@st.composite
def series(draw, name):
    """(build, ref): a transfer operator, Virasoro series, smeared
    monomial or Chern character of one test class, as a function that
    makes a fresh operator, and its add_factors reference on REACH."""
    ring = RINGS[name]
    kind = draw(st.sampled_from(("heisenberg", "quadratic_sum", "monomial",
                                 "chern")))
    names = CLASSES[name]
    if kind == "chern":
        names = [c for c in names if (ring.K * ring.basis(c)).is_zero()]
    elem = ring.basis(draw(st.sampled_from(names)))
    if kind == "heisenberg":
        n = draw(st.sampled_from(MODES))
        return (lambda: heisenberg(ring, n, elem),
                ref_monomial(ring, (n,), elem, REACH))
    if kind == "quadratic_sum":
        n = draw(st.integers(-2, 2))
        return (lambda: quadratic_sum(ring, n, elem),
                ref_quadratic_sum(ring, n, elem, REACH))
    if kind == "monomial":
        parts = draw(st.sampled_from(PARTS))
        return (lambda: monomial(ring, parts, elem),
                ref_monomial(ring, parts, elem, REACH))
    k = draw(st.integers(0, 1))
    return (lambda: fresh_named(chern, ring, k, elem),
            ref_instantiate(series_to_smeared(chern_families(k), REACH, REACH),
                            ring, elem, REACH))


def light_states(name, wmax=2):
    """Basis states on the test classes of weight at most wmax, lightest
    first."""
    ring = RINGS[name]
    idx = {ring.index[c] for c in CLASSES[name]}
    return [s for w in range(wmax + 1)
            for s in basis_states(ring, w) if all(i in idx for _, i in s)]


def assert_columns(op, ref, states):
    """Every column is the uncached composition of the reference, also
    through act, and the contraction index only rules out states the
    operator kills."""
    for s in states:
        want = ref_image(ref, {s: 1})
        assert column(op, s) == want, s
        assert op.act({s: 1}) == want, s
        index = op._contractions()
        if index is not False and index.isdisjoint(s):
            assert not want, s


@pytest.mark.parametrize("name", sorted(RINGS))
@KERNEL
@given(data=st.data())
def test_columns_match_composition_at_each_window(name, data):
    """Columns are exact on every weight: a series met by states of
    increasing weight grows through each of their windows in turn, one
    met first by its heaviest state grows once, and both give the
    composition of the reference."""
    build, ref = data.draw(series(name))
    states = light_states(name)
    assert_columns(build(), ref, states)
    assert_columns(build(), ref, states[::-1])


@pytest.mark.parametrize("name", sorted(RINGS))
def test_series_growth_matches_fresh_columns(name):
    """A series that has grown through states of weight 0, 1 and 3, in
    that order, gives the columns of an operator made fresh for each
    state, on all three weights; growing must rebuild the contraction
    index, since a lighter expansion may hold no annihilator that a
    heavier state meets (G_0 and G_1 hold no word on weight 0)."""
    ring = RINGS[name]
    idx = {ring.index[c] for c in CLASSES[name]}
    by_weight = {w: [s for s in basis_states(ring, w)
                     if all(i in idx for _, i in s)][:12] for w in (1, 3)}
    states = [()] + by_weight[1] + by_weight[3]
    trivial = [ring.basis(c) for c in CLASSES[name]
               if (ring.K * ring.basis(c)).is_zero()]
    first = ring.index[CLASSES[name][0]]
    builds = [lambda: fresh_derivation(ring)]
    for a in trivial[:2]:
        builds += [lambda a=a, k=k: fresh_named(chern, ring, k, a)
                   for k in (0, 1)]
        builds += [lambda a=a, n=n: quadratic_sum(ring, n, a)
                   for n in (-1, 0, 1)]
        builds.append(lambda a=a: fresh_named(jay, ring, 2, -1, a))
    kept_empty = 0
    for build in builds:
        grown = build()
        for s in states:
            assert column(grown, s) == column(build(), s), s
        # the columns cached on the way stay exact
        for s in states:
            assert column(grown, s) == column(build(), s), s
        # so do the empty ones kept at a lighter reach, ruled out by the
        # index or computed: no later band meets their states
        for n, col in grown._columns.items():
            if col is _EMPTY:
                kept_empty += 1
                assert column(build(), ring.states[n]) == {}, n
    assert kept_empty


@pytest.mark.parametrize("name", sorted(RINGS))
def test_series_scalar_comes_with_the_first_band(name):
    """A series grows band by band, and its scalar, which annihilates
    nothing, belongs to the first band alone: grown through weights 0,
    1 and 3 it gives the columns of a fresh series, and the vacuum
    column is the integral of the class once."""
    ring = RINGS[name]
    top = ring.basis(list(ring.degrees).index(4))
    smeared = SmearedOp({encode(()): 1, encode((-1, 1)): 1})
    states = [()] + light_states(name, 1)[1:] + basis_states(ring, 3)[:12]

    def build():
        return smeared_series(ring, lambda w: smeared, top)

    grown = build()
    assert column(grown, ()) == {(): 1}
    for s in states:
        assert column(grown, s) == column(build(), s), s


def fresh_derivation(ring):
    """derivation(ring) made anew, not taken from the ring's cache."""
    ring._cache.pop("derivation", None)
    return derivation(ring)


def fresh_named(build, ring, *args):
    """build(ring, *args), for chern, jay or virasoro, made anew, not
    taken from the ring's memo of named series."""
    ring._cache.pop("named", None)
    return build(ring, *args)


def test_contraction_index_is_exact_for_transfer_operators():
    """a(m; b) with m > 0 kills exactly the states the index rules out:
    those without a factor a(-m; c) that b pairs with."""
    for ring in (P2, AB):
        states = [s for w in range(3) for s in basis_states(ring, w)]
        for m in (1, 2):
            for i in range(ring.dim):
                op = heisenberg(ring, m, ring.basis(i))
                ref = ref_monomial(ring, (m,), ring.basis(i), REACH)
                index = op._contractions()
                for s in states:
                    killed = not ref_image(ref, {s: 1})
                    assert index.isdisjoint(s) == killed, (m, i, s)


def test_ruled_out_column_is_the_shared_empty_and_is_kept():
    """A state the contraction index rules out gets the shared read-only
    empty column, and the operator keeps it, so asking again is one
    lookup."""
    with pytest.raises(TypeError):
        _EMPTY[()] = 1
    for ring in (P2, AB):
        states = [s for w in range(3) for s in basis_states(ring, w)]
        for m in (1, 2):
            for i in range(ring.dim):
                op = heisenberg(ring, m, ring.basis(i))
                index = op._contractions()
                out = [s for s in states if index.isdisjoint(s)]
                assert () in out
                for s in map(ring.state_id, out):
                    assert op.column(s) is _EMPTY, (m, i, s)
                    assert op._columns[s] is _EMPTY, (m, i, s)
                    assert op.column(s) is _EMPTY, (m, i, s)


def test_commutator_column_with_both_columns_empty():
    """Where both operators kill the state, commutator_column returns a
    fresh empty image, which is the composition."""
    for ring in (P2, AB):
        states = [s for w in range(3) for s in basis_states(ring, w)]
        ops = [(heisenberg(ring, m, ring.basis(i)),
                ref_monomial(ring, (m,), ring.basis(i), REACH))
               for m in (1, 2) for i in range(ring.dim)]
        seen = 0
        for (f, fr), (g, gr) in zip(ops, ops[::-1]):
            sign = 1 if odd(fr) and odd(gr) else -1
            for s in states:
                if column(f, s) or column(g, s):
                    continue
                seen += 1
                one = {s: 1}
                want = ref_sum([(1, ref_image(fr, ref_image(gr, one))),
                                (sign, ref_image(gr, ref_image(fr, one)))])
                got = commutator_column(f, g, ring.state_id(s))
                assert got == want == {}, s
                assert got is not _EMPTY
        assert seen


@pytest.mark.parametrize("name", SURFACE_NAMES)
def test_commutator_block_leaves_out_only_empty_brackets(name):
    """For m, n in [-2, 2], every class pair and every state of weight at
    most 2 (1 on k3), a pair commutator_block keeps has the column of
    commutator_column and a pair it leaves out has the empty bracket;
    on the abelian surface the odd classes are among the pairs."""
    ring = builtin_ring(name)
    wmax = 1 if name == "k3" else 2
    states = [s for w in range(wmax + 1) for s in basis_states(ring, w)]
    fams = {m: OperatorFamily(heisenberg(ring, m, ring.basis(i))
                              for i in range(ring.dim))
            for m in range(-2, 3)}
    kept = left = odd_kept = 0
    for m, n in product(fams, repeat=2):
        if m > n:
            continue
        fs, gs = fams[m], fams[n]
        for s in states:
            # [g, f] is [f, g] for two odd operators, else -[f, g], so one
            # reference column checks the block in both orders.
            sid = ring.state_id(s)
            fg = commutator_block(fs, gs, sid)
            gf = commutator_block(gs, fs, sid)
            for (i, f), (j, g) in product(enumerate(fs.ops),
                                          enumerate(gs.ops)):
                want = commutator_column(f, g, sid)
                back = (want if f.parity() and g.parity()
                        else {t: -c for t, c in want.items()})
                for got, ref in ((fg.get((i, j)), want),
                                 (gf.get((j, i)), back)):
                    if got is None:
                        assert ref == {}, (m, n, i, j, s)
                        left += 1
                    else:
                        assert got == ref, (m, n, i, j, s)
                        kept += 1
                        odd_kept += ring.parity[i] and ring.parity[j]
    assert kept and left
    assert odd_kept or not any(ring.parity)


def odd(ref):
    """Whether every word of a reference operator is odd."""
    par = ref.ring.parity
    return {sum(par[i] for _, i in w) % 2 for w in ref.terms} == {1}


@pytest.mark.parametrize("name", sorted(RINGS))
@KERNEL
@given(data=st.data())
def test_commutator_column_matches_composition(name, data):
    fb, fr = data.draw(series(name))
    gb, gr = data.draw(series(name))
    f, g = fb(), gb()
    sign = 1 if odd(fr) and odd(gr) else -1
    for s in light_states(name):
        one = {s: 1}
        fg = ref_image(fr, ref_image(gr, one))
        gf = ref_image(gr, ref_image(fr, one))
        want = ref_sum([(1, fg), (sign, gf)])
        assert bracket_at(f, g, s) == want, s
        assert commutator_action(f, g, one) == want, s


@pytest.mark.parametrize("name", sorted(RINGS))
def test_character_commutator_on_a_narrower_window(name):
    """G_k against a(-1), as the character pins of thm31 and
    thm46-unique pair them, with G_k first grown on the lighter states
    alone: a(-1) then hands it images one point heavier, and G_k must
    grow past its narrower expansion to them, so the commutator column
    is the exact composition on every state."""
    ring = RINGS[name]
    states = light_states(name)
    trivial = [c for c in CLASSES[name]
               if (ring.K * ring.basis(c)).is_zero()]
    for k in (1, 2):
        for ca in trivial[:3]:
            gk = fresh_named(chern, ring, k, ring.basis(ca))
            for s in states:
                column(gk, s)
            assert gk._reach == 2
            gref = ref_instantiate(
                series_to_smeared(chern_families(k), REACH, REACH), ring,
                ring.basis(ca), REACH)
            for cb in CLASSES[name][:3]:
                am = heisenberg(ring, -1, ring.basis(cb))
                aref = ref_monomial(ring, (-1,),
                                    ring.basis(cb), REACH)
                sign = 1 if odd(gref) and odd(aref) else -1
                for s in states:
                    one = {s: 1}
                    fg = ref_image(gref, ref_image(aref, one))
                    gf = ref_image(aref, ref_image(gref, one))
                    want = ref_sum([(1, fg), (sign, gf)])
                    got = bracket_at(gk, am, s)
                    assert got == want, (k, ca, cb, s)
            assert gk._reach == 3


# -- the state-number kernel against the tuple-keyed one --------------------


def ref_column(src, state):
    """The column of a column source at a basis state, keyed by state
    tuple and kept nowhere: an operator grows to the state's weight, and
    its contraction index rules the state out or its words act group by
    group; a Bracket composes the reference columns of its two sides."""
    if isinstance(src, Bracket):
        return ref_commutator_column(src.f, src.g, state)
    w = weight(state)
    if src._reach is not None and w > src._reach:
        src._grown(w)
    index = src._contractions()
    if index is not False and index.isdisjoint(state):
        return {}
    out = {state: src.scalar} if src.scalar else {}
    for partners, words in src._groups:
        if partners is not None and partners.isdisjoint(state):
            continue
        for word in words:
            tc = src.terms[word]
            for s, c in operators.apply_word(src.ring, word, state):
                operators._acc(out, s, c * tc)
    return out


def ref_commutator_column(f, g, state):
    """[f, g] at a basis state from the reference columns, with the super
    sign from the operator parities; g's parity is asked only when f is
    odd, so g may be a Bracket when f is even."""
    gcol, fcol = ref_column(g, state), ref_column(f, state)
    out = {}
    for s, c in gcol.items():
        for s2, c2 in ref_column(f, s).items():
            operators._acc(out, s2, c * c2)
    if fcol:
        odd = f.parity() and g.parity()
        for s, c in fcol.items():
            for s2, c2 in ref_column(g, s).items():
                operators._acc(out, s2, c * c2 if odd else -c * c2)
    return out


def kernel_sources(ring):
    """Column sources on two classes that pair: the transfer operators
    a(+-1; a), a(2; b), a smeared monomial, a Virasoro series, d, the
    second derivative of a(-1; a), and brackets of two transfer
    operators and of a series with a monomial, where on the abelian
    surface two odd sides meet."""
    a, b = (ring.basis(c) for c in PARTNERS[ring.name])
    am = heisenberg(ring, -1, a)
    sources = [heisenberg(ring, 1, a), am, heisenberg(ring, 2, b),
               monomial(ring, (-2, 1), b), quadratic_sum(ring, 1, a),
               derivation(ring), derivative(am, 2)]
    sources += [Bracket(heisenberg(ring, 1, b), am),
                Bracket(quadratic_sum(ring, 1, b), monomial(ring, (-2,), a))]
    return sources


@pytest.mark.parametrize("name", SURFACE_NAMES)
def test_state_numbers_decode_to_the_tuple_reference(name):
    """On every state of weight at most 2 each source's column, keyed by
    state number, decodes to the tuple-keyed reference column, asked
    lightest state first; the abelian surface's odd classes exercise
    the Koszul signs of create_state and of the bracket."""
    ring = builtin_ring(name)
    states = [s for w in range(3) for s in basis_states(ring, w)]
    for k, src in enumerate(kernel_sources(ring)):
        live = 0
        for s in states:
            got = ring.vector(src.column(ring.state_id(s)))
            assert got == ref_column(src, s), (k, s)
            live += bool(got)
        assert live, k


def test_state_numbers_survive_clearing_the_ring_cache():
    """The state index lives beside ring._cache, not in it: an operator
    and a derivative whose columns were read before the cache was
    cleared bracket with an operator built after it, and d built anew
    brackets with the old derivative, as the tuple-keyed reference
    composes them."""
    ring = load_ring(dump_ring(AB))
    a, b = ring.basis("t1"), ring.basis("t234")
    states = [s for w in range(3) for s in basis_states(ring, w)]
    f = quadratic_sum(ring, 1, a)
    before = derivative(f, 1)
    for s in states:
        before.column(ring.state_id(s))
    count = len(ring.states)
    ring._cache.clear()
    g = heisenberg(ring, -1, b)
    assert derivation(ring) is not before.f
    for src in (Bracket(f, g), Bracket(g, f),
                Bracket(derivation(ring), before)):
        for s in states:
            got = ring.vector(src.column(ring.state_id(s)))
            assert got == ref_column(src, s), s
    assert ring.states[:count] == list(ring.state_ids)[:count]
    assert all(ring.state_ids[t] == n for n, t in enumerate(ring.states))


# -- exact coefficient types ----------------------------------------------


def _assert_exact(vec):
    for c in vec.values():
        assert type(c) in (int, Fraction), (type(c), c)


@pytest.mark.parametrize("name", sorted(RINGS))
def test_coefficients_stay_int_or_fraction(name):
    ring = RINGS[name]
    states = [s for w in range(3) for s in basis_states(ring, w)]
    names = ring.basis_names
    pairs = [(quadratic_sum(ring, 1, ring.basis(a)),
              heisenberg(ring, -1, ring.basis(b)))
             for a in names[:3] for b in names[-3:]]
    for s in states:
        v = {s: 1}
        for f, g in pairs:
            _assert_exact(bracket_at(f, g, s))
        for a in names[:3]:
            _assert_exact(arrangement(ring, (1, -2), ring.basis(a)).act(v))
        _assert_exact(derivation(ring).act(v))
        _assert_exact(combine((Fraction(1, 3), v), (-2, v)))


def test_instantiated_scalars_are_int_first():
    k3 = builtin_ring("k3")
    x = k3.basis("x")
    op = instantiate(SmearedOp({encode(()): -4}, 2), k3, x)
    assert type(op.scalar) is int and op.scalar == -2
    op = instantiate(SmearedOp({encode(()): 1}, 3), k3, x)
    assert op.scalar == Fraction(1, 3)


def test_scale_rejects_float_and_bool():
    v = {((-1, 0),): 1}
    for bad in (0.5, 1.0, True):
        with pytest.raises(TypeError):
            combine((bad, v))


def test_tracer_names_call_the_kernels():
    """The names perfbench/tracer.py wraps act on dicts as the operators
    the package calls, but are functions of their own, defined under
    their own names: the tracer rebinds every module global that holds
    a function it wraps, so an alias would put the kernel itself under
    its wrapper."""
    x = P2.basis("x")
    v = {((-1, 0), (-1, 2)): Fraction(1, 2), ((-2, 0),): 3}
    op = heisenberg(P2, 1, x)
    cases = ((operators.OperatorSum.apply, (op, v), op.act(v)),
             (operators.apply_arrangement, (P2, (1, -2), x, v),
              arrangement(P2, (1, -2), x).act(v)),
             (operators.derivation_apply, (P2, v), derivation(P2).act(v)))
    for (fn, args, want), name in zip(cases, ("apply", "apply_arrangement",
                                              "derivation_apply")):
        assert fn.__name__ == name
        assert fn(*args) == want != {}


# -- the int-first expansion ------------------------------------------------


ALL_RINGS = {name: builtin_ring(name) for name in SURFACE_NAMES}


def _assert_int_first(values, what):
    """Every value is an int or a non-integral Fraction: never an
    integral Fraction, a float or a bool."""
    for c in values:
        ok = (type(c) is int
              or (type(c) is Fraction and c.denominator != 1))
        assert ok, (what, type(c), c)


def _assert_op_int_first(op, what):
    """The same for the terms and scalar of an operator on the window 4."""
    op = op.terms_within(4)
    _assert_int_first(list(op.terms.values()) + [op.scalar], what)


@pytest.mark.parametrize("name", SURFACE_NAMES)
def test_operator_scalars_are_int_first(name):
    """tau, and the terms and scalar of every constructor of expanded
    operators, on every built-in ring."""
    ring = ALL_RINGS[name]
    basis = [ring.basis(i) for i in range(ring.dim)]
    trivial = [b for b in basis if (ring.K * b).is_zero()]
    for b in basis:
        what = (name, b.render())
        for k in (1, 2, 3, 4):
            _assert_int_first(ring.tau(k, b).values(), what + (k,))
        for n in (-2, -1, 1, 2):
            _assert_op_int_first(heisenberg(ring, n, b), what)
        for n in (-2, 0, 1):
            _assert_op_int_first(quadratic_sum(ring, n, b), what)
        for parts in ((-2, 1), (-1, -1, 2), (-1, 1, 1)):
            _assert_op_int_first(monomial(ring, parts, b),
                                 what + (parts,))
        for p in (0, 1, 2, 3):
            _assert_op_int_first(jay(ring, p, -1, b), what + (p,))
    for b in trivial:
        for k in (0, 1, 2):
            _assert_op_int_first(chern(ring, k, b), (name, k))
    # a smeared list with a constant term, instantiated
    # 3/2, 2, 1/24 and 4 over the denominator 24
    sm = SmearedOp({encode(()): 36, encode((-1, 1)): 48,
                    encode((-1,), 1): 1, encode((), 0, 1): 96}, 24)
    _assert_op_int_first(instantiate(sm, ring, ring.basis(0)), name)


# The literal reference: per-tau-key add_factors plus merge (RefSum), as
# the constructors built operators before the one-pass expansion, each
# holding the words that create and annihilate at most cutoff points.


def ref_monomial(ring, parts, elem, cutoff):
    op = RefSum(ring)
    if not parts or elem.is_zero():
        return op
    if (sum(p for p in parts if p > 0) > cutoff
            or -sum(p for p in parts if p < 0) > cutoff):
        return op
    for key, c in ring.tau(len(parts), elem).items():
        op.add_factors(tuple(zip(parts, key)), c)
    return op


def ref_quadratic_sum(ring, n, elem, cutoff):
    op = RefSum(ring)
    if elem.is_zero():
        return op
    for lam in enumerate_genpartitions(2, n, min(cutoff, cutoff + n)):
        # lambda^! of a two-part lambda: 2 when its parts are equal
        mult_factorial = 2 if lam[0] == lam[1] else 1
        op.merge(ref_monomial(ring, lam, elem, cutoff),
                 Fraction(-1, mult_factorial))
    return op


def ref_instantiate(smeared, ring, gamma, cutoff):
    op = RefSum(ring)
    for (modes, ep, kp), c in smeared.sorted_items():
        cls = gamma
        if ep:
            cls = cls * ring.e
        for _ in range(kp):
            cls = cls * ring.K
        if cls.is_zero():
            continue
        if not modes:
            op.merge(RefSum(ring, ring.integrate(cls)), c)
            continue
        op.merge(ref_monomial(ring, modes, cls, cutoff), c)
    return op


def ref_derivation(ring, cutoff):
    """-(1/lam^!) a_lam(tau_3 1) over the three-part partitions of 0,
    and -((n-1)/2) a_{-n} a_n(tau_2 K) for n >= 2."""
    op = RefSum(ring)
    for lam in enumerate_genpartitions(3, 0, cutoff):
        mult_factorial = prod(factorial(lam.count(p)) for p in set(lam))
        op.merge(ref_monomial(ring, lam, ring.unit, cutoff),
                 Fraction(-1, mult_factorial))
    for n in range(2, cutoff + 1):
        op.merge(ref_monomial(ring, (-n, n), ring.K, cutoff),
                 Fraction(1 - n, 2))
    return op


def _typed(op):
    """Terms and scalar with the type of every value, so that 1 and
    Fraction(1) differ."""
    return ({w: (type(c), c) for w, c in op.terms.items()},
            (type(op.scalar), op.scalar))


@st.composite
def expansions(draw):
    """(kernel operator cut to a window, reference operator on that
    window) for one constructor call."""
    name = draw(st.sampled_from(SURFACE_NAMES))
    ring = ALL_RINGS[name]
    cutoff = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(("chern", "jay", "virasoro", "fourier",
                                 "monomial", "derivation", "smeared")))
    if kind == "derivation":
        return (fresh_derivation(ring).terms_within(cutoff),
                ref_derivation(ring, cutoff))
    names = ring.basis_names
    if kind == "chern":
        names = [c for c in names if (ring.K * ring.basis(c)).is_zero()]
    elem = ring.basis(draw(st.sampled_from(names)))
    if kind == "chern":
        k = draw(st.integers(0, 3))
        return (chern(ring, k, elem).terms_within(cutoff),
                ref_instantiate(
                    series_to_smeared(chern_families(k), cutoff, cutoff),
                    ring, elem, cutoff))
    if kind == "jay":
        p, n = draw(st.integers(0, 3)), draw(st.integers(-2, 2))
        return (jay(ring, p, n, elem).terms_within(cutoff),
                ref_instantiate(
                    series_to_smeared(jay_families(p, n), cutoff, cutoff),
                    ring, elem, cutoff))
    if kind == "virasoro":
        n = draw(st.integers(-3, 3))
        return (virasoro(ring, n, elem).terms_within(cutoff),
                ref_quadratic_sum(ring, n, elem, cutoff))
    if kind == "fourier":
        orders = tuple(draw(st.lists(st.integers(0, 2), min_size=1,
                                     max_size=3)))
        mode = draw(st.integers(-2, 2))
        sm = series_to_smeared(fourier_families(orders, mode), cutoff, cutoff)
        return (fourier(ring, orders, mode, elem).terms_within(cutoff),
                ref_instantiate(sm, ring, elem, cutoff))
    if kind == "smeared":
        # rational coefficients, constant terms and e- and K-smearing
        key = st.tuples(st.lists(st.sampled_from(MODES), max_size=3).map(
            lambda ms: tuple(sorted(ms))), st.integers(0, 1),
            st.integers(0, 1))
        terms = draw(st.dictionaries(key, COEFFS, max_size=4))
        den = lcm(*[Fraction(c).denominator for c in terms.values()])
        sm = SmearedOp({encode(*k): int(c * den) for k, c in terms.items()},
                       den)
        return (instantiate(sm, ring, elem).terms_within(cutoff),
                ref_instantiate(sm, ring, elem, cutoff))
    parts = draw(st.lists(st.sampled_from(MODES), max_size=4))
    parts = tuple(sorted(parts))
    return (monomial(ring, parts, elem).terms_within(cutoff),
            ref_monomial(ring, parts, elem, cutoff))


@KERNEL
@given(pair=expansions())
def test_expansion_matches_add_factors_reference(pair):
    """The one-pass expansion gives the reference's terms and scalar,
    value and type, with every zero dropped."""
    op, ref = pair
    assert _typed(op) == _typed(ref)
    assert all(op.terms.values())

