"""Operators on the Fock space.

Two layers:

* Expanded operators (OperatorSum): mode monomials a(m1;c1)...a(mk;ck),
  normal ordered except in an arrangement, plus a scalar, acting
  exactly on {state: coeff} dicts; nothing truncates an image.  A
  finite operator keeps all its words: heisenberg, monomial
  (a_lambda(tau_l(class))), arrangement and instantiate.  A series
  (quadratic_sum, smeared_series, derivation) holds its words that
  annihilate at most w points, all that act on states of weight up to
  w, and grows when a heavier state arrives.  Every expansion is one
  int-first pass (_words).  An operator keeps its columns, the exact
  images of single basis states keyed by state number (ring.state_id),
  for its life, growing included; a contraction index skips the states
  it provably kills.  A family index (OperatorFamily) lifts the
  contraction index to a list of operators, and commutator_block
  composes, on one state, only the brackets of two families that it
  cannot rule out.  Both compositions of a bracket, f(g s) and g(f s),
  serve its mirror too: [g, f](s) = -(-1)^{|f||g|} [f, g](s), so a
  caller that checks both orders composes once.  Every word acts
  through one single-state kernel, apply_word.

  The boundary derivation d is one more series: G_1(1_X) plus a K-term
  (derivation), so the derivative of an operator is its bracket with d.
  Three column sources build the sides a check compares from
  operators, each with column(sid): Bracket(f, g) (commutator_column,
  kept per state), derivative(op, k) (k nested Brackets with d) and
  Linear((c, op), ...) (a combination of columns).  OperatorSum.apply,
  commutator_action, derivation_apply and apply_arrangement only pass a
  dict on to OperatorSum.act or commutator_column, as the names
  perfbench/tracer.py wraps; the package never calls them.  Each is a
  function of its own: the tracer rebinds every global holding a
  function it wraps, alias or not.
  Only terms_within cuts an operator to a window, for term lists.

* Smeared calculus (SmearedOp): combinations of a_lambda(tau(e^a K^b g))
  with the smearing class g kept symbolic, as integer numerators keyed
  by packed code (encode) over one positive int denominator, in which
  uniting two terms' modes and multiplying their powers is adding their
  codes (a Kronecker substitution).  A code is decoded, and a numerator
  divided, only by SmearedOp.sorted_items, which render, smeared_classes
  (where a list meets a ring) and s_bracket, the literal route, read.
  Its bracket and derivative rules implement the single-contraction
  expansion and the splitting expansion of the quadratic replacement
  rule; sorting an arrangement back to canonical order produces one
  Euler-smeared correction per inverted (v, -v) pair, and branches with
  two Euler factors vanish since e*e = 0.  series_bracket enumerates
  contraction events as (contracted value, survivor partitions) with
  survivors inside the output window, so windowed bracket lists are
  complete: no out-of-window input term can contribute.

  The calculus is integer-first.  A Family weights each partition by an
  integer numerator num(parts, mult_factorial, weighted_square) over one
  integer family denominator den.  series_to_smeared and series_bracket
  accumulate int numerators by code over the common denominator of their
  families (a bracket's family pairs into one dict, each pair's scale
  folded into the left entry of every event), and s_derive keeps its
  input's denominator, doubled; it splits codes without decoding them.
  combined sums lists times int or Fraction factors over the lcm of
  their denominators, and a bracket residual is one series_bracket with
  its pieces, one dict that the scaled pieces and the events add into,
  so no term is divided before it is read.

  A Family keeps the contraction and shed tables that the bracket
  events read (Family, _Tables), so a family built once, as
  walgebra.jay_families builds each J^p_n, shares them with every
  W-bracket cell.  Every table and window reads the one partition
  enumeration, partitions.genpartition_stats.

Identity checks compare smeared term lists (surface independent), then
instantiate on a concrete ring where needed.
"""

from __future__ import annotations

from functools import cache
from math import lcm
from operator import itemgetter
from types import MappingProxyType

from .fock import (annihilate_state, canonical_factors, combine,
                   create_state, exact, weight)
from .partitions import genpartition_stats
from .ring import ratio

# The column of every state the contraction index rules out; read-only,
# since it is shared.
_EMPTY = MappingProxyType({})


def _acc(d, key, c):
    v = d.get(key)
    v = c if v is None else v + c
    if v:
        d[key] = v
    elif key in d:
        del d[key]


def apply_word(ring, word, state):
    """Apply the factor word a(m1;b_i1)...a(mk;b_ik), right to left, to
    one basis state; returns its image as a list of (state, coeff)
    pairs, in which a state may repeat.  Every action of mode monomials
    on states goes through this single-state kernel, and the caller
    scales and merges the pairs once: the action is linear, so merging
    at the end gives what merging after every factor would.  A word of
    one factor (a_n(b), the shift a(-1;1)) is that factor's image.
    """
    if len(word) == 1:
        (mode, i), = word
        if mode > 0:
            return annihilate_state(ring, mode, i, state)
        s2, sgn = create_state(ring, -mode, i, state)
        return [(s2, sgn)] if s2 is not None else []
    cur = [(state, 1)]
    for mode, i in reversed(word):
        if mode > 0:
            cur = [(s2, c * c2) for s, c in cur
                   for s2, c2 in annihilate_state(ring, mode, i, s)]
        else:
            nxt = []
            for s, c in cur:
                s2, sgn = create_state(ring, -mode, i, s)
                if s2 is not None:
                    nxt.append((s2, c if sgn == 1 else -c))
            cur = nxt
        if not cur:
            break
    return cur


def _partners(ring, m, i):
    """The creation factors (-m, j) that a(m; b_i), m > 0, contracts
    with (pairing[i][j] != 0)."""
    return frozenset((-m, j) for j, g in
                     enumerate(ring.pairing_matrix()[i]) if g)


class OperatorSum:
    """Scalar plus normal-ordered mode monomials with rational weights.

    A finite operator is immutable.  A series (_series) holds the words
    that annihilate at most _reach points and grows through _grown; its
    parity is its class's.  Coefficients are stored through fock.exact,
    so integral ones are ints.  The parity, the contraction index and
    the columns are computed on first use and kept.
    """

    __slots__ = ("ring", "terms", "scalar", "_parity", "_columns",
                 "_groups", "_index", "_grow", "_reach")

    def __init__(self, ring, terms=None, scalar=0):
        self.ring = ring
        self.terms = {f: exact(c) for f, c in (terms or {}).items()}
        self.scalar = exact(scalar)
        self._parity = self._index = self._groups = None
        self._grow = self._reach = None
        self._columns = {}

    def _grown(self, w):
        """Grow a series to its words that annihilate at most w points;
        the exact columns stay."""
        terms, scalar = self._grow(self._reach, w)
        self.terms.update(terms)
        self.scalar += scalar
        self._reach = w
        self._index = self._groups = None

    def terms_within(self, cutoff):
        """The finite operator of the scalar and the words that create
        and annihilate at most cutoff points each: a term list cut to a
        window for display and comparison."""
        if self._reach is not None and cutoff > self._reach:
            self._grown(cutoff)
        return OperatorSum(self.ring, {
            f: c for f, c in self.terms.items()
            if max(sum(m for m, _ in f if m > 0),
                   -sum(m for m, _ in f if m < 0)) <= cutoff}, self.scalar)

    def scaled(self, c):
        """c times the words held now: for a finite operator only."""
        if not c:
            return OperatorSum(self.ring)
        return OperatorSum(self.ring,
                           {f: v * c for f, v in self.terms.items()},
                           self.scalar * c)

    def equal_terms(self, other):
        return self.terms == other.terms and self.scalar == other.scalar

    def parity(self):
        """Koszul parity of every monomial (checked), computed once."""
        if self._parity is None:
            par = self.ring.parity
            pars = {sum(par[i] for _, i in f) % 2 for f in self.terms}
            if self.scalar:
                pars.add(0)
            if len(pars) > 1:
                raise ValueError("operator has mixed parity")
            self._parity = pars.pop() if pars else 0
        return self._parity

    def _contractions(self):
        """The contraction index: the creation factors (-m, j) that the
        rightmost annihilator a(m; b_i) of some word contracts with
        (pairing[i][j] != 0), or False when a state without them may
        still have a nonzero image: some word has no annihilator, or the
        scalar is nonzero.

        Alongside it, the words grouped by their rightmost factor, each
        group with its own such factors (None for a creator), so that a
        column skips the groups that kill its state; OperatorFamily
        reads the index, a column only the groups.  Both are built once
        per expansion."""
        if self._index is None:
            groups = {}
            for word in self.terms:
                groups.setdefault(word[-1], []).append(word)
            self._groups = [
                (None if m <= 0 else _partners(self.ring, m, i), tuple(words))
                for (m, i), words in groups.items()]
            partners = [p for p, _ in self._groups]
            self._index = (False if self.scalar or None in partners
                           else frozenset().union(*partners))
        return self._index

    def column(self, sid):
        """The exact image of the basis state numbered sid (ring.states),
        as {state number: coeff}, as act({state: 1}) would give it, kept
        on the operator; callers must not modify it.  A series first
        grows to the state's weight.  The words act group by group, and
        a group whose partners the state lacks is skipped: exact for a
        series too, since every word a later band adds annihilates more
        points."""
        col = self._columns.get(sid)
        if col is not None:
            return col
        ring, state = self.ring, self.ring.states[sid]
        if self._reach is not None:
            w = weight(state)
            if w > self._reach:
                self._grown(w)
        if self._groups is None:
            self._contractions()
        out = {sid: self.scalar} if self.scalar else {}
        coeffs, ids = self.terms, ring.state_ids
        for partners, words in self._groups:
            if partners is not None and partners.isdisjoint(state):
                continue
            for word in words:
                tc = coeffs[word]
                for s, c in apply_word(ring, word, state):
                    # a new state is numbered by state_id (0 is asked again)
                    _acc(out, ids.get(s) or ring.state_id(s), c * tc)
        col = self._columns[sid] = out or _EMPTY
        return col

    def act(self, terms):
        """Image of a {state: coeff} dict: the combination of the cached
        columns of its states."""
        ring = self.ring
        states, out = ring.states, {}
        for s, c in terms.items():
            for n, c2 in self.column(ring.state_id(s)).items():
                _acc(out, states[n], c * c2)
        return out

    def apply(self, terms):
        return self.act(terms)

    def render(self):
        names = self.ring.basis_names
        lines = []
        if self.scalar:
            lines.append("%s * Id" % (self.scalar,))
        for f in sorted(self.terms):
            mono = " ".join("a(%d;%s)" % (m, names[i]) for m, i in f)
            lines.append("%s * %s" % (self.terms[f], mono))
        return "\n".join(lines) if lines else "0"


def commutator_column(f, g, sid):
    """[f, g] applied to the basis state numbered sid, with the super
    sign from the operator parities, formed from the cached columns."""
    gcol, fcol = g.column(sid), f.column(sid)
    out = {}
    for s, c in gcol.items():
        for s2, c2 in f.column(s).items():
            _acc(out, s2, c * c2)
    if fcol:
        odd = f.parity() and g.parity()
        for s, c in fcol.items():
            for s2, c2 in g.column(s).items():
                _acc(out, s2, c * c2 if odd else -c * c2)
    return out


class OperatorFamily:
    """Operators f_0, f_1, ... with one contraction index for all of them:
    each creation factor maps to the positions of the operators whose
    index holds it, and the positions whose index is False always meet.
    A series counts as False, since its index grows with it."""

    __slots__ = ("ops", "_holds", "_always", "_states")

    def __init__(self, ops):
        self.ops = tuple(ops)
        self._states = self.ops[0].ring.states if self.ops else []
        holds, always = {}, []
        for k, op in enumerate(self.ops):
            index = False if op._reach is not None else op._contractions()
            if index is False:
                always.append(k)
            else:
                for factor in index:
                    holds.setdefault(factor, []).append(k)
        self._holds, self._always = holds, always

    def meeting(self, col):
        """The positions whose index meets a state numbered in col; every
        other operator's column of each of its states is empty."""
        if not col:
            return ()
        out = set(self._always)
        holds, states = self._holds, self._states
        for s in col:
            for factor in states[s]:
                hit = holds.get(factor)
                if hit:
                    out.update(hit)
        return out


def commutator_block(fs, gs, sid):
    """{(i, j): commutator_column(f_i, g_j, sid)} over two OperatorFamily
    objects, for just the pairs where f_i's index meets a state of g_j
    sid or g_j's index meets a state of f_i sid.  Every
    other pair's bracket on this state is {}: both its compositions read
    only columns that the index rules out.  Only the operators whose
    index meets the state itself are asked for their column there; every
    other one's is empty, by the rule column applies."""
    f, g = fs.ops, gs.ops
    here = (sid,)
    keep = set()
    for j in gs.meeting(here):
        keep.update((i, j) for i in fs.meeting(g[j].column(sid)))
    for i in fs.meeting(here):
        keep.update((i, j) for j in gs.meeting(f[i].column(sid)))
    return {(i, j): commutator_column(f[i], g[j], sid) for i, j in keep}


def commutator_action(f, g, terms):
    """[f, g] applied to a {state: coeff} dict."""
    ring = f.ring
    return ring.vector(combine(*(
        (c, commutator_column(f, g, ring.state_id(s)))
        for s, c in terms.items())))


# -- constructors ----------------------------------------------------------


def _words(ring, items, den=1, scalar=0):
    """The terms and scalar of (scalar + sum of n * a_modes(tau_l(cls)))
    / den over items (modes, cls, n): modes nondecreasing, n an integer
    numerator and den a positive int.

    Every constructor but heisenberg expands through here.  Each tau word
    zip(modes, key) is brought to canonical order once, numerators
    accumulate per canonical word, and each word divides once through
    ratio, so integral coefficients are ints.  tau is looked up once per
    (arity, class)."""
    parity = ring.parity
    even = not any(parity)
    nums = {}
    taus = {}
    for modes, cls, n in items:
        at = (len(modes), cls.coeffs)
        tau = taus.get(at)
        if tau is None:
            tau = taus[at] = ring.tau(len(modes), cls)
        if even:
            # no Koszul signs and no vanishing repeats: a plain sort
            for key, c in tau.items():
                _acc(nums, tuple(sorted(zip(modes, key))), n * c)
            continue
        for key, c in tau.items():
            word, sign = canonical_factors(zip(modes, key), parity)
            if word is not None:
                _acc(nums, word, n * c if sign == 1 else -n * c)
    return {w: ratio(v, den) for w, v in nums.items()}, ratio(scalar, den)


def _series(ring, elem, items_at):
    """The series over elem whose words that annihilate at most w points
    are the _words of items_at(w) = (items, den[, scalar]).  Growing
    from lo to hi points expands every item of items_at(hi): a word
    annihilates what its item does, so the words held already come again
    with the same coefficients.  The scalar comes with the first band."""
    def band(lo, hi):
        items, den, *scalar = items_at(hi)
        return _words(ring, items, den, *(scalar if lo < 0 else ()))

    op = OperatorSum(ring)
    op._grow = band
    op._reach, op._parity = -1, elem.parity()
    return op


def heisenberg(ring, n, elem):
    """Transfer operator a(n; elem); n = 0 gives the zero operator."""
    if n == 0:
        return OperatorSum(ring)
    return OperatorSum(ring, {((n, i),): c for i, c in elem.components()})


def monomial(ring, parts, elem):
    """Smeared monomial a_parts(tau_l(elem)), for a sorted tuple of
    nonzero modes; the empty tuple gives 0."""
    if not parts or elem.is_zero():
        return OperatorSum(ring)
    return OperatorSum(ring, *_words(ring, [(parts, elem, 1)]))


def _quadratic_items(n, elem, reach, scale=1):
    """Items of scale * L(n; elem) over the denominator 2, for the
    partitions that annihilate at most reach points."""
    return [(parts, elem, -scale * (2 // mf))
            for parts, _, _, mf, _ in genpartition_stats(2, n, reach)]


def quadratic_sum(ring, n, elem):
    """The Virasoro series L(n; elem),

        L_n = - sum over two-part generalized partitions of size n of
              (1 / mult!) a_lambda(tau_2(elem)).
    """
    return _series(ring, elem,
                   lambda w: (_quadratic_items(n, elem, w), 2))


def arrangement(ring, modes, elem):
    """a_{m1}...a_{mk}(tau_k(elem)) with the modes in the given, possibly
    unsorted, order: an OperatorSum whose words keep that order.  The
    empty arrangement is integral(elem) * Id, as in the smeared
    convention."""
    if not modes:
        return OperatorSum(ring, scalar=ring.integrate(elem))
    return OperatorSum(ring, {tuple(zip(modes, key)): c for key, c in
                              ring.tau(len(modes), elem).items()})


def apply_arrangement(ring, modes, elem, terms):
    return arrangement(ring, modes, elem).act(terms)


# -- the derivation operator and column sources ----------------------------


def _derivation_items(ring, reach):
    """Items of the derivation over the denominator 6, for the words that
    annihilate at most reach points: -(6/lam^!) a_lam(tau_3 1) over the
    three-part partitions of 0, and -3(n-1) a_{-n} a_n(tau_2 K) for
    n >= 2."""
    items = [(parts, ring.unit, -(6 // mf))
             for parts, _, _, mf, _ in genpartition_stats(3, 0, reach)]
    return items + [((-n, n), ring.K, -3 * (n - 1))
                    for n in range(2, reach + 1)]


def derivation(ring):
    """The boundary derivation d, G_1(1_X) plus a K-term (Lehn, Invent.
    Math. 136 (1999), Thm 3.10), as one even series that keeps the
    weight, so [d, a(n;c)] = n L(n;c) - (n(|n|-1)/2) a(n; K c).  Kept
    in ring._cache for the process, with its columns."""
    op = ring._cache.get("derivation")
    if op is None:
        op = ring._cache["derivation"] = _series(
            ring, ring.unit, lambda w: (_derivation_items(ring, w), 6))
    return op


def derivation_apply(ring, terms):
    return derivation(ring).act(terms)


class Bracket:
    """The bracket [f, g] as a column source: its column of a basis
    state is commutator_column(f, g, state), kept once computed.  f and
    g are operators, but g may be a column source when f is even, as d
    is: commutator_column asks g's parity only when f is odd."""

    __slots__ = ("f", "g", "_columns")

    def __init__(self, f, g):
        self.f, self.g, self._columns = f, g, {}

    def column(self, sid):
        if sid not in self._columns:
            self._columns[sid] = commutator_column(self.f, self.g, sid)
        return self._columns[sid]


def derivative(op, k):
    """The k-th derivative D^k(op) = [d, D^{k-1}(op)] as k nested
    Brackets with derivation(op.ring); k = 0 gives op."""
    d = derivation(op.ring)
    for _ in range(k):
        op = Bracket(d, op)
    return op


class Linear:
    """A combination of (c, source) pieces as a column source: its column
    of a basis state combines theirs, and is not kept."""

    __slots__ = ("pieces",)

    def __init__(self, *pieces):
        self.pieces = pieces

    def column(self, sid):
        if len(self.pieces) == 1:
            (c, op), = self.pieces
            return {t: c * v for t, v in op.column(sid).items()} if c else {}
        return combine(*((c, op.column(sid)) for c, op in self.pieces))


# -- smeared calculus ------------------------------------------------------


# Byte 0 of a packed code holds the Euler power in bits 0-3 and the K
# power in bits 4-7 (e is 1, K is 16): the codes below 256 hold no mode.
SCALARS = 256


def _bit(m):
    """The code of the single mode m: a 1 in byte 2m - 1 for m > 0 and in
    byte -2m for m < 0."""
    return 1 << (16 * m - 8 if m > 0 else -16 * m)


def encode(parts, e=0, k=0):
    """The packed code of a_parts(tau(e^e K^k gamma)): the powers in byte
    0 (SCALARS) and the count of each mode m in its own byte (_bit), so
    that codes add as the terms' modes unite and their powers multiply.
    At most 127 parts and powers up to 7, so that the sum of two codes
    keeps every count and power within its field."""
    if len(parts) > 127:
        raise ValueError("a packed code holds at most 127 parts, got %d"
                         % len(parts))
    if not (0 <= e <= 7 and 0 <= k <= 7):
        raise ValueError("a packed code holds e and K powers 0..7, got "
                         "e^%d K^%d" % (e, k))
    code = e + (k << 4)
    for m in parts:
        code += _bit(m)
    return code


def _counts(code):
    """(mode, count) for each mode that a packed code holds, in byte
    order: 1, -1, 2, -2, ..."""
    data = code.to_bytes((code.bit_length() + 7) // 8, "little")
    return [((slot + 1) >> 1 if slot & 1 else -(slot >> 1), n)
            for slot, n in enumerate(data) if n and slot]


def decode(code):
    """The key (modes, e, K) of a packed code, modes sorted: the form in
    which a smeared term meets text and rings."""
    modes = sorted(m for m, n in _counts(code) for _ in range(n))
    return tuple(modes), code & 15, code >> 4 & 15


def euler_shifted(smeared):
    """A smeared list times e: a term that carries e already dies, since
    e*e = 0."""
    return SmearedOp({k + 1: n for k, n in smeared.terms.items()
                      if not k & 15}, smeared.den)


class SmearedOp:
    """Combination of a_modes(tau(e^a K^b gamma)) with gamma symbolic.

    Terms map packed codes (encode) to nonzero int numerators over one
    positive int den; the constructor drops zeros and refuses any other
    numerator or den.  A code below SCALARS holds no mode and stands for
    integral(e^a K^b gamma) * Id.  Only sorted_items decodes a code and
    divides a numerator (an int when integral, else a Fraction), where a
    list meets text or a ring; equality compares the quotients.
    """

    __slots__ = ("terms", "den")

    def __init__(self, terms=None, den=1):
        if type(den) is not int or den < 1:
            raise ValueError("a smeared denominator is a positive int, "
                             "got %r" % (den,))
        self.terms = {k: n for k, n in terms.items() if n} if terms else {}
        if {*map(type, self.terms.values())} - {int}:
            raise ValueError("smeared numerators are ints, got %r" % next(
                n for n in self.terms.values() if type(n) is not int))
        self.den = den

    def __eq__(self, other):
        return (isinstance(other, SmearedOp)
                and self.terms.keys() == other.terms.keys()
                and all(n * other.den == other.terms[k] * self.den
                        for k, n in self.terms.items()))

    def is_zero(self):
        return not self.terms

    def sorted_items(self):
        den = self.den
        return sorted((decode(k), ratio(n, den))
                      for k, n in self.terms.items())

    def render(self):
        lines = []
        for (modes, a, b), c in self.sorted_items():
            tag = "g" + ("*e" * a) + ("*K" * b)
            mono = " ".join("a(%d)" % m for m in modes) if modes else "Id"
            lines.append("%s * %s [%s]" % (c, mono, tag))
        return "\n".join(lines) if lines else "0"


def combined(*pieces):
    """The sum of c * op over (c, op) pieces, for int or Fraction c, over
    the lcm of their denominators."""
    return SmearedOp(*_summed(pieces))


def _summed(pieces, dens=()):
    """(numerators by code, den) of the sum of c * op over (c, op) pieces,
    den the lcm of dens and the pieces' denominators."""
    den = lcm(*dens, *[c.denominator * op.den for c, op in pieces])
    nums = {}
    for c, op in pieces:
        scale = c.numerator * (den // (c.denominator * op.den))
        for k, n in op.terms.items():
            nums[k] = nums.get(k, 0) + scale * n
    return nums, den


def _euler_corrections(seq):
    """(sorted rest, -v) for each inverted pair (v, -v) of seq, v > 0
    first: the rest is seq with that pair removed."""
    for i1, v in enumerate(seq):
        if v <= 0:
            continue
        for i2 in range(i1 + 1, len(seq)):
            if seq[i2] == -v:
                rest = seq[:i1] + seq[i1 + 1:i2] + seq[i2 + 1:]
                yield tuple(sorted(rest)), -v


def normalize_arrangement(seq):
    """Sort a mode arrangement, collecting Euler corrections.

    Returns (sorted modes, extra Euler power, integer factor) triples: the
    sorted main term, plus one term per inverted (v, -v) pair in which the
    pair is removed and the factor is -v (v the earlier, positive value).
    Deeper corrections would carry e^2 = 0 and are omitted.
    """
    return [(tuple(sorted(seq)), 0, 1)] + [
        (ms, 1, im) for ms, im in _euler_corrections(seq)]


def s_bracket(a, b):
    """Bracket of two explicit smeared lists by single contractions, on
    decoded mode tuples re-sorted by normalize_arrangement, over the
    product of their denominators."""
    terms_b = [(key, exact(c * b.den)) for key, c in b.sorted_items()]
    out = {}
    for (nu, ea, ka), ca in a.sorted_items():
        na = exact(ca * a.den)
        for (mu, eb, kb), nb in terms_b:
            e0, k0 = ea + eb, ka + kb
            if e0 > 1:
                continue
            for t, v in enumerate(nu):
                for j, w in enumerate(mu):
                    if v != -w:
                        continue
                    coeff = -v * na * nb
                    arr = mu[:j] + nu[:t] + nu[t + 1:] + mu[j + 1:]
                    for ms, ee, im in normalize_arrangement(arr):
                        if e0 + ee > 1:
                            continue
                        _acc(out, encode(ms, e0 + ee, k0), coeff * im)
    return SmearedOp(out, a.den * b.den)


class Family:
    """One full smeared series: all partitions of a length and size, the
    partition lam weighted by num(parts, mult_factorial, weighted_square)
    / den.

    num returns an int and den is one positive int for the whole family,
    so the bracket inner loops multiply ints only, and the output keeps
    the common denominator of the family pairs.  A weight c / lam^!
    meets this with num = c * (ell! // lam^!) and den = ell!, since
    lam^! divides ell! (walgebra.mult_family).
    The partition statistics are precomputed, so evaluating num
    allocates nothing extra.

    A family keeps its contraction tables (contractions) and its shed
    tables (sheds) for its life: a family built once, such as a member
    of walgebra.jay_families, evaluates num once per partition,
    contracted part (or contracted and shed pair of parts) and neg cap,
    however many brackets read it.  The plain events of a bracket read
    the contraction tables and its Euler-corrected events the shed
    tables (_swap_events).  The tables follow num, so a family is never
    edited: a changed weight is a new Family.
    """

    __slots__ = ("ell", "total", "num", "den", "epow", "_tables", "_sheds")

    def __init__(self, ell, total, num, den=1, epow=0):
        self.ell = ell
        self.total = total
        self.num = num
        self.den = den
        self.epow = epow
        self._tables = {}
        self._sheds = {}

    def contractions(self, poscap, negcap):
        """The contraction tables of the box pos <= poscap, neg <= negcap,
        a _Tables index keyed by each part x that a partition lam =
        rest + (x,) of the family may hold; a row's weight is num(lam)
        times the multiplicity of x in lam."""
        return self._index(self._tables, poscap, negcap, 1)

    def sheds(self, poscap, negcap):
        """The shed tables of the box, a _Tables index keyed by each pair
        of parts (v, x) of the sign of s = v + x with |x| <= |v| that a
        partition lam = rest + (v, x) of the family may hold; a row's
        weight is num(lam) times m_v(lam) (m_x(lam) - [x = v]), the
        ordered choices of a v part and another x part."""
        return self._index(self._sheds, poscap, negcap, 2)

    def _index(self, store, poscap, negcap, k):
        """The index of tables of k parts in store for the box.  It is
        made per neg cap up to pos <= max(poscap, negcap), which holds
        every box of this negcap that the package asks (no poscap of its
        brackets exceeds negcap), and made anew, wider, only when a box
        asks for more."""
        index = store.get(negcap)
        if index is None or poscap > index.cap:
            cap = max(poscap, negcap)
            sums = [s for s in range(self.total - cap, self.total + negcap + 1)
                    if s and _holds(self, s, k)]
            keys = sums if k == 1 else [
                (s - x, x) for s in sums
                for x in (range(1, s // 2 + 1) if s > 0
                          else range(-1, -(-s // 2) - 1, -1))]
            index = store[negcap] = _Tables(self, cap, negcap, keys)
        return index


class _Tables(dict):
    """The tables of one kind of a family on one neg cap, up to pos <=
    cap: each key is a part x or a pair of parts (v, x) that a partition
    of the family may hold, mapped to None until its table is first
    built (rows), then to the table.  A table is a tuple of rows
    (code, pos, c), one for each partition lam = rest + parts with a
    nonzero weight and rest on the window: code is the packed code of
    rest plus the family's Euler power, and c is num(lam) times the
    ordered choices of those parts in lam, which is lam^! / rest^!.  The
    rows are sorted by pos, so a narrower box reads a prefix, and rows
    of equal weight share one int object: after the 34 default reports
    that keeps 23,251 fewer ints, 0.5 MB.  The index keeps the family's
    fields, not the family, so that a family built per call frees its
    tables with itself, with no reference cycle."""

    __slots__ = ("ell", "total", "num", "epow", "cap", "negcap")

    def __init__(self, fam, cap, negcap, keys):
        super().__init__(dict.fromkeys(keys))
        self.ell, self.total, self.num, self.epow = (fam.ell, fam.total,
                                                     fam.num, fam.epow)
        self.cap, self.negcap = cap, negcap

    def rows(self, key):
        """The table of a key, built on first read."""
        rows = self[key]
        if rows is None:
            num, epow = self.num, self.epow
            take = key if type(key) is tuple else (key,)
            v, *more = take
            sq = sum(t * t for t in take)
            rows, ints = [], {}
            for rest, pos, _, mf, ws, code in _stats_list(
                    self.ell - len(take), self.total - sum(take), self.cap,
                    self.negcap):
                k = rest.count(v) + 1
                if more:
                    k *= rest.count(more[0]) + 1 + (more[0] == v)
                c = k * num(tuple(sorted(rest + take)), mf * k, ws + sq)
                if c:
                    rows.append((code + epow, pos, ints.setdefault(c, c)))
            rows.sort(key=itemgetter(1))
            rows = self[key] = tuple(rows)
        return rows


@cache
def _stats_list(ell, total, poscap, negcap):
    """(parts, pos, neg, mult!, sum of squares, code) of each partition on
    a window: a row of partitions.genpartition_stats with the packed code
    of its parts, so that no reader encodes.  Kept for the process; a
    tuple, since every caller shares it."""
    bound = min(poscap, negcap + total)
    if bound < 0:
        return ()
    return tuple(row + (encode(row[0]),)
                 for row in genpartition_stats(ell, total, bound))


def series_to_smeared(families, poscap, negcap):
    """The families on the box window pos <= poscap, neg <= negcap, as
    integer numerators by packed code over their common family
    denominator: each partition's code from its _stats_list row, plus
    its family's Euler power."""
    den = lcm(*[fam.den for fam in families])
    nums = {}
    for fam in families:
        num, scale, epow = fam.num, den // fam.den, fam.epow
        for parts, _, _, mf, ws, code in _stats_list(fam.ell, fam.total,
                                                     poscap, negcap):
            _acc(nums, code + epow, num(parts, mf, ws) * scale)
    return SmearedOp(nums, den)


def series_bracket(fams_a, fams_b, poscap, negcap, *pieces):
    """The complete bracket of two families of smeared series on the box
    pos <= poscap, neg <= negcap, plus c * op for each (c, op) piece, over
    the common denominator of all family pairs and pieces: a residual is
    one call, its expected side's pieces negated.

    Two kinds of event.  Plain contraction events keep every survivor
    mode, so the survivors are sub-multisets of the output and sit
    inside the box; reading them from the families' contraction tables,
    cut to the box, is complete.  Each contracts the value v of
    a = a' + (v,) with the -v of b = b' + (-v,), and every position of
    -v in b gives the same sorted output a' + b'.  Euler-corrected events
    shed one (x, -x) pair while reordering, so the shed pair may stick
    out of the box, but the output a'' + b'' (both pairs removed) does
    not; they are read from the shed tables (_swap_events).  The scaled
    pieces are written into one dict, and every family pair's events add
    into it, the pair's scale folded into the left entry of each event.
    """
    pairs = [(fa, fb) for fa in fams_a for fb in fams_b
             if fa.epow + fb.epow <= 1]
    nums, den = _summed(pieces, [fa.den * fb.den for fa, fb in pairs])
    for fa, fb in pairs:
        scale = den // (fa.den * fb.den)
        _plain_events(fa, fb, poscap, negcap, nums, scale)
        if fa.epow + fb.epow == 0 and fa.ell >= 2 and fb.ell >= 2:
            _swap_events(fa, fb, poscap, negcap, nums, scale)
    return SmearedOp(nums, den)


def _holds(fam, x, k=1):
    """Whether a partition of the family may hold k parts summing to x:
    its rest of ell - k nonzero parts must sum to total - x."""
    ell, rest = fam.ell - k, fam.total - x
    return ell > 1 or (ell == 1 and rest != 0) or (ell == 0 and rest == 0)


def _plain_events(fa, fb, poscap, negcap, nums, scale):
    """Add to nums scale times the integer numerators of the plain
    contraction events of one family pair, keyed by packed output code,
    and return it: the products of the two families' table entries for
    v and -v whose survivors fit the box together, the sum of the
    survivors' codes being the output's.  An output of size fa.total +
    fb.total lies in the box exactly when its pos is at most top, and
    the tables are sorted by pos, so each loop stops at its first entry
    past its cap.  Each survivor's total lies in [-negcap, top], so only
    the v of fa's index in that range whose -v fb's index holds are
    read, and fa's table of v is built only when fb's of -v has rows."""
    top = min(poscap, negcap + fa.total + fb.total)
    lo = max(fa.total - top, -negcap - fb.total)
    hi = min(fa.total + negcap, top - fb.total)
    side = fb.contractions(poscap, negcap)
    index = fa.contractions(poscap, negcap)
    for v, rows_a in index.items():
        if not lo <= v <= hi:
            continue
        rows_b = side.get(-v, ())
        if rows_b is None:
            rows_b = side.rows(-v)
        if not rows_b:
            continue
        if rows_a is None:
            rows_a = index.rows(v)
        w = -v * scale
        for ka, posa, ca in rows_a:
            if posa > top:
                break
            ca *= w
            cap = top - posa
            for kb, posb, cb in rows_b:
                if posb > cap:
                    break
                k = ka + kb
                nums[k] = nums.get(k, 0) + ca * cb
    return nums


def _swap_events(fa, fb, poscap, negcap, nums, scale):
    """Add to nums scale times the integer numerators of the bracket
    events of one family pair whose reordering sheds one (x, -x) pair,
    keyed by packed output code with one more power of e, and return it.

    Sorting the arrangement of a contraction of v in a = a'' + (v, x)
    with -v in b = b'' + (-v, -x) inverts the pair (x, -x) exactly when
    x has the sign of v and |x| <= |v|; the pair is removed with the
    factor -|x| and the output is a'' + b''.  Over the ordered choices
    of the v and x parts on each side, that is the product of the shed
    tables of (v, x) in fa and (-v, -x) in fb with the weight
    (-v)(-|x|), halved when x = v, since then only half of the ordered
    (-v, -x) choices invert.  The output has size fa.total + fb.total,
    so, as for plain events, it lies in the box exactly when its pos is
    at most top, and each loop stops at its first entry past its cap.
    Only the pairs of fa's index with v + x >= fa.total - poscap whose
    negation fb's index holds are read.
    """
    top = min(poscap, negcap + fa.total + fb.total)
    lo = fa.total - poscap
    side = fb.sheds(poscap, negcap)
    index = fa.sheds(poscap, negcap)
    for (v, x), rows_a in index.items():
        if v + x < lo:
            continue
        rows_b = side.get((-v, -x), ())
        if rows_b is None:
            rows_b = side.rows((-v, -x))
        if not rows_b:
            continue
        if rows_a is None:
            rows_a = index.rows((v, x))
        w = v * abs(x) * scale
        for ka, posa, ca in rows_a:
            if posa > top:
                break
            # for x = v, ca holds the even factor m_v (m_v - 1)
            ca = ca * w // 2 if x == v else ca * w
            cap = top - posa
            ka += 1
            for kb, posb, cb in rows_b:
                if posb > cap:
                    break
                k = ka + kb
                nums[k] = nums.get(k, 0) + ca * cb
    return nums


def s_derive(a, kpos, kneg, poscap, negcap, include_k=True):
    """Derivative of a smeared list under the replacement rule.

    Each part v splits into ordered pairs m1 + m2 = v, with -negcap <=
    m1, m2 <= poscap and weight -v/2 (the pair inserted in place, normal
    ordered), and each term gains a K-smeared copy weighted by
    -sum v(|v|-1)/2 unless include_k is off.  An output term is kept on
    the box pos <= kpos, neg <= kneg of its positive total and its
    negative parts' size.

    The calculus is integer-first: twice the result is accumulated in
    ints over the input's denominator D, so the output is over 2D.  It
    runs on packed codes, decoding no term: a split takes v's code off
    and adds those of m1 and m2, a mode held c times splits once with
    weight c, and a split into m1 < 0 < m2 grows pos and neg both by
    m2 - max(v, 0).  The Euler corrections of a split are found
    directly: an inverted pair of the sorted arrangement, a positive
    part before its negative, joins one new part to an old part u of v's
    sign with |u| <= |v| (u = -m1 for v > 0, u = -m2 for v < 0), in
    c_v c_u ways over the copies of v and u, or c_v (c_v - 1) / 2 for
    u = v.  Each removes the pair with factor -|u| and one more power of
    e, leaving rest - u + (v + u), with the input term's pos and neg.
    """
    twice = {}
    for code, n in a.terms.items():
        counts = _counts(code)
        pos = sum(m * k for m, k in counts if m > 0)
        neg = pos - sum(m * k for m, k in counts)
        if include_k:
            ks = -sum(k * (v * (abs(v) - 1) // 2) for v, k in counts)
            if ks and pos <= kpos and neg <= kneg:
                if code & 0xF0 == 0xF0:
                    raise ValueError("a K power above 15 overflows a code")
                _acc(twice, code + 16, 2 * ks * n)
        fix = not code & 15 and pos <= kpos and neg <= kneg
        held = dict(counts)
        for v, cv in counts:
            base = -v * n
            rest = code - _bit(v)
            for m1 in range(max(-negcap, v - poscap), v // 2 + 1):
                m2 = v - m1
                if m1 == 0 or m2 == 0:
                    continue
                w = base if m1 == m2 else 2 * base
                grow = m2 - max(v, 0) if m1 < 0 < m2 else 0
                if pos + grow <= kpos and neg + grow <= kneg:
                    _acc(twice, rest + _bit(m1) + _bit(m2), cv * w)
                if not fix or not grow:
                    continue
                u = -m1 if v > 0 else -m2
                if abs(u) > abs(v):
                    continue
                hits = cv * (cv - 1) // 2 if u == v else cv * held.get(u, 0)
                if hits:
                    _acc(twice, rest - _bit(u) + _bit(v + u) + 1,
                         -abs(u) * hits * w)
    return SmearedOp(twice, 2 * a.den)


def smeared_classes(smeared, ring, gamma):
    """(modes, class, coefficient) of each term of a smeared list against
    a concrete smearing class, in sorted_items order: the one place a
    smeared term meets a ring.  The class is gamma times the term's
    powers of e and K, and a term whose class is zero is left out."""
    for (modes, ep, kp), c in smeared.sorted_items():
        cls = gamma
        for factor in (ring.e,) * ep + (ring.K,) * kp:
            cls = cls * factor
        if not cls.is_zero():
            yield modes, cls, c


def _smeared_items(smeared, ring, gamma):
    """The _words arguments (items, den, scalar) of a smeared list against
    a concrete smearing class, over its denominator."""
    den = smeared.den
    items = []
    scalar = 0
    for modes, cls, c in smeared_classes(smeared, ring, gamma):
        n = c.numerator * (den // c.denominator)
        if modes:
            items.append((modes, cls, n))
        else:
            scalar += n * ring.integrate(cls)
    return items, den, scalar


def instantiate(smeared, ring, gamma):
    """The finite operator of a smeared list against a concrete smearing
    class."""
    return OperatorSum(ring, *_words(ring, *_smeared_items(smeared, ring,
                                                           gamma)))


def smeared_series(ring, smeared_at, elem):
    """The series of a smeared list against elem, where smeared_at(w) is
    the smeared list of its terms that annihilate at most w points."""
    return _series(ring, elem,
                   lambda w: _smeared_items(smeared_at(w), ring, elem))
