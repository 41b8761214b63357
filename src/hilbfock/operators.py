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
  int-first pass (_words): integer numerators over one denominator per
  operator, each tau word brought to canonical order once, one division
  per word through ring.ratio.  An operator caches its columns, the
  exact images of single basis states, for its life (growing keeps
  them); a contraction index skips the states it provably kills, and
  their shared empty column is remembered, so a second ask is one
  lookup.  A family index (OperatorFamily) lifts it to a list of
  operators, and commutator_block composes, on one state, only the
  brackets of two families that it cannot rule out, asking a column
  only of the operators whose index meets that state.  Every word acts
  through one single-state kernel, apply_word, which carries one
  state's image through the word as a list of (state, coeff) pairs
  that the column merges once.

  The boundary derivation d is one more series: G_1(1_X) plus a K-term
  (derivation), so the derivative of an operator is its bracket with d.
  Three column sources build the sides a check compares from
  operators, each with column(state): Bracket(f, g) (commutator_column,
  kept per state), derivative(op, k) (k nested Brackets with d) and
  Linear((c, op), ...) (a combination of columns).  OperatorSum.apply,
  commutator_action, derivation_apply and apply_arrangement only pass a
  dict on to OperatorSum.act or commutator_column, as the names
  perfbench/tracer.py wraps; the package never calls them.  Each is a function of its own: the tracer
  rebinds every global holding a function it wraps, alias or not.
  Only terms_within cuts an operator to a window, for term lists.

* Smeared calculus (SmearedOp): combinations of a_lambda(tau(e^a K^b g))
  with the smearing class g kept symbolic, keyed by (modes, a, b).  Its
  bracket and derivative rules implement the single-contraction expansion
  and the splitting expansion of the quadratic replacement rule; sorting
  an arrangement back to canonical order produces one Euler-smeared
  correction per inverted (v, -v) pair, and branches with two Euler
  factors vanish since e*e = 0.  series_bracket enumerates contraction
  events as (contracted value, survivor partitions) with survivors inside
  the output window, so windowed bracket lists are complete: no
  out-of-window input term can contribute.

  The calculus is integer-first.  A Family weights each partition by an
  integer numerator num(parts, mult_factorial, weighted_square) over one
  integer family denominator den.  series_nums and bracket_nums
  accumulate int numerators and bring the families (or the family pairs
  of a bracket) to one common denominator, returning (numerators,
  denominator), so a caller can sum several of them over one
  denominator before dividing; series_to_smeared and series_bracket
  divide them once per output key through _divided (ring.ratio).
  s_derive accumulates int numerators over the lcm D of its input's
  denominators and divides once per key by 2D; it finds each split's
  Euler corrections directly, without re-sorting the arrangement.
  SmearedOp values are stored through fock.exact: an int when
  integral, else a Fraction, never a float.

  A Family keeps two kinds of table, each sorted by positive total so
  that a narrower box reads a prefix.  Its contraction tables
  (Family.survivors), per contracted part x and neg cap, hold the
  partitions rest + (x,) by rest with their nonzero weights; a plain
  contraction event multiplies two entries.  Its shed tables
  (Family.shed), per pair of parts (v, x) and neg cap, hold the
  partitions rest + (v, x) by rest, weighted by the ordered choices of
  a v part and another x part.  An Euler-corrected event contracts v
  and sheds the pair (x, -x) exactly when x has the sign of v and
  |x| <= |v|, so it multiplies fa.shed(v, x) by fb.shed(-v, -x) with
  the weight (-v)(-|x|), halved at x = v.  So num runs once per family,
  part and window instead of once per bracket.  walgebra.jay_families
  builds each J^p_n once per process, so every W-bracket cell shares
  its tables; a family built per call frees them with itself.  The
  tables, _stats_list and enumerate_genpartitions all read the one
  partition enumeration, partitions.genpartition_stats, whose rows carry
  each partition's parts, mult! and sum of squares; a partition is a
  sorted tuple.

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
    at the end gives what merging after every factor would.
    """
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
        """Grow a series to its words that annihilate at most w points,
        expanding the new ones only; the exact columns stay."""
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
        keep = box_keep(cutoff, cutoff)
        return OperatorSum(self.ring, {f: c for f, c in self.terms.items()
                                       if keep([m for m, _ in f])},
                           self.scalar)

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
        column skips the groups that kill its state.  Both are built
        once per expansion."""
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

    def column(self, state):
        """The exact image of the basis state, as act({state: 1}) would
        give it, kept on the operator; callers must not modify it.  A
        series first grows to the state's weight."""
        col = self._columns.get(state)
        if col is not None:
            return col
        if self._reach is not None:
            w = weight(state)
            if w > self._reach:
                self._grown(w)
        index = self._index
        if index is None:
            index = self._contractions()
        if index is not False and index.isdisjoint(state):
            # Exact for a series too: it has grown to the state's
            # weight, and every later band annihilates more points.
            col = _EMPTY
        else:
            col = self._image(state) or _EMPTY
        self._columns[state] = col
        return col

    def _image(self, state):
        """The column of state, computed word by word; needs the groups
        that _contractions builds."""
        out = {state: self.scalar} if self.scalar else {}
        ring, coeffs = self.ring, self.terms
        for partners, words in self._groups:
            if partners is not None and partners.isdisjoint(state):
                continue
            for word in words:
                tc = coeffs[word]
                for s, c in apply_word(ring, word, state):
                    _acc(out, s, c * tc)
        return out

    def act(self, terms):
        """Image of a {state: coeff} dict: the combination of the cached
        columns of its states."""
        out = {}
        for s, c in terms.items():
            for s2, c2 in self.column(s).items():
                _acc(out, s2, c * c2)
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


def commutator_column(f, g, state):
    """[f, g] applied to one basis state, with the super sign from the
    operator parities, formed from the cached columns of f and g."""
    gcol, fcol = g.column(state), f.column(state)
    if not (gcol or fcol):
        return {}
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

    __slots__ = ("ops", "_holds", "_always")

    def __init__(self, ops):
        self.ops = tuple(ops)
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
        """The positions whose index meets a state of the column col;
        every other operator's column of each of its states is empty."""
        if not col:
            return ()
        out = set(self._always)
        holds = self._holds
        for s in col:
            for factor in s:
                hit = holds.get(factor)
                if hit:
                    out.update(hit)
        return out


def commutator_block(fs, gs, state):
    """{(i, j): commutator_column(f_i, g_j, state)} over two
    OperatorFamily objects, for just the pairs where f_i's index meets a
    state of g_j state or g_j's index meets a state of f_i state.  Every
    other pair's bracket on this state is {}: both its compositions read
    only columns that the index rules out.  Only the operators whose
    index meets the state itself are asked for their column there; every
    other one's is empty, by the rule column applies."""
    f, g = fs.ops, gs.ops
    here = (state,)
    keep = set()
    for j in gs.meeting(here):
        keep.update((i, j) for i in fs.meeting(g[j].column(state)))
    for i in fs.meeting(here):
        keep.update((i, j) for j in gs.meeting(f[i].column(state)))
    return {(i, j): commutator_column(f[i], g[j], state) for i, j in keep}


def commutator_action(f, g, terms):
    """[f, g] applied to a {state: coeff} dict."""
    return combine(*((c, commutator_column(f, g, s))
                     for s, c in terms.items()))


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
    from lo to hi points expands only the items that annihilate more
    than lo, as a word annihilates what its item does; the scalar comes
    with the first band."""
    def band(lo, hi):
        items, den, *scalar = items_at(hi)
        return _words(ring, [it for it in items
                             if sum(m for m in it[0] if m > 0) > lo],
                      den, *(scalar if lo < 0 else ()))

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

    def column(self, state):
        if state not in self._columns:
            self._columns[state] = commutator_column(self.f, self.g, state)
        return self._columns[state]


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

    def column(self, state):
        return combine(*((c, op.column(state)) for c, op in self.pieces))


# -- smeared calculus ------------------------------------------------------


class SmearedOp:
    """Combination of a_modes(tau(e^a K^b gamma)) with gamma symbolic.

    Terms map (modes, a, b) to exact coefficients, stored through
    fock.exact: an int when integral, else a Fraction.  modes is a sorted
    tuple of nonzero integers and the empty tuple stands for
    integral(e^a K^b gamma) * Id.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: exact(c) for k, c in (terms or {}).items() if c}

    def add(self, key, c):
        v = self.terms.get(key, 0) + c
        if v:
            self.terms[key] = exact(v)
        else:
            self.terms.pop(key, None)

    def merge(self, other, scale=1):
        for k, c in other.terms.items():
            self.add(k, c * scale)
        return self

    def scaled(self, c):
        return SmearedOp({k: v * c for k, v in self.terms.items()})

    def __add__(self, other):
        return SmearedOp(self.terms).merge(other)

    def __sub__(self, other):
        return SmearedOp(self.terms).merge(other, -1)

    def __eq__(self, other):
        return isinstance(other, SmearedOp) and self.terms == other.terms

    def is_zero(self):
        return not self.terms

    def filter(self, pred):
        return SmearedOp({k: c for k, c in self.terms.items() if pred(k[0])})

    def shift_euler(self):
        """Multiply the smearing class by e; terms already carrying e die."""
        out = SmearedOp()
        for (modes, a, b), c in self.terms.items():
            if a == 0:
                out.add((modes, 1, b), c)
        return out

    def sorted_items(self):
        return sorted(self.terms.items())

    def render(self):
        lines = []
        for (modes, a, b), c in self.sorted_items():
            tag = "g" + ("*e" * a) + ("*K" * b)
            mono = " ".join("a(%d)" % m for m in modes) if modes else "Id"
            lines.append("%s * %s [%s]" % (c, mono, tag))
        return "\n".join(lines) if lines else "0"


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
    """Bracket of two explicit smeared lists by single contractions."""
    out = SmearedOp()
    for (nu, ea, ka), ca in a.terms.items():
        for (mu, eb, kb), cb in b.terms.items():
            e0, k0 = ea + eb, ka + kb
            if e0 > 1:
                continue
            for t, v in enumerate(nu):
                for j, w in enumerate(mu):
                    if v != -w:
                        continue
                    coeff = -v * ca * cb
                    arr = mu[:j] + nu[:t] + nu[t + 1:] + mu[j + 1:]
                    for ms, ee, im in normalize_arrangement(arr):
                        if e0 + ee > 1:
                            continue
                        out.add((ms, e0 + ee, k0), coeff * im)
    return out


class Family:
    """One full smeared series: all partitions of a length and size, the
    partition lam weighted by num(parts, mult_factorial, weighted_square)
    / den.

    num returns an int and den is one positive int for the whole family,
    so the bracket inner loops multiply ints only; the division comes
    once per output key, over the common denominator of the family
    pairs.  A weight c / lam^! meets this with num = c * (ell! // lam^!)
    and den = ell!, since lam^! divides ell! (walgebra.mult_family).
    The partition statistics are precomputed, so evaluating num
    allocates nothing extra.

    A family keeps its contraction tables (survivors) and its shed
    tables (shed) for its life: a family built once, such as a member of
    walgebra.jay_families, evaluates num once per partition, contracted
    part (or contracted and shed pair of parts) and neg cap, however many
    brackets read it.  The plain events of a bracket read the
    contraction tables and its Euler-corrected events the shed tables
    (_swap_events).  The tables follow num, so a family is never edited:
    a changed weight is a new Family.
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

    def survivors(self, x, poscap, negcap):
        """The contraction table of the part x: (parts, pos, c) for each
        partition lam = parts + (x,) of the family whose weight is
        nonzero and whose parts have neg <= negcap, c being num(lam)
        times the multiplicity of x in lam, sorted by pos, so that the
        box pos <= poscap reads a prefix of it.  Built on first use up
        to pos <= max(poscap, negcap), which holds every box of this
        negcap that the package asks (no poscap of its brackets exceeds
        negcap), and rebuilt wider only when a box asks for more."""
        table = self._tables.get((x, negcap))
        if table is None or poscap > table[0]:
            rest = self.total - x
            cap = max(poscap, negcap)
            num, xx = self.num, x * x
            rows, ints = [], {}
            for parts, pos, _, mf, ws in _stats_list(self.ell - 1, rest,
                                                     cap, negcap):
                cnt = parts.count(x) + 1
                c = cnt * num(tuple(sorted(parts + (x,))), mf * cnt, ws + xx)
                if c:
                    # rows of equal weight share one int object
                    rows.append((parts, pos, ints.setdefault(c, c)))
            rows.sort(key=itemgetter(1))
            table = self._tables[x, negcap] = (cap, tuple(rows))
        return table[1]

    def shed(self, v, x, poscap, negcap):
        """The shed table of the parts v and x: (rest, pos, c) for each
        partition lam = rest + (v, x) of the family whose weight is
        nonzero and whose rest has neg <= negcap, c being num(lam) times
        m_v(lam) (m_x(lam) - [x = v]), the ordered choices of a v part
        and another x part, sorted by pos.  That count is lam^! /
        rest^!.  Built and widened as survivors is, so a box of this
        negcap reads a prefix."""
        table = self._sheds.get((v, x, negcap))
        if table is None or poscap > table[0]:
            cap = max(poscap, negcap)
            num, sq = self.num, v * v + x * x
            rows, ints = [], {}
            for rest, pos, _, mf, ws in _stats_list(
                    self.ell - 2, self.total - v - x, cap, negcap):
                cv = rest.count(v) + 1
                k = cv * (cv + 1 if x == v else rest.count(x) + 1)
                c = k * num(tuple(sorted(rest + (v, x))), mf * k, ws + sq)
                if c:
                    rows.append((rest, pos, ints.setdefault(c, c)))
            rows.sort(key=itemgetter(1))
            table = self._sheds[v, x, negcap] = (cap, tuple(rows))
        return table[1]


@cache
def _stats_list(ell, total, poscap, negcap):
    """(parts, pos, neg, mult!, sum of squares) of each partition on a
    window, from partitions.genpartition_stats, kept for the process; a
    tuple, since every caller shares it."""
    bound = min(poscap, negcap + total)
    if bound < 0:
        return ()
    return tuple(genpartition_stats(ell, total, bound))


def _divided(nums, den):
    """The SmearedOp of exact numerators over one int denominator."""
    out = SmearedOp()
    out.terms = {k: ratio(n, den) for k, n in nums.items() if n}
    return out


def series_nums(families, poscap, negcap):
    """The families on the box window pos <= poscap, neg <= negcap, as
    (integer numerators by key, their common family denominator)."""
    den = lcm(*[fam.den for fam in families])
    nums = {}
    for fam in families:
        num, scale = fam.num, den // fam.den
        for parts, _, _, mf, ws in _stats_list(fam.ell, fam.total, poscap,
                                               negcap):
            _acc(nums, (parts, fam.epow, 0), num(parts, mf, ws) * scale)
    return nums, den


def series_to_smeared(families, poscap, negcap):
    """Materialize families on the box window pos <= poscap, neg <= negcap,
    dividing once per term by the common family denominator."""
    return _divided(*series_nums(families, poscap, negcap))


def bracket_nums(fams_a, fams_b, poscap, negcap):
    """The complete bracket of two families of smeared series on the box
    pos <= poscap, neg <= negcap, as (integer numerators by key, their
    common denominator).

    Two kinds of event.  Plain contraction events keep every survivor
    mode, so the survivors are sub-multisets of the output and sit
    inside the box; reading them from the families' contraction tables,
    cut to the box, is complete.  Each contracts the value v of
    a = a' + (v,) with the -v of b = b' + (-v,), and every position of
    -v in b gives the same sorted output a' + b'.  Euler-corrected events
    shed one (x, -x) pair while reordering, so the shed pair may stick
    out of the box, but the output a'' + b'' (both pairs removed) does
    not; they are read from the shed tables (_swap_events).  Every family
    pair accumulates integer numerators over the common denominator of
    all pairs.
    """
    pairs = [(fa, fb) for fa in fams_a for fb in fams_b
             if fa.epow + fb.epow <= 1]
    den = lcm(*[fa.den * fb.den for fa, fb in pairs])
    nums = {}
    for fa, fb in pairs:
        scale = den // (fa.den * fb.den)
        e0 = fa.epow + fb.epow
        for ms, n in _plain_events(fa, fb, poscap, negcap).items():
            _acc(nums, (ms, e0, 0), n * scale)
        if e0 == 0 and fa.ell >= 2 and fb.ell >= 2:
            for ms, n in _swap_events(fa, fb, poscap, negcap).items():
                _acc(nums, (ms, 1, 0), n * scale)
    return nums, den


def series_bracket(fams_a, fams_b, poscap, negcap):
    """Complete bracket of two families of smeared series on the box
    pos <= poscap, neg <= negcap (bracket_nums), divided once per output
    key."""
    return _divided(*bracket_nums(fams_a, fams_b, poscap, negcap))


def _holds(fam, x, k=1):
    """Whether a partition of the family may hold k parts summing to x:
    its rest of ell - k nonzero parts must sum to total - x."""
    ell, rest = fam.ell - k, fam.total - x
    return ell > 1 or (ell == 1 and rest != 0) or (ell == 0 and rest == 0)


def _plain_events(fa, fb, poscap, negcap):
    """Integer numerators of the plain contraction events of one family
    pair, keyed by output modes: the products of the two families'
    table entries for v and -v whose survivors fit the box together.
    An output of size fa.total + fb.total lies in the box exactly when
    its pos is at most top, and the tables are sorted by pos, so each
    loop stops at its first entry past its cap.  Each survivor's total
    lies in [-negcap, top], and only the v that both families can hold
    (_holds) are read."""
    nums = {}
    top = min(poscap, negcap + fa.total + fb.total)
    for v in range(max(fa.total - top, -negcap - fb.total),
                   min(fa.total + negcap, top - fb.total) + 1):
        if v == 0 or not (_holds(fa, v) and _holds(fb, -v)):
            continue
        side_b = fb.survivors(-v, poscap, negcap)
        if not side_b:
            continue
        for pa, posa, ca in fa.survivors(v, poscap, negcap):
            if posa > top:
                break
            ca *= -v
            cap = top - posa
            for pb, posb, cb in side_b:
                if posb > cap:
                    break
                ms = tuple(sorted(pa + pb))
                nums[ms] = nums.get(ms, 0) + ca * cb
    return nums


def _swap_events(fa, fb, poscap, negcap):
    """Integer numerators of the bracket events of one family pair whose
    reordering sheds one (x, -x) pair, keyed by output modes.

    Sorting the arrangement of a contraction of v in a = a'' + (v, x)
    with -v in b = b'' + (-v, -x) inverts the pair (x, -x) exactly when
    x has the sign of v and |x| <= |v|; the pair is removed with the
    factor -|x| and the output is a'' + b''.  Over the ordered choices
    of the v and x parts on each side, that is the product of the shed
    tables fa.shed(v, x) and fb.shed(-v, -x) with the weight
    (-v)(-|x|), halved when x = v, since then only half of the ordered
    (-v, -x) choices invert.  The output has size fa.total + fb.total,
    so, as for plain events, it lies in the box exactly when its pos is
    at most top, and each loop stops at its first entry past its cap.
    Only the s = v + x that both families can shed (_holds) are read.
    """
    nums = {}
    top = min(poscap, negcap + fa.total + fb.total)
    for s in range(fa.total - poscap, fa.total + negcap + 1):
        if not (_holds(fa, s, 2) and _holds(fb, -s, 2)):
            continue
        # v + x = s with |x| <= |v|, both of the sign of s
        for x in (range(1, s // 2 + 1) if s > 0
                  else range(-1, -(-s // 2) - 1, -1)):
            v = s - x
            side_b = fb.shed(-v, -x, poscap, negcap)
            if not side_b:
                continue
            w = v * abs(x)
            for pa, posa, ca in fa.shed(v, x, poscap, negcap):
                if posa > top:
                    break
                # for x = v, ca holds the even factor m_v (m_v - 1)
                ca = ca * w // 2 if x == v else ca * w
                cap = top - posa
                for pb, posb, cb in side_b:
                    if posb > cap:
                        break
                    ms = tuple(sorted(pa + pb))
                    nums[ms] = nums.get(ms, 0) + ca * cb
    return nums


def s_derive(a, keep, poscap, negcap, include_k=True):
    """Derivative of a smeared list under the replacement rule.

    Each part v splits into ordered pairs m1 + m2 = v with weight -v/2
    (the pair inserted in place, normal ordered), and each term gains a
    K-smeared copy weighted by -sum v(|v|-1)/2 unless include_k is off.

    The calculus is integer-first: every coefficient becomes a numerator
    over D, the lcm of the input's denominators, and twice the result is
    accumulated in ints, then divided once per key by 2D.  The Euler
    corrections of a split are found directly: modes is sorted, so an
    inverted (u, -u) pair (u > 0 first) contains m1 or m2, never both,
    since v != 0.  For v > 0 it pairs a u = -m1 before the split with
    m1, for v < 0 it pairs m2 = u with a -u after it; each occurrence
    removes the pair with factor -u and one more power of e.
    """
    den = lcm(*[c.denominator for c in a.terms.values()])
    twice = {}
    for (modes, e0, k0), c in a.terms.items():
        n = c.numerator * (den // c.denominator)
        if include_k:
            ks = -sum(v * (abs(v) - 1) // 2 for v in modes)
            if ks and keep(modes):
                _acc(twice, (modes, e0, k0 + 1), 2 * ks * n)
        for j, v in enumerate(modes):
            base = -v * n
            head, tail = modes[:j], modes[j + 1:]
            rest = head + tail
            for m1 in range(max(-negcap, v - poscap), v // 2 + 1):
                m2 = v - m1
                if m1 == 0 or m2 == 0:
                    continue
                w = base if m1 == m2 else 2 * base
                ms = tuple(sorted(rest + (m1, m2)))
                if keep(ms):
                    _acc(twice, (ms, e0, k0), w)
                if e0:
                    continue
                if v > 0 and m1 < 0:
                    gone, kept, hits = -m1, m2, head.count(-m1)
                elif v < 0 and m2 > 0:
                    gone, kept, hits = -m2, m1, tail.count(-m2)
                else:
                    continue
                if hits:
                    left = list(rest)
                    left.remove(gone)
                    left.append(kept)
                    ms = tuple(sorted(left))
                    if keep(ms):
                        _acc(twice, (ms, 1, k0), -abs(gone) * hits * w)
    return _divided(twice, 2 * den)


def box_keep(poscap, negcap):
    """Keep a monomial whose positive parts sum to at most poscap and
    whose negative parts to at most negcap in size: those sums are
    (size + total) / 2 and (size - total) / 2."""
    pos2, neg2 = 2 * poscap, 2 * negcap

    def keep(modes):
        total, size = sum(modes), sum(map(abs, modes))
        return size + total <= pos2 and size - total <= neg2
    return keep


def diamond_keep(radius):
    def keep(modes):
        return sum(map(abs, modes)) <= radius
    return keep


def _smeared_items(smeared, ring, gamma):
    """The _words arguments (items, den, scalar) of a smeared list against
    a concrete smearing class, over the common denominator of its
    coefficients."""
    den = lcm(*[c.denominator for c in smeared.terms.values()])
    items = []
    scalar = 0
    for (modes, ep, kp), c in smeared.sorted_items():
        cls = gamma * ring.e if ep else gamma
        for _ in range(kp):
            cls = cls * ring.K
        if cls.is_zero():
            continue
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
