"""Operators on the Fock space.

Two layers:

* Expanded operators (OperatorSum): normal-ordered mode monomials
  a(m1;c1)...a(mk;ck) plus a scalar, acting exactly on {state: coeff}
  dicts; nothing truncates an image.  A finite operator keeps all its
  words: heisenberg, monomial (a_lambda(tau_l(class))) and instantiate.
  A series (quadratic_sum, smeared_series, the derivation's replacement
  operators) holds its words that annihilate at most w points, all that
  act on states of weight up to w, and grows when a heavier state
  arrives.  Every expansion is one int-first pass (_words): integer
  numerators over one denominator per operator, each tau word brought
  to canonical order once, one division per word through ring.ratio.
  An operator caches its columns, the exact images of single basis
  states, for its life (growing keeps them); a contraction index skips
  the states it provably kills, and their shared empty column is
  remembered, so a second ask is one lookup.  The kernels act on dicts
  (OperatorSum.act and column, commutator_column, derive,
  act_arrangement); apply, commutator_action, derivation_apply and
  apply_arrangement wrap them for FockVectors.  Only terms_within cuts
  an operator to a window, for term lists.  The derivation operator d
  acts recursively through the replacement rule

      [d, a(n;c)] = n*L(n;c) - (n(|n|-1)/2) * a(n; K*c)

  applied factor by factor, where L is the quadratic (Virasoro) series.

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
  integer family denominator den.  series_to_smeared and series_bracket
  accumulate int numerators, bring the families (or the family pairs of
  a bracket) to one common denominator, and divide once per output key
  through ring.ratio; s_derive halves once per key.
  SmearedOp values are stored through fock.exact: an int when integral,
  else a Fraction, never a float.

Identity checks compare smeared term lists (surface independent), then
instantiate on a concrete ring where needed.
"""

from __future__ import annotations

from math import lcm
from types import MappingProxyType

from .fock import (FockVector, annihilate_state, canonical_factors,
                   create_state, exact, weight)
from .partitions import enumerate_genpartitions
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


def apply_word(ring, word, terms):
    """Apply the factor word a(m1;b_i1)...a(mk;b_ik), right to left, to a
    {state: coeff} dict; returns a new dict.  Every action of mode
    monomials on states goes through here.
    """
    cur = terms
    for mode, i in reversed(word):
        nxt = {}
        if mode > 0:
            for s, c in cur.items():
                for s2, c2 in annihilate_state(ring, mode, i, s):
                    _acc(nxt, s2, c * c2)
        else:
            for s, c in cur.items():
                s2, sgn = create_state(ring, -mode, i, s)
                if s2 is not None:
                    _acc(nxt, s2, c if sgn == 1 else -c)
        if not nxt:
            return nxt
        cur = nxt
    return dict(cur) if cur is terms else cur


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
        terms = {state: 1}
        out = {state: self.scalar} if self.scalar else {}
        ring, coeffs = self.ring, self.terms
        for partners, words in self._groups:
            if partners is not None and partners.isdisjoint(state):
                continue
            for word in words:
                tc = coeffs[word]
                for s, c in apply_word(ring, word, terms).items():
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

    def apply(self, vec):
        """Exact action on a vector."""
        return FockVector(vec.ring, self.act(vec.terms))

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


def commutator_action(f, g, vec):
    """[f, g] applied to a vector, with the super sign from operator
    parities."""
    out = {}
    for s, c in vec.terms.items():
        for s2, c2 in commutator_column(f, g, s).items():
            _acc(out, s2, c * c2)
    return FockVector(vec.ring, out)


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


def monomial(ring, gp, elem):
    """Smeared monomial a_gp(tau_l(elem)); the empty partition gives 0."""
    if gp.length == 0 or elem.is_zero():
        return OperatorSum(ring)
    return OperatorSum(ring, *_words(ring, [(gp.parts, elem, 1)]))


def _quadratic_items(n, elem, reach, scale=1):
    """Items of scale * L(n; elem) over the denominator 2, for the
    partitions that annihilate at most reach points."""
    return [(lam.parts, elem, -scale * (2 // lam.mult_factorial))
            for lam in enumerate_genpartitions(2, n, reach)]


def quadratic_sum(ring, n, elem):
    """The Virasoro series L(n; elem),

        L_n = - sum over two-part generalized partitions of size n of
              (1 / mult!) a_lambda(tau_2(elem)).
    """
    return _series(ring, elem,
                   lambda w: (_quadratic_items(n, elem, w), 2))


def act_arrangement(ring, modes, elem, terms):
    """Apply a_{m1}...a_{mk}(tau_k(elem)) with the modes in the given
    (possibly unsorted) order to a {state: coeff} dict."""
    out = {}
    k = len(modes)
    if k == 0 or elem.is_zero():
        return out
    for key, c0 in ring.tau(k, elem).items():
        for s, c in apply_word(ring, tuple(zip(modes, key)), terms).items():
            _acc(out, s, c * c0)
    return out


def apply_arrangement(ring, modes, elem, vec):
    """act_arrangement on a vector."""
    return FockVector(vec.ring, act_arrangement(ring, modes, elem,
                                                vec.terms))


# -- the derivation operator ----------------------------------------------


def _replacement_op(ring, mode, i):
    """[d, a(mode; b_i)] as a series, cached on the ring for the life of
    the process by (mode, i), together with the columns it computes."""
    key = ("replacement", mode, i)
    if key not in ring._cache:
        b = ring.basis(i)
        kterm = [((mode,), ring.K * b, -mode * (abs(mode) - 1))]
        ring._cache[key] = _series(ring, b, lambda w: (
            _quadratic_items(mode, b, w, mode) + kterm, 2))
    return ring._cache[key]


def derive(ring, terms):
    """d applied to a {state: coeff} dict by the factorwise replacement
    rule; d|0> = 0, and d is even and keeps the weight."""
    out = {}
    parity = ring.parity
    for state, c in terms.items():
        for t, (mode, i) in enumerate(state):
            rep = _replacement_op(ring, mode, i)
            prefix = state[:t]
            for s2, c2 in rep.column(state[t + 1:]).items():
                s3, sign = canonical_factors(prefix + s2, parity)
                if s3 is not None:
                    _acc(out, s3, c * c2 if sign == 1 else -c * c2)
    return out


def derivation_apply(vec):
    """d(vec) by the factorwise replacement rule."""
    return FockVector(vec.ring, derive(vec.ring, vec.terms))


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


def s_bracket(a, b, keep=None):
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
                        if keep is None or keep(ms):
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
    The partition statistics are precomputed, so evaluating num in the
    inner loops allocates nothing extra.
    """

    __slots__ = ("ell", "total", "num", "den", "epow", "kpow")

    def __init__(self, ell, total, num, den=1, epow=0, kpow=0):
        self.ell = ell
        self.total = total
        self.num = num
        self.den = den
        self.epow = epow
        self.kpow = kpow


def _stats_list(ell, total, poscap, negcap):
    """Cached (parts, pos, neg, mult!, sum of squares) for a window."""
    key = (ell, total, poscap, negcap)
    if key in _stats_cache:
        return _stats_cache[key]
    bound = min(poscap, negcap + total)
    out = []
    if bound >= 0:
        for lam in enumerate_genpartitions(ell, total, bound):
            out.append((lam.parts, lam.positive_total(), lam.negative_total(),
                        lam.mult_factorial, lam.weighted_square))
    _stats_cache[key] = out
    return out


_stats_cache = {}


def _divided(nums, den):
    """The SmearedOp of exact numerators over one int denominator."""
    out = SmearedOp()
    out.terms = {k: ratio(n, den) for k, n in nums.items() if n}
    return out


def series_to_smeared(families, poscap, negcap):
    """Materialize families on the box window pos <= poscap, neg <= negcap,
    dividing once per term by the common family denominator."""
    den = lcm(*[fam.den for fam in families])
    nums = {}
    for fam in families:
        num, scale = fam.num, den // fam.den
        for parts, _, _, mf, ws in _stats_list(fam.ell, fam.total, poscap,
                                               negcap):
            _acc(nums, (parts, fam.epow, fam.kpow), num(parts, mf, ws) * scale)
    return _divided(nums, den)


def series_bracket(fams_a, fams_b, poscap, negcap):
    """Complete bracket of two families of smeared series on the box
    pos <= poscap, neg <= negcap.

    Two passes.  Plain contraction events keep every survivor mode, so
    the survivors are sub-multisets of the output and sit inside the
    box; enumerating them there is complete.  Each contracts the value v
    of a = a' + (v,) with the -v of b = b' + (-v,), and every position of
    -v in b gives the same sorted output a' + b'.  Euler-corrected events
    shed one (w, -w) pair while reordering, so the shed pair may stick
    out of the box; those events are rebuilt from the in-box remainder
    together with the shed pair, whose value is bounded by the
    contraction ordering (_swap_events).  Every family pair accumulates
    integer numerators; they meet over the common denominator of all
    pairs, which is divided out once per output key.
    """
    pairs = [(fa, fb) for fa in fams_a for fb in fams_b
             if fa.epow + fb.epow <= 1]
    den = lcm(*[fa.den * fb.den for fa, fb in pairs])
    keep = box_keep(poscap, negcap)
    nums = {}
    for fa, fb in pairs:
        scale = den // (fa.den * fb.den)
        e0, k0 = fa.epow + fb.epow, fa.kpow + fb.kpow
        for ms, n in _plain_events(fa, fb, poscap, negcap).items():
            _acc(nums, (ms, e0, k0), n * scale)
        if e0 == 0 and fa.ell >= 2 and fb.ell >= 2:
            for ms, n in _swap_events(fa, fb, poscap, negcap, keep).items():
                _acc(nums, (ms, 1, k0), n * scale)
    return _divided(nums, den)


def _plain_events(fa, fb, poscap, negcap):
    """Integer numerators of the plain contraction events of one family
    pair, keyed by output modes."""
    nums = {}
    for v in range(fa.total - poscap, fa.total + negcap + 1):
        if v == 0:
            continue
        surv_a = _stats_list(fa.ell - 1, fa.total - v, poscap, negcap)
        if not surv_a:
            continue
        surv_b = _stats_list(fb.ell - 1, fb.total + v, poscap, negcap)
        if not surv_b:
            continue
        wv = v * v
        side_b = []
        for pb, posb, negb, mfb, wsb in surv_b:
            cnt = pb.count(-v) + 1
            cb = cnt * fb.num(tuple(sorted(pb + (-v,))), mfb * cnt, wsb + wv)
            if cb:
                side_b.append((pb, posb, negb, cb))
        if not side_b:
            continue
        for pa, posa, nega, mfa, wsa in surv_a:
            cnt = pa.count(v) + 1
            ca = -v * cnt * fa.num(tuple(sorted(pa + (v,))), mfa * cnt,
                                   wsa + wv)
            if not ca:
                continue
            pcap, ncap = poscap - posa, negcap - nega
            for pb, posb, negb, cb in side_b:
                if posb > pcap or negb > ncap:
                    continue
                ms = tuple(sorted(pa + pb))
                nums[ms] = nums.get(ms, 0) + ca * cb
    return nums


def _swap_events(fa, fb, poscap, negcap, keep):
    """Integer numerators of the bracket events of one family pair whose
    reordering sheds one (w, -w) pair, keyed by output modes.

    The output is the arrangement minus the shed pair, so everything
    except the pair lies inside the box.  Candidates are rebuilt from
    in-box remainders sa, sb with the +w on one side and the -w on the
    other; the pair only inverts when w <= v (pair shed rightward) or
    v <= -w (leftward), which bounds w by half the gap between the
    left family total and the left remainder total.
    """
    tsum = fa.total + fb.total
    cands = {}
    for ta in range(-negcap, poscap + 1):
        surv_a = _stats_list(fa.ell - 2, ta, poscap, negcap)
        if not surv_a:
            continue
        surv_b = _stats_list(fb.ell - 2, tsum - ta, poscap, negcap)
        if not surv_b:
            continue
        gap = fa.total - ta
        for sa, posa, nega, mfa, wsa in surv_a:
            for sb, posb, negb, mfb, wsb in surv_b:
                if posa + posb > poscap or nega + negb > negcap:
                    continue
                for w in range(1, gap // 2 + 1):
                    _add_cand(cands, sa, mfa, wsa, w, sb, mfb, wsb, gap - w)
                for w in range(1, -gap // 2 + 1):
                    _add_cand(cands, sa, mfa, wsa, -w, sb, mfb, wsb, gap + w)
    nums = {}
    side_a, side_b = {}, {}
    for (pa, pb, v), (mfa, wsa, mfb, wsb) in cands.items():
        ca = side_a.get((pa, v))
        if ca is None:
            cnt = pa.count(v) + 1
            ca = side_a[pa, v] = -v * cnt * fa.num(
                tuple(sorted(pa + (v,))), mfa * cnt, wsa + v * v)
        if not ca:
            continue
        mu_cb = side_b.get((pb, v))
        if mu_cb is None:
            cnt = pb.count(-v) + 1
            mu = tuple(sorted(pb + (-v,)))
            mu_cb = side_b[pb, v] = (mu, fb.num(mu, mfb * cnt, wsb + v * v))
        mu, cb = mu_cb
        if not cb:
            continue
        coeff = ca * cb
        for j in range(len(mu)):
            if mu[j] != -v:
                continue
            for ms, im in _euler_corrections(mu[:j] + pa + mu[j + 1:]):
                if keep(ms):
                    nums[ms] = nums.get(ms, 0) + coeff * im
    return nums


def _add_cand(cands, sa, mfa, wsa, x, sb, mfb, wsb, v):
    """Record the candidate (sa + (x,), sb + (-x,), v) of _swap_events
    with the (mult!, sum of squares) of both sides, updated from the
    remainders' statistics for the shed part x."""
    pa = tuple(sorted(sa + (x,)))
    pb = tuple(sorted(sb + (-x,)))
    if (pa, pb, v) not in cands:
        cands[pa, pb, v] = (mfa * (sa.count(x) + 1), wsa + x * x,
                            mfb * (sb.count(-x) + 1), wsb + x * x)


def s_derive(a, keep, poscap, negcap, include_k=True):
    """Derivative of a smeared list under the replacement rule.

    Each part v splits into ordered pairs m1 + m2 = v with weight -v/2
    (the pair inserted in place, normal ordered), and each term gains a
    K-smeared copy weighted by -sum v(|v|-1)/2 unless include_k is off.
    Twice the result is accumulated, then halved once per key.
    """
    twice = {}
    for (modes, e0, k0), c in a.terms.items():
        if include_k:
            ks = -sum(v * (abs(v) - 1) // 2 for v in modes)
            if ks and keep(modes):
                _acc(twice, (modes, e0, k0 + 1), 2 * ks * c)
        for j, v in enumerate(modes):
            base = -v * c
            for m1 in range(max(-negcap, v - poscap), v // 2 + 1):
                m2 = v - m1
                if m1 == 0 or m2 == 0:
                    continue
                mult = 1 if m1 == m2 else 2
                arr = modes[:j] + (m1, m2) + modes[j + 1:]
                for ms, ee, im in normalize_arrangement(arr):
                    if e0 + ee > 1:
                        continue
                    if keep(ms):
                        _acc(twice, (ms, e0 + ee, k0), base * mult * im)
    return _divided(twice, 2)


def box_keep(poscap, negcap):
    def keep(modes):
        return (sum(m for m in modes if m > 0) <= poscap
                and -sum(m for m in modes if m < 0) <= negcap)
    return keep


def diamond_keep(radius):
    def keep(modes):
        return sum(abs(m) for m in modes) <= radius
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
