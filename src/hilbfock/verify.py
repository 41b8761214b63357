"""Verification suites for the operator calculus.

Each suite checks one identity family by exact computation and returns
a report of pass/fail records.  Universal checks compare smeared term
lists, valid over every surface at once; instantiate checks specialize
them on concrete surfaces; action checks apply both sides to explicit
states, so the smeared calculus is grounded in raw operator composition.

All suites but heis, lem32, lem61, cor48, rmk410 and eq22 state each
identity once, as (lhs, rhs) over leaves on class slots (`_Leaf`), a
bracket (`_Br`), a derivative (`_Der`) and a linear right side.  Two
evaluators read it, neither from the other: `_residual` gives its
residual on a window, `_on` its expanded operators on a ring, from which
`_declared` and `_action_records` emit records.  The W-bracket of
Theorem 5.5 is one statement, `_w`; thm55 and thm57 read its residuals
from one store, `_w_cell`, a mutated run fusing its piece onto a copy.

Records are built by `_Group` and `_verdict` alone, and every check on
states but heis's goes through `_Group.columns`.  Each runner declares
its grid bounds as keyword-only parameters and the registry (`SUITES`)
the window and surfaces it reads; rings come from `_rings`.  A window
too small for a bracket (`_sound_pos`), bounds that leave a run without
a record, or a mutated run that no check fails, are refused.

Every suite carries one documented mutation, a wrong coefficient that it
must detect; mutated runs use reduced grids and compute their own
cells but the W-bracket's.  Four caches outlive a run, none of which a
mutation changes: `_window` and `_chain`, the read-only series windows
and derivative chains of every run, and the two the benchmark's timings
pay for: `_w_cell` and heis's residuals in `ring._cache`.
"""

from __future__ import annotations

import json
import sys
from functools import cache, partial
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb, factorial
from typing import NamedTuple

from .fock import (basis_states, combine, render_state, render_terms,
                   weight)
from .operators import (SCALARS, Bracket, Linear, OperatorFamily, SmearedOp,
                        arrangement, combined, commutator_block, derivative,
                        encode, euler_shifted, heisenberg, instantiate,
                        monomial, quadratic_sum, s_bracket, s_derive,
                        series_bracket, series_to_smeared, smeared_classes,
                        smeared_series)
from .ring import SURFACE_NAMES, builtin_ring
from .walgebra import (CENTRAL, apow_families, chern, chern_families,
                       family_series, fourier, fourier_families,
                       heis_families, jay, jay_families, jay_field_families,
                       mult_family, omega, shift_families,
                       wbracket, wparity, wterm)
from .hilbert import (chern_class, chern_class_closed, intersection_number,
                      intersection_number_closed, k_multisets)

Q = Fraction


# -- specs and records -----------------------------------------------------


# One encoder for every JSON line of a report and of the CLI:
# json.dumps(x, sort_keys=True) would build a new one per call.
dumps = json.JSONEncoder(sort_keys=True).encode


class _Fields:
    """A plain record class: keyword or positional fields in __slots__
    order, equality and repr by field.  (dataclasses would import
    inspect, ast and dis with this module.)"""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and all(
            getattr(self, f) == getattr(other, f) for f in self.__slots__)

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self.__slots__))


class SuiteSpec(_Fields):
    """Parameters of one verification run.  jobs is read by nothing:
    every suite runs in this process.  It is kept because the benchmark
    worker (perfbench/worker.py) builds SuiteSpec(..., jobs=1)."""

    __slots__ = ("suite", "surface", "cutoff", "bounds", "mutation", "jobs")

    def __init__(self, suite, surface="", cutoff=0, bounds=None,
                 mutation="", jobs=1):
        self.suite, self.surface, self.cutoff = suite, surface, cutoff
        self.bounds = {} if bounds is None else bounds
        self.mutation, self.jobs = mutation, jobs


class InstanceRecord(_Fields):
    __slots__ = ("params", "status", "checks", "expected", "actual")

    def __init__(self, params, status, checks=1, expected="", actual=""):
        self.params, self.status, self.checks = params, status, checks
        self.expected, self.actual = expected, actual


class VerificationReport(_Fields):
    __slots__ = ("suite", "spec", "records")

    def __init__(self, suite, spec, records):
        self.suite, self.spec, self.records = suite, spec, records

    @property
    def passed(self):
        return sum(1 for r in self.records if r.status == "pass")

    @property
    def failed(self):
        return sum(1 for r in self.records if r.status != "pass")

    @property
    def ok(self):
        return self.failed == 0 and bool(self.records)


# -- shared helpers --------------------------------------------------------


_NAMED = {
    "k3": ("1", "u1", "u2", "u3", "x"),
    "abelian": ("1", "t1", "t2", "t12", "t34", "t123", "t1234"),
}

# Classes of the abstract W-algebra checks (eq22, thm57).
_W_CLASSES = {"abelian": ("1", "t1", "t234", "t12"),
              "k3": ("1", "u1", "u2", "x")}


def _cutoff(spec):
    """The run's window: --cutoff, else the suite's default in SUITES."""
    return spec.cutoff or SUITES[spec.suite].window


def _rings(spec, names=None):
    """The built-in rings among names, by default the suite's surfaces
    in SUITES, that --surface allows, in order."""
    if names is None:
        names = SUITES[spec.suite].surfaces
    return [builtin_ring(n) for n in names if spec.surface in ("", n)]


def _probe(ring, mode="named"):
    if mode == "all":
        names = tuple(ring.basis_names)
    else:
        names = _NAMED.get(ring.name, tuple(ring.basis_names))
    return [(n, ring.basis(n)) for n in names]


def _ktrivial(ring, probes):
    return [(n, a) for n, a in probes if (ring.K * a).is_zero()]


def _st(ring, *factors):
    return tuple(sorted((m, ring.index[n]) for m, n in factors))


def _action_states(ring, wmax=2):
    """The numbers (ring.state_id) of the vacuum, all weight-1 states and
    heavier ones, by nondecreasing weight: all states of weight at most
    wmax on rings of dimension at most 4, else a hand list that reaches
    weight 2 (3 for wmax >= 3)."""
    out = [()]
    out.extend(basis_states(ring, 1))
    if ring.dim <= 4:
        for w in range(2, wmax + 1):
            out.extend(basis_states(ring, w))
    elif ring.name == "k3":
        out += [_st(ring, (-2, "1")), _st(ring, (-2, "x")),
                _st(ring, (-1, "u1"), (-1, "u2")),
                _st(ring, (-1, "u1"), (-1, "u3")),
                _st(ring, (-1, "1"), (-1, "x"))]
        if wmax >= 3:
            out += [_st(ring, (-3, "1")),
                    _st(ring, (-2, "u1"), (-1, "u2")),
                    _st(ring, (-1, "1"), (-1, "u1"), (-1, "u2"))]
    else:
        out += [_st(ring, (-2, "1")), _st(ring, (-2, "t1234")),
                _st(ring, (-1, "t1"), (-1, "t2")),
                _st(ring, (-1, "t12"), (-1, "t34")),
                _st(ring, (-1, "t1"), (-1, "t234"))]
        if wmax >= 3:
            out += [_st(ring, (-3, "1")),
                    _st(ring, (-2, "t1"), (-1, "t2"))]
    return list(map(ring.state_id, out))


def _sound_pos(N, size_a, size_b):
    """Largest creation total with no intermediate window loss; a window
    too small to hold the bracket of these sizes is refused, since its
    empty box would compare nothing."""
    need = max(0, -size_a, -size_b, -size_a - size_b)
    if N < need:
        raise ValueError("a bracket of sizes %d and %d needs a cutoff of at "
                         "least %d, got %d" % (size_a, size_b, need, N))
    return N - need


def _show(value):
    """Report text of a compared value: its render() if any, else str."""
    return value.render() if hasattr(value, "render") else str(value)


class _Group:
    """Check count and first failure of one record group, named by params.

    A group counts the checks it compares, and reports a pass over all
    of them or its first failure.  The failure reports its own checks
    or, with ``total`` set, every check counted when the group ends.
    """

    __slots__ = ("params", "checks", "fail", "total", "at")

    def __init__(self, params, total=False):
        self.params = params
        self.checks = 0
        self.fail = None
        self.total = total
        self.at = ()

    def check(self, ok, params, expected, actual, show=_show):
        """Count one check; the first failure keeps both sides as show()
        text."""
        self.checks += 1
        if not ok and self.fail is None:
            self.fail = InstanceRecord(params, "fail", 1, show(expected),
                                       show(actual))

    def columns(self, ring, states, lhs, rhs, params, at=(), sign=1):
        """Compare two column sources on each state numbered s in states:
        sign * lhs.column(s) against rhs.column(s), both exact images.
        The first failure adds the state to params and shows rhs as
        expected.  A caller that checks out of order passes at, the place
        of params in its order, and a failure at a smaller place replaces
        one found before."""
        for s in states:
            got, want = lhs.column(s), rhs.column(s)
            if sign < 0 and got:
                got = {t: -c for t, c in got.items()}
            if got != want and (self.fail is None or at < self.at):
                self.fail = InstanceRecord(
                    dict(params, state=render_state(ring.states[s], ring)),
                    "fail", 1, render_terms(ring.vector(want), ring),
                    render_terms(ring.vector(got), ring))
                self.at = at
        self.checks += len(states)

    def record(self):
        """The group's record: a pass named by the group's params, or its
        first failure."""
        if self.fail is None:
            return InstanceRecord(self.params, "pass", self.checks)
        if self.total:
            self.fail.checks = self.checks
        return self.fail


def _inst_fail(delta, ring, a, b):
    """First residual term that survives instantiation at a*b, or None."""
    if delta.is_zero():
        return None
    for modes, cls, c in smeared_classes(delta, ring, a * b):
        if modes:
            return "%s * a_%s(tau(%s))" % (c, list(modes), cls.render())
        if ring.integrate(cls):
            return "%s * integral(%s) * Id" % (c, cls.render())
    return None


def _pair_cases(ring, probes):
    """Instantiation cases (label, a, b) for every ordered probe pair."""
    return [("%s,%s" % (na, nb), a, b) for na, a in probes
            for nb, b in probes]


def _verdict(ok, params, checks, expected, actual):
    """A one-shot record: pass or fail with both sides' text."""
    return InstanceRecord(params, "pass" if ok else "fail", checks,
                          expected, actual)


def _sweep(delta, ring, cases, params):
    """Instantiation sweep of a residual over (label, a, b) cases on one
    ring: one record counting every case, naming the first failure."""
    fail = None
    for label, a, b in cases:
        msg = _inst_fail(delta, ring, a, b)
        if msg:
            fail = "%s: %s" % (label, msg)
            break
    return _verdict(not fail, dict(params, surface=ring.name), len(cases),
                    "0", fail or "0")


def _universal_record(delta, params):
    ok = delta.is_zero()
    return _verdict(ok, params, max(len(delta.terms), 1), "0",
                    "0" if ok else delta.render())


def _scalar_part(meas, ring, gamma):
    """Integral of the scalar terms (no mode) at the class gamma."""
    return sum((c * ring.integrate(cls)
                for modes, cls, c in smeared_classes(meas, ring, gamma)
                if not modes), Q(0))


def _euler_families(ell, total):
    """rmk43's unit Euler term: the family 1/(24 lam^!) a_lam(tau(e g))
    over partitions of length ell and size total, as a family list; empty
    for ell < 1."""
    if ell < 1:
        return []
    return [mult_family(ell, total, lambda ws: 1, 24, epow=1)]


# -- heis: transfer operator commutators ----------------------------------


def _heis_residual(fs, gs, live, central, mirrored):
    """{((i, j), s): bracket} of a heis cell over the live state numbers
    s: the entries whose bracket differs from its expected side, {s: cc}
    for the class pairs that central maps to cc and {} for the rest, so it is
    empty when the identity holds.  A pair that commutator_block leaves
    out has the empty bracket.

    With it, the residual against mirrored of the cell with fs and gs
    swapped ({} for None): [g_j, f_i] = -(-1)^{|f_i||g_j|} [f_i, g_j]."""
    odd = [[f.parity() and g.parity() for g in gs.ops] for f in fs.ops]
    out = ({}, {})
    for s in live:
        block = commutator_block(fs, gs, s)
        sides = [(out[0], block, central)]
        if mirrored is not None:
            sides.append((out[1], {
                (j, i): col if odd[i][j] else {t: -c for t, c in col.items()}
                for (i, j), col in block.items()}, mirrored))
        for resid, brackets, cen in sides:
            for ij in brackets.keys() | cen.keys():
                lhs = brackets.get(ij, {})
                cc = cen.get(ij)
                if lhs != ({s: cc} if cc else {}):
                    resid[ij, s] = lhs
    return out


def _heis_failure(resid, live, plain, central):
    """The first failure ((i, j), s, lhs, rhs) of a heis cell checked
    against the central terms central, from its residual resid against
    the central terms plain: its first failing class pair in product
    order, at that pair's first failing state, or None.  Only a pair in
    the residual or one whose central term moved can fail."""
    moved = {ij for ij in plain.keys() | central.keys()
             if plain.get(ij) != central.get(ij)}
    for ij in sorted(moved.union(ij for ij, _ in resid)):
        cp, cc = plain.get(ij), central.get(ij)
        for s in live:
            lhs = resid.get((ij, s), {s: cp} if cp else {})
            rhs = {s: cc} if cc else {}
            if lhs != rhs:
                return ij, s, lhs, rhs
    return None


def _run_heis(spec, mut, *, m_max=4, w_max=None):
    """[a_m(a), a_n(b)] = -m delta_{m,-n} integral(ab) Id on basis states
    of weight at most w_max (default 2 on rings of dimension at most 4,
    else 1).

    Each (m, n) cell is one verdict over every class pair (a, b) and
    state.  A failing cell reports its first failing pair at its first
    failing state, with the checks of every pair up to and including
    it.  Each (m, n, w_max) cell of a ring is composed once per process,
    as one block per state (_heis_residual), and kept in ring._cache as
    its residual against the unmutated central term; every run, plain
    or mutated, rebuilds its record from that residual and its own
    central term (_heis_failure).  Composing (m, n), m != n, stores
    (n, m) too, from the same brackets.  The a_n(b) operators a ring's
    cells compose are built once per run and ring, with their columns.

    Mutation central-shift: the central coefficient -m becomes -m + 1.
    """
    rings = _rings(spec)
    if mut:
        m_max = min(m_max, 2)
        rings = rings[:1]
    for ring in rings:
        pairs = _probe(ring, "all")
        size = len(pairs)
        wmax = w_max if w_max is not None else (2 if ring.dim <= 4 else 1)
        pre = [(ring.state_id(s), {m for m, _ in s})
               for w in range(wmax + 1) for s in basis_states(ring, w)]
        # integral(ab) of the class pairs where it is nonzero
        paired = {(i, j): v for i, row in enumerate(ring.pairing_matrix())
                  for j, v in enumerate(row) if v}

        def central(c):
            return {ij: c * v for ij, v in paired.items()} if c else {}

        family = cache(lambda n: OperatorFamily(
            heisenberg(ring, n, b) for _, b in pairs))
        for m in range(-m_max, m_max + 1):
            for n in range(-m_max, m_max + 1):
                # The mode rule: off the diagonal, the checks on a state
                # that no annihilator meets are counted, not computed.
                # For two creators (m, n < 0) that is every state, so
                # the Koszul sign of create_state goes unchecked here.
                live = [s for s, modes in pre
                        if m == -n or (m > 0 and -m in modes)
                        or (n > 0 and -n in modes)]
                c0 = Q(-m) if m == -n != 0 else 0
                plain = central(c0)
                key = ("heis", m, n, wmax)
                resid = ring._cache.get(key)
                if resid is None:
                    # The cell (n, m), central term -c0, mirrors this one.
                    mirrored = central(-c0) if m != n else None
                    resid, mirror = _heis_residual(
                        family(m), family(n), live, plain,
                        mirrored) if live else ({}, {})
                    ring._cache[key] = resid
                    if mirrored is not None:
                        ring._cache["heis", n, m, wmax] = mirror
                c = c0 + 1 if mut and c0 else c0
                fail = _heis_failure(resid, live, plain, central(c))
                params = {"surface": ring.name, "m": m, "n": n}
                if fail is None:
                    yield _verdict(True, params, size * size * len(pre),
                                   "", "")
                    continue
                (i, j), s, lhs, rhs = fail
                yield _verdict(False, dict(
                    params, a=pairs[i][0], b=pairs[j][0],
                    state=render_state(ring.states[s], ring)),
                    (i * size + j + 1) * len(pre),
                    render_terms(ring.vector(rhs), ring),
                    render_terms(ring.vector(lhs), ring))


# -- series windows --------------------------------------------------------


@cache
def _window(build, args, pos, neg):
    """The series build(*args) on the box window: the one window cache,
    kept for the process, of every series leaf (_read), shifted or not,
    and of lem61's field monomials.  Its key holds no class slot, and
    every caller reads it as it is."""
    return series_to_smeared(build(*args), pos, neg)


def _diamond(N, total):
    """The box (poscap, negcap) of the diamond window pos + neg <= N for
    terms of one total, such as a series and its derivatives: there pos -
    neg = total, so the diamond is pos <= (N + total) // 2 and neg <= (N -
    total) // 2."""
    return (N + total) // 2, (N - total) // 2


# -- one identity, two evaluators -----------------------------------------


class _Leaf(NamedTuple):
    """An operator of the paper on a class slot.  kind "a" is a_n, "L"
    L_n (p = 1), "G" G_p, "J" J^p_n, "V" its field expression (Lemma
    5.3), "M" :a^p:_n, "D" the closed D^p(a_n) of Theorem 4.2, "F" F(p,
    n, shift), "E" the unit Euler family over l = p and "1" integral(.)
    Id; the slot is "a", "b" or "ab", times e after "e" and K after "K".
    shift moves the Euler shift of G_p or D^p(a_n), as mutations do."""

    kind: str
    p: int
    n: int
    cls: str
    shift: int = 0


_Br = NamedTuple("_Br", [("f", _Leaf), ("g", _Leaf)])  # [f, g]
_Der = NamedTuple("_Der", [("x", _Leaf), ("k", int)])  # D^k(x), k >= 1

# Each leaf kind's series as walgebra states it: (build, args) of a leaf.
_SERIES = {
    "a": lambda x: (heis_families, (x.n,)),
    "G": lambda x: (chern_families, (x.p, x.shift)),
    "D": lambda x: (apow_families, (x.n, x.p, x.shift)),
    "F": lambda x: (shift_families, (x.p, x.n, x.shift)),
    "E": lambda x: (_euler_families, (x.p, x.n)),
    "J": lambda x: (jay_families, (x.p, x.n)),
    "L": lambda x: (jay_families, (x.p, x.n)),
    "V": lambda x: (jay_field_families, (x.p, x.n)),
    "M": lambda x: (fourier_families, ((0,) * x.p, x.n)),
}


def _families(x):
    """The family list of a leaf."""
    build, args = _SERIES[x.kind](x)
    return build(*args)


def _read(x, pos, neg, N):
    """The window of a leaf or a _Der on the box (pos, neg) of window N:
    a_n and integral(.) Id are one term, built in place, every series
    leaf reads _window, times e on an "e" slot, and D^k(x) reads _chain."""
    if type(x) is _Der:
        return _chain(x, pos, neg, N)
    if x.kind == "a":
        w = SmearedOp({encode((x.n,)): 1} if 0 < x.n <= pos
                      or 0 < -x.n <= neg else {})
    elif x.kind == "1":
        w = SmearedOp({0: 1})
    else:
        w = _window(*_SERIES[x.kind](x), pos, neg)
    return euler_shifted(w) if x.cls[0] == "e" else w


@cache
def _chain(x, pos, neg, N):
    """D^k(x) on the box (pos, neg) of window N, modulo K: s_derive of
    D^{k-1}(x), kept for the process, so that each step of a chain is
    taken once.  Every _Der the smeared side reads sits on slot "a"."""
    return s_derive(_read(x._replace(k=x.k - 1) if x.k > 1 else x.x, pos,
                          neg, N), pos, neg, N, N, include_k=False)


def _residual(lhs, rhs, N):
    """The residual of a statement on window N: one series_bracket on
    (_sound_pos, N) for a bracket, else one combined on the diamond of a
    derivative's total or the box (N, N), the (c, leaf) pieces of rhs
    negated and fused in."""
    if type(lhs) is _Br:
        pos = _sound_pos(N, lhs.f.n, lhs.g.n)
        return series_bracket(_families(lhs.f), _families(lhs.g), pos, N,
                              *[(-c, _read(x, pos, N, N)) for c, x in rhs])
    box = _diamond(N, lhs.x.n) if type(lhs) is _Der else (N, N)
    return combined((1, _read(lhs, *box, N)),
                    *[(-c, _read(x, *box, N)) for c, x in rhs])


def _central(rhs, N):
    """The integral(.) Id pieces of a right side, as (c, window): a
    bracket's residual plus them has the bracket's scalar terms."""
    return [(c, _read(x, N, N, N)) for c, x in rhs if x.kind == "1"]


def _on(ring, x, classes, built):
    """The expanded operator of a side on ring, by operators' and
    walgebra's constructors alone, never from the smeared side; a leaf on
    the product of classes[s] over its slot (kept in classes), once per
    dict built."""
    if type(x) is tuple:
        return Linear(*[(c, _on(ring, y, classes, built)) for c, y in x
                        if c])
    if type(x) is _Br:
        return Bracket(_on(ring, x.f, classes, built),
                       _on(ring, x.g, classes, built))
    if type(x) is _Der:
        return derivative(_on(ring, x.x, classes, built), x.k)
    kind, p, n, slot, shift = x
    if slot not in classes:
        c = classes[slot[0]]
        for s in slot[1:]:
            c = c * classes[s]
        classes[slot] = c
    c = classes[slot]
    op = built.get((kind, p, n, shift, c))
    if op is None:
        op = built[kind, p, n, shift, c] = (
            heisenberg(ring, n, c) if kind == "a"
            else quadratic_sum(ring, n, c) if kind == "L"
            else chern(ring, p, c) if kind == "G" and not shift
            else jay(ring, p, n, c) if kind == "J"
            else arrangement(ring, (), c) if kind == "1"
            else family_series(ring, _families(x), c))
    return op


def _action_records(ring, tag, names, statement, groups, states, built):
    """One action record per group (key, cells, picks) on ring, named by
    tag, the surface and key: _on's sides of statement(*cell) on states at
    each cell and pick (named, classes gaining e and K), each leaf built
    once per dict built; a failure is also named by names and named."""
    base = dict(tag, surface=ring.name)
    for key, cells, picks in groups:
        t = _Group(dict(base, **key))
        for _, classes in picks:
            classes.update(e=ring.e, K=ring.K)
        for cell in cells:
            lhs, rhs = statement(*cell)
            for named, classes in picks:
                t.columns(ring, states, _on(ring, lhs, classes, built),
                          _on(ring, rhs, classes, built),
                          dict(zip(names, cell), **base, **named))
        yield t.record()


def _declared(spec, mut, sides, names, cells, act, rings=None, *,
              on_states=_action_states, sweep=None, central=None,
              tag=(("check", "action"),)):
    """The records of an identity: sides(*cell, mut) lists its (check,
    lhs, rhs) with the mutation in them.  Each cell, named by names,
    gives per check a universal record; with sweep = (label, cases(ring))
    instantiate records; with central(*cell) = (expected, params) a
    record of lhs's scalar terms on k3, its residual's plus rhs's.  Then
    act(ring), unless act is None, lists the groups of _action_records
    per ring, each one record, tagged tag, of the last check."""
    N = _cutoff(spec)
    sweeps = [(r, sweep[1](r)) for r in _rings(spec)] if sweep else []
    for cell in cells:
        params = dict(zip(names, cell))
        for check, lhs, rhs in sides(*cell, mut):
            delta = _residual(lhs, rhs, N)
            yield _universal_record(delta, dict(params, check=check)
                                    if check else params)
            for ring, rcases in sweeps:
                yield _sweep(delta, ring, rcases,
                             dict(params, check=sweep[0]))
            want = central and central(*cell)
            for k3 in _rings(spec, ("k3",) if want else ()):
                val = _scalar_part(combined((1, delta), *_central(rhs, N)),
                                   k3, k3.unit)
                yield _verdict(val == want[0], dict(
                    want[1], check="central", surface=k3.name), 1,
                    str(want[0]), str(val))
    if act is None:
        return
    for ring in _rings(spec, rings):
        yield from _action_records(
            ring, tag, names, lambda *c: sides(*c, mut)[-1][1:], act(ring),
            on_states(ring), {})


def _thm42(k, n, mut):
    a_n = _Leaf("a", 0, n, "a")
    return [("universal", _Der(a_n, k) if k else a_n,
             ((1, _Leaf("D", k, n, "a", 2 if mut else 0)),))]


def _run_thm42(spec, mut, *, k_max=3, n_max=3):
    """The k-th derivative of a_n equals its closed partition expansion
    (_thm42; modulo K, exercised with full K via the recursive route on
    states), on every K-trivial class.  A mutated run checks states for
    the first class whose Euler term e*a the mutation moves.

    Mutation euler-shift: the closed Euler factor (s-1) becomes (s+1).
    """
    if mut:
        k_max = min(k_max, 2)

    def act(ring):
        kfree = [a for a in _ktrivial(ring, [(c, ring.basis(c))
                                             for c in ("1", "x")])
                 if not mut or not (ring.e * a[1]).is_zero()]
        return [({"class": na}, product(range(3), (1, -1, -2)),
                 [({"a": na}, {"a": a})])
                for na, a in (kfree[:1] if mut else kfree)]

    yield from _declared(
        spec, mut, _thm42, ("k", "n"),
        product(range(k_max + 1),
                [v for a in range(1, n_max + 1) for v in (a, -a)]),
        act, ("p2", "k3"), sweep=("classes", lambda ring: [
            (na, a, ring.unit)
            for na, a in _ktrivial(ring, _probe(ring, "all"))]))


def _rmk43(k, n, d, mut):
    return [("", _Der(_Leaf("F", k, n, "a", d), 1), (
        (-n * (k + 1), _Leaf("F", k + 1, n, "a", d)),
        (-2 * n * (d + (2 if mut else 1)), _Leaf("E", k, n, "a"))))]


def _run_rmk43(spec, mut, *, k_max=3, n_max=3):
    """The d-shifted family's derivative (_rmk43), d = -1 and n^2 - 2:

        F(k,n,d)' = -n(k+1) F(k+1,n,d)
                    - (n(d+1)/12) sum_{l=k} (1/lam^!) a_lam(tau(e c))

    including n = 0, where the derivative must vanish.

    Mutation shift-term: the factor (d+1) becomes (d+2).
    """
    yield from _declared(
        spec, mut, _rmk43, ("k", "n", "d"),
        [(k, n, d) for k, n in product(range(k_max + 1),
                                       range(-n_max, n_max + 1))
         for d in dict.fromkeys((-1, n * n - 2))], None)


def _thm46(k, mut):
    gk = _Leaf("G", k, 0, "a", 1 if mut else 0)
    return [("derivation", _Der(gk, 1), ()),
            ("transfer-pin", _Br(gk, _Leaf("a", 0, -1, "b")),
             ((Q(1, factorial(k)), _Leaf("D", k, -1, "ab")),))]


def _run_thm46(spec, mut, *, k_max=3):
    """G_k is pinned by three properties (_thm46): every term annihilates
    the vacuum, the series commutes with the derivation (modulo K), and
    its bracket with a_{-1} reproduces the k-th derivative of a_{-1}, in
    the closed form of Theorem 4.2, which thm42 checks.

    The first holds by construction and is not checked: every family of
    G_k, and the mutation's Euler family, has total 0 and a nonzero
    part, so every term has a positive mode.

    Mutation euler-shift: the Euler factor (s-2) becomes (s-1).
    """
    yield from _declared(
        spec, mut, _thm46, ("k",), [(k,) for k in range(k_max + 1)],
        lambda ring: [({}, [(2,), (3,)], [({"b": nb}, {"a": ring.unit, "b": b})
                                          for nb, b in _probe(ring)[:3]])],
        () if mut else None, on_states=lambda ring: _action_states(ring, 3))


def _lem52(p, n, mut):
    return [("universal", _Br(_Leaf("G", p, 0, "a"), _Leaf("a", 0, n, "b")),
             ((Q(n + mut, factorial(p)), _Leaf("J", p, n, "ab")),))]


def _run_lem52(spec, mut, *, p_max=4, n_max=3):
    """[G_p(a), a_n(b)] = (n/p!) J^p_n(ab) (_lem52).

    Mutation rhs-scale: the factor n/p! becomes (n+1)/p!.
    """
    yield from _declared(
        spec, mut, _lem52, ("p", "n"),
        product(range(p_max + 1), range(-n_max, n_max + 1)),
        lambda ring: [({}, product(range(3), (-2, -1, 1, 2)), [
            ({"a": na, "b": nb}, {"a": a, "b": b}) for (na, a), (nb, b)
            in product(_ktrivial(ring, _probe(ring))[:3], _probe(ring)[:3])])],
        () if mut else None)


def _rmk56(p, n, mut):
    return [("universal", _Der(_Leaf("J", p, n, "a"), 1), (
        (-n, _Leaf("J", p + 1, n, "a")),
        (Q(-(n ** 3 - n) * p, 6 if mut else 12),
         _Leaf("J", p - 1, n, "ea"))))]


def _run_rmk56(spec, mut, *, p_max=3, n_max=2):
    """(J^p_n)' = -n J^{p+1}_n - ((n^3-n) p / 12) J^{p-1}_n(e a) (_rmk56),
    modulo K, with full K on states.

    Mutation central-scale: the factor 1/12 becomes 1/6.
    """
    yield from _declared(
        spec, mut, _rmk56, ("p", "n"),
        product(range(1, p_max + 1), range(-n_max, n_max + 1)),
        lambda ring: [({}, product(range(1, 4), (-2, -1, 1, 2)),
                       [({"a": na}, {"a": a}) for na, a in _probe(ring)[:3]])],
        () if mut else None, on_states=lambda ring: _action_states(ring)[:6])


# -- the W-bracket of Theorem 5.5: vir, thm55 and thm57 --------------------


def _w(p, q, m, n, kind="J", mutation=""):
    """[J^p_m(a), J^q_n(b)] of Theorem 5.5 as (lhs, rhs), the one
    statement of the W-bracket.  rhs is (qm-pn) J^{p+q-1}_{m+n}(ab),
    -(Omega/12) J^{p+q-3}_{m+n}(e ab) and, at m = -n, the central term:
    -m integral(ab) Id at p = q = 0, ((m^3-m)/12) integral(e ab) Id at
    p = q = 1 and ((m^3-m)/6) integral(e ab) Id at p + q = 2, p != q; a
    piece with a zero coefficient is left out.  kind "L" states vir's
    cells (p = q = 1) over L_n.

    A mutation, named by its label, adds one piece last: thm55's
    omega-negated (Omega/6) J^{p+q-3}_{m+n}(e ab) flips the structure
    polynomial's sign, thm57's linear-shift J^{p+q-1}_{m+n}(ab) adds 1 to
    (qm-pn), and vir's central-shift (1/12) integral(e ab) Id shifts the
    central term at m = -n."""
    om = omega(p, q, m, n) if p + q >= 3 else 0
    rhs = []
    if q * m - p * n:
        rhs.append((q * m - p * n, _Leaf(kind, p + q - 1, m + n, "ab")))
    if om:
        rhs.append((Q(-om, 12), _Leaf(kind, p + q - 3, m + n, "eab")))
    if m == -n != 0 and p == q == 0:
        rhs.append((-m, _Leaf("1", 0, 0, "ab")))
    elif m == -n and p + q == 2 and m ** 3 != m:
        rhs.append((Q(m ** 3 - m, 12 if p == q else 6),
                    _Leaf("1", 0, 0, "eab")))
    if mutation == "omega-negated" and om:
        rhs.append((Q(om, 6), _Leaf(kind, p + q - 3, m + n, "eab")))
    elif mutation == "linear-shift" and (p or q):
        rhs.append((1, _Leaf(kind, p + q - 1, m + n, "ab")))
    elif mutation == "central-shift" and m == -n != 0:
        rhs.append((Q(1, 12), _Leaf("1", 0, 0, "eab")))
    return _Br(_Leaf(kind, p, m, "a"), _Leaf(kind, q, n, "b")), tuple(rhs)


def _w_cells(pq_max, m_max):
    """The (p, q, m, n) cells with p + q <= pq_max and |m|, |n| <= m_max."""
    return [(p, q, m, n) for p in range(pq_max + 1)
            for q in range(pq_max + 1 - p)
            for m, n in product(range(-m_max, m_max + 1), repeat=2)]


@cache
def _w_cell(args):
    """One (p, q, m, n) cell on window N, measured: the residual of _w's
    plain statement.

    Kept for the process, one entry per distinct cell and window, which
    is empty when the identity holds.  thm55 and thm57, plain and
    mutated, read it, so no caller changes an entry."""
    p, q, m, n, N = args
    return _residual(*_w(p, q, m, n), N)


def _w_deltas(pq_max, m_max, N, mutation=""):
    """(params, residual) of _w at each of _w_cells(pq_max, m_max) on
    window N, params naming the cell: the stored plain residual
    (_w_cell), and with a mutation label a copy with that mutation's
    piece fused on by one combined."""
    for cell in _w_cells(pq_max, m_max):
        delta = _w_cell(cell + (N,))
        if mutation:
            # The pieces past the plain statement's are the mutation's.
            extra = _w(*cell, mutation=mutation)[1][len(_w(*cell)[1]):]
            pos = _sound_pos(N, *cell[2:])
            delta = combined((1, delta), *[(-c, _read(x, pos, N, N))
                                           for c, x in extra])
        yield dict(zip("pqmn", cell)), delta


def _run_vir(spec, mut, *, m_max=3):
    """[L_m(a), L_n(b)] = (m-n) L_{m+n}(ab)
                          + delta_{m,-n} ((m^3-m)/12) integral(e a b) Id,

    the p = q = 1 cells of the W-bracket (_w over L_n), with central
    values on k3; a mutated run checks its identity on states of p2.

    Mutation central-shift: the central factor gains an extra 1/12.
    """
    if mut:
        m_max = min(m_max, 2)

    def act(ring):  # p2: |m|, |n| <= 2, three classes; k3: (m, -m), one
        grid, width = {"p2": (product(range(-2, 3), repeat=2), 3),
                       "k3": (((1, -1), (2, -2), (3, -3)), 1)}[ring.name]
        pairs = [({"a": na, "b": nb}, {"a": a, "b": b}) for (na, a), (nb, b)
                 in product(_probe(ring)[:width], repeat=2)]
        return [({"m": m, "n": n}, [(m, n)], pairs) for m, n in grid]

    yield from _declared(
        spec, mut, lambda m, n, mut: [("universal", *_w(
            1, 1, m, n, "L", spec.mutation if mut else ""))],
        ("m", "n"), product(range(-m_max, m_max + 1), repeat=2), act,
        ("p2",) if mut else ("p2", "k3"),
        sweep=("instantiate", lambda ring: _pair_cases(ring, _probe(ring))),
        central=lambda m, n: (Q(24) * Q(m ** 3 - m, 12), {"m": m})
        if m == -n != 0 else None)


# -- thm31: mixed brackets and the replacement rule ------------------------


def _thm31(part, x, y, mut):
    if part == "mixed":
        return (_Br(_Leaf("L", 1, x, "a"), _Leaf("a", 0, y, "b")),
                ((-y, _Leaf("a", 0, x + y, "ab")),))
    if part == "replacement":
        return _Der(_Leaf("a", 0, x, "b"), 1), (
            (Q(x), _Leaf("L", 1, x, "b")),
            (-Q(x * (abs(x) - 1), 2) - mut, _Leaf("a", 0, x, "Kb")))
    pin = _Leaf("a", 0, -1, "ab")
    return (_Br(_Leaf("G", x, 0, "a"), _Leaf("a", 0, -1, "b")),
            ((Q(1, factorial(x)), _Der(pin, x) if x else pin),))


def _run_thm31(spec, mut, *, m_max=3, k_max=3):
    """Three action identities (_thm31):

    (ii)  [L_m(a), a_n(b)] = -n a_{m+n}(ab)
    (iii) derivative of a_n(b) = n L_n(b) - (n(|n|-1)/2) a_n(K b)
    (v)   [G_k(a), a_{-1}(b)] = (1/k!) (k-th derivative of a_{-1}(ab))

    Mutation canonical-shift: the K-term coefficient in (iii) gains +1.
    """
    rings = _rings(spec)
    if mut:
        m_max = min(m_max, 2)
        k_max = 0
        # Frozen in perfbench/refs.json: on p2 whatever --surface says.
        rings = [builtin_ring("p2")]
    ms = range(-m_max, m_max + 1)
    for ring in rings:
        pairs = _probe(ring)
        small = pairs[:5] if ring.dim > 8 else pairs
        two = [({"a": na, "b": nb}, {"a": a, "b": b})
               for (na, a), (nb, b) in product(small, small)]
        pin = [({"a": na, "b": nb}, {"a": a, "b": b}) for (na, a), (nb, b)
               in product(_ktrivial(ring, pairs), small)]
        one = [({"b": nb}, {"b": b}) for nb, b in pairs]
        states, built = _action_states(ring), {}
        for part, names, cells, picks in (
                [("mixed", "mn", [(m, n) for n in ms], two) for m in ms]
                + [("replacement", "n", [(n, 0)], one) for n in ms if n]
                + [("character-pin", "k", [(k, 0)], pin)
                   for k in range(k_max + 1)]):
            yield from _action_records(
                ring, {"part": part}, names, partial(_thm31, part, mut=mut),
                [(dict(zip(names, cell)), [cell], picks) for cell in cells],
                states, built)
            # The transfer operators live for the ring, L_m(a) and G_k(a)
            # with their columns for one m, n or k: that bounds memory.
            built = {key: op for key, op in built.items() if key[0] == "a"}


# -- lem32: smeared calculus against raw composition -----------------------


_NUS_FULL = ((-1,), (1,), (-2,), (2,), (1, 1), (-2, 1), (-1, -1),
             (-3, 1), (-1, 2), (1, 2), (-2, -1), (-1, 1, 1))
_NUS_SMALL = ((-1,), (2,), (1, 1), (-2, 1), (-1, -1), (-3, 1))
_SWAPS = (((1, -1), 0), ((-1, 1), 0), ((2, -2), 0), ((-2, 2), 0),
          ((1, 2), 0), ((-1, -2), 0), ((2, 1, -1), 1), ((1, -1, -2), 0),
          ((-1, 2, -2), 1))


def _derivative_at(parts):
    """w -> the smeared derivative of a_parts, cut to its terms that
    annihilate at most w points.  d keeps the size t, and an Euler
    correction sheds a pair (u, -u) with |u| at most the largest part h,
    so the splittings run h past the kept box."""
    one = SmearedOp({encode(parts): 1})
    h, t = max(map(abs, parts)), sum(parts)
    return lambda w: s_derive(one, w, w - t, w + h, w + h - t)


def _run_lem32(spec, mut):
    """The smeared calculus against ground-truth operator composition:

    bracket:    [a_nu(tau a), a_mu(tau b)] from single contractions
    derivative: the splitting and K rules for the derivation
    reorder:    adjacent swap with one Euler correction per (v,-v) pair

    The bracket part composes each pair {(nu, a), (mu, b)} once per
    state: (mu, nu, b, a) reads it times -(-1)^{|a||b|} against its own
    right side, in its place in the (nu, mu, a, b, state) failure order.

    Mutation euler-sign: the reorder correction -v becomes +v.
    """
    rings = _rings(spec)
    if mut:
        # Frozen in perfbench/refs.json: on p2 whatever --surface says.
        rings = [builtin_ring("p2")]
    for ring in rings:
        smallring = ring.dim <= 4
        nus = _NUS_FULL if smallring else _NUS_SMALL
        pairs = _probe(ring)
        cpairs = pairs if smallring else pairs[:3]
        states = _action_states(ring)
        if not mut:
            params = {"part": "bracket", "surface": ring.name}
            t = _Group(params)
            # One operator per (partition, class) for this ring's
            # bracket and derivative parts; its columns serve every cell.
            op = cache(partial(monomial, ring))
            names, cls = zip(*cpairs)
            ab = {(k, l): a * b for (k, a), (l, b)
                  in product(enumerate(cls), repeat=2)}
            one = [SmearedOp({encode(nu): 1}) for nu in nus]
            for x, y in combinations_with_replacement(range(len(nus)), 2):
                rhs = {(p, q): cache(partial(instantiate, s_bracket(
                    one[p], one[q]), ring)) for p, q in {(x, y), (y, x)}}
                for k, l in ab:
                    if x == y and k > l:
                        continue
                    br = Bracket(op(nus[x], cls[k]),
                                 op(nus[y], cls[l]))
                    odd = br.f.parity() and br.g.parity()
                    for p, q, i, j, sign in ((x, y, k, l, 1),
                                             (y, x, l, k, 1 if odd else -1)):
                        t.columns(ring, states, br, rhs[p, q](ab[i, j]),
                                  dict(params, nu=str(list(nus[p])),
                                       mu=str(list(nus[q])), a=names[i],
                                       b=names[j]), (p, q, i, j), sign)
                        if (x, k) == (y, l):
                            break
            yield t.record()
            params = {"part": "derivative", "surface": ring.name}
            t = _Group(params)
            for nu in nus:
                for na, a in cpairs:
                    t.columns(ring, states, derivative(op(nu, a), 1),
                              smeared_series(ring, _derivative_at(nu), a),
                              dict(params, nu=str(list(nu)), a=na))
            yield t.record()
        params = {"part": "reorder", "surface": ring.name}
        t = _Group(params)
        for seq, j in _SWAPS:
            swapped = seq[:j] + (seq[j + 1], seq[j]) + seq[j + 2:]
            rest = seq[:j] + seq[j + 2:]
            cc = Q(0)
            if seq[j] == -seq[j + 1] and seq[j] != 0:
                cc = Q(seq[j] if mut else -seq[j])
            for na, a in cpairs:
                t.columns(ring, states, arrangement(ring, seq, a),
                          Linear((1, arrangement(ring, swapped, a)),
                                 (cc, arrangement(ring, rest, ring.e * a))),
                          dict(params, seq=str(list(seq)), pos=j, a=na))
        yield t.record()


# -- cor48: creation-only expansion of character classes -------------------


def _run_cor48(spec, mut, *, n_max=4):
    """Character classes G_k(c, n) by operator action and by the closed
    creation expansion agree for every basis class on K-trivial surfaces.

    Mutation euler-shift: the closed Euler weight (j+1+s-2) gains +1,
    which adds -(1/24) G_{k-2}(e a, n) by the closed expansion (e*e = 0).
    It needs e != 0, so a mutated run refuses any surface but k3 as soon
    as it is called, ahead of run_suite's refusal.
    """
    if not mut:
        return _cor48_records(_rings(spec), False, n_max)
    if spec.surface not in ("", "k3"):
        raise ValueError("the cor48 mutation needs e != 0 and runs on "
                         "k3, not %s" % spec.surface)
    return _cor48_records(_rings(spec, ("k3",)), True, min(n_max, 3))


def _cor48_records(rings, mut, n_max):
    for ring in rings:
        for n in range(n_max + 1):
            for k in range(n):
                t = _Group({"surface": ring.name, "n": n, "k": k}, True)
                for na, a in _probe(ring, "all"):
                    via_op = chern_class(ring, k, a, n)
                    via_closed = chern_class_closed(ring, k, a, n)
                    if mut:
                        via_closed = combine((1, via_closed), (
                            Q(-1, 24),
                            chern_class_closed(ring, k - 2, ring.e * a, n)))
                    t.check(via_op == via_closed, dict(t.params, a=na),
                            via_op, via_closed,
                            show=partial(render_terms, ring=ring))
                yield t.record()


# -- rmk410: surface-independent intersection numbers ----------------------


_RMK410_SPOTS = (((0,), 1, Q(1)), ((2,), 2, Q(-1, 4)), ((0, 0), 2, Q(1)))


def _run_rmk410(spec, mut, *, n_max=4):
    """Integrals of products of point-smeared character classes agree
    across all surfaces and match the closed combinatorial value.

    Mutation sign-flip: the closed per-factor sign (-1)^j flips, which
    multiplies the closed value by (-1)^len(ks).
    """
    def closed(ks, n):
        value = intersection_number_closed(ks, n)
        return -value if mut and len(ks) % 2 else value

    rings = _rings(spec)
    if mut:
        n_max = min(n_max, 2)
        rings = rings[:2]
    for n in range(1, n_max + 1):
        for ks in k_multisets(n):
            oracle = closed(ks, n)
            vals = [(r.name, intersection_number(r, ks, n)) for r in rings]
            yield _verdict(all(v == oracle for _, v in vals),
                           {"n": n, "ks": ",".join(map(str, ks))},
                           len(vals), str(oracle),
                           "; ".join("%s=%s" % (nm, v) for nm, v in vals))
    for ks, n, frozen in _RMK410_SPOTS:
        if n > n_max:
            continue
        oracle = closed(ks, n)
        yield _verdict(oracle == frozen, {"check": "frozen", "n": n,
                                          "ks": ",".join(map(str, ks))},
                       1, str(frozen), str(oracle))


# -- def51-ids: W-generator identifications --------------------------------


def _def51(part, x, mut):
    if part == "a":
        return _Leaf("J", 0, x, "a"), ((-1, _Leaf("a", 0, x, "a")),)
    n, a = (0 if part == "c" else -1), _Leaf("a", 0, -1, "a")
    rhs = ((factorial(x), _Leaf("G", x - 1, 0, "a")) if part == "c"
           else (-1, _Der(a, x) if x else a),)
    if mut and x >= 2:
        rhs += ((factorial(x), _Leaf("E", x - 1, n, "a")),)
    return _Leaf("J", x, n, "a"), rhs


def _run_def51(spec, mut, *, p_max=4, n_max=3):
    """Identifications of the W-generators (_def51 but b):

    (a) J^0_n = -a_n            (b) J^1_n = L_n (independent expansion)
    (c) J^p_0 = p! G_{p-1}      (d) J^p_{-1} = -D^p(a_{-1}), also on k3

    Parts a and d compare J with a_n and with p steps of s_derive from
    a_{-1}, apart from the series template; part c is how the paper
    relates J and G, which thm46 and lem52 check.

    Mutation euler-shift: the J Euler weight (s+n^2-2) loses 1, adding
    p! times the unit Euler family over l = p - 1 to c and d, p >= 2.
    """
    def sides(part, x, mut):
        return [("", *_def51(part, x, mut))]
    yield from _declared(spec, mut, sides, ("part", "n"),
                         [("a", n) for n in range(-n_max, n_max + 1)],
                         None)
    for ring in _rings(spec):
        t = _Group({"part": "b", "surface": ring.name}, True)
        for n, (na, a) in product(range(-2, 3), _probe(ring)[:4]):
            ja = instantiate(_window(jay_families, (1, n), 4, 4), ring, a)
            ln = quadratic_sum(ring, n, a).terms_within(4)
            t.check(ja.equal_terms(ln),
                    dict(t.params, n=n, a=na), ln, ja)
        yield t.record()
    yield from _declared(
        spec, mut, sides, ("part", "p"),
        [(part, p) for p in range(1, p_max + 1) for part in "cd"],
        lambda ring: [({}, [("d", p) for p in range(4)], [
            ({"a": na}, {"a": a}) for na, a in _probe(ring)[:3]])],
        () if mut else ("k3",), tag={"part": "d-action"})


# -- lem53: W-generators as field monomial components ----------------------


def _lem53(p, m, mut):
    rhs = ((1, _Leaf("V", p, m, "a")),)
    if mut and p >= 1:
        rhs += ((Q(p, 24), _Leaf("M", p - 1, m, "ea")),)
    return _Leaf("J", p, m, "a"), rhs


def _run_lem53(spec, mut, *, p_max=4, m_max=3):
    """J^p_m equals its normally ordered field expression term by term
    (_lem53, then :a^2:_m = -2 L_m on p2):

        -1/(p+1) :a^{p+1}:_m + p(m^2-3m-2p)/24 :a^{p-1}:_m (Euler)
        + p(p-1)/24 :(d^2 a) a^{p-2}:_m (Euler).

    Mutation field-coeff-shift: the middle coefficient gains p/24.
    """
    yield from _declared(
        spec, mut, lambda p, m, mut: [("", *_lem53(p, m, mut))], ("p", "m"),
        product(range(p_max + 1), range(-m_max, m_max + 1)), None)
    for ring in _rings(spec, () if mut else ("p2",)):
        t = _Group({"check": "square-field", "surface": ring.name}, True)
        for m in range(-2, 3):
            for na, a in _probe(ring):
                f2 = fourier(ring, (0, 0), m, a).terms_within(5)
                l2 = quadratic_sum(ring, m, a).terms_within(5).scaled(Q(-2))
                t.check(f2.equal_terms(l2),
                        {"check": "square-field", "m": m, "a": na}, l2, f2)
        yield t.record()


# -- thm55: the full W-algebra bracket -------------------------------------


def _run_thm55(spec, mut, *, pq_max=6, m_max=3):
    """[J^p_m(a), J^q_n(b)] = (qm-pn) J^{p+q-1}_{m+n}(ab)
                              - (Omega(p,q,m,n)/12) J^{p+q-3}_{m+n}(e a b)

    plus the low-weight exceptional central terms (_w).  Universal
    residuals per cell, instantiation sweeps per surface, central values
    on k3, and action checks on states.

    Mutation omega-negated: the structure polynomial flips sign.
    """
    N = _cutoff(spec)
    rings = _rings(spec)
    if mut:
        pq_max = min(pq_max, 3)
        m_max = min(m_max, 1)
        rings = rings[:1]
    cases = [(r, _pair_cases(r, _probe(r))) for r in rings]
    for params, delta in _w_deltas(pq_max, m_max, N, spec.mutation):
        yield _universal_record(delta, dict(params, check="universal"))
        for ring, rcases in cases:
            yield _sweep(delta, ring, rcases,
                         dict(params, check="instantiate"))
    for ring in _rings(spec, ("k3",)):
        u1u2 = ring.basis("u1") * ring.basis("u2")
        for (p, q), m in product(((0, 0), (1, 1), (2, 0), (0, 2)),
                                 range(1, m_max + 1)):
            # The bracket's scalar terms, the stored residual's plus the
            # statement's, against its central pieces, at ab = u1 u2 for
            # the trace term and ab = 1 for the Euler terms.
            cell = (p, q, m, -m)
            central = _central(_w(*cell)[1], N)
            ab = u1u2 if p == q == 0 else ring.unit
            got = _scalar_part(combined((1, _w_cell(cell + (N,))),
                                        *central), ring, ab)
            want = _scalar_part(combined(*central), ring, ab)
            label = ("(m^3-m)/%d * integral(e)" % (12 if p == q else 6)
                     if p or q else "-m * integral(ab)")
            yield _verdict(got == want, {"check": "central", "p": p,
                                         "q": q, "m": m, "label": label},
                           1, str(want), str(got))

    def picked(ring):  # the vacuum, two of weight 1 and four of weight 2
        w = {s: weight(ring.states[s]) for s in _action_states(ring)}
        return ([s for s in w if not w[s]] + [s for s in w if w[s] == 1][:2]
                + [s for s in w if w[s] == 2][:4])

    yield from _declared(
        spec, mut, lambda *cell: [("", *_w(*cell[:4]))], "pqmn", (),
        lambda ring: [({}, _THM55_SPOT_CELLS, [
            ({"a": ca, "b": cb}, {"a": ring.basis(ca), "b": ring.basis(cb)})
            for ca, cb in _THM55_SPOT_PAIRS[ring.name]])],
        () if mut else ("k3", "abelian", "p2"), on_states=picked)


_THM55_SPOT_CELLS = ((1, 1, 1, -1), (2, 1, 1, -1), (2, 1, 2, -1),
                     (0, 3, 1, 1), (2, 2, 1, -1), (3, 0, 1, -1))

_THM55_SPOT_PAIRS = {
    "k3": (("1", "1"), ("u1", "u2"), ("1", "x")),
    "abelian": (("1", "1"), ("t1", "t2"), ("t1", "t234"), ("t12", "t34")),
    "p2": (("1", "1"), ("H", "H"), ("1", "x")),
}


# -- thm57: isomorphism with the abstract W-algebra ------------------------


def _run_thm57(spec, mut, *, pq_max=5, m_max=3):
    """On a surface with K = e = 0 the generators realize the abstract
    W-algebra: restricted to untagged terms,

        [J^p_m(a), J^q_n(b)] = (qm-pn) J^{p+q-1}_{m+n}(ab)

    with the trace central term m delta_{m,-n} (-integral(ab)) at
    p = q = 0 (_w); cross-checked against the symbolic bracket and
    grounded on odd classes of the abelian model.

    Mutation linear-shift: the factor (qm-pn) gains +1.
    """
    N = _cutoff(spec)
    if mut:
        pq_max = min(pq_max, 2)
        m_max = min(m_max, 1)
    for params, delta in _w_deltas(pq_max, m_max, N, spec.mutation):
        # Untagged codes come only from the untagged families' plain
        # events; their powers byte is 0.
        delta = SmearedOp({k: c for k, c in delta.terms.items()
                           if not k % SCALARS}, delta.den)
        yield _universal_record(delta, dict(params, check="universal"))
    for ring in _rings(spec):
        yield _thm57_symbolic(ring)
    yield from _declared(
        spec, mut, lambda *cell: [("", *_w(*cell[:4]))], "pqmn", (),
        lambda ring: [({}, _THM57_SPOT_CELLS, [
            ({"a": ca, "b": cb}, {"a": ring.basis(ca), "b": ring.basis(cb)})
            for ca, cb in _THM57_SPOT_PAIRS])], () if mut else None)


_THM57_SPOT_CELLS = tuple(
    pq + mn for pq, mn in product(((0, 0), (1, 0), (1, 1), (2, 1)),
                                  ((1, -1), (1, 1), (-1, -1), (2, -1))))

# Class pairs of the abelian model, odd classes included.
_THM57_SPOT_PAIRS = (("1", "1"), ("t1", "t2"), ("t1", "t234"),
                     ("t12", "t34"), ("t123", "t4"))


def _show_q(x):
    """An abstract element's text with Fraction values, as the W-algebra
    checks report a failure, whatever type its values have."""
    return str({k: Q(v) for k, v in x.items()})


def _thm57_symbolic(ring):
    """The record of the symbolic W-algebra bracket against the measured
    constants on ring, which no thm57 mutation touches."""
    gram = ring.pairing_matrix()
    cls = {c: ring.basis(c) for c in _W_CLASSES[ring.name]}
    term = cache(lambda p, m, c: wterm(p, m, cls[c]))
    times = cache(lambda ca, cb: cls[ca] * cls[cb])
    t = _Group({"check": "symbolic"}, True)
    for p, q, m, n in product(range(3), range(3), (-2, 0, 1), (-1, 1, 2)):
        for ca, cb in product(cls, cls):
            got = wbracket(ring, term(p, m, ca), term(q, n, cb))
            if p == q == 0:
                c = -m * gram[ring.index[ca]][ring.index[cb]] if m == -n else 0
                want = {CENTRAL: c} if c else {}
            else:
                want = wterm(p + q - 1, m + n, times(ca, cb), q * m - p * n)
            t.check(got == want, {"check": "symbolic", "p": p, "q": q,
                                  "m": m, "n": n, "a": ca, "b": cb},
                    want, got, show=_show_q)
    return t.record()


# -- lem61: derivative identities of field monomials -----------------------


def _lem61_identities(Nf, m, six):
    """(name, lhs orders, lhs scalar, rhs terms) of the five identities at
    N = Nf underived factors; a rhs term (orders, used, coefficient)
    replaces the first `used` underived factors and needs Nf >= used."""
    s1, s2, s3 = -m - Nf, -m - Nf - 1, -m - Nf - 2
    return (
        ("i", (), s1 * s2,
         (((2,), 1, Nf), ((1, 1), 2, Nf * (Nf - 1)))),
        ("ii", (), s1 * s2 * s3,
         (((3,), 1, Nf), ((1, 2), 2, six * comb(Nf, 2)),
          ((1, 1, 1), 3, 6 * comb(Nf, 3)))),
        ("iii", (2,), -m - Nf - 3,
         (((3,), 0, 1), ((1, 2), 1, Nf))),
        ("iv", (1, 1), -m - Nf - 4,
         (((1, 2), 0, 2), ((1, 1, 1), 1, Nf))),
        ("v", (), s1 * s2 * s3,
         (((2,), 1, 3 * Nf * s3), ((3,), 1, -2 * Nf),
          ((1, 1, 1), 3, 6 * comb(Nf, 3)))),
    )


def _run_lem61(spec, mut, *, n_max=4, m_max=3):
    """Five derivative identities of normally ordered field monomials,
    compared as component term lists; N is the number of underived
    factors and the component scalars are products of (-m - weight - s).

    Mutation coeff-shift: the 6 C(N,2) coefficient becomes 5 C(N,2).
    """
    B = _cutoff(spec)
    six = 5 if mut else 6
    for Nf, m in product(range(n_max + 1), range(-m_max, m_max + 1)):
        z = (0,) * Nf
        for name, orders, scale, terms in _lem61_identities(Nf, m, six):
            pieces = [(scale, _window(fourier_families, (orders + z, m), B,
                                      B))]
            pieces += [(-c, _window(fourier_families,
                                    (rorders + z[used:], m), B, B))
                       for rorders, used, c in terms if Nf >= used]
            yield _universal_record(
                combined(*pieces), {"identity": name, "N": Nf, "m": m})


# -- eq22: the abstract W-algebra ------------------------------------------


def _run_eq22(spec, mut, *, p_max=2, m_max=2):
    """Antisymmetry and the Jacobi identity of the symbolic bracket, and
    the trace convention trace = -integral against the measured
    transfer-operator central term.

    Each run brackets every ordered pair of single terms once per ring,
    into a pair table: antisymmetry reads both orders of a pair from it
    and Jacobi its three inner brackets, so only the outer brackets are
    computed per triple, and none whose inner bracket is zero: a bracket
    with an empty operand is empty, central terms included.

    Mutation central-shift: the central factor m becomes m + 1.
    """
    rings = _rings(spec)
    if mut:
        p_max = min(p_max, 1)
        rings = rings[:1]
    for ring in rings:
        names = _W_CLASSES[ring.name]

        def brk(x, y):
            if not x or not y:
                return {}
            out = wbracket(ring, x, y)
            if mut and CENTRAL in out:  # x is a single term J(0, m; a)
                (_, _, m, _), = x
                out[CENTRAL] *= Q(m + 1, m)
            return {k: v for k, v in out.items() if v}

        singles = [(p, m, cn) for p in range(p_max + 1)
                   for m in range(-m_max, m_max + 1) for cn in names]
        xs = [wterm(p, m, ring.basis(cn)) for p, m, cn in singles]
        par = [wparity(ring, x) for x in xs]
        label = ["J(%d,%d;%s)" % s for s in singles]
        pair = [[brk(x, y) for y in xs] for x in xs]
        t = _Group({"check": "antisymmetry", "surface": ring.name})
        for i, j in product(range(len(xs)), repeat=2):
            sign = -1 if par[i] and par[j] else 1
            want = {k: -sign * v for k, v in pair[j][i].items()}
            t.check(pair[i][j] == want, dict(t.params, x=label[i],
                                             y=label[j]),
                    want, pair[i][j], show=_show_q)
        yield t.record()
        if mut:
            continue
        t = _Group({"check": "jacobi", "surface": ring.name})
        sub = [i for i, (_, m, cn) in enumerate(singles)
               if m in (-2, 0, 1) and cn in names[:3]]
        for i, j, k in product(sub, repeat=3):
            sign = -1 if par[i] and par[j] else 1
            lhs = brk(xs[i], pair[j][k])
            rhs = brk(pair[i][j], xs[k])
            for key, v in brk(xs[j], pair[i][k]).items():
                rhs[key] = rhs.get(key, 0) + sign * v
            rhs = {key: v for key, v in rhs.items() if v}
            t.check(lhs == rhs, dict(t.params, x=label[i], y=label[j],
                                     z=label[k]), rhs, lhs, show=_show_q)
        yield t.record()
    t = _Group({"check": "trace-bridge"})
    for m in (1, 2, 3):
        meas = series_bracket(heis_families(m), heis_families(-m), 4, 4)
        got = Q(meas.terms.get(0, 0), meas.den)
        t.check(got == -m, {"check": "trace-bridge", "m": m}, Q(-m), got)
    yield t.record()


# -- registry and reports --------------------------------------------------


class Suite(NamedTuple):
    """A registry entry: the runner and every option the suite reads."""

    runner: object
    description: str
    mutation: str  # the label of its one mutation
    window: int | None  # the window --cutoff 0 runs; None: reads none
    surfaces: tuple  # the built-in surfaces its records name


SUITES = {
    "heis": Suite(_run_heis, "transfer operator commutation relations on "
                  "basis states of every surface model", "central-shift",
                  None, SURFACE_NAMES),
    "vir": Suite(_run_vir, "Virasoro bracket of the quadratic series with "
                 "the Euler-class central term", "central-shift", 8,
                 SURFACE_NAMES),
    "thm31": Suite(_run_thm31, "mixed Virasoro-transfer brackets, the "
                   "derivative replacement rule, and the character pin",
                   "canonical-shift", None, SURFACE_NAMES),
    "lem32": Suite(_run_lem32, "smeared calculus rules against "
                   "ground-truth operator composition", "euler-sign", None,
                   SURFACE_NAMES),
    "thm42": Suite(_run_thm42, "closed partition expansion of iterated "
                   "derivatives of transfer operators", "euler-shift", 8,
                   ("k3", "abelian", "p2")),
    "rmk43": Suite(_run_rmk43, "derivative closure of the d-shifted "
                   "partition families, including n = 0", "shift-term", 8,
                   ()),
    "thm46-unique": Suite(_run_thm46, "characterization of the character "
                          "series: derivation invariance, transfer pin",
                          "euler-shift", 8, ("k3", "abelian")),
    "cor48": Suite(_run_cor48, "creation-only expansion of character "
                   "classes against the operator route", "euler-shift",
                   None, ("abelian", "k3")),
    "rmk410": Suite(_run_rmk410, "surface-independent intersection numbers "
                    "of character classes, dual route", "sign-flip", None,
                    SURFACE_NAMES),
    "def51-ids": Suite(_run_def51, "W-generator identifications at weights "
                       "0, 1 and modes 0, -1", "euler-shift", 8,
                       ("p2", "k3")),
    "lem52": Suite(_run_lem52, "character-transfer bracket producing "
                   "W-generators", "rhs-scale", 8, ("k3", "p1xp1")),
    "lem53": Suite(_run_lem53, "W-generators as Fourier components of field "
                   "monomials, term by term", "field-coeff-shift", 8,
                   ("p2",)),
    "thm55": Suite(_run_thm55, "full W-algebra bracket: linear term, "
                   "structure polynomial, central terms", "omega-negated",
                   8, ("abelian", "k3", "p2")),
    "rmk56": Suite(_run_rmk56, "derivative of W-generators raising the "
                   "weight", "central-scale", 8, ("k3",)),
    "thm57": Suite(_run_thm57, "isomorphism with the abstract W-algebra on "
                   "trivial-canonical trivial-Euler surfaces",
                   "linear-shift", 8, ("abelian",)),
    "lem61": Suite(_run_lem61, "derivative identities of normally ordered "
                   "field monomials", "coeff-shift", 5, ()),
    "eq22": Suite(_run_eq22, "abstract W-algebra: antisymmetry, Jacobi, "
                  "trace central term", "central-shift", None,
                  ("abelian", "k3")),
}


def list_suites():
    return [{"suite": name, "description": suite.description,
             "mutation": suite.mutation}
            for name, suite in sorted(SUITES.items())]


def run_suite(spec):
    if spec.suite not in SUITES:
        raise ValueError("unknown suite %r (choose from %s)"
                         % (spec.suite, ", ".join(sorted(SUITES))))
    suite = SUITES[spec.suite]
    if spec.mutation and spec.mutation != suite.mutation:
        raise ValueError("suite %s supports only mutation %r"
                         % (spec.suite, suite.mutation))
    for key, value in [("cutoff", spec.cutoff), *spec.bounds.items()]:
        if type(value) is not int:  # refuses bools and floats too
            raise ValueError("%s must be an integer, got %r" % (key, value))
    if spec.cutoff < 0:
        raise ValueError("cutoff must be at least 0, got %d" % spec.cutoff)
    if spec.cutoff and suite.window is None:
        raise ValueError("suite %s reads no window, so it takes no cutoff; "
                         "got %d" % (spec.suite, spec.cutoff))
    if spec.cutoff == 1:
        raise ValueError("cutoff must be 0 (the suite's default window) or "
                         "at least 2, got 1: a window of weight 1 holds no "
                         "two-mode term, so the checks would be vacuous")
    accepted = sorted(suite.runner.__kwdefaults__ or ())
    unknown = sorted(set(spec.bounds) - set(accepted))
    if unknown:
        raise ValueError("suite %s has no bound %s; it accepts %s"
                         % (spec.suite, ", ".join(unknown),
                            ", ".join(accepted) or "none"))
    for k in sorted(spec.bounds):
        if spec.bounds[k] < 0:
            raise ValueError("bound %s must be at least 0, got %d"
                             % (k, spec.bounds[k]))
        if spec.bounds[k] > sys.maxsize // 2:  # range(-b, b + 1) is sized
            raise ValueError("%s must be an integer of at most %d, got %d"
                             % (k, sys.maxsize // 2, spec.bounds[k]))
    # Calling a runner checks nothing yet; only the cor48 mutation may
    # refuse its surface here, in its own words.
    records = suite.runner(spec, bool(spec.mutation), **spec.bounds)
    if spec.surface and not suite.surfaces:
        raise ValueError("suite %s reads no surface, so it takes no "
                         "--surface; got %r" % (spec.suite, spec.surface))
    if spec.surface and spec.surface not in suite.surfaces:
        raise ValueError("suite %s runs on %s, not %s"
                         % (spec.suite, " or ".join(suite.surfaces),
                            spec.surface))
    records = list(records)
    if not records:
        raise ValueError("suite %s has nothing to check at these bounds: "
                         "the run yields no record" % spec.suite)
    if spec.mutation and all(r.status == "pass" for r in records):
        raise ValueError("suite %s passes with mutation %s: these bounds "
                         "leave the mutation nothing to change"
                         % (spec.suite, spec.mutation))
    return VerificationReport(spec.suite, spec, records)


def report_lines(report):
    """Deterministic JSON-ready dicts; timing is deliberately excluded."""
    spec = report.spec
    head = {"header": {
        "suite": report.suite,
        "surface": spec.surface,
        "cutoff": spec.cutoff,
        "bounds": {k: spec.bounds[k] for k in sorted(spec.bounds)},
        "classes": "",  # constant, so that frozen reports keep their bytes
        "mutation": spec.mutation,
    }}
    lines = [head]
    for r in report.records:
        lines.append({"record": {
            "params": r.params, "status": r.status, "checks": r.checks,
            "expected": r.expected, "actual": r.actual}})
    lines.append({"summary": {"instances": len(report.records),
                              "passed": report.passed,
                              "failed": report.failed,
                              "ok": report.ok}})
    return lines


def serialize_report(report, fmt="jsonl"):
    if fmt == "jsonl":
        return "\n".join(map(dumps, report_lines(report))) + "\n"
    if fmt == "human":
        out = ["suite %s: %d instances, %d passed, %d failed"
               % (report.suite, len(report.records), report.passed,
                  report.failed)]
        for r in report.records:
            if r.status != "pass":
                out.append("FAIL %s" % dumps(r.params))
                out.append("  expected: %s" % r.expected)
                out.append("  actual:   %s" % r.actual)
        out.append("result: %s" % ("PASS" if report.ok else "FAIL"))
        return "\n".join(out) + "\n"
    if fmt == "csv":
        import csv
        import io
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["suite", "params", "status", "checks", "expected",
                    "actual"])
        for r in report.records:
            w.writerow([report.suite, dumps(r.params),
                        r.status, r.checks, r.expected, r.actual])
        return buf.getvalue()
    raise ValueError("unknown format %r" % fmt)
