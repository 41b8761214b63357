"""Verification suites for the operator calculus.

Each suite checks one identity family by exact computation, instance by
instance, and returns a report of pass/fail records.  Universal checks
compare smeared term lists (valid over every surface at once); these are
then instantiated on concrete surfaces, and a sample of instances is
grounded by applying both sides to explicit states, so the smeared
calculus itself is cross-checked against raw operator composition.

Checks are counted in record groups (`_Group`, which alone with
`_verdict` builds records): a group reports a pass over all its checks,
or its first failure.  heis finds a cell's first failure from its
residual (`_heis_failure`) and counts the checks before it without
comparing them; every other check on states goes through
`_Group.columns`, which compares two column sources (an operator, or an
`operators.Bracket`, `derivative` or `Linear` of operators) state by
state.  Each runner declares its grid bounds, with their defaults, as
keyword-only parameters, and the registry (`SUITES`) the window and the
surfaces it reads; `run_suite` refuses any other key or value, and
every part of a runner takes its rings from `_rings`, so a report header
never names a window or a surface the run did not use.  A window too
small to hold a bracket cell (`_sound_pos`), bounds that leave a run
without a record, or a mutated run that no check fails, are refused
rather than passed vacuously.

The W-bracket of Theorem 5.5 is stated once, as (c, smeared list)
pieces (`_w_pieces`).  vir (its p = q = 1 cells), thm55 and thm57 (its
untagged part) measure their cells through one runner, `_w_grid`, and
ground them on states against the series of the same pieces (`_w_op`).
A bracket residual is one `operators.series_bracket` with its pieces,
any other one `operators.combined`, on integer numerators by packed
code (`operators.encode`) over one common denominator, so no term is
divided before a record reads it.  Every series window comes from one
process cache (`_window`).  A diamond window pos + neg <= N of a series
of one total is the box `_diamond(N, total)`.

A measured cell (`_w_cell`, `_lem52_cell`, `_rmk43_cell`, the
derivatives of a_n in `_derived`, cor48's two routes in `_cor48_cell`,
heis's cells in `ring._cache`) is kept for the process as its residual
against the unmutated identity, or as both sides of it, and a mutation
adds its one term in a new list, so a run, plain or mutated and in
either order, reads the stored cell.  thm57 keeps its symbolic record
(`_thm57_symbolic`), which no mutation touches.  rmk56 reads rmk43's
cells, since J^p_n = -p! F(p, n, n^2 - 2).  The euler-shift mutation of thm42
moves the shift of the series it checks (`walgebra.apow_families`); those
of thm46-unique and def51-ids add the unit Euler family (`_euler_families`)
to the plain lists they read from the process caches (`_thm46_cell`,
`_window`).

Every suite carries exactly one documented mutation: a deliberately
wrong coefficient that the suite must detect by failing.  Mutated runs
use reduced grids; the mutation is rejected unless its label matches.
"""

from __future__ import annotations

import json
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
    "p2": ("1", "H", "x"),
    "p1xp1": ("1", "f1", "f2", "x"),
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


def _op_memo(ring):
    """op(build, m, elem): build(ring, m, elem), made once per (build, m,
    class), so that its cached columns serve every check that uses it.
    The memo and its columns live as long as the caller keeps it."""
    return cache(lambda build, m, elem: build(ring, m, elem))


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

    A group reports a pass over all its checks, or its first failure.
    The failure reports its own checks or, with ``total`` set, every
    check counted when the group ends.
    """

    __slots__ = ("params", "checks", "fail", "total", "at")

    def __init__(self, params, total=False):
        self.params = params
        self.checks = 0
        self.fail = None
        self.total = total
        self.at = ()

    def check(self, ok, params, expected, actual, show=_show, n=1):
        """Count n checks that pass or fail together; the first failure
        keeps both sides as show() text."""
        self.checks += n
        if not ok and self.fail is None:
            self.fail = InstanceRecord(params, "fail", n, show(expected),
                                       show(actual))

    def count(self, n):
        """Count n checks that pass without being compared one by one."""
        self.checks += n

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

    Each (m, n) cell is one record over every class pair (a, b) and
    state.  A failing cell reports its first failing pair at its first
    failing state, with the checks of every pair up to it.  Each (m, n,
    w_max) cell of a ring is composed once per process, as one block
    per state (_heis_residual), and kept in ring._cache as its residual
    against the unmutated central term; every run, plain or mutated,
    rebuilds its record from that residual and its own central term
    (_heis_failure).  Composing (m, n), m != n, stores (n, m) too, read
    from the same brackets.  The a_n(b) operators a ring's cells
    compose are built once per run and ring, with their columns.

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
                key, back = ("heis", m, n, wmax), ("heis", n, m, wmax)
                resid = ring._cache.get(key)
                if resid is None:
                    # The cell (n, m), central term -c0, mirrors this one.
                    mirrored = (central(-c0) if m != n
                                and back not in ring._cache else None)
                    resid, mirror = _heis_residual(
                        family(m), family(n), live, plain,
                        mirrored) if live else ({}, {})
                    ring._cache[key] = resid
                    if mirrored is not None:
                        ring._cache[back] = mirror
                c = c0 + 1 if mut and c0 else c0
                fail = _heis_failure(resid, live, plain, central(c))
                t = _Group({"surface": ring.name, "m": m, "n": n}, True)
                if fail is None:
                    t.count(size * size * len(pre))
                else:
                    (i, j), s, lhs, rhs = fail
                    t.count((i * size + j) * len(pre))
                    t.check(False, dict(t.params, a=pairs[i][0],
                                        b=pairs[j][0],
                                        state=render_state(ring.states[s],
                                                           ring)),
                            rhs, lhs, show=lambda v: render_terms(
                                ring.vector(v), ring),
                            n=len(pre))
                yield t.record()


# -- the W-bracket of Theorem 5.5, shared by vir, thm55 and thm57 ----------


@cache
def _window(build, args, pos, neg, shifted=False):
    """The series build(*args) on the box window, times e if shifted: the
    one window cache, kept for the process, of J^p_n (jay_families) and
    J^p_n(e .) for the W-bracket, lem52, lem53 and the mutations, and of
    the field-monomial series of lem53 and lem61.  Every caller reads it
    as it is."""
    if shifted:
        return euler_shifted(_window(build, args, pos, neg))
    return series_to_smeared(build(*args), pos, neg)


def _diamond(N, total):
    """The box (poscap, negcap) of the diamond window pos + neg <= N for
    terms of one total, such as a series and its derivatives: there pos -
    neg = total, so the diamond is pos <= (N + total) // 2 and neg <= (N -
    total) // 2."""
    return (N + total) // 2, (N - total) // 2


def _omega_pieces(p, q, m, n, pos, neg):
    """The structure-polynomial term -(Omega/12) J^{p+q-3}_{m+n}(e .), as
    a list of its one (c, smeared list) piece, empty where it vanishes."""
    om = omega(p, q, m, n)
    if not om or p + q < 3:
        return []
    return [(Q(-om, 12), _window(jay_families, (p + q - 3, m + n), pos, neg,
                                 shifted=True))]


def _w_central(p, q, m, n):
    """The central pieces of [J^p_m(a), J^q_n(b)], the only scalar codes
    of _w_pieces (every J family has parts): the trace term at p = q = 0
    and the low-weight Euler terms."""
    if m != -n or m == 0 or (p, q) not in ((0, 0), (2, 0), (0, 2), (1, 1)):
        return []
    return [(-m, SmearedOp({0: 1}))] if p == q == 0 else [
        (m ** 3 - m, SmearedOp({1: 1}, 12 if p == q else 6))]


def _w_pieces(p, q, m, n, pos, neg):
    """The right side of [J^p_m(a), J^q_n(b)] on the box window, as
    (c, smeared list) pieces summing to it: (qm-pn) J^{p+q-1}_{m+n}(ab)
    and the Omega term where they are nonzero, then the central pieces
    (_w_central)."""
    lin = q * m - p * n
    out = []
    if lin:
        out.append((lin, _window(jay_families, (p + q - 1, m + n), pos,
                                 neg)))
    return out + _omega_pieces(p, q, m, n, pos, neg) + _w_central(p, q, m, n)


def _w_op(ring, cell, ab):
    """The expected bracket of a (p, q, m, n) cell as a series against ab."""
    p, q, m, n = cell
    return smeared_series(
        ring, lambda w: combined(*_w_pieces(p, q, m, n, w, w - m - n)), ab)


def _w_cells(pq_max, m_max):
    """The (p, q, m, n) cells with p + q <= pq_max and |m|, |n| <= m_max."""
    return [(p, q, m, n) for p in range(pq_max + 1)
            for q in range(pq_max + 1 - p)
            for m, n in product(range(-m_max, m_max + 1), repeat=2)]


@cache
def _w_cell(args):
    """One (p, q, m, n) cell on window N, measured: the residual of the
    bracket [J^p_m, J^q_n] against _w_pieces, and the bracket's scalar
    terms (modes ()), which the central checks read without the pieces:
    the residual's plus the central pieces.

    Kept for the process, one entry per distinct cell and window, whose
    residual is empty when the identity holds.  vir, thm55 and thm57 all
    read it, so no caller changes an entry."""
    p, q, m, n, N = args
    pos = _sound_pos(N, m, n)
    resid = series_bracket(jay_families(p, m), jay_families(q, n), pos, N,
                           *[(-c, op) for c, op in _w_pieces(p, q, m, n,
                                                             pos, N)])
    return resid, combined((1, SmearedOp({
        k: c for k, c in resid.terms.items() if k < SCALARS}, resid.den)),
        *_w_central(p, q, m, n))


def _w_grid(spec, cells):
    """(cell, _w_cell's (residual, scalar terms)) for each cell, in
    order, on the run's window."""
    window = _cutoff(spec)
    for cell in cells:
        yield cell, _w_cell(cell + (window,))


def _w_spots(ring, states, cells, pairs):
    """One record: [J^p_m(a), J^q_n(b)] against _w_op on each state, for
    every cell and (a, b) class-name pair."""
    t = _Group({"check": "action", "surface": ring.name})
    for cell, (ca, cb) in product(cells, pairs):
        p, q, m, n = cell
        a, b = ring.basis(ca), ring.basis(cb)
        ja, jb = jay(ring, p, m, a), jay(ring, q, n, b)
        t.columns(ring, states, Bracket(ja, jb), _w_op(ring, cell, a * b),
                  dict(t.params, p=p, q=q, m=m, n=n, a=ca, b=cb))
    return t.record()


# -- vir: Virasoro bracket -------------------------------------------------


def _run_vir(spec, mut, *, m_max=3):
    """[L_m(a), L_n(b)] = (m-n) L_{m+n}(ab)
                          + delta_{m,-n} ((m^3-m)/12) integral(e a b) Id,

    the p = q = 1 cells of the W-bracket.

    Mutation central-shift: the central factor gains an extra 1/12.
    """
    cases = [(r, _pair_cases(r, _probe(r)))
             for r in _rings(spec)]
    if mut:
        m_max = min(m_max, 2)
    cells = [(1, 1, m, n)
             for m, n in product(range(-m_max, m_max + 1), repeat=2)]
    for (_, _, m, n), (delta, scalars) in _w_grid(spec, cells):
        if mut and m == -n and m != 0:
            delta = combined((1, delta), (Q(-1, 12), SmearedOp({1: 1})))
        yield _universal_record(delta, {"check": "universal", "m": m, "n": n})
        for ring, rcases in cases:
            yield _sweep(delta, ring, rcases,
                         {"check": "instantiate", "m": m, "n": n})
        for k3 in _rings(spec, ("k3",) if m == -n and m != 0 else ()):
            val = _scalar_part(scalars, k3, k3.unit)
            expect = Q(24) * Q(m ** 3 - m, 12)
            yield _verdict(val == expect, {"check": "central",
                                           "surface": k3.name, "m": m},
                           1, str(expect), str(val))
    yield from _vir_spots(spec, mut)


# Spot cells (m, n) and the number of named probe classes paired.
_VIR_SPOTS = {"p2": (tuple(product(range(-2, 3), repeat=2)), 3),
              "k3": (((1, -1), (2, -2), (3, -3)), 1)}


def _vir_spots(spec, mut):
    """Apply both sides to explicit states: the quadratic series on the
    left, the W-bracket on the right."""
    for ring in _rings(spec, ("p2",) if mut else ("p2", "k3")):
        grid, width = _VIR_SPOTS[ring.name]
        pairs = _probe(ring)[:width]
        states = _action_states(ring)
        op = _op_memo(ring)
        for m, n in grid:
            params = {"check": "action", "surface": ring.name, "m": m, "n": n}
            t = _Group(params)
            for (na, a), (nb, b) in product(pairs, pairs):
                t.columns(ring, states,
                          Bracket(op(quadratic_sum, m, a),
                                  op(quadratic_sum, n, b)),
                          _w_op(ring, (1, 1, m, n), a * b),
                          dict(params, a=na, b=nb))
            yield t.record()


# -- thm31: mixed brackets and the replacement rule ------------------------


def _run_thm31(spec, mut, *, m_max=3, k_max=3):
    """Three action identities:

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
    for ring in rings:
        pairs = _probe(ring)
        small = pairs[:5] if ring.dim > 8 else pairs
        cases = [(na, a, nb, b, a * b)
                 for (na, a), (nb, b) in product(small, small)]
        states = _action_states(ring)
        # The transfer operators, shared by every part.
        tr = _op_memo(ring)
        for m in range(-m_max, m_max + 1):
            # One memo per m bounds the memory of L_m's cached columns.
            op = _op_memo(ring)
            for n in range(-m_max, m_max + 1):
                params = {"part": "mixed", "surface": ring.name, "m": m,
                          "n": n}
                t = _Group(params)
                for na, a, nb, b, ab in cases:
                    t.columns(ring, states,
                              Bracket(op(quadratic_sum, m, a),
                                      tr(heisenberg, n, b)),
                              Linear((-n, tr(heisenberg, m + n, ab))),
                              dict(params, a=na, b=nb))
                yield t.record()
        for n in range(-m_max, m_max + 1):
            if n == 0:
                continue
            coef = Q(n * (abs(n) - 1), 2) + (1 if mut else 0)
            params = {"part": "replacement", "surface": ring.name, "n": n}
            t = _Group(params)
            for nb, b in pairs:
                t.columns(ring, states, derivative(tr(heisenberg, n, b), 1),
                          Linear((Q(n), quadratic_sum(ring, n, b)),
                                 (-coef, tr(heisenberg, n, ring.K * b))),
                          dict(params, b=nb))
            yield t.record()
        kfree = _ktrivial(ring, pairs)
        for k in range(k_max + 1):
            params = {"part": "character-pin", "surface": ring.name, "k": k}
            t = _Group(params)
            for na, a in kfree:
                gk = chern(ring, k, a)
                for nb, b in small:
                    t.columns(ring, states,
                              Bracket(gk, tr(heisenberg, -1, b)),
                              Linear((Q(1, factorial(k)), derivative(
                                  tr(heisenberg, -1, a * b), k))),
                              dict(params, a=na, b=nb))
            yield t.record()


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
            op = _op_memo(ring)
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
                    br = Bracket(op(monomial, nus[x], cls[k]),
                                 op(monomial, nus[y], cls[l]))
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
                    t.columns(ring, states, derivative(op(monomial, nu, a), 1),
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


# -- thm42: closed iterated derivatives of transfer operators --------------


def _run_thm42(spec, mut, *, k_max=3, n_max=3):
    """The k-th derivative of a_n equals its closed partition expansion
    (modulo K; exercised with full K via the recursive route on states).

    Mutation euler-shift: the closed Euler factor (s-1) becomes (s+1).
    """
    N = _cutoff(spec)
    moved = 2 if mut else 0
    if mut:
        k_max = min(k_max, 2)
    rcases = [(ring, [(na, a, ring.unit)
                      for na, a in _ktrivial(ring, _probe(ring, "all"))])
              for ring in _rings(spec)]
    ns = [v for a in range(1, n_max + 1) for v in (a, -a)]
    for k, n in product(range(k_max + 1), ns):
        box = _diamond(N, n)
        delta = combined((1, _derived(n, k, *box, N)), (-1, series_to_smeared(
            apow_families(n, k, moved), *box)))
        yield _universal_record(delta, {"check": "universal", "k": k, "n": n})
        for ring, cases in rcases:
            yield _sweep(delta, ring, cases,
                         {"check": "classes", "k": k, "n": n})
    yield from _thm42_spots(spec, mut, moved)


@cache
def _derived(n, k, kpos, kneg, N):
    """D^k(a_n) modulo K on the box pos <= kpos, neg <= kneg, by k steps of
    s_derive from the one-term list a_n (empty for n = 0 or off the box),
    splitting within -N..N.  Kept for the process, so each step is taken
    once: thm42's plain run derives, and its mutated run reads."""
    if k:
        return s_derive(_derived(n, k - 1, kpos, kneg, N), kpos, kneg, N, N,
                        include_k=False)
    return SmearedOp({encode((n,)): 1} if 0 < n <= kpos or 0 < -n <= kneg
                     else {})


def _thm42_spots(spec, mut, moved):
    """D^k(a_n) on states against the closed series, grown with the state
    as lem32's derivative part grows its right side."""
    cases = [(ring, na, a) for ring in _rings(spec, ("p2", "k3"))
             for na, a in _ktrivial(ring, [(c, ring.basis(c))
                                           for c in ("1", "x")])]
    if mut:
        # the first class the mutation's Euler term e*a can move
        cases = [c for c in cases if not (c[0].e * c[2]).is_zero()][:1]
    for ring, cname, a in cases:
        states = _action_states(ring)
        t = _Group({"check": "action", "surface": ring.name, "class": cname})
        for k, n in product(range(3), (1, -1, -2)):
            t.columns(ring, states, derivative(heisenberg(ring, n, a), k),
                      family_series(ring, apow_families(n, k, moved), a),
                      {"check": "action", "surface": ring.name, "k": k,
                       "n": n, "a": cname})
        yield t.record()


# -- rmk43: derivative closure of shifted families -------------------------


@cache
def _rmk43_cell(k, n, d, N):
    """The derivative of F(k,n,d) less its main right side
    -n(k+1) F(k+1,n,d), and the unit Euler term (1/(24 lam^!))
    a_lam(tau(e c)) over l = k, on the diamond window N (every term has
    total n).  Kept for the process, so no run derives a family twice."""
    box = _diamond(N, n)
    A = series_to_smeared(shift_families(k, n, d), *box)
    rhs = series_to_smeared(shift_families(k + 1, n, d), *box)
    return (combined((1, s_derive(A, *box, N, N, include_k=False)),
                     (n * (k + 1), rhs)),
            series_to_smeared(_euler_families(k, n), *box))


def _run_rmk43(spec, mut, *, k_max=3, n_max=3):
    """Derivative of the d-shifted family, for d = -1 and d = n^2 - 2:

        F(k,n,d)' = -n(k+1) F(k+1,n,d)
                    - (n(d+1)/12) sum_{l=k} (1/lam^!) a_lam(tau(e c))

    including n = 0, where the derivative must vanish.

    Mutation shift-term: the factor (d+1) becomes (d+2).
    """
    N = _cutoff(spec)
    for k, n in product(range(k_max + 1), range(-n_max, n_max + 1)):
        dvals = [-1]
        if n * n - 2 != -1:
            dvals.append(n * n - 2)
        for d in dvals:
            resid, euler = _rmk43_cell(k, n, d, N)
            c2 = -2 * n * (d + (2 if mut else 1))
            yield _universal_record(combined((1, resid), (-c2, euler)),
                                    {"k": k, "n": n, "d": d})


# -- thm46-unique: characterization of the character series ----------------


def _run_thm46(spec, mut, *, k_max=3):
    """G_k is pinned by three properties: every term annihilates the
    vacuum, the series commutes with the derivation (modulo K), and its
    bracket with a_{-1} reproduces the k-th derivative of a_{-1}.

    Mutation euler-shift: the Euler factor (s-2) becomes (s-1).
    """
    N = _cutoff(spec)
    for k in range(k_max + 1):
        cell = _thm46_cell(k, N)
        if mut and k:
            # the mutated G_k: the unit Euler family over l = k added
            cell = [combined((1, x), (1, y))
                    for x, y in zip(cell, _thm46_cell(k, N, True))]
        A, bad, dA, pin = cell
        yield _verdict(bad.is_zero(), {"check": "vacuum", "k": k},
                       max(len(A.terms), 1),
                       "every term has an annihilation mode",
                       "" if bad.is_zero() else bad.render())
        yield _universal_record(dA, {"check": "derivation", "k": k})
        yield _universal_record(pin, {"check": "transfer-pin", "k": k})
    if not mut:
        yield from _thm46_spots(spec)


@cache
def _thm46_cell(k, N, euler=False):
    """G_k's list A on the diamond window N, A's terms with no
    annihilation mode, A's derivative modulo K, and A's bracket with a_{-1}
    less (1/k!) D^k(a_{-1}); with euler, the same parts of the mutation's
    term, the unit Euler family over l = k, and its bare bracket.  Each
    part is linear in the series; kept for the process."""
    fams = _euler_families(k, 0) if euler else chern_families(k)
    box, pos = _diamond(N, 0), _sound_pos(N, 0, -1)
    A = series_to_smeared(fams, *box)
    pin = [] if euler else [(Q(-1, factorial(k)), series_to_smeared(
        apow_families(-1, k), pos, N))]
    return (A, series_to_smeared(fams, 0, N),
            s_derive(A, *box, N, N, include_k=False),
            series_bracket(fams, heis_families(-1), pos, N, *pin))


def _thm46_spots(spec):
    for ring in _rings(spec):
        states = _action_states(ring, 3)
        t = _Group({"check": "action", "surface": ring.name})
        for k in (2, 3):
            gk = chern(ring, k, ring.unit)
            for nb, b in _probe(ring)[:3]:
                am = heisenberg(ring, -1, b)
                t.columns(ring, states, Bracket(gk, am),
                          Linear((Q(1, factorial(k)), derivative(am, k))),
                          dict(t.params, k=k, b=nb))
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


@cache
def _cor48_cell(surface, k, name, n):
    """G_k(c, n) of the basis class c called name on the built-in
    surface, by operator action and by the closed expansion, kept for the
    process: the mutation only adds a term to the closed side."""
    ring = builtin_ring(surface)
    c = ring.basis(name)
    return chern_class(ring, k, c, n), chern_class_closed(ring, k, c, n)


def _cor48_records(rings, mut, n_max):
    for ring in rings:
        for n in range(n_max + 1):
            for k in range(n):
                t = _Group({"surface": ring.name, "n": n, "k": k}, True)
                for na, a in _probe(ring, "all"):
                    via_op, via_closed = _cor48_cell(ring.name, k, na, n)
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


def _run_def51(spec, mut, *, p_max=4, n_max=3):
    """Identifications of the W-generators:

    (a) J^0_n = -a_n            (b) J^1_n = L_n (independent expansion)
    (c) J^p_0 = p! G_{p-1}      (d) J^p_{-1} = -(p-th derivative of a_{-1})

    Parts a and d compare J with lists built apart from the series
    template, a_n and p steps of s_derive from a_{-1} (_derived); part c
    is how the paper relates J and G, which thm46 and lem52 check.

    Mutation euler-shift: the J Euler weight (s+n^2-2) loses 1.
    """
    N = _cutoff(spec)

    def jay_plus(p, n, *pieces, box=(N, N)):
        """J^p_n on box plus pieces; the mutation's J^p_n has -p! more of
        the unit Euler family over l = p - 1 (none for p < 2)."""
        if mut and p > 1:
            pieces += ((-factorial(p), series_to_smeared(
                _euler_families(p - 1, n), *box)),)
        return combined((1, _window(jay_families, (p, n), *box)), *pieces)

    for n in range(-n_max, n_max + 1):
        yield _universal_record(jay_plus(0, n, (1, _derived(n, 0, N, N, N))),
                                {"part": "a", "n": n})
    for ring in _rings(spec):
        t = _Group({"part": "b", "surface": ring.name}, True)
        for n, (na, a) in product(range(-2, 3), _probe(ring)[:4]):
            ja = instantiate(jay_plus(1, n, box=(4, 4)), ring, a)
            ln = quadratic_sum(ring, n, a).terms_within(4)
            t.check(ja.equal_terms(ln),
                    dict(t.params, n=n, a=na), ln, ja)
        yield t.record()
    for p in range(1, p_max + 1):
        yield _universal_record(
            jay_plus(p, 0, (-factorial(p),
                            _window(chern_families, (p - 1,), N, N))),
            {"part": "c", "p": p})
        yield _universal_record(
            jay_plus(p, -1, (1, _derived(-1, p, N, N, N))),
            {"part": "d", "p": p})
    for ring in _rings(spec, () if mut else ("k3",)):
        states = _action_states(ring)
        t = _Group({"part": "d-action", "surface": ring.name})
        for p, (na, a) in product(range(4), _probe(ring)[:3]):
            t.columns(ring, states, jay(ring, p, -1, a),
                      Linear((-1, derivative(heisenberg(ring, -1, a), p))),
                      dict(t.params, p=p, a=na))
        yield t.record()


# -- lem52: character-transfer bracket gives W-generators ------------------


def _run_lem52(spec, mut, *, p_max=4, n_max=3):
    """[G_p(a), a_n(b)] = (n/p!) J^p_n(ab).

    Mutation rhs-scale: the factor n/p! becomes (n+1)/p!.
    """
    N = _cutoff(spec)
    for p, n in product(range(p_max + 1), range(-n_max, n_max + 1)):
        delta = _lem52_cell(p, n, N)
        if mut:
            delta = combined((1, delta), (Q(-1, factorial(p)), _window(
                jay_families, (p, n), _sound_pos(N, 0, n), N)))
        yield _universal_record(delta, {"check": "universal", "p": p, "n": n})
    if not mut:
        yield from _lem52_spots(spec)


@cache
def _lem52_cell(p, n, N):
    """The residual of [G_p, a_n] against (n/p!) J^p_n on window N, empty
    when the identity holds.  Kept for the process like _w_cell, so a
    mutated run after the plain one brackets nothing."""
    pos = _sound_pos(N, 0, n)
    return series_bracket(chern_families(p), heis_families(n), pos, N,
                          (Q(-n, factorial(p)),
                           _window(jay_families, (p, n), pos, N)))


def _lem52_spots(spec):
    for ring in _rings(spec):
        kfree = _ktrivial(ring, _probe(ring))
        others = _probe(ring)[:3]
        states = _action_states(ring)
        t = _Group({"check": "action", "surface": ring.name})
        for p, n in product(range(3), (-2, -1, 1, 2)):
            for na, a in kfree[:3]:
                gp = chern(ring, p, a)
                for nb, b in others:
                    t.columns(ring, states,
                              Bracket(gp, heisenberg(ring, n, b)),
                              Linear((Q(n, factorial(p)),
                                      jay(ring, p, n, a * b))),
                              dict(t.params, p=p, n=n, a=na, b=nb))
        yield t.record()


# -- lem53: W-generators as field monomial components ----------------------


def _run_lem53(spec, mut, *, p_max=4, m_max=3):
    """J^p_m equals its normally ordered field expression term by term:

        -1/(p+1) :a^{p+1}:_m + p(m^2-3m-2p)/24 :a^{p-1}:_m (Euler)
        + p(p-1)/24 :(d^2 a) a^{p-2}:_m (Euler).

    Mutation field-coeff-shift: the middle coefficient gains p/24.
    """
    N = _cutoff(spec)
    for p, m in product(range(p_max + 1), range(-m_max, m_max + 1)):
        pieces = [(1, _window(jay_families, (p, m), N, N)),
                  (-1, _window(jay_field_families, (p, m), N, N))]
        if mut and p >= 1:
            pieces.append((Q(-p, 24), euler_shifted(_window(
                fourier_families, ((0,) * (p - 1), m), N, N))))
        yield _universal_record(combined(*pieces), {"p": p, "m": m})
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

    plus the low-weight exceptional central terms.  Universal residuals
    per cell, instantiation sweeps per surface, explicit central values,
    and action spot checks on states.

    Mutation omega-negated: the structure polynomial flips sign.
    """
    N = _cutoff(spec)
    rings = _rings(spec)
    if mut:
        pq_max = min(pq_max, 3)
        m_max = min(m_max, 1)
        rings = rings[:1]
    cases = [(r, _pair_cases(r, _probe(r))) for r in rings]
    for (p, q, m, n), (delta, _) in _w_grid(spec, _w_cells(pq_max, m_max)):
        if mut:
            delta = combined((1, delta), *[(2 * c, op) for c, op in (
                _omega_pieces(p, q, m, n, _sound_pos(N, m, n), N))])
        params = {"p": p, "q": q, "m": m, "n": n}
        yield _universal_record(delta, dict(params, check="universal"))
        for ring, rcases in cases:
            yield _sweep(delta, ring, rcases,
                         dict(params, check="instantiate"))
    yield from _thm55_centrals(spec, m_max)
    if not mut:
        for ring in _rings(spec, ("k3", "abelian", "p2")):
            w = {s: weight(ring.states[s]) for s in _action_states(ring)}
            states = ([s for s in w if not w[s]]
                      + [s for s in w if w[s] == 1][:2]
                      + [s for s in w if w[s] == 2][:4])
            yield _w_spots(ring, states, _THM55_SPOT_CELLS,
                           _THM55_SPOT_PAIRS[ring.name])


def _thm55_centrals(spec, m_max):
    """Explicit central values on the K3 model."""
    for ring in _rings(spec, ("k3",)):
        u1u2 = ring.basis("u1") * ring.basis("u2")
        cells = [(p, q, m, -m) for p, q in ((0, 0), (1, 1), (2, 0), (0, 2))
                 for m in range(1, m_max + 1)]
        for (p, q, m, _), (_, scalars) in _w_grid(spec, cells):
            if (p, q) == (0, 0):
                got = _scalar_part(scalars, ring, u1u2)
                want = Q(-m)
                label = "-m * integral(ab)"
            else:
                den = 12 if (p, q) == (1, 1) else 6
                got = _scalar_part(scalars, ring, ring.unit)
                want = Q(m ** 3 - m, den) * 24
                label = "(m^3-m)/%d * integral(e)" % den
            yield _verdict(got == want, {"check": "central", "p": p,
                                         "q": q, "m": m, "label": label},
                           1, str(want), str(got))


_THM55_SPOT_CELLS = ((1, 1, 1, -1), (2, 1, 1, -1), (2, 1, 2, -1),
                     (0, 3, 1, 1), (2, 2, 1, -1), (3, 0, 1, -1))

_THM55_SPOT_PAIRS = {
    "k3": (("1", "1"), ("u1", "u2"), ("1", "x")),
    "abelian": (("1", "1"), ("t1", "t2"), ("t1", "t234"), ("t12", "t34")),
    "p2": (("1", "1"), ("H", "H"), ("1", "x")),
}


# -- rmk56: derivative of W-generators -------------------------------------


def _run_rmk56(spec, mut, *, p_max=3, n_max=2):
    """(J^p_n)' = -n J^{p+1}_n - ((n^3-n) p / 12) J^{p-1}_n(e c), p >= 1,
    modulo K (grounded with full K on explicit states).

    Mutation central-scale: the factor 1/12 becomes 1/6.
    """
    N = _cutoff(spec)
    for p, n in product(range(1, p_max + 1), range(-n_max, n_max + 1)):
        # J^p_n = -p! F(p, n, n^2 - 2); J^{p-1}_n(e c) is -24 (p-1)! Euler
        resid, euler = _rmk43_cell(p, n, n * n - 2, N)
        cc = Q(-(n ** 3 - n) * p, 6 if mut else 12)
        yield _universal_record(
            combined((-factorial(p), resid),
                     (24 * factorial(p - 1) * cc, euler)),
            {"check": "universal", "p": p, "n": n})
    if not mut:
        yield from _rmk56_spots(spec)


def _rmk56_spots(spec):
    for ring in _rings(spec):
        states = _action_states(ring)[:6]
        t = _Group({"check": "action", "surface": ring.name})
        for p, n in product(range(1, 4), (-2, -1, 1, 2)):
            for na, a in _probe(ring)[:3]:
                t.columns(ring, states, derivative(jay(ring, p, n, a), 1),
                          Linear((Q(-n), jay(ring, p + 1, n, a)),
                                 (Q(-(n ** 3 - n) * p, 12),
                                  jay(ring, p - 1, n, ring.e * a))),
                          dict(t.params, p=p, n=n, a=na))
        yield t.record()


# -- thm57: isomorphism with the abstract W-algebra ------------------------


def _run_thm57(spec, mut, *, pq_max=5, m_max=3):
    """On a surface with K = e = 0 the generators realize the abstract
    W-algebra: restricted to untagged terms,

        [J^p_m(a), J^q_n(b)] = (qm-pn) J^{p+q-1}_{m+n}(ab)

    with the trace central term m delta_{m,-n} (-integral(ab)) at
    p = q = 0; cross-checked against the symbolic bracket and grounded on
    odd classes of the abelian model.

    Mutation linear-shift: the factor (qm-pn) gains +1.
    """
    N = _cutoff(spec)
    if mut:
        pq_max = min(pq_max, 2)
        m_max = min(m_max, 1)
    for (p, q, m, n), (delta, _) in _w_grid(spec, _w_cells(pq_max, m_max)):
        if mut and (p, q) != (0, 0):
            delta = combined((1, delta), (-1, _window(
                jay_families, (p + q - 1, m + n), _sound_pos(N, m, n), N)))
        # Untagged codes come only from the untagged families' plain
        # events; their powers byte is 0.
        delta = SmearedOp({k: c for k, c in delta.terms.items()
                           if not k % SCALARS}, delta.den)
        yield _universal_record(delta, {"check": "universal", "p": p,
                                        "q": q, "m": m, "n": n})
    for ring in _rings(spec):
        yield _thm57_symbolic(ring.name)
        if not mut:
            yield _w_spots(ring, _action_states(ring), _THM57_SPOT_CELLS,
                           _THM57_SPOT_PAIRS)


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


@cache
def _thm57_symbolic(name):
    """The record of the symbolic W-algebra bracket against the measured
    constants on the built-in ring name, kept for the process: no thm57
    mutation touches it, so a mutated run brackets nothing anew."""
    ring = builtin_ring(name)
    gram = ring.pairing_matrix()
    cls = {c: ring.basis(c) for c in _W_CLASSES[name]}
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
                          "series: vacuum, derivation invariance, "
                          "transfer pin", "euler-shift", 8,
                          ("k3", "abelian")),
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
