"""Verification suites for the operator calculus.

Each suite checks one identity family by exact computation, instance by
instance, and returns a report of pass/fail records.  Universal checks
compare smeared term lists (valid over every surface at once); these are
then instantiated on concrete surfaces, and a sample of instances is
grounded by applying both sides to explicit states, so the smeared
calculus itself is cross-checked against raw operator composition.

Checks are counted in record groups by one tally (`_Tally`): a group
reports a pass over all its checks, or its first failure.  Each runner
declares its grid bounds, with their defaults, as keyword-only
parameters; `run_suite` rejects any other --bound key.  The registry
(`SUITES`) declares the rest a suite reads (its window, its surfaces,
whether --classes applies) and `run_suite` refuses any other value; every
part of a runner takes its rings from `_rings`, so a report header never
names a window, a class list or a surface the run did not use.  A window
too small to hold a bracket cell (`_sound_pos`), bounds that leave a
run without a record, or a mutated run that no check fails, are refused
rather than passed vacuously.

The W-bracket of Theorem 5.5 is stated once (`_w_expected`).  vir (its
p = q = 1 cells), thm55 and thm57 (its untagged part) measure their
cells through one runner, `_w_grid`, in order and in this process, and
ground them on states against its series (`_w_op`).  Each cell is
measured once per process and kept only as its residual against
`_w_expected` (empty when the identity holds) and its scalar terms,
which the central checks read; each mutation adds its one term to a
copy of the residual.

Every suite carries exactly one documented mutation: a deliberately
wrong coefficient that the suite must detect by failing.  Mutated runs
use reduced grids; the mutation is rejected unless its label matches.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import comb, factorial
from typing import NamedTuple

from .fock import basis_states, render_state, render_terms, weight
from .operators import (SmearedOp, act_arrangement, box_keep,
                        commutator_column, derive, diamond_keep, heisenberg,
                        instantiate, monomial, quadratic_sum, s_bracket,
                        s_derive, series_bracket, series_to_smeared,
                        smeared_series)
from .partitions import GenPartition
from .ring import SURFACE_NAMES, builtin_ring
from .walgebra import (CENTRAL, FourierSpec, apow_families, chern,
                       chern_families, fourier, fourier_families,
                       heis_families, jay, jay_families, jay_field_families,
                       mult_family, omega, scaled_families, shift_families,
                       wbracket, wparity, wterm)
from .hilbert import (chern_class, chern_class_closed, intersection_number,
                      intersection_number_closed, k_multisets)

Q = Fraction


# -- specs and records -----------------------------------------------------


@dataclass
class SuiteSpec:
    """Parameters of one verification run."""

    suite: str
    surface: str = ""
    cutoff: int = 0
    bounds: dict = field(default_factory=dict)
    classes: str = ""
    mutation: str = ""
    # Read by nothing: every suite runs in this process.  Kept because
    # the benchmark worker (perfbench/worker.py) builds SuiteSpec(...,
    # jobs=1).
    jobs: int = 1


@dataclass
class InstanceRecord:
    params: dict
    status: str
    checks: int = 1
    expected: str = ""
    actual: str = ""


@dataclass
class VerificationReport:
    suite: str
    spec: SuiteSpec
    records: list
    wall_ms: float = 0.0

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


def _rings(spec, names):
    """The built-in rings among names that --surface allows, in order."""
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
    """Vacuum, all weight-1 states and heavier ones, by nondecreasing
    weight: all states of weight at most wmax on rings of dimension at
    most 4, else a hand list that reaches weight 2 (3 for wmax >= 3)."""
    out = [()]
    out.extend(basis_states(ring, 1))
    if ring.dim <= 4:
        for w in range(2, wmax + 1):
            out.extend(basis_states(ring, w))
        return out
    if ring.name == "k3":
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
    return out


def _op_memo(ring):
    """op(build, m, elem): build(ring, m, elem), made once per (build, m,
    class), so that its cached columns serve every check that uses it.
    The memo and its columns live as long as the caller keeps it."""
    ops = {}

    def op(build, m, elem):
        key = (build, m, elem.coeffs)
        if key not in ops:
            ops[key] = build(ring, m, elem)
        return ops[key]

    return op


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


class _Tally:
    """Check count and first failure of one record group.

    A group reports a pass over all its checks, or its first failure.
    The failure reports one check or, with ``total`` set, every check
    counted when the group ends; heis ends a group at its first failure.
    """

    __slots__ = ("checks", "fail", "total")

    def __init__(self, total=False):
        self.checks = 0
        self.fail = None
        self.total = total

    def check(self, ok, params, expected, actual):
        """Count one check; the first failure keeps both sides' text."""
        self.checks += 1
        if not ok and self.fail is None:
            self.fail = InstanceRecord(params, "fail", 1, _show(expected),
                                       _show(actual))

    def states(self, ring, states, sides, params):
        """Compare both sides on each basis state.

        ``sides(s)`` returns (lhs, rhs), the exact images of the basis
        state s as {state: coeff} dicts; the first failure adds the state
        to params and shows rhs as expected.
        """
        for s in states:
            lhs, rhs = sides(s)
            self.checks += 1
            if lhs != rhs and self.fail is None:
                self.fail = InstanceRecord(
                    dict(params, state=render_state(s, ring)), "fail", 1,
                    render_terms(rhs, ring), render_terms(lhs, ring))

    def skip(self, count):
        """Count checks that hold without computing them."""
        self.checks += count

    def record(self, params):
        """The group's record; params name the group when it passes."""
        if self.fail is None:
            return InstanceRecord(params, "pass", self.checks)
        if self.total:
            self.fail.checks = self.checks
        return self.fail


def _inst_fail(delta, ring, a, b):
    """First residual term that survives instantiation at a*b, or None."""
    if delta.is_zero():
        return None
    ab = a * b
    for (modes, ep, kp), c in delta.sorted_items():
        cls = ab
        if ep:
            cls = ring.e * cls
        for _ in range(kp):
            cls = cls * ring.K
        if cls.is_zero():
            continue
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


def _scalar_part(meas, ring):
    """Integral of the K-free scalar terms of a smeared list at gamma = 1."""
    return sum((c * ring.integrate(ring.e if ep else ring.unit)
                for (modes, ep, kp), c in meas.terms.items()
                if not modes and not kp), Q(0))


def _lin(*pieces):
    """The combination of (scalar, {state: coeff}) pieces, as a dict."""
    out = {}
    for c, terms in pieces:
        if not c:
            continue
        for s, v in terms.items():
            v = out.get(s, 0) + c * v
            if v:
                out[s] = v
            else:
                out.pop(s, None)
    return out


def _iter_deriv(op, k, terms):
    """k-fold derivative of an operator applied to a {state: coeff} dict,
    recursively: D^k(op) t = d(D^{k-1}(op) t) - D^{k-1}(op)(d t)."""
    if k == 0:
        return op.act(terms)
    ring = op.ring
    return _lin((1, derive(ring, _iter_deriv(op, k - 1, terms))),
                (-1, _iter_deriv(op, k - 1, derive(ring, terms))))


def _euler_families(ell, total, c):
    """The family c/(24 lam^!) a_lam(tau(e g)) over partitions of length
    ell and size total, as a family list; empty for ell < 1, where the
    series it shifts has no Euler family.  Each euler-shift mutation is
    the checked series plus this one family."""
    if ell < 1:
        return []
    return [mult_family(ell, total, lambda ws: c, 24, epow=1)]


# -- heis: transfer operator commutators ----------------------------------


def _run_heis(spec, mut, *, m_max=4, w_max=None):
    """[a_m(a), a_n(b)] = -m delta_{m,-n} integral(ab) Id on basis states
    of weight at most w_max (default 2 on rings of dimension at most 4,
    else 1).

    Mutation central-shift: the central coefficient -m becomes -m + 1.
    """
    rings = _rings(spec, SURFACE_NAMES)
    if mut:
        m_max = min(m_max, 2)
        rings = rings[:1]
    for ring in rings:
        pairs = _probe(ring, spec.classes or "all")
        wmax = w_max if w_max is not None else (2 if ring.dim <= 4 else 1)
        pre = [(s, {m for m, _ in s})
               for w in range(wmax + 1) for s in basis_states(ring, w)]
        for m in range(-m_max, m_max + 1):
            # One memo per m bounds the memory of cached columns.
            op = _op_memo(ring)
            for n in range(-m_max, m_max + 1):
                # Off the diagonal a check holds trivially on a state
                # unless an annihilator meets one of its modes.
                live = [s for s, modes in pre
                        if m == -n or (m > 0 and -m in modes)
                        or (n > 0 and -n in modes)]
                params = {"surface": ring.name, "m": m, "n": n}
                t = _Tally(total=True)
                for (na, a), (nb, b) in product(pairs, pairs):
                    t.skip(len(pre) - len(live))
                    if live:
                        f = op(heisenberg, m, a)
                        g = op(heisenberg, n, b)
                        cc = Q(0)
                        if m == -n and m != 0:
                            cc = (Q(-m + (1 if mut else 0))
                                  * ring.integrate(a * b))
                        t.states(ring, live,
                                 lambda s: (commutator_column(f, g, s),
                                            {s: cc} if cc else {}),
                                 dict(params, a=na, b=nb))
                    if t.fail:
                        break
                yield t.record(params)


# -- the W-bracket of Theorem 5.5, shared by vir, thm55 and thm57 ----------


def _omega_part(p, q, m, n, pos, neg):
    """The structure-polynomial term -(Omega/12) J^{p+q-3}_{m+n}(e .)."""
    om = omega(p, q, m, n)
    if not om or p + q < 3:
        return SmearedOp()
    return series_to_smeared(
        scaled_families(jay_families(p + q - 3, m + n), -om, 12),
        pos, neg).shift_euler()


def _w_expected(p, q, m, n, pos, neg):
    """The right side of [J^p_m(a), J^q_n(b)] on the box window: the trace
    central term at p = q = 0, else (qm-pn) J^{p+q-1}_{m+n}(ab), the
    Omega term and the low-weight Euler central terms."""
    exp = SmearedOp()
    if (p, q) == (0, 0):
        if m == -n and m != 0:
            exp.add(((), 0, 0), Q(-m))
        return exp
    lin = q * m - p * n
    if lin:
        exp.merge(series_to_smeared(
            scaled_families(jay_families(p + q - 1, m + n), lin), pos, neg))
    exp.merge(_omega_part(p, q, m, n, pos, neg))
    if m == -n and m != 0 and (p, q) in ((2, 0), (0, 2), (1, 1)):
        exp.add(((), 1, 0), Q(m ** 3 - m, 12 if p == q else 6))
    return exp


def _w_op(ring, cell, ab):
    """The expected bracket of a (p, q, m, n) cell as a series against ab."""
    p, q, m, n = cell
    return smeared_series(
        ring, lambda w: _w_expected(p, q, m, n, w, w - m - n), ab)


def _w_cells(pq_max, m_max):
    """The (p, q, m, n) cells with p + q <= pq_max and |m|, |n| <= m_max."""
    return [(p, q, m, n) for p in range(pq_max + 1)
            for q in range(pq_max + 1 - p)
            for m, n in product(range(-m_max, m_max + 1), repeat=2)]


def _w_cell(args):
    """One (p, q, m, n) cell on window N, measured: the residual of the
    bracket [J^p_m, J^q_n] against _w_expected, and the bracket's scalar
    terms (modes ()), which the central checks read without _w_expected."""
    p, q, m, n, N = args
    pos = _sound_pos(N, m, n)
    meas = series_bracket(jay_families(p, m), jay_families(q, n), pos, N)
    scalars = SmearedOp({k: c for k, c in meas.terms.items() if not k[0]})
    return meas - _w_expected(p, q, m, n, pos, N), scalars


# The measured W-bracket cells of this process, (p, q, m, n, N) ->
# _w_cell's (residual, scalar terms): one entry per distinct cell and
# window, whose residual is empty when the identity holds.  vir, thm55
# and thm57 all read it, so no caller changes an entry.
_W_MEMO = {}


def _w_grid(spec, cells):
    """(cell, (residual, scalar terms)) for each cell, in order; a cell
    this process has not measured yet is measured and stored in
    _W_MEMO."""
    window = _cutoff(spec)
    for cell in cells:
        key = cell + (window,)
        if key not in _W_MEMO:
            _W_MEMO[key] = _w_cell(key)
        yield cell, _W_MEMO[key]


def _w_spots(ring, states, cells, pairs):
    """One record: [J^p_m(a), J^q_n(b)] against _w_op on each state, for
    every cell and (a, b) class-name pair."""
    t = _Tally()
    for cell, (ca, cb) in product(cells, pairs):
        p, q, m, n = cell
        a, b = ring.basis(ca), ring.basis(cb)
        ja, jb = jay(ring, p, m, a), jay(ring, q, n, b)
        rhs_op = _w_op(ring, cell, a * b)
        t.states(ring, states,
                 lambda s: (commutator_column(ja, jb, s), rhs_op.column(s)),
                 {"check": "action", "surface": ring.name, "p": p, "q": q,
                  "m": m, "n": n, "a": ca, "b": cb})
    return t.record({"check": "action", "surface": ring.name})


# -- vir: Virasoro bracket -------------------------------------------------


def _run_vir(spec, mut, *, m_max=3):
    """[L_m(a), L_n(b)] = (m-n) L_{m+n}(ab)
                          + delta_{m,-n} ((m^3-m)/12) integral(e a b) Id,

    the p = q = 1 cells of the W-bracket.

    Mutation central-shift: the central factor gains an extra 1/12.
    """
    cases = [(r, _pair_cases(r, _probe(r, spec.classes or "named")))
             for r in _rings(spec, SURFACE_NAMES)]
    if mut:
        m_max = min(m_max, 2)
    cells = [(1, 1, m, n)
             for m, n in product(range(-m_max, m_max + 1), repeat=2)]
    for (_, _, m, n), (delta, scalars) in _w_grid(spec, cells):
        if mut and m == -n and m != 0:
            delta = SmearedOp(delta.terms)
            delta.add(((), 1, 0), Q(-1, 12))
        yield _universal_record(delta, {"check": "universal", "m": m, "n": n})
        for ring, rcases in cases:
            yield _sweep(delta, ring, rcases,
                         {"check": "instantiate", "m": m, "n": n})
        for k3 in _rings(spec, ("k3",) if m == -n and m != 0 else ()):
            val = _scalar_part(scalars, k3)
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
            t = _Tally()
            for (na, a), (nb, b) in product(pairs, pairs):
                f = op(quadratic_sum, m, a)
                g = op(quadratic_sum, n, b)
                rhs_op = _w_op(ring, (1, 1, m, n), a * b)
                t.states(ring, states,
                         lambda s: (commutator_column(f, g, s),
                                    rhs_op.column(s)),
                         dict(params, a=na, b=nb))
            yield t.record(params)


# -- thm31: mixed brackets and the replacement rule ------------------------


def _run_thm31(spec, mut, *, m_max=3, k_max=3):
    """Three action identities:

    (ii)  [L_m(a), a_n(b)] = -n a_{m+n}(ab)
    (iii) derivative of a_n(b) = n L_n(b) - (n(|n|-1)/2) a_n(K b)
    (v)   [G_k(a), a_{-1}(b)] = (1/k!) (k-th derivative of a_{-1}(ab))

    Mutation canonical-shift: the K-term coefficient in (iii) gains +1.
    """
    rings = _rings(spec, SURFACE_NAMES)
    if mut:
        m_max = min(m_max, 2)
        k_max = 0
        # Frozen in perfbench/refs.json: on p2 whatever --surface says.
        rings = [builtin_ring("p2")]
    for ring in rings:
        pairs = _probe(ring)
        small = pairs[:5] if ring.dim > 8 else pairs
        states = _action_states(ring)
        for m in range(-m_max, m_max + 1):
            # One memo per m bounds the memory of cached columns.
            op = _op_memo(ring)
            for n in range(-m_max, m_max + 1):
                params = {"part": "mixed", "surface": ring.name, "m": m,
                          "n": n}
                t = _Tally()
                for na, a in small:
                    lm = op(quadratic_sum, m, a)
                    for nb, b in small:
                        an = op(heisenberg, n, b)
                        rhs_op = op(heisenberg, m + n, a * b)
                        t.states(ring, states,
                                 lambda s: (commutator_column(lm, an, s),
                                            _lin((Q(-n), rhs_op.column(s)))),
                                 dict(params, a=na, b=nb))
                yield t.record(params)
        for n in range(-m_max, m_max + 1):
            if n == 0:
                continue
            coef = Q(n * (abs(n) - 1), 2) + (1 if mut else 0)
            params = {"part": "replacement", "surface": ring.name, "n": n}
            t = _Tally()
            for nb, b in pairs:
                an = heisenberg(ring, n, b)
                ln = quadratic_sum(ring, n, b)
                kn = heisenberg(ring, n, ring.K * b)
                t.states(ring, states,
                         lambda s: (_iter_deriv(an, 1, {s: 1}),
                                    _lin((Q(n), ln.column(s)),
                                         (-coef, kn.column(s)))),
                         dict(params, b=nb))
            yield t.record(params)
        kfree = _ktrivial(ring, pairs)
        op = _op_memo(ring)
        for k in range(k_max + 1):
            params = {"part": "character-pin", "surface": ring.name, "k": k}
            t = _Tally()
            for na, a in kfree:
                gk = chern(ring, k, a)
                for nb, b in small:
                    am = op(heisenberg, -1, b)
                    inner = op(heisenberg, -1, a * b)
                    t.states(ring, states,
                             lambda s: (commutator_column(gk, am, s),
                                        _lin((Q(1, factorial(k)),
                                              _iter_deriv(inner, k,
                                                          {s: 1})))),
                             dict(params, a=na, b=nb))
            yield t.record(params)


# -- lem32: smeared calculus against raw composition -----------------------


_NUS_FULL = ((-1,), (1,), (-2,), (2,), (1, 1), (-2, 1), (-1, -1),
             (-3, 1), (-1, 2), (1, 2), (-2, -1), (-1, 1, 1))
_NUS_SMALL = ((-1,), (2,), (1, 1), (-2, 1), (-1, -1), (-3, 1))
_SWAPS = (((1, -1), 0), ((-1, 1), 0), ((2, -2), 0), ((-2, 2), 0),
          ((1, 2), 0), ((-1, -2), 0), ((2, 1, -1), 1), ((1, -1, -2), 0),
          ((-1, 2, -2), 1))


def _derivative_at(gp):
    """w -> the smeared derivative of a_gp, cut to its terms that
    annihilate at most w points.  d keeps the size t, and an Euler
    correction sheds a pair (u, -u) with |u| at most the largest part h,
    so the splittings run h past the kept box."""
    one = SmearedOp({(gp.parts, 0, 0): 1})
    h, t = max(map(abs, gp.parts)), gp.size
    return lambda w: s_derive(one, box_keep(w, w - t), w + h, w + h - t)


def _run_lem32(spec, mut):
    """The smeared calculus against ground-truth operator composition:

    bracket:    [a_nu(tau a), a_mu(tau b)] from single contractions
    derivative: the splitting and K rules for the derivation
    reorder:    adjacent swap with one Euler correction per (v,-v) pair

    Mutation euler-sign: the reorder correction -v becomes +v.
    """
    rings = _rings(spec, SURFACE_NAMES)
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
            t = _Tally()
            # One operator per (partition, class) for this ring's
            # bracket part; its columns serve every cell.
            op = _op_memo(ring)
            for nu in nus:
                gnu = GenPartition(nu)
                for mu in nus:
                    gmu = GenPartition(mu)
                    sm = s_bracket(
                        SmearedOp({(gnu.parts, 0, 0): Q(1)}),
                        SmearedOp({(gmu.parts, 0, 0): Q(1)}))
                    rhs = {}
                    for na, a in cpairs:
                        av = op(monomial, gnu, a)
                        for nb, b in cpairs:
                            bv = op(monomial, gmu, b)
                            ab = a * b
                            rhs_op = rhs.get(ab.coeffs)
                            if rhs_op is None:
                                rhs_op = rhs[ab.coeffs] = instantiate(
                                    sm, ring, ab)
                            t.states(ring, states,
                                     lambda s: (commutator_column(av, bv, s),
                                                rhs_op.column(s)),
                                     dict(params, nu=str(list(nu)),
                                          mu=str(list(mu)), a=na, b=nb))
            yield t.record(params)
            params = {"part": "derivative", "surface": ring.name}
            t = _Tally()
            for nu in nus:
                gnu = GenPartition(nu)
                for na, a in cpairs:
                    op = monomial(ring, gnu, a)
                    rhs_op = smeared_series(ring, _derivative_at(gnu), a)
                    t.states(ring, states,
                             lambda s: (_iter_deriv(op, 1, {s: 1}),
                                        rhs_op.column(s)),
                             dict(params, nu=str(list(nu)), a=na))
            yield t.record(params)
        params = {"part": "reorder", "surface": ring.name}
        t = _Tally()
        for seq, j in _SWAPS:
            swapped = seq[:j] + (seq[j + 1], seq[j]) + seq[j + 2:]
            rest = seq[:j] + seq[j + 2:]
            cc = Q(0)
            if seq[j] == -seq[j + 1] and seq[j] != 0:
                cc = Q(seq[j] if mut else -seq[j])
            for na, a in cpairs:
                ea = ring.e * a

                def sides(s):
                    one = {s: 1}
                    lhs = act_arrangement(ring, seq, a, one)
                    rhs = act_arrangement(ring, swapped, a, one)
                    if cc and rest:
                        rhs = _lin((1, rhs), (cc, act_arrangement(
                            ring, rest, ea, one)))
                    elif cc:
                        rhs = _lin((1, rhs), (cc * ring.integrate(ea), one))
                    return lhs, rhs

                t.states(ring, states, sides,
                         dict(params, seq=str(list(seq)), pos=j, a=na))
        yield t.record(params)


# -- thm42: closed iterated derivatives of transfer operators --------------


def _apow_smeared(n, k, N, mut):
    """apow_families(n, k) on the window; the mutation adds
    -2 (-n)^k k! / (24 lam^!) a_lam(tau(e c)), turning (s-1) into (s+1)."""
    fams = apow_families(n, k)
    if mut:
        fams += _euler_families(k - 1, n, -2 * (-n) ** k * factorial(k))
    return series_to_smeared(fams, N, N).filter(diamond_keep(N))


def _run_thm42(spec, mut, *, k_max=3, n_max=3):
    """The k-th derivative of a_n equals its closed partition expansion
    (modulo K; exercised with full K via the recursive route on states).

    Mutation euler-shift: the closed Euler factor (s-1) becomes (s+1).
    """
    N = _cutoff(spec)
    keep = diamond_keep(N)
    if mut:
        k_max = min(k_max, 2)
    rcases = []
    for ring in _rings(spec, ("k3", "abelian", "p2")):
        cls = ([("x", ring.basis("x"))] if ring.name == "p2"
               else _probe(ring, "all"))
        rcases.append((ring, [(na, a, ring.unit) for na, a in cls]))
    ns = [v for a in range(1, n_max + 1) for v in (a, -a)]
    for k, n in product(range(k_max + 1), ns):
        cur = series_to_smeared(heis_families(n), N, N).filter(keep)
        for _ in range(k):
            cur = s_derive(cur, keep, N, N, include_k=False)
        delta = cur - _apow_smeared(n, k, N, mut)
        yield _universal_record(delta, {"check": "universal", "k": k, "n": n})
        for ring, cases in rcases:
            yield _sweep(delta, ring, cases,
                         {"check": "classes", "k": k, "n": n})
    yield from _thm42_spots(spec, mut, N)


def _thm42_spots(spec, mut, N):
    cases = [(ring, cname) for ring in _rings(spec, ("p2", "k3"))
             for cname in (("x",) if ring.name == "p2" else ("1", "x"))]
    if mut:
        cases = cases[1:2]
    for ring, cname in cases:
        a = ring.basis(cname)
        states = _action_states(ring)
        t = _Tally()
        for k, n in product(range(3), (1, -1, -2)):
            closed = _apow_smeared(n, k, N, mut)
            an = heisenberg(ring, n, a)
            rhs_op = instantiate(closed, ring, a)
            t.states(ring, states,
                     lambda s: (_iter_deriv(an, k, {s: 1}),
                                rhs_op.column(s)),
                     {"check": "action", "surface": ring.name, "k": k,
                      "n": n, "a": cname})
        yield t.record(
            {"check": "action", "surface": ring.name, "class": cname})


# -- rmk43: derivative closure of shifted families -------------------------


def _run_rmk43(spec, mut, *, k_max=3, n_max=3):
    """Derivative of the d-shifted family, for d = -1 and d = n^2 - 2:

        F(k,n,d)' = -n(k+1) F(k+1,n,d)
                    - (n(d+1)/12) sum_{l=k} (1/lam^!) a_lam(tau(e c))

    including n = 0, where the derivative must vanish.

    Mutation shift-term: the factor (d+1) becomes (d+2).
    """
    N = _cutoff(spec)
    keep = diamond_keep(N)
    for k, n in product(range(k_max + 1), range(-n_max, n_max + 1)):
        dvals = [-1]
        if n * n - 2 != -1:
            dvals.append(n * n - 2)
        for d in dvals:
            A = series_to_smeared(shift_families(k, n, d), N, N)
            A = A.filter(keep)
            dA = s_derive(A, keep, N, N, include_k=False)
            rhs = series_to_smeared(
                shift_families(k + 1, n, d), N, N).filter(keep)
            rhs = rhs.scaled(-n * (k + 1))
            c2 = -2 * n * (d + (2 if mut else 1))
            if c2:
                rhs = rhs + series_to_smeared(
                    _euler_families(k, n, c2), N, N).filter(keep)
            yield _universal_record(dA - rhs, {"k": k, "n": n, "d": d})


# -- thm46-unique: characterization of the character series ----------------


def _run_thm46(spec, mut, *, k_max=3):
    """G_k is pinned by three properties: every term annihilates the
    vacuum, the series commutes with the derivation (modulo K), and its
    bracket with a_{-1} reproduces the k-th derivative of a_{-1}.

    Mutation euler-shift: the Euler factor (s-2) becomes (s-1).
    """
    N = _cutoff(spec)
    keep = diamond_keep(N)
    for k in range(k_max + 1):
        fams = chern_families(k)
        if mut:
            fams += _euler_families(k, 0, 1)
        A = series_to_smeared(fams, N, N).filter(keep)
        bad = [m for (m, _, _) in A.terms if not m or max(m) <= 0]
        yield _verdict(not bad, {"check": "vacuum", "k": k},
                       max(len(A.terms), 1),
                       "every term has an annihilation mode",
                       str(bad) if bad else "")
        dA = s_derive(A, keep, N, N, include_k=False)
        yield _universal_record(dA, {"check": "derivation", "k": k})
        pos = _sound_pos(N, 0, -1)
        meas = series_bracket(fams, heis_families(-1), pos, N)
        rhs = series_to_smeared(apow_families(-1, k), pos, N).scaled(
            Q(1, factorial(k)))
        yield _universal_record(
            meas - rhs, {"check": "transfer-pin", "k": k})
    if not mut:
        yield from _thm46_spots(spec)


def _thm46_spots(spec):
    for ring in _rings(spec, ("k3", "abelian")):
        states = _action_states(ring, 3)
        t = _Tally()
        for k in (2, 3):
            gk = chern(ring, k, ring.unit)
            for nb, b in _probe(ring)[:3]:
                am = heisenberg(ring, -1, b)
                t.states(ring, states,
                         lambda s: (commutator_column(gk, am, s),
                                    _lin((Q(1, factorial(k)),
                                          _iter_deriv(am, k, {s: 1})))),
                         {"check": "action", "surface": ring.name, "k": k,
                          "b": nb})
        yield t.record({"check": "action", "surface": ring.name})


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
        return _cor48_records(_rings(spec, ("abelian", "k3")), False, n_max)
    if spec.surface not in ("", "k3"):
        raise ValueError("the cor48 mutation needs e != 0 and runs on "
                         "k3, not %s" % spec.surface)
    return _cor48_records(_rings(spec, ("k3",)), True, min(n_max, 3))


def _cor48_records(rings, mut, n_max):
    for ring in rings:
        for n in range(n_max + 1):
            for k in range(n):
                params = {"surface": ring.name, "n": n, "k": k}
                t = _Tally(total=True)
                for na, a in _probe(ring, "all"):
                    via_op = chern_class(ring, k, a, n)
                    via_closed = chern_class_closed(ring, k, a, n)
                    if mut:
                        via_closed = via_closed + chern_class_closed(
                            ring, k - 2, ring.e * a, n).scale(Q(-1, 24))
                    t.check(via_op == via_closed, dict(params, a=na),
                            via_op, via_closed)
                yield t.record(params)


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

    rings = _rings(spec, SURFACE_NAMES)
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

    Mutation euler-shift: the J Euler weight (s+n^2-2) loses 1.
    """
    N = _cutoff(spec)

    def jf(p, n):
        fams = jay_families(p, n)
        if mut:
            fams += _euler_families(p - 1, n, -factorial(p))
        return fams

    for n in range(-n_max, n_max + 1):
        got = series_to_smeared(jf(0, n), N, N)
        want = series_to_smeared(heis_families(n), N, N).scaled(-1)
        yield _universal_record(got - want, {"part": "a", "n": n})
    for ring in _rings(spec, ("p2", "k3")):
        t = _Tally(total=True)
        for n, (na, a) in product(range(-2, 3), _probe(ring)[:4]):
            ja = instantiate(series_to_smeared(jf(1, n), 4, 4), ring, a)
            ln = quadratic_sum(ring, n, a).terms_within(4)
            t.check(ja.equal_terms(ln),
                    {"part": "b", "surface": ring.name, "n": n, "a": na},
                    ln, ja)
        yield t.record({"part": "b", "surface": ring.name})
    for p in range(1, p_max + 1):
        got = series_to_smeared(jf(p, 0), N, N)
        want = series_to_smeared(chern_families(p - 1), N, N).scaled(
            factorial(p))
        yield _universal_record(got - want, {"part": "c", "p": p})
        got = series_to_smeared(jf(p, -1), N, N)
        want = series_to_smeared(apow_families(-1, p), N, N).scaled(-1)
        yield _universal_record(got - want, {"part": "d", "p": p})
    for ring in _rings(spec, () if mut else ("k3",)):
        states = _action_states(ring)
        t = _Tally()
        for p, (na, a) in product(range(4), _probe(ring)[:3]):
            jp = jay(ring, p, -1, a)
            inner = heisenberg(ring, -1, a)
            t.states(ring, states,
                     lambda s: (jp.column(s),
                                _lin((-1, _iter_deriv(inner, p, {s: 1})))),
                     {"part": "d-action", "surface": ring.name, "p": p,
                      "a": na})
        yield t.record({"part": "d-action", "surface": ring.name})


# -- lem52: character-transfer bracket gives W-generators ------------------


def _run_lem52(spec, mut, *, p_max=4, n_max=3):
    """[G_p(a), a_n(b)] = (n/p!) J^p_n(ab).

    Mutation rhs-scale: the factor n/p! becomes (n+1)/p!.
    """
    N = _cutoff(spec)
    for p, n in product(range(p_max + 1), range(-n_max, n_max + 1)):
        pos = _sound_pos(N, 0, n)
        meas = series_bracket(chern_families(p), heis_families(n), pos, N)
        scale = Q(n + (1 if mut else 0), factorial(p))
        rhs = series_to_smeared(jay_families(p, n), pos, N).scaled(scale)
        yield _universal_record(
            meas - rhs, {"check": "universal", "p": p, "n": n})
    if not mut:
        yield from _lem52_spots(spec)


def _lem52_spots(spec):
    for ring in _rings(spec, ("k3", "p1xp1")):
        kfree = _ktrivial(ring, _probe(ring))
        others = _probe(ring)[:3]
        states = _action_states(ring)
        t = _Tally()
        for p, n in product(range(3), (-2, -1, 1, 2)):
            for na, a in kfree[:3]:
                gp = chern(ring, p, a)
                for nb, b in others:
                    an = heisenberg(ring, n, b)
                    jp = jay(ring, p, n, a * b)
                    t.states(ring, states,
                             lambda s: (commutator_column(gp, an, s),
                                        _lin((Q(n, factorial(p)),
                                              jp.column(s)))),
                             {"check": "action", "surface": ring.name,
                              "p": p, "n": n, "a": na, "b": nb})
        yield t.record({"check": "action", "surface": ring.name})


# -- lem53: W-generators as field monomial components ----------------------


def _run_lem53(spec, mut, *, p_max=4, m_max=3):
    """J^p_m equals its normally ordered field expression term by term:

        -1/(p+1) :a^{p+1}:_m + p(m^2-3m-2p)/24 :a^{p-1}:_m (Euler)
        + p(p-1)/24 :(d^2 a) a^{p-2}:_m (Euler).

    Mutation field-coeff-shift: the middle coefficient gains p/24.
    """
    N = _cutoff(spec)
    for p, m in product(range(p_max + 1), range(-m_max, m_max + 1)):
        A = series_to_smeared(jay_families(p, m), N, N)
        B = series_to_smeared(jay_field_families(p, m), N, N)
        if mut and p >= 1:
            extra = series_to_smeared(
                fourier_families(FourierSpec((0,) * (p - 1), m)), N, N)
            B = B + extra.shift_euler().scaled(Q(p, 24))
        yield _universal_record(A - B, {"p": p, "m": m})
    for ring in _rings(spec, () if mut else ("p2",)):
        t = _Tally(total=True)
        for m in range(-2, 3):
            for na, a in _probe(ring):
                f2 = fourier(ring, FourierSpec((0, 0), m), a).terms_within(5)
                l2 = quadratic_sum(ring, m, a).terms_within(5).scaled(Q(-2))
                t.check(f2.equal_terms(l2),
                        {"check": "square-field", "m": m, "a": na}, l2, f2)
        yield t.record({"check": "square-field", "surface": ring.name})


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
    rings = _rings(spec, ("abelian", "k3", "p2"))
    if mut:
        pq_max = min(pq_max, 3)
        m_max = min(m_max, 1)
        rings = rings[:1]
    cases = [(r, _pair_cases(r, _probe(r, spec.classes or "named")))
             for r in rings]
    for (p, q, m, n), (delta, _) in _w_grid(spec, _w_cells(pq_max, m_max)):
        if mut:
            delta = SmearedOp(delta.terms).merge(
                _omega_part(p, q, m, n, _sound_pos(N, m, n), N), 2)
        params = {"p": p, "q": q, "m": m, "n": n}
        yield _universal_record(delta, dict(params, check="universal"))
        for ring, rcases in cases:
            yield _sweep(delta, ring, rcases,
                         dict(params, check="instantiate"))
    yield from _thm55_centrals(spec, m_max)
    if not mut:
        for ring in _rings(spec, ("k3", "abelian", "p2")):
            allst = _action_states(ring)
            states = ([allst[0]]
                      + [s for s in allst if weight(s) == 1][:2]
                      + [s for s in allst if weight(s) == 2][:4])
            yield _w_spots(ring, states, _THM55_SPOT_CELLS,
                           _THM55_SPOT_PAIRS[ring.name])


def _thm55_centrals(spec, m_max):
    """Explicit central values on the K3 model."""
    for ring in _rings(spec, ("k3",)):
        u1u2 = ring.integrate(ring.basis("u1") * ring.basis("u2"))
        cells = [(p, q, m, -m) for p, q in ((0, 0), (1, 1), (2, 0), (0, 2))
                 for m in range(1, m_max + 1)]
        for (p, q, m, _), (_, scalars) in _w_grid(spec, cells):
            if (p, q) == (0, 0):
                got = scalars.terms.get(((), 0, 0), Q(0)) * u1u2
                want = Q(-m)
                label = "-m * integral(ab)"
            else:
                den = 12 if (p, q) == (1, 1) else 6
                got = _scalar_part(scalars, ring)
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
    keep = diamond_keep(N)
    for p, n in product(range(1, p_max + 1), range(-n_max, n_max + 1)):
        A = series_to_smeared(jay_families(p, n), N, N).filter(keep)
        dA = s_derive(A, keep, N, N, include_k=False)
        rhs = series_to_smeared(jay_families(p + 1, n), N, N)
        rhs = rhs.filter(keep).scaled(-n)
        cc = Q(-(n ** 3 - n) * p, 6 if mut else 12)
        if cc and p - 1 >= 0:
            rhs = rhs + series_to_smeared(
                jay_families(p - 1, n), N, N).shift_euler().filter(
                    keep).scaled(cc)
        yield _universal_record(
            dA - rhs, {"check": "universal", "p": p, "n": n})
    if not mut:
        yield from _rmk56_spots(spec)


def _rmk56_spots(spec):
    for ring in _rings(spec, ("k3",)):
        states = _action_states(ring)[:6]
        t = _Tally()
        for p, n in product(range(1, 4), (-2, -1, 1, 2)):
            for na, a in _probe(ring)[:3]:
                jp = jay(ring, p, n, a)
                jup = jay(ring, p + 1, n, a)
                jdown = jay(ring, p - 1, n, ring.e * a)
                cc = Q(-(n ** 3 - n) * p, 12)
                t.states(ring, states,
                         lambda s: (_iter_deriv(jp, 1, {s: 1}),
                                    _lin((Q(-n), jup.column(s)),
                                         (cc, jdown.column(s)))),
                         {"check": "action", "surface": ring.name, "p": p,
                          "n": n, "a": na})
        yield t.record({"check": "action", "surface": ring.name})


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
            delta = SmearedOp(delta.terms).merge(series_to_smeared(
                jay_families(p + q - 1, m + n), _sound_pos(N, m, n), N), -1)
        # Untagged keys come only from the untagged families' plain events.
        delta = SmearedOp({k: c for k, c in delta.terms.items()
                           if not k[1] and not k[2]})
        yield _universal_record(delta, {"check": "universal", "p": p,
                                        "q": q, "m": m, "n": n})
    for ring in _rings(spec, ("abelian",)):
        yield _thm57_symbolic(ring)
        if not mut:
            yield _w_spots(ring, _action_states(ring), _THM57_SPOT_CELLS,
                           _THM57_SPOT_PAIRS)


_THM57_SPOT_CELLS = tuple(
    pq + mn for pq, mn in product(((0, 0), (1, 0), (1, 1), (2, 1)),
                                  ((1, -1), (1, 1), (-1, -1), (2, -1))))

# Class pairs of the abelian model, odd classes included.
_THM57_SPOT_PAIRS = (("1", "1"), ("t1", "t2"), ("t1", "t234"),
                     ("t12", "t34"), ("t123", "t4"))


def _thm57_symbolic(ring):
    """The symbolic W-algebra bracket against the measured constants."""
    t = _Tally(total=True)
    gram = ring.pairing_matrix()
    cls = [(c, ring.basis(c)) for c in _W_CLASSES[ring.name]]
    for p, q, m, n in product(range(3), range(3), (-2, 0, 1), (-1, 1, 2)):
        for (ca, a), (cb, b) in product(cls, cls):
            got = wbracket(ring, wterm(p, m, a), wterm(q, n, b))
            want = {}
            if p == 0 and q == 0:
                c = -m * gram[ring.index[ca]][ring.index[cb]]
                if m == -n and c:
                    want[CENTRAL] = c
            else:
                want = wterm(p + q - 1, m + n, a * b, Q(q * m - p * n))
            t.check(got == want,
                    {"check": "symbolic", "p": p, "q": q, "m": m, "n": n,
                     "a": ca, "b": cb}, want, got)
    return t.record({"check": "symbolic"})


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
    memo = {}

    def F(orders, m):
        """The component series of :(d^r1 a)...(d^rk a):_m on the box,
        made once per run."""
        key = (orders, m)
        if key not in memo:
            memo[key] = series_to_smeared(
                fourier_families(FourierSpec(orders, m)), B, B)
        return memo[key]

    for Nf, m in product(range(n_max + 1), range(-m_max, m_max + 1)):
        z = (0,) * Nf
        for name, orders, scale, terms in _lem61_identities(Nf, m, six):
            lhs = F(orders + z, m).scaled(scale)
            rhs = SmearedOp()
            for rorders, used, c in terms:
                if Nf >= used:
                    rhs.merge(F(rorders + z[used:], m), c)
            yield _universal_record(
                lhs - rhs, {"identity": name, "N": Nf, "m": m})


# -- eq22: the abstract W-algebra ------------------------------------------


def _run_eq22(spec, mut, *, p_max=2, m_max=2):
    """Antisymmetry and the Jacobi identity of the symbolic bracket, and
    the trace convention trace = -integral against the measured
    transfer-operator central term.

    Mutation central-shift: the central factor m becomes m + 1.
    """
    rings = _rings(spec, ("abelian", "k3"))
    if mut:
        p_max = min(p_max, 1)
        rings = rings[:1]
    for ring in rings:
        names = _W_CLASSES[ring.name]
        gram = ring.pairing_matrix()
        singles = [(p, m, cn, wterm(p, m, ring.basis(cn)))
                   for p in range(p_max + 1)
                   for m in range(-m_max, m_max + 1)
                   for cn in names]

        def brk(x, y):
            out = wbracket(ring, x, y)
            if mut:
                for kx in x:
                    for ky in y:
                        if (kx != CENTRAL and ky != CENTRAL
                                and kx[1] == 0 and ky[1] == 0
                                and kx[2] == -ky[2] and kx[2] != 0):
                            c = -gram[kx[3]][ky[3]] * x[kx] * y[ky]
                            if c:
                                out[CENTRAL] = out.get(CENTRAL, Q(0)) + c
            return {k: v for k, v in out.items() if v}

        t = _Tally()
        for p, m, cn, x in singles:
            px = wparity(ring, x)
            for q, n, dn, y in singles:
                py = wparity(ring, y)
                sign = Q(-1) if (px and py) else Q(1)
                lhs = brk(x, y)
                rhs = {k: -sign * v for k, v in brk(y, x).items()}
                t.check(lhs == rhs,
                        {"check": "antisymmetry", "surface": ring.name,
                         "x": "J(%d,%d;%s)" % (p, m, cn),
                         "y": "J(%d,%d;%s)" % (q, n, dn)}, rhs, lhs)
        yield t.record({"check": "antisymmetry", "surface": ring.name})
        if mut:
            continue
        t = _Tally()
        sub = [s for s in singles if s[1] in (-2, 0, 1) and s[2] in names[:3]]
        for p, m, cn, x in sub:
            px = wparity(ring, x)
            for q, n, dn, y in sub:
                py = wparity(ring, y)
                for r, s_, en, z in sub:
                    lhs = brk(x, brk(y, z))
                    t1 = brk(brk(x, y), z)
                    t2 = brk(y, brk(x, z))
                    sign = Q(-1) if (px and py) else Q(1)
                    rhs = dict(t1)
                    for k, v in t2.items():
                        rhs[k] = rhs.get(k, Q(0)) + sign * v
                    rhs = {k: v for k, v in rhs.items() if v}
                    t.check(lhs == rhs,
                            {"check": "jacobi", "surface": ring.name,
                             "x": "J(%d,%d;%s)" % (p, m, cn),
                             "y": "J(%d,%d;%s)" % (q, n, dn),
                             "z": "J(%d,%d;%s)" % (r, s_, en)}, rhs, lhs)
        yield t.record({"check": "jacobi", "surface": ring.name})
    t = _Tally()
    for m in (1, 2, 3):
        meas = series_bracket(heis_families(m), heis_families(-m), 4, 4)
        got = meas.terms.get(((), 0, 0), Q(0))
        t.check(got == -m, {"check": "trace-bridge", "m": m}, Q(-m), got)
    yield t.record({"check": "trace-bridge"})


# -- registry and reports --------------------------------------------------


class Suite(NamedTuple):
    """A registry entry: the runner and every option the suite reads."""

    runner: object
    description: str
    mutation: str  # the label of its one mutation
    window: int | None  # the window --cutoff 0 runs; None: reads none
    surfaces: tuple  # the built-in surfaces its records name
    classes: bool = False  # whether --classes chooses its probe classes


SUITES = {
    "heis": Suite(_run_heis, "transfer operator commutation relations on "
                  "basis states of every surface model", "central-shift",
                  None, SURFACE_NAMES, True),
    "vir": Suite(_run_vir, "Virasoro bracket of the quadratic series with "
                 "the Euler-class central term", "central-shift", 8,
                 SURFACE_NAMES, True),
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
                   8, ("abelian", "k3", "p2"), True),
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
    if spec.cutoff < 0:
        raise ValueError("cutoff must be at least 0, got %d" % spec.cutoff)
    if spec.cutoff and suite.window is None:
        raise ValueError("suite %s reads no window, so it takes no cutoff; "
                         "got %d" % (spec.suite, spec.cutoff))
    if spec.classes and not suite.classes:
        raise ValueError("suite %s reads no class list, so it takes no "
                         "--classes; got %r" % (spec.suite, spec.classes))
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
    bounds = {k: int(v) for k, v in spec.bounds.items()}
    for k in sorted(bounds):
        if bounds[k] < 0:
            raise ValueError("bound %s must be at least 0, got %d"
                             % (k, bounds[k]))
    t0 = time.perf_counter()
    # Calling a runner checks nothing yet; only the cor48 mutation may
    # refuse its surface here, in its own words.
    records = suite.runner(spec, bool(spec.mutation), **bounds)
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
    wall = (time.perf_counter() - t0) * 1000.0
    return VerificationReport(spec.suite, spec, records, wall)


def report_lines(report):
    """Deterministic JSON-ready dicts; timing is deliberately excluded."""
    spec = report.spec
    head = {"header": {
        "suite": report.suite,
        "surface": spec.surface,
        "cutoff": spec.cutoff,
        "bounds": {k: spec.bounds[k] for k in sorted(spec.bounds)},
        "classes": spec.classes,
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
        return "\n".join(json.dumps(line, sort_keys=True)
                         for line in report_lines(report)) + "\n"
    if fmt == "human":
        out = ["suite %s: %d instances, %d passed, %d failed"
               % (report.suite, len(report.records), report.passed,
                  report.failed)]
        for r in report.records:
            if r.status != "pass":
                out.append("FAIL %s" % json.dumps(r.params, sort_keys=True))
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
            w.writerow([report.suite, json.dumps(r.params, sort_keys=True),
                        r.status, r.checks, r.expected, r.actual])
        return buf.getvalue()
    raise ValueError("unknown format %r" % fmt)
