"""Verification suites for the operator calculus.

Each suite checks one identity family by exact computation, instance by
instance, and returns a report of pass/fail records.  Universal checks
compare smeared term lists (valid over every surface at once); these are
then instantiated on concrete surfaces, and a sample of instances is
grounded by applying both sides to explicit states, so the smeared
calculus itself is cross-checked against raw operator composition.

Every suite carries exactly one documented mutation: a deliberately
wrong coefficient that the suite must detect by failing.  Mutated runs
use reduced grids; the mutation is rejected unless its label matches.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial
from multiprocessing import Pool

from .fock import FockVector, basis_states, render_state, vacuum, weight
from .operators import (Family, SmearedOp, box_keep, commutator_action,
                        derivation_apply, diamond_keep, heisenberg,
                        instantiate, monomial, quadratic_sum, s_bracket,
                        s_derive, series_bracket, series_to_smeared,
                        apply_arrangement)
from .partitions import GenPartition, enumerate_ordinary
from .ring import RingElem, SURFACE_NAMES, builtin_ring
from .walgebra import (CENTRAL, FourierSpec, apow_families, chern,
                       chern_families, chern_smeared, fourier,
                       fourier_families, heis_families, jay, jay_families,
                       jay_smeared, jay_via_fields_smeared, omega,
                       shift_families, wbracket, wkey, wparity, wterm)
from .hilbert import (chern_class, chern_class_closed, intersection_number,
                      intersection_number_closed)

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


def _bound(spec, key, default):
    return int(spec.bounds.get(key, default))


def _cutoff(spec, default=8):
    return spec.cutoff if spec.cutoff else default


def _rings(spec, defaults):
    names = (spec.surface,) if spec.surface else defaults
    return [builtin_ring(n) for n in names]


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
    """Vacuum, all weight-1 states, and a spread of heavier states."""
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


def _vec(ring, state, cutoff):
    return FockVector(ring, cutoff, {state: 1})


def _sound_pos(N, size_a, size_b):
    """Largest creation total with no intermediate window loss."""
    return N - max(0, -size_a, -size_b, -size_a - size_b)


def _inst_fail(delta, ring, a, b):
    """First residual term that survives instantiation at a*b, or None."""
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


def _sweep_record(delta, ring, pairs, params):
    """Instantiation sweep of a residual over class pairs on one ring."""
    fail = None
    cnt = 0
    for na, a in pairs:
        for nb, b in pairs:
            cnt += 1
            if fail is None:
                msg = _inst_fail(delta, ring, a, b)
                if msg:
                    fail = "%s,%s: %s" % (na, nb, msg)
    p = dict(params)
    p["surface"] = ring.name
    return InstanceRecord(p, "fail" if fail else "pass", cnt, "0",
                          fail or "0")


def _sweep_single(delta, ring, classes, params):
    """Instantiation sweep of a single-class residual on one ring."""
    fail = None
    cnt = 0
    for na, a in classes:
        cnt += 1
        if fail is None:
            msg = _inst_fail(delta, ring, a, ring.unit)
            if msg:
                fail = "%s: %s" % (na, msg)
    p = dict(params)
    p["surface"] = ring.name
    return InstanceRecord(p, "fail" if fail else "pass", cnt, "0",
                          fail or "0")


def _universal_record(delta, params):
    ok = delta.is_zero()
    return InstanceRecord(dict(params), "pass" if ok else "fail",
                          max(len(delta.terms), 1), "0",
                          "0" if ok else delta.render())


def _iter_deriv(op, k, vec):
    """k-fold derivative of an operator applied to a vector, recursively."""
    if k == 0:
        return op.apply(vec)
    lower = _iter_deriv(op, k - 1, vec)
    return derivation_apply(lower) - _iter_deriv(op, k - 1,
                                                 derivation_apply(vec))


def _vector_fail(params, lhs, rhs, state, ring, extra):
    p = dict(params)
    p.update(extra)
    p["state"] = render_state(state, ring)
    return InstanceRecord(p, "fail", 1, rhs.render(), lhs.render())


# -- heis: transfer operator commutators ----------------------------------


def _run_heis(spec, mut):
    """[a_m(a), a_n(b)] = -m delta_{m,-n} integral(ab) Id on basis states.

    Mutation central-shift: the central coefficient -m becomes -m + 1.
    """
    mmax = _bound(spec, "m_max", 4)
    recs = []
    rings = _rings(spec, SURFACE_NAMES)
    if mut:
        mmax = min(mmax, 2)
        rings = rings[:1]
    for ring in rings:
        pairs = _probe(ring, spec.classes or "all")
        wmax = _bound(spec, "w_max", 2 if ring.dim <= 4 else 1)
        states = [s for w in range(wmax + 1) for s in basis_states(ring, w)]
        pre = [(s, {m for m, _ in s}) for s in states]
        big = wmax + 2 * mmax
        ops = {}

        def hop(m, name, elem):
            key = (m, name)
            if key not in ops:
                ops[key] = heisenberg(ring, m, elem, big)
            return ops[key]

        for m in range(-mmax, mmax + 1):
            for n in range(-mmax, mmax + 1):
                checks = 0
                fail = None
                for na, a in pairs:
                    for nb, b in pairs:
                        cc = Q(0)
                        if m == -n and m != 0:
                            cc = Q(-m + (1 if mut else 0)) * ring.integrate(a * b)
                        for s, smodes in pre:
                            if (m != -n and not ((m > 0 and -m in smodes)
                                                 or (n > 0 and -n in smodes))):
                                checks += 1
                                continue
                            v = _vec(ring, s, big)
                            lhs = commutator_action(hop(m, na, a),
                                                    hop(n, nb, b), v)
                            rhs = v.scale(cc)
                            checks += 1
                            if lhs != rhs and fail is None:
                                fail = _vector_fail(
                                    {"surface": ring.name, "m": m, "n": n},
                                    lhs, rhs, s, ring, {"a": na, "b": nb})
                        if fail:
                            break
                    if fail:
                        break
                if fail:
                    fail.checks = checks
                    recs.append(fail)
                else:
                    recs.append(InstanceRecord(
                        {"surface": ring.name, "m": m, "n": n},
                        "pass", checks))
    return recs


# -- vir: Virasoro bracket -------------------------------------------------


def _run_vir(spec, mut):
    """[L_m(a), L_n(b)] = (m-n) L_{m+n}(ab)
                          + delta_{m,-n} ((m^3-m)/12) integral(e a b) Id.

    Mutation central-shift: the central factor gains an extra 1/12.
    """
    N = _cutoff(spec)
    mmax = _bound(spec, "m_max", 3)
    recs = []
    rings = _rings(spec, SURFACE_NAMES)
    if mut:
        mmax = min(mmax, 2)
    for m in range(-mmax, mmax + 1):
        for n in range(-mmax, mmax + 1):
            pos = _sound_pos(N, m, n)
            meas = series_bracket(vir_f(m), vir_f(n), pos, N)
            exp = series_to_smeared(vir_f(m + n), pos, N).scaled(Q(m - n))
            if m == -n and m != 0:
                cc = Q(m ** 3 - m, 12)
                if mut:
                    cc += Q(1, 12)
                exp.add(((), 1, 0), cc)
            delta = meas - exp
            recs.append(_universal_record(
                delta, {"check": "universal", "m": m, "n": n}))
            for ring in rings:
                recs.append(_sweep_record(
                    delta, ring, _probe(ring, spec.classes or "named"),
                    {"check": "instantiate", "m": m, "n": n}))
            if m == -n and m != 0 and (not spec.surface
                                       or spec.surface == "k3"):
                k3 = builtin_ring("k3")
                val = Q(0)
                for (modes, ep, kp), c in meas.terms.items():
                    if modes or kp:
                        continue
                    cls = k3.unit
                    if ep:
                        cls = k3.e
                    val += c * k3.integrate(cls)
                expect = Q(24) * Q(m ** 3 - m, 12)
                recs.append(InstanceRecord(
                    {"check": "central", "surface": "k3", "m": m},
                    "pass" if val == expect else "fail", 1,
                    str(expect), str(val)))
    recs.extend(_vir_spots(spec, mut))
    return recs


def vir_f(n):
    return jay_families(1, n)


def _vir_spots(spec, mut):
    """Apply both sides to explicit states on small surfaces."""
    recs = []
    names = [r.name for r in _rings(spec, ("p2", "k3"))]
    mtop = 2
    if "p2" in names:
        ring = builtin_ring("p2")
        pairs = _probe(ring)
        states = _action_states(ring, 2)
        big = 2 + 2 * mtop
        lcache = {}

        def lop(m, name, elem):
            if (m, name) not in lcache:
                lcache[(m, name)] = quadratic_sum(ring, m, elem, big)
            return lcache[(m, name)]

        for m in range(-mtop, mtop + 1):
            for n in range(-mtop, mtop + 1):
                checks = 0
                fail = None
                for na, a in pairs:
                    for nb, b in pairs:
                        ab = a * b
                        cc = Q(0)
                        if m == -n and m != 0:
                            cc = Q(m ** 3 - m, 12) * ring.integrate(ring.e * ab)
                        rhs_op = quadratic_sum(ring, m + n, ab, big)
                        for s in states:
                            v = _vec(ring, s, big)
                            lhs = commutator_action(lop(m, na, a),
                                                    lop(n, nb, b), v)
                            rhs = rhs_op.apply(v).scale(Q(m - n)) + v.scale(cc)
                            checks += 1
                            if lhs != rhs and fail is None:
                                fail = _vector_fail(
                                    {"check": "action", "surface": "p2",
                                     "m": m, "n": n}, lhs, rhs, s, ring,
                                    {"a": na, "b": nb})
                recs.append(fail or InstanceRecord(
                    {"check": "action", "surface": "p2", "m": m, "n": n},
                    "pass", checks))
    if "k3" in names and not mut:
        ring = builtin_ring("k3")
        states = _action_states(ring, 2)
        one = ring.unit
        for m in range(1, 4):
            big = 2 + 2 * m
            lm = quadratic_sum(ring, m, one, big)
            ln = quadratic_sum(ring, -m, one, big)
            l0 = quadratic_sum(ring, 0, one, big)
            cc = Q(m ** 3 - m, 12) * 24
            checks = 0
            fail = None
            for s in states:
                v = _vec(ring, s, big)
                lhs = commutator_action(lm, ln, v)
                rhs = l0.apply(v).scale(Q(2 * m)) + v.scale(cc)
                checks += 1
                if lhs != rhs and fail is None:
                    fail = _vector_fail(
                        {"check": "action", "surface": "k3", "m": m,
                         "n": -m}, lhs, rhs, s, ring, {"a": "1", "b": "1"})
            recs.append(fail or InstanceRecord(
                {"check": "action", "surface": "k3", "m": m, "n": -m},
                "pass", checks))
    return recs


# -- thm31: mixed brackets and the replacement rule ------------------------


def _run_thm31(spec, mut):
    """Three action identities:

    (ii)  [L_m(a), a_n(b)] = -n a_{m+n}(ab)
    (iii) derivative of a_n(b) = n L_n(b) - (n(|n|-1)/2) a_n(K b)
    (v)   [G_k(a), a_{-1}(b)] = (1/k!) (k-th derivative of a_{-1}(ab))

    Mutation canonical-shift: the K-term coefficient in (iii) gains +1.
    """
    mmax = _bound(spec, "m_max", 3)
    kmax = _bound(spec, "k_max", 3)
    recs = []
    rings = _rings(spec, SURFACE_NAMES)
    if mut:
        mmax = min(mmax, 2)
        kmax = 0
        rings = [builtin_ring("p2")]
    for ring in rings:
        pairs = _probe(ring)
        small = pairs[:5] if ring.dim > 8 else pairs
        wmax = 2 if ring.dim <= 4 else 1
        states = _action_states(ring, wmax)
        wtop = max(weight(s) for s in states)
        big = wtop + 2 * mmax + 1
        for m in range(-mmax, mmax + 1):
            for n in range(-mmax, mmax + 1):
                checks = 0
                fail = None
                for na, a in small:
                    lm = quadratic_sum(ring, m, a, big)
                    for nb, b in small:
                        an = heisenberg(ring, n, b, big)
                        rhs_op = heisenberg(ring, m + n, a * b, big)
                        for s in states:
                            v = _vec(ring, s, big)
                            lhs = commutator_action(lm, an, v)
                            rhs = rhs_op.apply(v).scale(Q(-n))
                            checks += 1
                            if lhs != rhs and fail is None:
                                fail = _vector_fail(
                                    {"part": "mixed", "surface": ring.name,
                                     "m": m, "n": n}, lhs, rhs, s, ring,
                                    {"a": na, "b": nb})
                recs.append(fail or InstanceRecord(
                    {"part": "mixed", "surface": ring.name, "m": m, "n": n},
                    "pass", checks))
        for n in range(-mmax, mmax + 1):
            if n == 0:
                continue
            checks = 0
            fail = None
            coef = Q(n * (abs(n) - 1), 2) + (1 if mut else 0)
            for nb, b in pairs:
                an = heisenberg(ring, n, b, big)
                ln = quadratic_sum(ring, n, b, big)
                kn = heisenberg(ring, n, ring.K * b, big)
                for s in states:
                    v = _vec(ring, s, big)
                    lhs = derivation_apply(an.apply(v)) - an.apply(
                        derivation_apply(v))
                    rhs = ln.apply(v).scale(Q(n)) - kn.apply(v).scale(coef)
                    checks += 1
                    if lhs != rhs and fail is None:
                        fail = _vector_fail(
                            {"part": "replacement", "surface": ring.name,
                             "n": n}, lhs, rhs, s, ring, {"b": nb})
            recs.append(fail or InstanceRecord(
                {"part": "replacement", "surface": ring.name, "n": n},
                "pass", checks))
        kfree = _ktrivial(ring, pairs)
        for k in range(kmax + 1):
            checks = 0
            fail = None
            for na, a in kfree:
                gk = chern(ring, k, a, wtop + 1)
                for nb, b in small:
                    am = heisenberg(ring, -1, b, big)
                    inner = heisenberg(ring, -1, a * b, big)
                    for s in states:
                        v = _vec(ring, s, big)
                        lhs = commutator_action(gk, am, v)
                        rhs = _iter_deriv(inner, k, v).scale(
                            Q(1, factorial(k)))
                        checks += 1
                        if lhs != rhs and fail is None:
                            fail = _vector_fail(
                                {"part": "character-pin",
                                 "surface": ring.name, "k": k},
                                lhs, rhs, s, ring, {"a": na, "b": nb})
            recs.append(fail or InstanceRecord(
                {"part": "character-pin", "surface": ring.name, "k": k},
                "pass", checks))
    return recs


# -- lem32: smeared calculus against raw composition -----------------------


_NUS_FULL = ((-1,), (1,), (-2,), (2,), (1, 1), (-2, 1), (-1, -1),
             (-3, 1), (-1, 2), (1, 2), (-2, -1), (-1, 1, 1))
_NUS_SMALL = ((-1,), (2,), (1, 1), (-2, 1), (-1, -1), (-3, 1))
_SWAPS = (((1, -1), 0), ((-1, 1), 0), ((2, -2), 0), ((-2, 2), 0),
          ((1, 2), 0), ((-1, -2), 0), ((2, 1, -1), 1), ((1, -1, -2), 0),
          ((-1, 2, -2), 1))


def _run_lem32(spec, mut):
    """The smeared calculus against ground-truth operator composition:

    bracket:    [a_nu(tau a), a_mu(tau b)] from single contractions
    derivative: the splitting and K rules for the derivation
    reorder:    adjacent swap with one Euler correction per (v,-v) pair

    Mutation euler-sign: the reorder correction -v becomes +v.
    """
    recs = []
    rings = _rings(spec, SURFACE_NAMES)
    if mut:
        rings = [builtin_ring("p2")]
    for ring in rings:
        smallring = ring.dim <= 4
        nus = _NUS_FULL if smallring else _NUS_SMALL
        pairs = _probe(ring)
        cpairs = pairs if smallring else pairs[:3]
        states = _action_states(ring, 2 if smallring else 1)
        wtop = max(weight(s) for s in states)
        big = wtop + 8
        checks = 0
        fail = None
        if not mut:
            for nu in nus:
                gnu = GenPartition(nu)
                for mu in nus:
                    gmu = GenPartition(mu)
                    sm = s_bracket(
                        SmearedOp({(gnu.parts, 0, 0): Q(1)}),
                        SmearedOp({(gmu.parts, 0, 0): Q(1)}))
                    for na, a in cpairs:
                        av = monomial(ring, gnu, a, big)
                        for nb, b in cpairs:
                            bv = monomial(ring, gmu, b, big)
                            rhs_op = instantiate(sm, ring, a * b, big)
                            for s in states:
                                v = _vec(ring, s, big)
                                lhs = commutator_action(av, bv, v)
                                rhs = rhs_op.apply(v)
                                checks += 1
                                if lhs != rhs and fail is None:
                                    fail = _vector_fail(
                                        {"part": "bracket",
                                         "surface": ring.name},
                                        lhs, rhs, s, ring,
                                        {"nu": str(list(nu)),
                                         "mu": str(list(mu)),
                                         "a": na, "b": nb})
            recs.append(fail or InstanceRecord(
                {"part": "bracket", "surface": ring.name}, "pass", checks))
            checks = 0
            fail = None
            for nu in nus:
                gnu = GenPartition(nu)
                sm = s_derive(SmearedOp({(gnu.parts, 0, 0): Q(1)}),
                              box_keep(big, big), big, big)
                for na, a in cpairs:
                    op = monomial(ring, gnu, a, big)
                    rhs_op = instantiate(sm, ring, a, big)
                    for s in states:
                        v = _vec(ring, s, big)
                        lhs = derivation_apply(op.apply(v)) - op.apply(
                            derivation_apply(v))
                        rhs = rhs_op.apply(v)
                        checks += 1
                        if lhs != rhs and fail is None:
                            fail = _vector_fail(
                                {"part": "derivative", "surface": ring.name},
                                lhs, rhs, s, ring,
                                {"nu": str(list(nu)), "a": na})
            recs.append(fail or InstanceRecord(
                {"part": "derivative", "surface": ring.name}, "pass", checks))
        checks = 0
        fail = None
        for seq, j in _SWAPS:
            swapped = list(seq)
            swapped[j], swapped[j + 1] = swapped[j + 1], swapped[j]
            swapped = tuple(swapped)
            rest = seq[:j] + seq[j + 2:]
            cc = Q(0)
            if seq[j] == -seq[j + 1] and seq[j] != 0:
                cc = Q(seq[j] if mut else -seq[j])
            for na, a in cpairs:
                ea = ring.e * a
                for s in states:
                    v = _vec(ring, s, big)
                    lhs = apply_arrangement(ring, seq, a, v)
                    rhs = apply_arrangement(ring, swapped, a, v)
                    if cc:
                        if rest:
                            rhs = rhs + apply_arrangement(
                                ring, rest, ea, v).scale(cc)
                        else:
                            rhs = rhs + v.scale(cc * ring.integrate(ea))
                    checks += 1
                    if lhs != rhs and fail is None:
                        fail = _vector_fail(
                            {"part": "reorder", "surface": ring.name},
                            lhs, rhs, s, ring,
                            {"seq": str(list(seq)), "pos": j, "a": na})
        recs.append(fail or InstanceRecord(
            {"part": "reorder", "surface": ring.name}, "pass", checks))
    return recs


# -- thm42: closed iterated derivatives of transfer operators --------------


def _apow_smeared(n, k, N, mut):
    lead = Q((-n) ** k * factorial(k))
    fams = [Family(k + 1, n, lambda parts, mf, ws, lead=lead: lead / mf)]
    shift = 2 if mut else 0
    if k - 1 >= 1:
        fams.append(Family(
            k - 1, n,
            lambda parts, mf, ws, lead=lead, shift=shift:
            -lead * (ws - 1 + shift) / (24 * mf),
            epow=1))
    return series_to_smeared(fams, N, N).filter(diamond_keep(N))


def _run_thm42(spec, mut):
    """The k-th derivative of a_n equals its closed partition expansion
    (modulo K; exercised with full K via the recursive route on states).

    Mutation euler-shift: the closed Euler factor (s-1) becomes (s+1).
    """
    N = _cutoff(spec)
    kmax = _bound(spec, "k_max", 3)
    nmax = _bound(spec, "n_max", 3)
    keep = diamond_keep(N)
    recs = []
    if mut:
        kmax = min(kmax, 2)
    rnames = [r for r in ("k3", "abelian", "p2")
              if not spec.surface or spec.surface == r]
    rcls = []
    for rname in rnames:
        ring = builtin_ring(rname)
        if rname == "p2":
            rcls.append((ring, [("x", ring.basis("x"))]))
        else:
            rcls.append((ring, _probe(ring, "all")))
    for k in range(kmax + 1):
        for n in [v for a in range(1, nmax + 1) for v in (a, -a)]:
            cur = series_to_smeared(heis_families(n), N, N).filter(keep)
            for _ in range(k):
                cur = s_derive(cur, keep, N, N, include_k=False)
            closed = _apow_smeared(n, k, N, mut)
            delta = cur - closed
            recs.append(_universal_record(
                delta, {"check": "universal", "k": k, "n": n}))
            for ring, cls in rcls:
                recs.append(_sweep_single(
                    delta, ring, cls,
                    {"check": "classes", "k": k, "n": n}))
    recs.extend(_thm42_spots(spec, mut))
    return recs


def _thm42_spots(spec, mut):
    recs = []
    cases = [("p2", "x"), ("k3", "1"), ("k3", "x")]
    if spec.surface:
        cases = [c for c in cases if c[0] == spec.surface]
    if mut:
        cases = cases[1:2]
    N = _cutoff(spec)
    for rname, cname in cases:
        ring = builtin_ring(rname)
        a = ring.basis(cname)
        states = _action_states(ring, 2 if ring.dim <= 4 else 1)
        checks = 0
        fail = None
        for k in range(3 if not mut else 3):
            for n in (1, -1, -2):
                closed = _apow_smeared(n, k, N, mut)
                for s in states:
                    big = weight(s) + abs(n) * (k + 1) + 2
                    v = _vec(ring, s, big)
                    lhs = _iter_deriv(heisenberg(ring, n, a, big), k, v)
                    rhs = instantiate(closed, ring, a, big).apply(v)
                    checks += 1
                    if lhs != rhs and fail is None:
                        fail = _vector_fail(
                            {"check": "action", "surface": rname,
                             "k": k, "n": n}, lhs, rhs, s, ring,
                            {"a": cname})
        recs.append(fail or InstanceRecord(
            {"check": "action", "surface": rname, "class": cname},
            "pass", checks))
    return recs


# -- rmk43: derivative closure of shifted families -------------------------


def _run_rmk43(spec, mut):
    """Derivative of the d-shifted family, for d = -1 and d = n^2 - 2:

        F(k,n,d)' = -n(k+1) F(k+1,n,d)
                    - (n(d+1)/12) sum_{l=k} (1/lam^!) a_lam(tau(e c))

    including n = 0, where the derivative must vanish.

    Mutation shift-term: the factor (d+1) becomes (d+2).
    """
    N = _cutoff(spec)
    kmax = _bound(spec, "k_max", 3)
    nmax = _bound(spec, "n_max", 3)
    keep = diamond_keep(N)
    recs = []
    for k in range(kmax + 1):
        for n in range(-nmax, nmax + 1):
            dvals = [-1]
            if n * n - 2 != -1:
                dvals.append(n * n - 2)
            for d in dvals:
                A = series_to_smeared(shift_families(k, n, d), N, N)
                A = A.filter(keep)
                dA = s_derive(A, keep, N, N, include_k=False)
                rhs = series_to_smeared(
                    shift_families(k + 1, n, d), N, N).filter(keep)
                rhs = rhs.scaled(Q(-n * (k + 1)))
                c2 = Q(-n * (d + (2 if mut else 1)), 12)
                if c2:
                    efam = Family(k, n, lambda parts, mf, ws: Q(1, mf),
                                  epow=1)
                    rhs = rhs + series_to_smeared(
                        [efam], N, N).filter(keep).scaled(c2)
                recs.append(_universal_record(
                    dA - rhs, {"k": k, "n": n, "d": d}))
    return recs


# -- thm46-unique: characterization of the character series ----------------


def _chern_families_mut(k, mut):
    fams = [Family(k + 2, 0, lambda parts, mf, ws: Q(-1, mf))]
    shift = 1 if mut else 0
    if k >= 1:
        fams.append(Family(
            k, 0,
            lambda parts, mf, ws, shift=shift: Q(ws - 2 + shift, 24 * mf),
            epow=1))
    return fams


def _run_thm46(spec, mut):
    """G_k is pinned by three properties: every term annihilates the
    vacuum, the series commutes with the derivation (modulo K), and its
    bracket with a_{-1} reproduces the k-th derivative of a_{-1}.

    Mutation euler-shift: the Euler factor (s-2) becomes (s-1).
    """
    N = _cutoff(spec)
    kmax = _bound(spec, "k_max", 3)
    keep = diamond_keep(N)
    recs = []
    for k in range(kmax + 1):
        fams = _chern_families_mut(k, mut)
        A = series_to_smeared(fams, N, N).filter(keep)
        bad = [m for (m, _, _) in A.terms if not m or max(m) <= 0]
        recs.append(InstanceRecord(
            {"check": "vacuum", "k": k},
            "pass" if not bad else "fail", max(len(A.terms), 1),
            "every term has an annihilation mode", str(bad) if bad else ""))
        dA = s_derive(A, keep, N, N, include_k=False)
        recs.append(_universal_record(dA, {"check": "derivation", "k": k}))
        pos = _sound_pos(N, 0, -1)
        meas = series_bracket(fams, heis_families(-1), pos, N)
        rhs = series_to_smeared(apow_families(-1, k), pos, N).scaled(
            Q(1, factorial(k)))
        recs.append(_universal_record(
            meas - rhs, {"check": "transfer-pin", "k": k}))
    if not mut:
        recs.extend(_thm46_spots(spec))
    return recs


def _thm46_spots(spec):
    recs = []
    for rname in ("k3", "abelian"):
        if spec.surface and spec.surface != rname:
            continue
        ring = builtin_ring(rname)
        states = _action_states(ring, 3)
        pairs = _probe(ring)
        checks = 0
        fail = None
        for k in (2, 3):
            gk = chern(ring, k, ring.unit, 4)
            for nb, b in pairs[:3]:
                am = heisenberg(ring, -1, b, 5)
                inner = heisenberg(ring, -1, b, 5)
                for s in states:
                    v = _vec(ring, s, 5)
                    lhs = commutator_action(gk, am, v)
                    rhs = _iter_deriv(inner, k, v).scale(Q(1, factorial(k)))
                    checks += 1
                    if lhs != rhs and fail is None:
                        fail = _vector_fail(
                            {"check": "action", "surface": rname, "k": k},
                            lhs, rhs, s, ring, {"b": nb})
        recs.append(fail or InstanceRecord(
            {"check": "action", "surface": rname}, "pass", checks))
    return recs


# -- cor48: creation-only expansion of character classes -------------------


def _run_cor48(spec, mut):
    """Character classes G_k(c, n) by operator action and by the closed
    creation expansion agree for every basis class on K-trivial surfaces.

    Mutation euler-shift: the closed Euler weight (j+1+s-2) gains +1.
    """
    nmax = _bound(spec, "n_max", 4)
    recs = []
    rings = _rings(spec, ("abelian", "k3"))
    if mut:
        rings = [builtin_ring("k3")]
        nmax = min(nmax, 3)
    for ring in rings:
        for n in range(nmax + 1):
            for k in range(n):
                checks = 0
                fail = None
                for na, a in _probe(ring, "all"):
                    via_op = chern_class(ring, k, a, n)
                    via_closed = chern_class_closed(ring, k, a, n)
                    if mut:
                        via_closed = via_closed + _cor48_mut_extra(
                            ring, k, a, n)
                    checks += 1
                    if via_op != via_closed and fail is None:
                        fail = InstanceRecord(
                            {"surface": ring.name, "n": n, "k": k,
                             "a": na},
                            "fail", 1, via_op.render(),
                            via_closed.render())
                if fail:
                    fail.checks = checks
                    recs.append(fail)
                else:
                    recs.append(InstanceRecord(
                        {"surface": ring.name, "n": n, "k": k},
                        "pass", checks))
    return recs


def _cor48_mut_extra(ring, k, a, n):
    """The documented mutation: +1 inside the closed Euler weight."""
    out = FockVector(ring, n)
    ea = ring.e * a
    if ea.is_zero():
        return out
    unit_op = heisenberg(ring, -1, ring.unit, n)
    for j in range(k + 1):
        r = n - j - 1
        if r < 0:
            continue
        for lam in enumerate_ordinary(j + 1, k - j - 1):
            coeff = Q((-1) ** (j + 1),
                      24 * lam.mult_factorial * factorial(j + 1))
            vec = monomial(ring, lam.negate(), ea, n).apply(vacuum(ring, n))
            for _ in range(r):
                vec = unit_op.apply(vec)
            out = out + vec.scale(coeff / factorial(r))
    return out


# -- rmk410: surface-independent intersection numbers ----------------------


def _k_multisets(n):
    """Nonincreasing k-tuples with sum (k_i + 2) = 2n."""
    out = []

    def rec(remaining, maxk, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for k in range(min(maxk, remaining - 2), -1, -1):
            rec(remaining - (k + 2), k, acc + [k])

    rec(2 * n, 2 * n, [])
    return out


def _closed_number_mut(ks, n):
    """Closed value with the documented sign mutation (-1)^j -> (-1)^{j+1}."""
    from itertools import product as iproduct
    total = Q(0)
    for js in iproduct(*(range(k + 1) for k in ks)):
        if sum(j + 1 for j in js) != n:
            continue
        value = Q(1)
        for k, j in zip(ks, js):
            part = Q(0)
            for lam in enumerate_ordinary(j + 1, k - j + 1):
                part += Q((-1) ** (j + 1),
                          lam.mult_factorial * factorial(j + 1))
            value *= part
            if not value:
                break
        total += value
    return total


_RMK410_SPOTS = (((0,), 1, Q(1)), ((2,), 2, Q(-1, 4)), ((0, 0), 2, Q(1)))


def _run_rmk410(spec, mut):
    """Integrals of products of point-smeared character classes agree
    across all surfaces and match the closed combinatorial value.

    Mutation sign-flip: the closed per-factor sign (-1)^j flips.
    """
    nmax = _bound(spec, "n_max", 4)
    recs = []
    rings = _rings(spec, SURFACE_NAMES)
    if mut:
        nmax = min(nmax, 2)
        rings = rings[:2]
    for n in range(1, nmax + 1):
        for ks in _k_multisets(n):
            oracle = (_closed_number_mut(ks, n) if mut
                      else intersection_number_closed(ks, n))
            vals = [(r.name, intersection_number(r, ks, n)) for r in rings]
            ok = all(v == oracle for _, v in vals)
            recs.append(InstanceRecord(
                {"n": n, "ks": ",".join(map(str, ks))},
                "pass" if ok else "fail", len(vals), str(oracle),
                "; ".join("%s=%s" % (nm, v) for nm, v in vals)))
    for ks, n, frozen in _RMK410_SPOTS:
        if n > nmax:
            continue
        oracle = (_closed_number_mut(ks, n) if mut
                  else intersection_number_closed(ks, n))
        recs.append(InstanceRecord(
            {"check": "frozen", "n": n, "ks": ",".join(map(str, ks))},
            "pass" if oracle == frozen else "fail", 1, str(frozen),
            str(oracle)))
    return recs


# -- def51-ids: W-generator identifications --------------------------------


def _jay_families_mut(p, n, mut):
    fams = [Family(p + 1, n,
                   lambda parts, mf, ws, p=p: Q(-factorial(p), mf))]
    shift = 1 if mut else 0
    if p - 1 >= 1:
        fams.append(Family(
            p - 1, n,
            lambda parts, mf, ws, p=p, n=n, shift=shift:
            Q(factorial(p) * (ws + n * n - 2 - shift), 24 * mf),
            epow=1))
    return fams


def _run_def51(spec, mut):
    """Identifications of the W-generators:

    (a) J^0_n = -a_n            (b) J^1_n = L_n (independent expansion)
    (c) J^p_0 = p! G_{p-1}      (d) J^p_{-1} = -(p-th derivative of a_{-1})

    Mutation euler-shift: the J Euler weight (s+n^2-2) loses 1.
    """
    N = _cutoff(spec)
    pmax = _bound(spec, "p_max", 4)
    nmax = _bound(spec, "n_max", 3)
    recs = []
    for n in range(-nmax, nmax + 1):
        got = series_to_smeared(_jay_families_mut(0, n, mut), N, N)
        want = series_to_smeared(heis_families(n), N, N).scaled(Q(-1))
        recs.append(_universal_record(got - want, {"part": "a", "n": n}))
    for rname in ("p2", "k3"):
        if spec.surface and spec.surface != rname:
            continue
        ring = builtin_ring(rname)
        checks = 0
        fail = None
        for n in range(-2, 3):
            for na, a in _probe(ring)[:4]:
                ja = instantiate(
                    series_to_smeared(_jay_families_mut(1, n, mut), 4, 4),
                    ring, a, 4)
                ln = quadratic_sum(ring, n, a, 4)
                checks += 1
                if not ja.equal_terms(ln) and fail is None:
                    fail = InstanceRecord(
                        {"part": "b", "surface": rname, "n": n, "a": na},
                        "fail", 1, ln.render(), ja.render())
        if fail:
            fail.checks = checks
            recs.append(fail)
        else:
            recs.append(InstanceRecord(
                {"part": "b", "surface": rname}, "pass", checks))
    for p in range(1, pmax + 1):
        got = series_to_smeared(_jay_families_mut(p, 0, mut), N, N)
        want = chern_smeared(p - 1, N, N).scaled(Q(factorial(p)))
        recs.append(_universal_record(got - want, {"part": "c", "p": p}))
        got = series_to_smeared(_jay_families_mut(p, -1, mut), N, N)
        want = series_to_smeared(apow_families(-1, p), N, N).scaled(Q(-1))
        recs.append(_universal_record(got - want, {"part": "d", "p": p}))
    if not mut:
        ring = builtin_ring("k3")
        states = _action_states(ring, 2)
        checks = 0
        fail = None
        for p in range(4):
            for na, a in _probe(ring)[:3]:
                jp = jay(ring, p, -1, a, 4)
                inner = heisenberg(ring, -1, a, 4)
                for s in states:
                    v = _vec(ring, s, 4)
                    lhs = jp.apply(v)
                    rhs = _iter_deriv(inner, p, v).scale(Q(-1))
                    checks += 1
                    if lhs != rhs and fail is None:
                        fail = _vector_fail(
                            {"part": "d-action", "surface": "k3", "p": p},
                            lhs, rhs, s, ring, {"a": na})
        recs.append(fail or InstanceRecord(
            {"part": "d-action", "surface": "k3"}, "pass", checks))
    return recs


# -- lem52: character-transfer bracket gives W-generators ------------------


def _run_lem52(spec, mut):
    """[G_p(a), a_n(b)] = (n/p!) J^p_n(ab).

    Mutation rhs-scale: the factor n/p! becomes (n+1)/p!.
    """
    N = _cutoff(spec)
    pmax = _bound(spec, "p_max", 4)
    nmax = _bound(spec, "n_max", 3)
    recs = []
    for p in range(pmax + 1):
        for n in range(-nmax, nmax + 1):
            pos = _sound_pos(N, 0, n)
            meas = series_bracket(chern_families(p), heis_families(n),
                                  pos, N)
            scale = Q(n + (1 if mut else 0), factorial(p))
            rhs = series_to_smeared(jay_families(p, n), pos, N).scaled(scale)
            recs.append(_universal_record(
                meas - rhs, {"check": "universal", "p": p, "n": n}))
    if not mut:
        recs.extend(_lem52_spots(spec))
    return recs


def _lem52_spots(spec):
    recs = []
    for rname in ("k3", "p1xp1"):
        if spec.surface and spec.surface != rname:
            continue
        ring = builtin_ring(rname)
        kfree = _ktrivial(ring, _probe(ring))
        others = _probe(ring)[:3]
        states = _action_states(ring, 2)
        checks = 0
        fail = None
        for p in range(3):
            for n in (-2, -1, 1, 2):
                big = 2 + abs(n) + 1
                for na, a in kfree[:3]:
                    gp = chern(ring, p, a, big)
                    for nb, b in others:
                        an = heisenberg(ring, n, b, big)
                        jp = jay(ring, p, n, a * b, big)
                        for s in states:
                            v = _vec(ring, s, big)
                            lhs = commutator_action(gp, an, v)
                            rhs = jp.apply(v).scale(Q(n, factorial(p)))
                            checks += 1
                            if lhs != rhs and fail is None:
                                fail = _vector_fail(
                                    {"check": "action", "surface": rname,
                                     "p": p, "n": n}, lhs, rhs, s, ring,
                                    {"a": na, "b": nb})
        recs.append(fail or InstanceRecord(
            {"check": "action", "surface": rname}, "pass", checks))
    return recs


# -- lem53: W-generators as field monomial components ----------------------


def _run_lem53(spec, mut):
    """J^p_m equals its normally ordered field expression term by term:

        -1/(p+1) :a^{p+1}:_m + p(m^2-3m-2p)/24 :a^{p-1}:_m (Euler)
        + p(p-1)/24 :(d^2 a) a^{p-2}:_m (Euler).

    Mutation field-coeff-shift: the middle coefficient gains p/24.
    """
    N = _cutoff(spec)
    pmax = _bound(spec, "p_max", 4)
    mmax = _bound(spec, "m_max", 3)
    recs = []
    for p in range(pmax + 1):
        for m in range(-mmax, mmax + 1):
            A = jay_smeared(p, m, N, N)
            B = jay_via_fields_smeared(p, m, N, N)
            if mut and p >= 1:
                extra = series_to_smeared(
                    fourier_families(FourierSpec((0,) * (p - 1), m)), N, N)
                B = B + extra.shift_euler().scaled(Q(p, 24))
            recs.append(_universal_record(A - B, {"p": p, "m": m}))
    if not mut:
        ring = builtin_ring("p2")
        checks = 0
        fail = None
        for m in range(-2, 3):
            for na, a in _probe(ring):
                f2 = fourier(ring, FourierSpec((0, 0), m), a, 5)
                l2 = quadratic_sum(ring, m, a, 5).scaled(Q(-2))
                checks += 1
                if not f2.equal_terms(l2) and fail is None:
                    fail = InstanceRecord(
                        {"check": "square-field", "m": m, "a": na},
                        "fail", 1, l2.render(), f2.render())
        if fail:
            fail.checks = checks
            recs.append(fail)
        else:
            recs.append(InstanceRecord(
                {"check": "square-field", "surface": "p2"}, "pass", checks))
    return recs


# -- thm55: the full W-algebra bracket -------------------------------------


def _thm55_expected(p, q, m, n, pos, neg, mut):
    exp = SmearedOp()
    if (p, q) == (0, 0):
        if m == -n and m != 0:
            exp.add(((), 0, 0), Q(-m))
        return exp
    lin = Q(q * m - p * n)
    if lin and p + q - 1 >= 0:
        exp.merge(series_to_smeared(jay_families(p + q - 1, m + n),
                                    pos, neg), lin)
    om = omega(p, q, m, n)
    if mut:
        om = -om
    if om and p + q - 3 >= 0:
        exp.merge(series_to_smeared(jay_families(p + q - 3, m + n),
                                    pos, neg).shift_euler(), Q(-om, 12))
    if m == -n and m != 0:
        if (p, q) == (2, 0):
            exp.add(((), 1, 0), Q(m ** 3 - m, 6))
        elif (p, q) == (0, 2):
            exp.add(((), 1, 0), Q(-(n ** 3 - n), 6))
        elif (p, q) == (1, 1):
            exp.add(((), 1, 0), Q(m ** 3 - m, 12))
    return exp


def _thm55_cell(args):
    p, q, m, n, N, mut = args
    pos = _sound_pos(N, m, n)
    meas = series_bracket(jay_families(p, m), jay_families(q, n), pos, N)
    exp = _thm55_expected(p, q, m, n, pos, N, mut)
    return (p, q, m, n), (meas - exp).terms


def pool_size(jobs):
    """Worker processes for --jobs: jobs, clamped to 1..CPU count."""
    return max(1, min(jobs, os.cpu_count() or 1))


def _run_thm55(spec, mut):
    """[J^p_m(a), J^q_n(b)] = (qm-pn) J^{p+q-1}_{m+n}(ab)
                              - (Omega(p,q,m,n)/12) J^{p+q-3}_{m+n}(e a b)

    plus the low-weight exceptional central terms.  Universal residuals
    per cell, instantiation sweeps per surface, explicit central values,
    and action spot checks on states.

    Mutation omega-negated: the structure polynomial flips sign.
    """
    N = _cutoff(spec)
    pqmax = _bound(spec, "pq_max", 6)
    mmax = _bound(spec, "m_max", 3)
    rings = _rings(spec, ("abelian", "k3", "p2"))
    if mut:
        pqmax = min(pqmax, 3)
        mmax = min(mmax, 1)
        rings = rings[:1]
    cells = [(p, q, m, n, N, mut)
             for p in range(pqmax + 1)
             for q in range(pqmax + 1 - p)
             for m in range(-mmax, mmax + 1)
             for n in range(-mmax, mmax + 1)]
    workers = pool_size(spec.jobs)
    if workers > 1:
        with Pool(workers) as pool:
            results = pool.map(_thm55_cell, cells, chunksize=16)
    else:
        results = [_thm55_cell(c) for c in cells]
    recs = []
    ring_pairs = [(r, _probe(r, spec.classes or "named")) for r in rings]
    for (p, q, m, n), terms in results:
        delta = SmearedOp(terms)
        recs.append(_universal_record(
            delta, {"check": "universal", "p": p, "q": q, "m": m, "n": n}))
        for ring, pairs in ring_pairs:
            recs.append(_sweep_record(
                delta, ring, pairs,
                {"check": "instantiate", "p": p, "q": q, "m": m, "n": n}))
    recs.extend(_thm55_centrals(spec, mut, N, mmax))
    if not mut:
        recs.extend(_thm55_spots(spec, N))
    return recs


def _thm55_centrals(spec, mut, N, mmax):
    """Explicit central values on the K3 model."""
    if spec.surface and spec.surface != "k3":
        return []
    ring = builtin_ring("k3")
    u1, u2 = ring.basis("u1"), ring.basis("u2")
    recs = []
    cases = [(0, 0), (1, 1), (2, 0), (0, 2)]
    for p, q in cases:
        for m in range(1, mmax + 1):
            n = -m
            pos = _sound_pos(N, m, n)
            meas = series_bracket(jay_families(p, m), jay_families(q, n),
                                  pos, N)
            if (p, q) == (0, 0):
                got = Q(0)
                for (modes, ep, kp), c in meas.terms.items():
                    if not modes and not ep and not kp:
                        got += c * ring.integrate(u1 * u2)
                want = Q(-m)
                label = "-m * integral(ab)"
            else:
                got = Q(0)
                for (modes, ep, kp), c in meas.terms.items():
                    if modes or kp:
                        continue
                    got += c * ring.integrate(ring.e if ep else ring.unit)
                if (p, q) == (1, 1):
                    want = Q(m ** 3 - m, 12) * 24
                    label = "(m^3-m)/12 * integral(e)"
                else:
                    want = Q(m ** 3 - m, 6) * 24
                    label = "(m^3-m)/6 * integral(e)"
            recs.append(InstanceRecord(
                {"check": "central", "p": p, "q": q, "m": m, "label": label},
                "pass" if got == want else "fail", 1, str(want), str(got)))
    return recs


_THM55_SPOT_CELLS = ((1, 1, 1, -1), (2, 1, 1, -1), (2, 1, 2, -1),
                     (0, 3, 1, 1), (2, 2, 1, -1), (3, 0, 1, -1))


def _thm55_spots(spec, N):
    recs = []
    for rname in ("k3", "abelian", "p2"):
        if spec.surface and spec.surface != rname:
            continue
        ring = builtin_ring(rname)
        if rname == "k3":
            cpairs = [("1", "1"), ("u1", "u2"), ("1", "x")]
        elif rname == "abelian":
            cpairs = [("1", "1"), ("t1", "t2"), ("t1", "t234"),
                      ("t12", "t34")]
        else:
            cpairs = [("1", "1"), ("H", "H"), ("1", "x")]
        allst = _action_states(ring, 2)
        states = ([allst[0]]
                  + [s for s in allst if weight(s) == 1][:2]
                  + [s for s in allst if weight(s) == 2][:4])
        checks = 0
        fail = None
        for p, q, m, n in _THM55_SPOT_CELLS:
            pos = _sound_pos(N, m, n)
            exp = _thm55_expected(p, q, m, n, pos, N, False)
            for ca, cb in cpairs:
                a, b = ring.basis(ca), ring.basis(cb)
                wtop = max(weight(s) for s in states)
                big = wtop + abs(m) + abs(n)
                ja = jay(ring, p, m, a, big)
                jb = jay(ring, q, n, b, big)
                rhs_op = instantiate(exp, ring, a * b, big)
                for s in states:
                    v = _vec(ring, s, big)
                    lhs = commutator_action(ja, jb, v)
                    rhs = rhs_op.apply(v)
                    checks += 1
                    if lhs != rhs and fail is None:
                        fail = _vector_fail(
                            {"check": "action", "surface": rname, "p": p,
                             "q": q, "m": m, "n": n}, lhs, rhs, s, ring,
                            {"a": ca, "b": cb})
        recs.append(fail or InstanceRecord(
            {"check": "action", "surface": rname}, "pass", checks))
    return recs


# -- rmk56: derivative of W-generators -------------------------------------


def _run_rmk56(spec, mut):
    """(J^p_n)' = -n J^{p+1}_n - ((n^3-n) p / 12) J^{p-1}_n(e c), p >= 1,
    modulo K (grounded with full K on explicit states).

    Mutation central-scale: the factor 1/12 becomes 1/6.
    """
    N = _cutoff(spec)
    pmax = _bound(spec, "p_max", 3)
    nmax = _bound(spec, "n_max", 2)
    keep = diamond_keep(N)
    recs = []
    for p in range(1, pmax + 1):
        for n in range(-nmax, nmax + 1):
            A = series_to_smeared(jay_families(p, n), N, N).filter(keep)
            dA = s_derive(A, keep, N, N, include_k=False)
            rhs = series_to_smeared(jay_families(p + 1, n), N, N)
            rhs = rhs.filter(keep).scaled(Q(-n))
            cc = Q(-(n ** 3 - n) * p, 6 if mut else 12)
            if cc and p - 1 >= 0:
                rhs = rhs + series_to_smeared(
                    jay_families(p - 1, n), N, N).shift_euler().filter(
                        keep).scaled(cc)
            recs.append(_universal_record(
                dA - rhs, {"check": "universal", "p": p, "n": n}))
    if not mut:
        recs.extend(_rmk56_spots(spec))
    return recs


def _rmk56_spots(spec):
    if spec.surface and spec.surface != "k3":
        return []
    ring = builtin_ring("k3")
    states = _action_states(ring, 2)[:6]
    recs = []
    checks = 0
    fail = None
    for p in range(1, 4):
        for n in (-2, -1, 1, 2):
            big = 2 + abs(n) + 1
            for na, a in _probe(ring)[:3]:
                jp = jay(ring, p, n, a, big)
                jup = jay(ring, p + 1, n, a, big)
                jdown = jay(ring, p - 1, n, ring.e * a, big)
                cc = Q(-(n ** 3 - n) * p, 12)
                for s in states:
                    v = _vec(ring, s, big)
                    lhs = derivation_apply(jp.apply(v)) - jp.apply(
                        derivation_apply(v))
                    rhs = jup.apply(v).scale(Q(-n)) + jdown.apply(v).scale(cc)
                    checks += 1
                    if lhs != rhs and fail is None:
                        fail = _vector_fail(
                            {"check": "action", "surface": "k3", "p": p,
                             "n": n}, lhs, rhs, s, ring, {"a": na})
    recs.append(fail or InstanceRecord(
        {"check": "action", "surface": "k3"}, "pass", checks))
    return recs


# -- thm57: isomorphism with the abstract W-algebra ------------------------


def _run_thm57(spec, mut):
    """On a surface with K = e = 0 the generators realize the abstract
    W-algebra: restricted to untagged terms,

        [J^p_m(a), J^q_n(b)] = (qm-pn) J^{p+q-1}_{m+n}(ab)

    with the trace central term m delta_{m,-n} (-integral(ab)) at
    p = q = 0; cross-checked against the symbolic bracket and grounded on
    odd classes of the abelian model.

    Mutation linear-shift: the factor (qm-pn) gains +1.
    """
    N = _cutoff(spec)
    pqmax = _bound(spec, "pq_max", 5)
    mmax = _bound(spec, "m_max", 3)
    recs = []
    if mut:
        pqmax = min(pqmax, 2)
        mmax = min(mmax, 1)
    for p in range(pqmax + 1):
        for q in range(pqmax + 1 - p):
            for m in range(-mmax, mmax + 1):
                for n in range(-mmax, mmax + 1):
                    pos = _sound_pos(N, m, n)
                    meas = series_bracket(
                        [f for f in jay_families(p, m) if not f.epow],
                        [f for f in jay_families(q, n) if not f.epow],
                        pos, N)
                    exp = SmearedOp()
                    if (p, q) == (0, 0):
                        if m == -n and m != 0:
                            exp.add(((), 0, 0), Q(-m))
                    else:
                        lin = Q(q * m - p * n + (1 if mut else 0))
                        if lin:
                            exp.merge(series_to_smeared(
                                [f for f in jay_families(p + q - 1, m + n)
                                 if not f.epow], pos, N), lin)
                    delta = SmearedOp(
                        {k: c for k, c in (meas - exp).terms.items()
                         if not k[1] and not k[2]})
                    recs.append(_universal_record(
                        delta, {"check": "universal", "p": p, "q": q,
                                "m": m, "n": n}))
    ring = builtin_ring("abelian")
    recs.append(_thm57_symbolic(ring, mmax))
    if not mut:
        recs.extend(_thm57_spots(ring))
    return recs


def _thm57_symbolic(ring, mmax):
    """The symbolic W-algebra bracket against the measured constants."""
    checks = 0
    fail = None
    cls = [("1", ring.unit), ("t1", ring.basis("t1")),
           ("t234", ring.basis("t234")), ("t12", ring.basis("t12"))]
    for p in range(3):
        for q in range(3):
            for m in (-2, 0, 1):
                for n in (-1, 1, 2):
                    for ca, a in cls:
                        for cb, b in cls:
                            got = wbracket(ring, {wkey(p, m, a): Q(1)},
                                           {wkey(q, n, b): Q(1)})
                            ab = a * b
                            want = {}
                            if p == 0 and q == 0:
                                if m == -n and m != 0:
                                    c = Q(m) * -ring.integrate(ab)
                                    if c:
                                        want[CENTRAL] = c
                            elif not ab.is_zero():
                                want = wterm(p + q - 1, m + n, ab,
                                             Q(q * m - p * n))
                            checks += 1
                            if got != want and fail is None:
                                fail = InstanceRecord(
                                    {"check": "symbolic", "p": p, "q": q,
                                     "m": m, "n": n, "a": ca, "b": cb},
                                    "fail", 1, str(want), str(got))
    if fail:
        fail.checks = checks
        return fail
    return InstanceRecord({"check": "symbolic"}, "pass", checks)


def _thm57_spots(ring):
    """Action checks on the abelian model, including odd classes."""
    recs = []
    states = _action_states(ring, 1)
    cpairs = [("1", "1"), ("t1", "t2"), ("t1", "t234"), ("t12", "t34"),
              ("t123", "t4")]
    checks = 0
    fail = None
    for p, q in ((0, 0), (1, 0), (1, 1), (2, 1)):
        for m, n in ((1, -1), (1, 1), (-1, -1), (2, -1)):
            big = 1 + abs(m) + abs(n)
            for ca, cb in cpairs:
                a, b = ring.basis(ca), ring.basis(cb)
                ja = jay(ring, p, m, a, big)
                jb = jay(ring, q, n, b, big)
                ab = a * b
                rhs_parts = []
                if (p, q) == (0, 0):
                    cc = Q(-m) * ring.integrate(ab) if m == -n else Q(0)
                else:
                    cc = Q(0)
                lin = Q(q * m - p * n)
                jt = (jay(ring, p + q - 1, m + n, ab, big)
                      if (p, q) != (0, 0) and lin and not ab.is_zero()
                      else None)
                for s in states:
                    v = _vec(ring, s, big)
                    lhs = commutator_action(ja, jb, v)
                    rhs = v.scale(cc)
                    if jt is not None:
                        rhs = rhs + jt.apply(v).scale(lin)
                    checks += 1
                    if lhs != rhs and fail is None:
                        fail = _vector_fail(
                            {"check": "action", "surface": "abelian",
                             "p": p, "q": q, "m": m, "n": n},
                            lhs, rhs, s, ring, {"a": ca, "b": cb})
    recs.append(fail or InstanceRecord(
        {"check": "action", "surface": "abelian"}, "pass", checks))
    return recs


# -- lem61: derivative identities of field monomials -----------------------


_F_CACHE = {}


def _F(orders, m, B):
    key = (tuple(orders), m, B)
    if key not in _F_CACHE:
        _F_CACHE[key] = series_to_smeared(
            fourier_families(FourierSpec(key[0], m)), B, B)
    return _F_CACHE[key]


def _run_lem61(spec, mut):
    """Five derivative identities of normally ordered field monomials,
    compared as component term lists; N is the number of underived
    factors and the component scalars are products of (-m - weight - s).

    Mutation coeff-shift: the 6 C(N,2) coefficient becomes 5 C(N,2).
    """
    B = _cutoff(spec, 5)
    nfmax = _bound(spec, "n_max", 4)
    mmax = _bound(spec, "m_max", 3)
    recs = []
    six = 5 if mut else 6
    for Nf in range(nfmax + 1):
        for m in range(-mmax, mmax + 1):
            z = (0,) * Nf
            s1 = Q(-m - Nf)
            s2 = Q(-m - Nf - 1)
            s3 = Q(-m - Nf - 2)
            lhs = _F(z, m, B).scaled(s1 * s2)
            rhs = SmearedOp()
            if Nf >= 1:
                rhs.merge(_F((2,) + z[1:], m, B), Q(Nf))
            if Nf >= 2:
                rhs.merge(_F((1, 1) + z[2:], m, B), Q(Nf * (Nf - 1)))
            recs.append(_universal_record(
                lhs - rhs, {"identity": "i", "N": Nf, "m": m}))
            lhs = _F(z, m, B).scaled(s1 * s2 * s3)
            rhs = SmearedOp()
            if Nf >= 1:
                rhs.merge(_F((3,) + z[1:], m, B), Q(Nf))
            if Nf >= 2:
                rhs.merge(_F((1, 2) + z[2:], m, B), Q(six * comb(Nf, 2)))
            if Nf >= 3:
                rhs.merge(_F((1, 1, 1) + z[3:], m, B), Q(6 * comb(Nf, 3)))
            recs.append(_universal_record(
                lhs - rhs, {"identity": "ii", "N": Nf, "m": m}))
            lhs = _F((2,) + z, m, B).scaled(Q(-m - Nf - 3))
            rhs = SmearedOp()
            rhs.merge(_F((3,) + z, m, B), Q(1))
            if Nf >= 1:
                rhs.merge(_F((1, 2) + z[1:], m, B), Q(Nf))
            recs.append(_universal_record(
                lhs - rhs, {"identity": "iii", "N": Nf, "m": m}))
            lhs = _F((1, 1) + z, m, B).scaled(Q(-m - Nf - 4))
            rhs = SmearedOp()
            rhs.merge(_F((1, 2) + z, m, B), Q(2))
            if Nf >= 1:
                rhs.merge(_F((1, 1, 1) + z[1:], m, B), Q(Nf))
            recs.append(_universal_record(
                lhs - rhs, {"identity": "iv", "N": Nf, "m": m}))
            lhs = _F(z, m, B).scaled(s1 * s2 * s3)
            rhs = SmearedOp()
            if Nf >= 1:
                rhs.merge(_F((2,) + z[1:], m, B),
                          Q(3 * Nf) * Q(-m - Nf - 2))
                rhs.merge(_F((3,) + z[1:], m, B), Q(-2 * Nf))
            if Nf >= 3:
                rhs.merge(_F((1, 1, 1) + z[3:], m, B), Q(6 * comb(Nf, 3)))
            recs.append(_universal_record(
                lhs - rhs, {"identity": "v", "N": Nf, "m": m}))
    return recs


# -- eq22: the abstract W-algebra ------------------------------------------


def _run_eq22(spec, mut):
    """Antisymmetry and the Jacobi identity of the symbolic bracket, and
    the trace convention trace = -integral against the measured
    transfer-operator central term.

    Mutation central-shift: the central factor m becomes m + 1.
    """
    pmax = _bound(spec, "p_max", 2)
    mmax = _bound(spec, "m_max", 2)
    recs = []
    rings = _rings(spec, ("abelian", "k3"))
    if mut:
        pmax = min(pmax, 1)
        rings = rings[:1]
    for ring in rings:
        if ring.name == "abelian":
            cls = [("1", ring.unit), ("t1", ring.basis("t1")),
                   ("t234", ring.basis("t234")), ("t12", ring.basis("t12"))]
        else:
            cls = [("1", ring.unit), ("u1", ring.basis("u1")),
                   ("u2", ring.basis("u2")), ("x", ring.basis("x"))]
        singles = [(p, m, cn, c)
                   for p in range(pmax + 1)
                   for m in range(-mmax, mmax + 1)
                   for cn, c in cls]

        def brk(x, y):
            out = wbracket(ring, x, y)
            if mut:
                for kx in x:
                    for ky in y:
                        if (kx != CENTRAL and ky != CENTRAL
                                and kx[1] == 0 and ky[1] == 0
                                and kx[2] == -ky[2] and kx[2] != 0):
                            tr = -ring.integrate(RingElem(ring, kx[3])
                                                 * RingElem(ring, ky[3]))
                            c = tr * x[kx] * y[ky]
                            if c:
                                out[CENTRAL] = out.get(CENTRAL, Q(0)) + c
            return {k: v for k, v in out.items() if v}

        checks = 0
        fail = None
        for p, m, cn, c in singles:
            x = {wkey(p, m, c): Q(1)}
            px = wparity(ring, x)
            for q, n, dn, d in singles:
                y = {wkey(q, n, d): Q(1)}
                py = wparity(ring, y)
                sign = Q(-1) if (px and py) else Q(1)
                lhs = brk(x, y)
                rhs = {k: -sign * v for k, v in brk(y, x).items()}
                rhs = {k: v for k, v in rhs.items() if v}
                checks += 1
                if lhs != rhs and fail is None:
                    fail = InstanceRecord(
                        {"check": "antisymmetry", "surface": ring.name,
                         "x": "J(%d,%d;%s)" % (p, m, cn),
                         "y": "J(%d,%d;%s)" % (q, n, dn)},
                        "fail", 1, str(rhs), str(lhs))
        recs.append(fail or InstanceRecord(
            {"check": "antisymmetry", "surface": ring.name},
            "pass", checks))
        if mut:
            continue
        checks = 0
        fail = None
        sub = [s for s in singles if s[1] in (-2, 0, 1) and s[2] in
               (cls[0][0], cls[1][0], cls[2][0])]
        for p, m, cn, c in sub:
            x = {wkey(p, m, c): Q(1)}
            px = wparity(ring, x)
            for q, n, dn, d in sub:
                y = {wkey(q, n, d): Q(1)}
                py = wparity(ring, y)
                for r, s_, en, e in sub:
                    z = {wkey(r, s_, e): Q(1)}
                    lhs = brk(x, brk(y, z))
                    t1 = brk(brk(x, y), z)
                    t2 = brk(y, brk(x, z))
                    sign = Q(-1) if (px and py) else Q(1)
                    rhs = dict(t1)
                    for k, v in t2.items():
                        rhs[k] = rhs.get(k, Q(0)) + sign * v
                    rhs = {k: v for k, v in rhs.items() if v}
                    checks += 1
                    if lhs != rhs and fail is None:
                        fail = InstanceRecord(
                            {"check": "jacobi", "surface": ring.name,
                             "x": "J(%d,%d;%s)" % (p, m, cn),
                             "y": "J(%d,%d;%s)" % (q, n, dn),
                             "z": "J(%d,%d;%s)" % (r, s_, en)},
                            "fail", 1, str(rhs), str(lhs))
        recs.append(fail or InstanceRecord(
            {"check": "jacobi", "surface": ring.name}, "pass", checks))
    checks = 0
    fail = None
    ring = rings[0]
    for m in (1, 2, 3):
        meas = series_bracket(heis_families(m), heis_families(-m), 4, 4)
        got = meas.terms.get(((), 0, 0), Q(0))
        want = Q(-m)
        checks += 1
        if got != want and fail is None:
            fail = InstanceRecord(
                {"check": "trace-bridge", "m": m}, "fail", 1,
                str(want), str(got))
    recs.append(fail or InstanceRecord(
        {"check": "trace-bridge"}, "pass", checks))
    return recs


# -- registry and reports --------------------------------------------------


SUITES = {
    "heis": (_run_heis, "transfer operator commutation relations on "
             "basis states of every surface model", "central-shift"),
    "vir": (_run_vir, "Virasoro bracket of the quadratic series with the "
            "Euler-class central term", "central-shift"),
    "thm31": (_run_thm31, "mixed Virasoro-transfer brackets, the "
              "derivative replacement rule, and the character pin",
              "canonical-shift"),
    "lem32": (_run_lem32, "smeared calculus rules against ground-truth "
              "operator composition", "euler-sign"),
    "thm42": (_run_thm42, "closed partition expansion of iterated "
              "derivatives of transfer operators", "euler-shift"),
    "rmk43": (_run_rmk43, "derivative closure of the d-shifted partition "
              "families, including n = 0", "shift-term"),
    "thm46-unique": (_run_thm46, "characterization of the character "
                     "series: vacuum, derivation invariance, transfer "
                     "pin", "euler-shift"),
    "cor48": (_run_cor48, "creation-only expansion of character classes "
              "against the operator route", "euler-shift"),
    "rmk410": (_run_rmk410, "surface-independent intersection numbers of "
               "character classes, dual route", "sign-flip"),
    "def51-ids": (_run_def51, "W-generator identifications at weights "
                  "0, 1 and modes 0, -1", "euler-shift"),
    "lem52": (_run_lem52, "character-transfer bracket producing "
              "W-generators", "rhs-scale"),
    "lem53": (_run_lem53, "W-generators as Fourier components of field "
              "monomials, term by term", "field-coeff-shift"),
    "thm55": (_run_thm55, "full W-algebra bracket: linear term, "
              "structure polynomial, central terms", "omega-negated"),
    "rmk56": (_run_rmk56, "derivative of W-generators raising the "
              "weight", "central-scale"),
    "thm57": (_run_thm57, "isomorphism with the abstract W-algebra on "
              "trivial-canonical trivial-Euler surfaces", "linear-shift"),
    "lem61": (_run_lem61, "derivative identities of normally ordered "
              "field monomials", "coeff-shift"),
    "eq22": (_run_eq22, "abstract W-algebra: antisymmetry, Jacobi, trace "
             "central term", "central-shift"),
}


def list_suites():
    return [{"suite": name, "description": desc, "mutation": mlabel}
            for name, (_, desc, mlabel) in sorted(SUITES.items())]


def run_suite(spec):
    if spec.suite not in SUITES:
        raise ValueError("unknown suite %r (choose from %s)"
                         % (spec.suite, ", ".join(sorted(SUITES))))
    runner, _, mlabel = SUITES[spec.suite]
    mut = False
    if spec.mutation:
        if spec.mutation != mlabel:
            raise ValueError("suite %s supports only mutation %r"
                             % (spec.suite, mlabel))
        mut = True
    t0 = time.perf_counter()
    records = runner(spec, mut)
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
