"""Suite registry, run plumbing, and report serialization."""

import ast
import hashlib
import json
import re
import subprocess
import sys
from fractions import Fraction
from functools import cache, partial
from itertools import product
from math import factorial
from pathlib import Path

import pytest

from hilbfock import operators, verify, walgebra
from hilbfock.fock import (basis_states, combine, render_state,
                           render_terms)
from hilbfock.operators import (SmearedOp, combined, encode, series_bracket,
                                series_to_smeared)
from hilbfock.ring import SURFACE_NAMES, builtin_ring
from hilbfock.verify import (InstanceRecord, SUITES, SuiteSpec, _sound_pos,
                             VerificationReport, list_suites, report_lines,
                             run_suite, serialize_report)
from test_acceptance import MUTATED_SHA256, REPORT_SHA256, report_sha256
from test_operators import box_keep, cut, diamond
from test_report_digests import clear_process_caches

SUITE_NAMES = ("cor48", "def51-ids", "eq22", "heis", "lem32", "lem52",
               "lem53", "lem61", "rmk410", "rmk43", "rmk56", "thm31",
               "thm42", "thm46-unique", "thm55", "thm57", "vir")


def test_registry_names_frozen():
    assert tuple(sorted(SUITES)) == SUITE_NAMES
    listed = list_suites()
    assert [d["suite"] for d in listed] == list(SUITE_NAMES)
    for d in listed:
        assert d["description"] and d["mutation"]


def test_small_runs_pass():
    specs = (
        SuiteSpec("rmk43", bounds={"k_max": 2, "n_max": 2}),
        SuiteSpec("lem53", bounds={"p_max": 3, "m_max": 2}),
        SuiteSpec("heis", surface="p2", bounds={"m_max": 2, "w_max": 1}),
    )
    for spec in specs:
        report = run_suite(spec)
        assert report.ok, spec.suite
        assert report.passed == len(report.records) > 0


def test_mutations_detected():
    for name in ("rmk43", "lem53", "def51-ids"):
        label = SUITES[name][2]
        report = run_suite(SuiteSpec(name, mutation=label))
        assert report.failed > 0, name
        assert not report.ok, name


def test_wrong_mutation_label_rejected():
    with pytest.raises(ValueError):
        run_suite(SuiteSpec("rmk43", mutation="euler-sign"))


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite(SuiteSpec("nope"))


def test_report_lines_structure():
    report = run_suite(SuiteSpec("lem53", bounds={"p_max": 2, "m_max": 2}))
    lines = report_lines(report)
    assert set(lines[0]) == {"header"}
    assert lines[0]["header"]["bounds"] == {"m_max": 2, "p_max": 2}
    assert set(lines[-1]) == {"summary"}
    assert lines[-1]["summary"]["instances"] == len(report.records)
    assert lines[-1]["summary"]["ok"] is True
    for line in lines[1:-1]:
        rec = line["record"]
        assert set(rec) == {"params", "status", "checks", "expected",
                            "actual"}
        assert rec["status"] == "pass"


def test_serialize_jsonl_deterministic():
    spec = SuiteSpec("rmk43", bounds={"k_max": 2, "n_max": 2})
    a = serialize_report(run_suite(spec), "jsonl")
    b = serialize_report(run_suite(spec), "jsonl")
    assert a == b
    for line in a.strip().split("\n"):
        json.loads(line)


def test_serialize_csv_header():
    report = run_suite(SuiteSpec("lem53", bounds={"p_max": 2, "m_max": 1}))
    text = serialize_report(report, "csv")
    assert text.split("\n")[0] == "suite,params,status,checks,expected,actual"


def test_serialize_human_verdict():
    report = run_suite(SuiteSpec("rmk43", bounds={"k_max": 1, "n_max": 1}))
    text = serialize_report(report, "human")
    assert text.endswith("result: PASS\n")
    label = SUITES["rmk43"][2]
    bad = run_suite(SuiteSpec("rmk43", mutation=label))
    text = serialize_report(bad, "human")
    assert "FAIL" in text and text.endswith("result: FAIL\n")


def test_serialize_unknown_format_rejected():
    report = run_suite(SuiteSpec("rmk43", bounds={"k_max": 1, "n_max": 1}))
    with pytest.raises(ValueError):
        serialize_report(report, "yaml")


def test_report_ok_semantics():
    spec = SuiteSpec("heis")
    empty = VerificationReport("heis", spec, [])
    assert not empty.ok
    good = InstanceRecord({"m": 1}, "pass")
    bad = InstanceRecord({"m": 2}, "fail", expected="0", actual="1")
    assert VerificationReport("heis", spec, [good]).ok
    mixed = VerificationReport("heis", spec, [good, bad])
    assert mixed.passed == 1 and mixed.failed == 1 and not mixed.ok


def test_negative_cutoff_rejected():
    # A negative window empties every smeared series, so no check could fail.
    with pytest.raises(ValueError, match="cutoff"):
        run_suite(SuiteSpec("rmk43", cutoff=-3, mutation="shift-term"))


def test_unknown_bound_key_rejected():
    with pytest.raises(ValueError, match="kmax.*accepts k_max, n_max"):
        run_suite(SuiteSpec("rmk43", bounds={"kmax": 1}))
    with pytest.raises(ValueError, match="accepts none"):
        run_suite(SuiteSpec("lem32", bounds={"m_max": 1}))


@pytest.mark.parametrize("spec, key", [
    (SuiteSpec("heis", surface="p2", bounds={"m_max": 1.7}), "m_max"),
    (SuiteSpec("heis", surface="p2", bounds={"m_max": "1"}), "m_max"),
    (SuiteSpec("heis", surface="p2", bounds={"m_max": True}), "m_max"),
    (SuiteSpec("lem61", cutoff=3.0), "cutoff"),
    (SuiteSpec("rmk43", cutoff=False), "cutoff"),
    (SuiteSpec("vir", bounds={"m_max": 10 ** 20}), "m_max"),
    (SuiteSpec("lem52", bounds={"n_max": 10 ** 20}), "n_max")])
def test_non_integer_bound_or_cutoff_rejected(spec, key):
    """A bound or cutoff runs as given or not at all: m_max=1.7 would run
    the m_max=1 grid under a header that names 1.7, and a bound whose
    grid -b..b holds more than sys.maxsize values cannot be built."""
    with pytest.raises(ValueError, match="^%s must be an integer" % key):
        run_suite(spec)


def test_run_without_records_rejected():
    with pytest.raises(ValueError, match="cor48 has nothing to check"):
        run_suite(SuiteSpec("cor48", bounds={"n_max": 0}))


@pytest.mark.parametrize("name,bounds", [
    ("thm55", {"pq_max": 2}), ("thm57", {"pq_max": 0}),
    ("rmk43", {"n_max": 0})])
def test_mutated_run_that_no_check_fails_rejected(name, bounds):
    """Bounds that leave the mutated term out of every check (Omega
    enters thm55 only at p + q >= 3, rmk43's shift term only at n != 0)
    would pass the mutated run; it is refused, while the plain run at
    those bounds passes."""
    mutation = SUITES[name].mutation
    with pytest.raises(ValueError, match="^suite %s passes with mutation %s: "
                       "these bounds leave the mutation nothing to change$"
                       % (name, mutation)):
        run_suite(SuiteSpec(name, bounds=bounds, mutation=mutation))
    assert run_suite(SuiteSpec(name, bounds=bounds)).ok


@pytest.mark.parametrize("mutation", ["", "central-shift"])
def test_heis_at_m_max_0_refused(mutation):
    """At m_max = 0 heis would bracket only a_0 = 0 with itself, and
    pass every check vacuously; plain and mutated runs are refused."""
    with pytest.raises(ValueError, match="^heis needs m_max of at least 1, "
                       "got 0: every check would bracket a_0 = 0 with "
                       "itself$"):
        run_suite(SuiteSpec("heis", bounds={"m_max": 0}, mutation=mutation))


# Small bounds for each suite that reads a window.
WINDOWED_BOUNDS = {
    "vir": {"m_max": 2}, "thm42": {"k_max": 2, "n_max": 2},
    "rmk43": {"k_max": 2, "n_max": 2}, "thm46-unique": {"k_max": 2},
    "def51-ids": {"p_max": 2, "n_max": 2}, "lem52": {"p_max": 2, "n_max": 2},
    "lem53": {"p_max": 2, "m_max": 2}, "thm55": {"pq_max": 3, "m_max": 2},
    "rmk56": {"p_max": 2, "n_max": 2}, "thm57": {"pq_max": 3, "m_max": 2},
    "lem61": {"n_max": 2, "m_max": 2}}


@pytest.mark.parametrize("name", sorted(
    name for name, suite in SUITES.items() if suite.window is not None))
def test_windowed_suite_passes_at_its_smallest_window(name):
    """A true identity holds on every window: each suite that reads a
    window passes at cutoff 2, or at the least cutoff a refusal names
    when a bracket needs more (vir, thm55 and thm57 need 4)."""
    bounds = WINDOWED_BOUNDS[name]
    try:
        report = run_suite(SuiteSpec(name, cutoff=2, bounds=bounds))
    except ValueError as exc:
        need = re.search(r"needs a cutoff of at least (\d+), got 2$",
                         str(exc))
        assert need, exc
        report = run_suite(SuiteSpec(name, cutoff=int(need.group(1)),
                                     bounds=bounds))
    assert report.ok, [r for r in report.records if r.status != "pass"][:1]


# The W-bracket memo of this process.
W_CELL = verify._w_cell


@pytest.fixture
def w_memo(recorded):
    """The W-bracket memo, cleared before and after one test; the list it
    yields records each call (key,) the runners make of it."""
    W_CELL.cache_clear()
    yield recorded(verify, "_w_cell")
    W_CELL.cache_clear()


def _stored_residuals_empty(keys):
    """Every residual the memo holds for keys is empty; re-reading them
    measures nothing anew."""
    misses = W_CELL.cache_info().misses
    empty = all(not W_CELL(key).terms for key in keys)
    return empty and W_CELL.cache_info().misses == misses


def test_w_cells_are_measured_once_per_process(recorded, w_memo):
    """thm55 and thm57, plain and then mutated, in one process measure
    each plain (cell, window) once: one series_bracket per distinct cell
    of the four runs, which every run reads from the store, a mutated
    one fusing its piece onto a copy.  Every stored residual is empty
    afterwards."""
    calls = recorded(verify, "series_bracket")
    bounds = {"pq_max": 2, "m_max": 1}
    assert run_suite(SuiteSpec("thm55", surface="p2", bounds=bounds)).ok
    assert run_suite(SuiteSpec("thm57", bounds=bounds)).ok
    for name in ("thm55", "thm57"):
        assert not run_suite(SuiteSpec(
            name, mutation=SUITES[name].mutation)).ok
    # The mutated thm55 run reaches p + q = 3; the others p + q <= 2.
    keys = {cell + (SUITES[name].window,) for name in ("thm55", "thm57")
            for cell in verify._w_cells(3 if name == "thm55" else 2, 1)}
    info = W_CELL.cache_info()
    assert len(calls) == len(keys) == info.currsize == info.misses
    assert {key for key, in w_memo} == keys
    assert _stored_residuals_empty(keys)


def _family_tables(kind):
    """{(p, n, i, negcap, parts): rows}: every table built of one kind,
    "_tables" (contraction, of a part x) or "_sheds" (shed, of the parts
    (v, x)), of the J-families the default W-bracket runs read;
    each kind keeps per neg cap an index of the parts, mapped to None
    while their table is unbuilt."""
    return {(p, n, i, negcap, parts): rows
            for p in range(8) for n in range(-7, 8)
            for i, fam in enumerate(walgebra.jay_families(p, n))
            for negcap, index in getattr(fam, kind).items()
            for parts, rows in index.items() if rows is not None}


def test_family_tables_are_built_once_and_bounded():
    """From cleared caches, the default-bounds thm55, thm57 and vir runs
    leave 884 contraction tables with 17,726 rows and 736 shed tables
    with 5,656 rows (measured); the bounds add 2% to each.  Rows of
    equal weight in a table share one int object (_Tables.rows), which
    keeps 23,251 fewer ints after the 34 default reports.  A second
    thm55 run, its cells measured anew, builds no table and enumerates
    no partition.  thm55 runs on p2 only, and the second run with
    p + q <= 3: the tables depend on its cells, not on its surfaces."""
    walgebra.jay_families.cache_clear()
    W_CELL.cache_clear()
    verify._window.cache_clear()
    for spec in (SuiteSpec("thm55", surface="p2"), SuiteSpec("thm57"),
                 SuiteSpec("vir")):
        assert run_suite(spec).ok, spec.suite
    tables = {kind: _family_tables(kind) for kind in ("_tables", "_sheds")}
    for kind, count, rows in (("_tables", 902, 18081),
                              ("_sheds", 751, 5769)):
        assert len(tables[kind]) <= count, kind
        assert sum(map(len, tables[kind].values())) <= rows, kind
        for table in tables[kind].values():
            weights = [c for _, _, c in table]
            assert len(set(map(id, weights))) == len(set(weights)), kind
    W_CELL.cache_clear()
    misses = operators._stats_list.cache_info().misses
    assert run_suite(SuiteSpec("thm55", surface="p2",
                               bounds={"pq_max": 3})).ok
    for kind, built in tables.items():
        again = _family_tables(kind)
        assert again.keys() == built.keys(), kind
        assert all(again[key] is table for key, table in built.items())
    assert operators._stats_list.cache_info().misses == misses


# W-bracket cells (p, q, m, n) with p + q <= 4 and |m|, |n| <= 2.
WINDOW_CELLS = [(p, q, m, n) for p in range(5) for q in range(5 - p)
                for m, n in product(range(-2, 3), repeat=2)]


def _w_residuals(order):
    """{(cell, N): the residual _w_cell keeps} for each window N in order,
    from cleared cells, J windows, families and partition lists, so that
    each window after the first reads what the earlier ones built."""
    W_CELL.cache_clear()
    verify._window.cache_clear()
    walgebra.jay_families.cache_clear()
    operators._stats_list.cache_clear()
    return {(cell, N): W_CELL(cell + (N,))
            for N in order for cell in WINDOW_CELLS}


def _unstable_residuals(residuals):
    """The cells whose window-6 residual differs from the window-8
    residual restricted to the window-6 box."""
    return [cell for cell in WINDOW_CELLS
            if residuals[cell, 6] != cut(residuals[cell, 8], box_keep(
                _sound_pos(6, *cell[2:]), 6))]


def test_w_residuals_are_window_stable(w_memo):
    """Each W-bracket residual on window 6 equals the window-8 residual
    restricted to its box, and every residual is the same whichever
    window runs first."""
    assert len(WINDOW_CELLS) == 375
    narrow_first = _w_residuals((6, 8))
    assert _unstable_residuals(narrow_first) == []
    assert _w_residuals((8, 6)) == narrow_first


def _short_window(build, args, pos, neg):
    """_window with its windows stopping one mode short of the box edge:
    series_to_smeared on pos - 1."""
    return series_to_smeared(build(*args), pos - 1, neg)


def test_w_residual_stability_sees_a_short_expected_window(monkeypatch,
                                                           w_memo):
    """An expected side whose J windows stop one mode short of the box
    edge leaves window-6 residuals that the window-8 ones, restricted,
    do not have, in either window order."""
    monkeypatch.setattr(verify, "_window", cache(_short_window))
    for order in ((6, 8), (8, 6)):
        assert len(_unstable_residuals(_w_residuals(order))) == 252, order


# lem52 cells (p, n) with p <= 4 and |n| <= 3.
LEM52_CELLS = [(p, n) for p in range(5) for n in range(-3, 4)]


@pytest.fixture
def windows_memo():
    """The series windows and derivative chains, cleared before and
    after one test, so that no window built under a patch outlives it."""
    verify._window.cache_clear()
    verify._chain.cache_clear()
    yield
    verify._window.cache_clear()
    verify._chain.cache_clear()


def _residual(sides, cell, N, mut=False, check=0):
    """The residual of sides' check at cell (the first by default), by
    the smeared evaluator on window N."""
    _, lhs, rhs = sides(*cell, mut)[check]
    return verify._residual(lhs, rhs, N)


def _lem52_residuals(order):
    """{(cell, N): the residual of lem52's identity (verify._lem52)} for
    each window N in order, from cleared J windows, families and
    partition lists."""
    verify._window.cache_clear()
    walgebra.jay_families.cache_clear()
    operators._stats_list.cache_clear()
    return {(cell, N): _residual(verify._lem52, cell, N)
            for N in order for cell in LEM52_CELLS}


def _unstable_lem52(residuals):
    """The cells whose window-6 residual differs from the window-8
    residual restricted to the window-6 box."""
    return [(p, n) for p, n in LEM52_CELLS
            if residuals[(p, n), 6] != cut(residuals[(p, n), 8], box_keep(
                _sound_pos(6, 0, n), 6))]


def test_lem52_residuals_are_window_stable(windows_memo):
    """Each lem52 residual on window 6 equals the window-8 residual
    restricted to its box, and every residual is the same whichever
    window runs first."""
    assert len(LEM52_CELLS) == 35
    narrow_first = _lem52_residuals((6, 8))
    assert _unstable_lem52(narrow_first) == []
    assert _lem52_residuals((8, 6)) == narrow_first


def test_lem52_stability_sees_a_short_expected_window(monkeypatch,
                                                      windows_memo):
    """An expected side whose J windows stop one mode short of the box
    edge leaves window-6 residuals that the window-8 ones, restricted,
    do not have, in either window order."""
    monkeypatch.setattr(verify, "_window", cache(_short_window))
    for order in ((6, 8), (8, 6)):
        assert len(_unstable_lem52(_lem52_residuals(order))) == 24, order


# The two-pass residuals the fused series_bracket replaced: the bare
# bracket, then one combined with the negated expected pieces.


def _w_central(p, q, m, n):
    """The central pieces of [J^p_m(a), J^q_n(b)], the only ones with a
    scalar code, written apart from verify._w: -m integral(ab) Id at
    p = q = 0 and ((m^3-m)/12) integral(e ab) Id at p = q = 1, /6 at
    (2, 0) and (0, 2), all at m = -n != 0."""
    if m != -n or m == 0 or p + q not in (0, 2):
        return []
    if p == q == 0:
        return [(-m, SmearedOp({encode(()): 1}))]
    return [(Fraction(m ** 3 - m, 12 if p == q else 6),
             SmearedOp({encode((), e=1): 1}))]


def _w_two_pass(cell, N, shift=0):
    """(residual, the bracket's scalar terms) of a W cell in two passes,
    against the right side written apart from verify._w: (qm-pn+shift)
    J^{p+q-1}_{m+n}(ab) where qm - pn != 0, -(Omega/12)
    J^{p+q-3}_{m+n}(e ab) and the central pieces."""
    p, q, m, n = cell
    pos = _sound_pos(N, m, n)
    meas = series_bracket(walgebra.jay_families(p, m),
                          walgebra.jay_families(q, n), pos, N)
    pieces = _w_central(*cell)
    if q * m - p * n:
        pieces.append((q * m - p * n + shift, series_to_smeared(
            walgebra.jay_families(p + q - 1, m + n), pos, N)))
    om = walgebra.omega(p, q, m, n) if p + q >= 3 else 0
    if om:
        pieces.append((Fraction(-om, 12), operators.euler_shifted(
            series_to_smeared(walgebra.jay_families(p + q - 3, m + n),
                              pos, N))))
    return (combined((1, meas), *[(-c, op) for c, op in pieces]),
            SmearedOp({k: c for k, c in meas.terms.items()
                       if k < operators.SCALARS}, meas.den))


def _lem52_two_pass(p, n, N, mut):
    pos = _sound_pos(N, 0, n)
    return combined(
        (1, series_bracket(walgebra.chern_families(p),
                           walgebra.heis_families(n), pos, N)),
        (Fraction(-n - mut, factorial(p)),
         verify._window(walgebra.jay_families, (p, n), pos, N)))


def _thm46_two_pass(k, N, mut):
    """The transfer-pin residual of G_k, or with mut of the mutated G_k:
    the bare brackets of G_k and of the mutation's Euler term, summed
    with the pin."""
    pos = _sound_pos(N, 0, -1)
    fams = [walgebra.chern_families(k)]
    if mut:
        fams.append(verify._euler_families(k, 0))
    return combined(*[(1, series_bracket(f, walgebra.heis_families(-1),
                                         pos, N)) for f in fams],
                    (Fraction(-1, factorial(k)), series_to_smeared(
                        walgebra.apow_families(-1, k), pos, N)))


def _same(a, b):
    """Equal numerators by code over an equal denominator."""
    return a.terms == b.terms and a.den == b.den


def test_fused_residuals_equal_the_two_pass_sums(w_memo, windows_memo):
    """Every W-bracket cell of WINDOW_CELLS, and every lem52 cell and
    thm46 transfer pin (verify._residual of verify._lem52 and
    verify._thm46), plain and mutated, on windows 6 and 8 has the
    residual of the two passes, term for term over the same denominator,
    and a W cell's residual plus its central pieces, which the central
    checks read, has the bracket's scalar terms."""
    for N in (6, 8):
        for cell in WINDOW_CELLS:
            resid = W_CELL(cell + (N,))
            ref, ref_scalars = _w_two_pass(cell, N)
            scalars = combined((1, resid), *_w_central(*cell))
            assert _same(resid, ref) and SmearedOp({
                k: c for k, c in scalars.terms.items()
                if k < operators.SCALARS}, scalars.den) == ref_scalars, (
                    cell, N)
        for (p, n), mut in product(LEM52_CELLS, (False, True)):
            assert _same(_residual(verify._lem52, (p, n), N, mut),
                         _lem52_two_pass(p, n, N, mut)), (p, n, N, mut)
        for k, mut in product(range(4), (False, True)):
            assert _same(_residual(verify._thm46, (k,), N, mut, 1),
                         _thm46_two_pass(k, N, mut)), (k, N, mut)


def test_fused_residual_sees_a_wrong_linear_coefficient(monkeypatch,
                                                        w_memo):
    """With (qm - pn) + 1 for the linear coefficient, every W cell of
    WINDOW_CELLS with qm - pn != 0 leaves a nonzero residual, the two
    passes' own, but the 8 whose linear term J^0_0 = -a_0 is zero."""
    right = verify._w

    def wrong(p, q, m, n, kind="J", mutation=""):
        lhs, rhs = right(p, q, m, n, kind, mutation)
        if q * m - p * n:
            (c, x), *rest = rhs
            rhs = ((c + 1, x), *rest)
        return lhs, rhs

    monkeypatch.setattr(verify, "_w", wrong)
    linear = [(p, q, m, n) for p, q, m, n in WINDOW_CELLS
              if q * m - p * n and (p + q, m + n) != (1, 0)]
    assert len(linear) == 292 - 8
    for cell in linear:
        resid = W_CELL(cell + (8,))
        assert not resid.is_zero() and _same(resid,
                                             _w_two_pass(cell, 8, 1)[0])


# rmk43 cells (k, n, d) of its default run: k <= 3, |n| <= 3 and both d.
RMK43_CELLS = [(k, n, d) for k in range(4) for n in range(-3, 4)
               for d in sorted({-1, n * n - 2})]

# rmk56 cells (p, n) of its default run: 1 <= p <= 3 and |n| <= 2.
RMK56_CELLS = [(p, n) for p in range(1, 4) for n in range(-2, 3)]


def _declared_cells(sides, keys, order):
    """{(key, N): the derivative on the left of sides at key and the Euler
    term last on its right, as the smeared evaluator on window N reads
    them on the diamond N} for each window N in order, from cleared
    windows, derivative chains and partition lists."""
    verify._window.cache_clear()
    verify._chain.cache_clear()
    operators._stats_list.cache_clear()
    out = {}
    for N in order:
        for key in keys:
            _, lhs, rhs = sides(*key, False)[0]
            box = verify._diamond(N, lhs.x.n)
            out[key, N] = (verify._read(lhs, *box, N),
                           verify._read(rhs[-1][1], *box, N))
    return out


def _rmk43_cells(order):
    """_declared_cells of rmk43: F(k, n, d)' and the unit Euler family
    over l = k."""
    return _declared_cells(verify._rmk43, RMK43_CELLS, order)


def _rmk56_cells(order):
    """_declared_cells of rmk56: (J^p_n)' and J^{p-1}_n(e a)."""
    return _declared_cells(verify._rmk56, RMK56_CELLS, order)


def _unstable(cells, keys, N):
    """The keys whose residual or Euler term on the diamond N differs
    from the one on N + 2 cut to N."""
    return [key for key in keys
            if any(narrow != cut(wide, diamond(N)) for narrow, wide
                   in zip(cells[key, N], cells[key, N + 2]))]


def test_rmk43_residuals_are_window_stable(windows_memo):
    """Each rmk43 residual and Euler term on the diamond N equals the one
    on N + 2 cut to N, for N = 6 and 8 and both shifts d, and each is the
    same whichever window runs first.  Every Euler term holds terms but
    those over no partition (length k = 0, or k = 1 at n = 0), so they
    compare windows that are not empty."""
    narrow_first = _rmk43_cells((6, 8, 10))
    assert len(RMK43_CELLS) == 48
    assert _unstable(narrow_first, RMK43_CELLS, 6) == []
    assert _unstable(narrow_first, RMK43_CELLS, 8) == []
    assert [key for key, cell in narrow_first.items() if not cell[1].terms
            ] == [(cell, N) for N in (6, 8, 10) for cell in RMK43_CELLS
                  if cell[0] == 0 or cell[:2] == (1, 0)]
    assert _rmk43_cells((10, 8, 6)) == narrow_first


def test_rmk56_residuals_are_window_stable(windows_memo):
    """Each rmk56 derivative and Euler term that its residual reads on
    the diamond N equals the one on N + 2 cut to N, for N = 6 and 8, and
    each is the same whichever window runs first.  Every Euler term but
    J^0_0(e c) = 0 holds terms, so they compare J windows that are not
    empty."""
    narrow_first = _rmk56_cells((6, 8, 10))
    assert _unstable(narrow_first, RMK56_CELLS, 6) == []
    assert _unstable(narrow_first, RMK56_CELLS, 8) == []
    assert [key for key, cell in narrow_first.items()
            if not cell[1].terms] == [((1, 0), N) for N in (6, 8, 10)]
    assert _rmk56_cells((10, 8, 6)) == narrow_first


def test_rmk56_stability_sees_a_derivative_past_its_window(monkeypatch,
                                                          windows_memo):
    """A derivative that keeps its terms on a box one mode wider each way
    than its diamond leaves window-6 terms that the window-8 ones, cut to
    6, do not have: in every rmk56 derivative, and in every rmk43 cell
    whose family holds a partition, in either window order."""
    real = verify.s_derive
    monkeypatch.setattr(
        verify, "s_derive", lambda a, kpos, kneg, *rest, **kwargs:
        real(a, kpos + 1, kneg + 1, *rest, **kwargs))
    for order in ((6, 8), (8, 6)):
        assert _unstable(_rmk56_cells(order), RMK56_CELLS, 6) == \
            RMK56_CELLS, order
        assert _unstable(_rmk43_cells(order), RMK43_CELLS, 6) == [
            cell for cell in RMK43_CELLS if cell[:2] != (0, 0)], order


def test_rmk56_run_derives_each_cell_once(recorded):
    """From cleared process caches, rmk56's plain run derives each of its
    15 cells' J^p_n once and reads 45 windows from _window, one per leaf
    read (J^p_n under each derivative, J^{p+1}_n and J^{p-1}_n(e a) for
    1 <= p <= 3, at five n), and keeps the frozen digest of the
    acceptance battery, and so does the mutated run after it."""
    clear_process_caches()
    derives, windows = (recorded(verify, name)
                        for name in ("s_derive", "_window"))
    report = run_suite(SuiteSpec("rmk56", surface="k3",
                                 bounds={"p_max": 3, "n_max": 2}))
    assert report.ok and (len(derives), len(windows)) == (15, 45)
    assert report_sha256(report) == REPORT_SHA256["rmk56"]
    report = run_suite(SuiteSpec("rmk56", mutation="central-scale"))
    assert not report.ok
    assert report_sha256(report) == MUTATED_SHA256["rmk56"]


def test_thm42_run_takes_each_derivative_step_once(recorded):
    """thm42 derives one chain D^0, ..., D^k_max of each a_n per process
    (verify._chain), each D^k from D^{k-1}: from cleared process caches
    its plain run takes 18 s_derive steps (k <= 3, 1 <= |n| <= 3) and
    keeps the frozen digest of the acceptance battery, and so does the
    mutated run after it."""
    clear_process_caches()
    calls = recorded(verify, "s_derive")
    report = run_suite(SuiteSpec("thm42", cutoff=8,
                                 bounds={"k_max": 3, "n_max": 3}))
    assert report.ok and len(calls) == 18
    assert report_sha256(report) == REPORT_SHA256["thm42"]
    report = run_suite(SuiteSpec("thm42", mutation="euler-shift"))
    assert not report.ok
    assert report_sha256(report) == MUTATED_SHA256["thm42"]


@pytest.mark.parametrize("name", ("rmk43", "thm42", "rmk56"))
def test_mutated_run_reuses_the_plain_chains(recorded, name):
    """Windows and derivative chains live for the process: after its
    plain run, from cleared process caches, a mutated rmk43, thm42 or
    rmk56 run takes no s_derive step, and mutated rmk43, whose leaves
    are the plain run's, builds no window."""
    clear_process_caches()
    assert run_suite(SuiteSpec(name)).ok
    derives, built = (recorded(verify, fn)
                      for fn in ("s_derive", "series_to_smeared"))
    assert not run_suite(SuiteSpec(name, mutation=SUITES[name].mutation)).ok
    assert not derives
    if name == "rmk43":
        assert not built


def test_eq22_rejects_surfaces_without_its_classes():
    for surface in ("p2", "p1xp1"):
        with pytest.raises(ValueError, match="abelian or k3"):
            run_suite(SuiteSpec("eq22", surface=surface))


# Small grids for every suite: the surface tests below run each suite
# once per declared surface and once without --surface.
SMALL = {
    "heis": {"m_max": 1, "w_max": 1}, "vir": {"m_max": 1},
    "thm31": {"m_max": 1, "k_max": 1}, "lem32": {},
    "thm42": {"k_max": 1, "n_max": 1}, "rmk43": {"k_max": 1, "n_max": 1},
    "thm46-unique": {"k_max": 1}, "cor48": {"n_max": 2},
    "rmk410": {"n_max": 2}, "def51-ids": {"p_max": 1, "n_max": 1},
    "lem52": {"p_max": 1, "n_max": 1}, "lem53": {"p_max": 1, "m_max": 1},
    "thm55": {"pq_max": 1, "m_max": 1}, "rmk56": {"p_max": 1, "n_max": 1},
    "thm57": {"pq_max": 1, "m_max": 1}, "lem61": {"n_max": 1, "m_max": 1},
    "eq22": {"p_max": 0, "m_max": 1},
}


def _named_surfaces(report):
    return {r.params["surface"] for r in report.records
            if "surface" in r.params}


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_records_name_only_the_surface_asked_for(name):
    """A run on a declared surface names no other surface in any record,
    and a run without --surface names exactly the declared ones (rmk410
    names its surfaces in the compared values, not in params)."""
    declared = SUITES[name].surfaces
    assert set(declared) <= set(SURFACE_NAMES)
    for surface in declared:
        report = run_suite(SuiteSpec(name, surface=surface,
                                     bounds=SMALL[name]))
        assert report.ok and _named_surfaces(report) <= {surface}, surface
    report = run_suite(SuiteSpec(name, bounds=SMALL[name]))
    assert report.ok
    if name != "rmk410":
        assert _named_surfaces(report) == set(declared)


# Mutated runs whose records name p2 whatever --surface says: thm31's and
# lem32's mutated parts run on p2, frozen so in perfbench/refs.json.
# Mending it changes pinned digests (ROADMAP item 1b).
MUTATED_ON_P2 = {(name, surface) for name in ("thm31", "lem32")
                 for surface in ("abelian", "k3", "p1xp1")}


def _mutated_surface_cases():
    for name in SUITE_NAMES:
        for surface in SUITES[name].surfaces:
            marks = [pytest.mark.xfail(
                strict=True, reason="the mutated part runs on p2 whatever "
                "--surface says (ROADMAP item 1b)")] if (
                    (name, surface) in MUTATED_ON_P2) else []
            yield pytest.param(name, surface, marks=marks,
                               id="%s-%s" % (name, surface))


@pytest.mark.parametrize("name,surface", list(_mutated_surface_cases()))
def test_mutated_records_name_only_the_surface_asked_for(name, surface):
    """test_records_name_only_the_surface_asked_for for mutated runs, at
    default bounds, where every mutation is caught: a mutated run on a
    declared surface fails and names no other surface, and cor48, whose
    mutation needs e != 0, refuses abelian with a message."""
    spec = SuiteSpec(name, surface=surface, mutation=SUITES[name].mutation)
    if (name, surface) == ("cor48", "abelian"):
        with pytest.raises(ValueError, match="the cor48 mutation needs "
                           "e != 0 and runs on k3, not abelian"):
            run_suite(spec)
        return
    report = run_suite(spec)
    assert not report.ok and _named_surfaces(report) <= {surface}


REFS = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                   / "refs.json").read_text())


def test_lem32_builds_each_bracket_operator_once(recorded):
    """lem32's bracket and derivative parts take each a_nu(tau a) from
    one memo per ring and each instantiated right side from one memo per
    (nu, mu), so on p1xp1 it builds 48 monomials (96 with a memo for the
    bracket part alone, 2,928 when every cell built its own) and at most
    720 right sides (2,304), and its report keeps its frozen bytes."""
    monomials, rights = (recorded(verify, name)
                         for name in ("monomial", "instantiate"))
    report = run_suite(SuiteSpec("lem32", surface="p1xp1"))
    text = serialize_report(report, "jsonl")
    assert report.ok
    assert hashlib.sha256(text.encode()).hexdigest() == \
        REFS["suites"]["lem32-p1xp1"]
    assert len(monomials) <= 48, len(monomials)
    assert len(rights) <= 720, len(rights)


def test_thm31_builds_each_transfer_operator_once(recorded):
    """thm31's mixed, replacement and character-pin parts take a_n(b),
    a_n(K b) and a_{m+n}(ab) from one memo per ring, so on p1xp1 the
    suite builds 77 transfer operators (113 when the replacement part
    built its own, 346 with a memo per m, 1,621 when every (m, a, b)
    built its own), and its report keeps its frozen bytes.  The mixed
    part reads -n a_{m+n}(ab) as a Linear of the memoized operator, so
    no case builds a scaled copy of it (784 did).  A Linear with no
    pieces, the right side of a mixed cell at n = 0, has the shared
    empty column, so the suite makes 304 combine calls (2,432 when that
    column combined nothing per state)."""
    calls = recorded(verify, "heisenberg")
    scaled = recorded(operators.OperatorSum, "scaled")
    combines = recorded(operators, "combine")
    report = run_suite(SuiteSpec("thm31", surface="p1xp1"))
    text = serialize_report(report, "jsonl")
    assert report.ok
    assert hashlib.sha256(text.encode()).hexdigest() == \
        REFS["suites"]["thm31-p1xp1"]
    assert len(calls) <= 77, len(calls)
    assert not scaled, len(scaled)
    assert len(combines) <= 304, len(combines)


def _composed_record(ring, states, lm, an, rhs, params):
    """The record of [lm, an] against rhs on the states numbered in
    states, composed as lm.act(an.act(s)) - an.act(lm.act(s)) for two
    even operators: a pass named by params, or the first failing state
    with rhs as expected."""
    for s in map(ring.states.__getitem__, states):
        one = {s: 1}
        got = combine((1, lm.act(an.act(one))), (-1, an.act(lm.act(one))))
        want = rhs.act(one)
        if got != want:
            return InstanceRecord(
                dict(params, state=render_state(s, ring)), "fail", 1,
                render_terms(want, ring), render_terms(got, ring))
    return InstanceRecord(params, "pass", len(states))


def test_group_columns_match_the_composed_reference():
    """_Group.columns(Bracket(lm, an), rhs) counts and records as the
    composed reference: thm31's mixed cells [L_m(1), a_n(H)] on p2
    against -n a_{m+n}(H) pass, and against (-n + 1) a_{m+n}(H) fail on
    the three cells where a_{m+n}(H) is not zero, with the reference's
    first failure."""
    ring = builtin_ring("p2")
    states = verify._action_states(ring)
    one, h = ring.unit, ring.basis("H")
    failed = 0
    for m, n in ((1, -1), (1, -2), (-1, 1), (2, -1), (0, -2)):
        lm = operators.quadratic_sum(ring, m, one)
        an = operators.heisenberg(ring, n, h)
        for c in (-n, -n + 1):
            rhs = operators.heisenberg(ring, m + n, h).scaled(c)
            params = {"part": "mixed", "m": m, "n": n, "c": c}
            group = verify._Group(params)
            group.columns(ring, states, operators.Bracket(lm, an), rhs,
                          params)
            assert group.checks == len(states)
            record = group.record()
            assert record == _composed_record(ring, states, lm, an, rhs,
                                              params), (m, n, c)
            assert record.status == ("fail" if c != -n and m + n else "pass")
            failed += record.status == "fail"
    assert failed == 3


def _heis_cells(name):
    """{key: residual} of the heis cells that ring name keeps."""
    memo = builtin_ring(name)._cache
    return {k: v for k, v in memo.items() if k[:1] == ("heis",)}


def _clear_heis():
    """Drop the heis cells that the built-in rings keep."""
    for name in SURFACE_NAMES:
        for key in _heis_cells(name):
            del builtin_ring(name)._cache[key]


@pytest.fixture
def heis_memo():
    """The heis cells of the built-in rings, cleared before and after one
    test, so that no cell a test measures under a patched fault outlives
    it; the fixture yields the function that clears them."""
    _clear_heis()
    yield _clear_heis
    _clear_heis()


def test_heis_composes_only_the_brackets_the_index_keeps(recorded,
                                                         heis_memo):
    """heis checks each (m, n) cell as one block and reads the cell
    (n, m) from the same brackets, so on k3 at m_max=2 it composes at
    most 2,328 brackets, half of the 4,656 that the family index keeps
    (168,768 when every (a, b, state) triple the mode rule leaves live
    was composed), and its report keeps its frozen bytes.  The mutated
    run after it reads the stored cells and composes no bracket."""
    calls = recorded(operators, "commutator_column")
    for mutation, ok in (("", True), ("central-shift", False)):
        report = run_suite(SuiteSpec("heis", surface="k3",
                                     bounds={"m_max": 2}, mutation=mutation))
        text = serialize_report(report, "jsonl")
        assert report.ok is ok
        assert hashlib.sha256(text.encode()).hexdigest() == \
            REFS["suites"]["heis-k3" + ("+mutation" if mutation else "")]
        if not mutation:
            plain_calls = len(calls)
    assert 0 < plain_calls <= 2328, plain_calls
    assert len(calls) == plain_calls, len(calls) - plain_calls


def _heis_pair(surface, bounds, first):
    """The jsonl reports of the plain and the mutated heis run, run in
    the order first names."""
    out = {}
    for mutation in (first, "central-shift" if not first else ""):
        report = run_suite(SuiteSpec("heis", surface=surface, bounds=bounds,
                                     mutation=mutation))
        out[mutation] = (report.ok, serialize_report(report, "jsonl"))
    return out[""], out["central-shift"]


@pytest.mark.parametrize("surface", SURFACE_NAMES)
def test_heis_memo_keeps_every_byte(heis_memo, surface):
    """heis reports at m_max 1 and 2, w_max default and 2, are
    byte-identical with the plain run first from cleared heis cells
    (m_max 1, then 2 over the cells m_max 1 left) and with the mutated
    run first from cleared cells (m_max 2, then 1 over its cells); the
    plain run passes and the mutated run fails."""
    for w_max in ({}, {"w_max": 2}):
        grids = [dict(w_max, m_max=m_max) for m_max in (1, 2)]
        heis_memo()
        pairs = [_heis_pair(surface, bounds, "") for bounds in grids]
        assert all(plain[0] and not mutated[0] for plain, mutated in pairs)
        heis_memo()
        assert [_heis_pair(surface, bounds, "central-shift")
                for bounds in reversed(grids)] == pairs[::-1]


def _doubled(annihilate):
    """annihilate_state with a fault in the contractions: the last one on
    a state of two or more factors doubled."""
    def doubled(ring, n, i, state):
        out = annihilate(ring, n, i, state)
        if len(state) > 1 and out:
            out[-1] = (out[-1][0], 2 * out[-1][1])
        return out
    return doubled


# sha256 of the plain and the mutated heis report under _doubled's fault.
# Each failing record counts the checks of every class pair up to and
# including its own, (i * size + j + 1) * len(states), and shows both
# sides' text.
FAULTED_HEIS_SHA256 = {
    "p2": ("ab1f1e5f89b0974edc9072eefdfeee88b41808ccc1ba02d7980c56d2d209a72e",
           "70ec9ef2f0e124d1b4f160a1c1a98b2fe5b4e99a23320dcd1f0c75b70571d819"),
    "p1xp1": (
        "015a6983a2628c2dc5f1d4dfa5925f79692f99ff5388204d89e8aaaf4f7d1366",
        "a247affcc383206f303025bab2249ff90db20e567777719bb3f72aef6f7c47ab"),
    "abelian": (
        "6f6e45296535af2a14368e0e3919ed3d23a738b921924fb8868bb7026836f2b1",
        "e8675e086956c240a93b0eae6edf3656623e03cfd945d59c9ba0733edfeaa026"),
}


@pytest.mark.parametrize("surface, bounds", [
    ("p2", {"m_max": 2}), ("p1xp1", {"m_max": 2}),
    ("abelian", {"m_max": 1, "w_max": 2})])
def test_heis_memo_reports_a_fault_alike_cold_and_warm(monkeypatch,
                                                       heis_memo, surface,
                                                       bounds):
    """A fault in the contractions (the last one on a state of two or
    more factors doubled) fails the plain run, and its plain and mutated
    reports keep their frozen bytes, and are the same from cleared cells
    in either order and from the cells the fault left."""
    monkeypatch.setattr(operators, "annihilate_state",
                        _doubled(operators.annihilate_state))
    plain, mutated = _heis_pair(surface, bounds, "")
    assert not plain[0] and not mutated[0]
    assert tuple(hashlib.sha256(text.encode()).hexdigest()
                 for _, text in (plain, mutated)) == \
        FAULTED_HEIS_SHA256[surface]
    assert _heis_pair(surface, bounds, "") == (plain, mutated)
    heis_memo()
    assert _heis_pair(surface, bounds, "central-shift") == (plain, mutated)
    assert _heis_pair(surface, bounds, "") == (plain, mutated)


def test_heis_memo_holds_one_empty_residual_per_cell(heis_memo):
    """After the default plain and mutated runs each ring keeps exactly
    one heis entry per (m, n, w_max) cell of the default grid, and every
    stored residual is empty: the mutation never reaches the memo."""
    assert run_suite(SuiteSpec("heis")).ok
    assert not run_suite(SuiteSpec("heis", mutation="central-shift")).ok
    for name in SURFACE_NAMES:
        wmax = 2 if builtin_ring(name).dim <= 4 else 1
        cells = _heis_cells(name)
        assert set(cells) == {("heis", m, n, wmax) for m in range(-4, 5)
                              for n in range(-4, 5)}, name
        assert not any(cells.values()), name


def _heis_direct(name, m_max, wmax):
    """{("heis", m, n, wmax): residual} of every cell of ring name,
    composed cell by cell from fresh operators, one commutator_block per
    live state of each (m, n): the loop that mirrored cells replaced."""
    ring = builtin_ring(name)
    pairs = verify._probe(ring, "all")
    pre = [(ring.state_id(s), {m for m, _ in s})
           for w in range(wmax + 1) for s in basis_states(ring, w)]
    paired = {(i, j): v for i, row in enumerate(ring.pairing_matrix())
              for j, v in enumerate(row) if v}
    family = cache(lambda n: operators.OperatorFamily(
        operators.heisenberg(ring, n, b) for _, b in pairs))
    out = {}
    for m, n in product(range(-m_max, m_max + 1), repeat=2):
        live = [s for s, modes in pre if m == -n or (m > 0 and -m in modes)
                or (n > 0 and -n in modes)]
        c0 = Fraction(-m) if m == -n != 0 else 0
        central = {ij: c0 * v for ij, v in paired.items()} if c0 else {}
        resid = out["heis", m, n, wmax] = {}
        for s in live:
            block = operators.commutator_block(family(m), family(n), s)
            for ij in block.keys() | central.keys():
                lhs = block.get(ij, {})
                cc = central.get(ij)
                if lhs != ({s: cc} if cc else {}):
                    resid[ij, s] = lhs
    return out


@pytest.mark.parametrize("fault", (False, True), ids=("plain", "doubled"))
@pytest.mark.parametrize("surface, bounds", [
    ("p2", {"m_max": 2}), ("p1xp1", {"m_max": 2}), ("k3", {"m_max": 2}),
    ("abelian", {"m_max": 2}), ("abelian", {"m_max": 1, "w_max": 2})])
def test_heis_mirrored_cells_equal_the_direct_loop(monkeypatch, heis_memo,
                                                   surface, bounds, fault):
    """Every cell heis stores, each (n, m) read from the brackets of
    (m, n), is the residual that the cell by cell loop composes, plain
    and under the doubled-contraction fault (where residuals are not
    empty), on every surface, abelian's odd classes at w_max=2 too."""
    if fault:
        monkeypatch.setattr(operators, "annihilate_state",
                            _doubled(operators.annihilate_state))
    assert run_suite(SuiteSpec("heis", surface=surface,
                               bounds=bounds)).ok is not fault
    wmax = bounds.get("w_max", 2 if builtin_ring(surface).dim <= 4 else 1)
    cells = _heis_cells(surface)
    assert cells == _heis_direct(surface, bounds["m_max"], wmax)
    assert any(cells.values()) is fault


def _lem32_direct(ring):
    """lem32's bracket record on ring and its columns {(nu, mu, a, b,
    state number): column}, composed case by case in (nu, mu, a, b)
    product order, a Bracket of the case's own monomials each: the loop
    that mirrored cases replaced."""
    smallring = ring.dim <= 4
    nus = verify._NUS_FULL if smallring else verify._NUS_SMALL
    cpairs = verify._probe(ring)[:None if smallring else 3]
    states = verify._action_states(ring)
    op = cache(lambda nu, a: operators.monomial(ring, nu, a))
    params = {"part": "bracket", "surface": ring.name}
    group, columns = verify._Group(params), {}
    for nu, mu in product(nus, repeat=2):
        rhs = cache(partial(operators.instantiate, verify.s_bracket(
            SmearedOp({encode(nu): 1}), SmearedOp({encode(mu): 1})), ring))
        for (na, a), (nb, b) in product(cpairs, repeat=2):
            br = operators.Bracket(op(nu, a), op(mu, b))
            case = dict(params, nu=str(list(nu)), mu=str(list(mu)), a=na,
                        b=nb)
            group.columns(ring, states, br, rhs(a * b), case)
            columns.update(((case["nu"], case["mu"], na, nb, s),
                            br.column(s)) for s in states)
    return group.record(), columns


def _lem32_seen(monkeypatch):
    """{(nu, mu, a, b, state number): column} that lem32's bracket part
    compares with its right side, sign included, filled as it runs."""
    seen = {}
    columns = verify._Group.columns

    def spied(self, ring, states, lhs, rhs, params, at=(), sign=1):
        if params.get("part") == "bracket":
            seen.update(((params["nu"], params["mu"], params["a"],
                          params["b"], s),
                         {t: sign * c for t, c in lhs.column(s).items()})
                        for s in states)
        return columns(self, ring, states, lhs, rhs, params, at, sign)

    monkeypatch.setattr(verify._Group, "columns", spied)
    return seen


@pytest.mark.parametrize("fault", (False, True), ids=("plain", "doubled"))
@pytest.mark.parametrize("surface", SURFACE_NAMES)
def test_lem32_mirrored_columns_equal_the_direct_loop(monkeypatch, surface,
                                                      fault):
    """Every column lem32's bracket part checks, a mirrored case's read
    from its partner's bracket, is the one the case by case loop
    composes, and the bracket record is the loop's, plain and under the
    doubled-contraction fault, which fails it."""
    if fault:
        monkeypatch.setattr(operators, "annihilate_state",
                            _doubled(operators.annihilate_state))
    seen = _lem32_seen(monkeypatch)
    report = run_suite(SuiteSpec("lem32", surface=surface))
    record, columns = _lem32_direct(builtin_ring(surface))
    assert seen == columns
    assert report.records[0] == record
    assert (record.status == "fail") is fault


@pytest.mark.parametrize("orders", (
    [((-1, -1), (1, 1))], [((-1, -1), (1, 1)), ((-2, 1), (-1, -1))]),
    ids=("one", "replaced"))
@pytest.mark.parametrize("surface", ("p1xp1", "abelian"))
def test_lem32_reports_the_direct_loops_first_failure(monkeypatch, surface,
                                                      orders):
    """With s_bracket doubled for some orders (nu, mu) and not for (mu,
    nu), lem32's bracket record names the (nu, mu, a, b, state) and shows
    the text of the direct loop's first failure.  The mirrored loop
    checks ((-1, -1), (1, 1)) with its mirror, before ((-2, 1), (-1, -1)),
    which comes first in the product order, so there the later failure
    must replace the one found first."""
    bad = {(encode(nu), encode(mu)) for nu, mu in orders}
    bracket = verify.s_bracket

    def perturbed(a, b):
        out = bracket(a, b)
        return combined((2, out)) if (*a.terms, *b.terms) in bad else out

    monkeypatch.setattr(verify, "s_bracket", perturbed)
    record, _ = _lem32_direct(builtin_ring(surface))
    assert record.status == "fail"
    assert record.params["nu"] == str(list(orders[-1][0]))
    assert run_suite(SuiteSpec("lem32", surface=surface)).records[0] \
        == record


def test_lem32_composes_each_bracket_pair_once(recorded):
    """lem32's bracket part composes each unordered pair {(nu, a), (mu,
    b)} once per state, so on p1xp1 the suite makes at most 23,256
    commutator_column calls (44,688 when each case composed its own),
    and its report keeps its frozen bytes."""
    calls = recorded(operators, "commutator_column")
    report = run_suite(SuiteSpec("lem32", surface="p1xp1"))
    assert hashlib.sha256(serialize_report(report, "jsonl").encode()) \
        .hexdigest() == REFS["suites"]["lem32-p1xp1"]
    assert 0 < len(calls) <= 23256, len(calls)


def test_def51_euler_shift_mutation_rebuilds_no_plain_family(recorded):
    """From cleared process caches and after the plain run, def51-ids'
    euler-shift run reads the plain J windows from _window and builds
    only the unit Euler family's terms: every family list it expands or
    brackets is one Euler family, it takes no s_derive step, since the
    plain run's chain D^1, ..., D^4 of a_{-1} lives for the process, and
    both reports keep their frozen digests (the plain one at the
    acceptance bounds, the defaults)."""
    suite = "def51-ids"
    clear_process_caches()
    assert report_sha256(run_suite(SuiteSpec(
        suite, bounds={"p_max": 4, "n_max": 3}))) == REPORT_SHA256[suite]
    smeared, brackets, derives = (recorded(verify, name) for name in (
        "series_to_smeared", "series_bracket", "s_derive"))
    report = run_suite(SuiteSpec(suite, mutation="euler-shift"))
    assert report_sha256(report) == MUTATED_SHA256[suite]
    fams = [args[0] for args in smeared + brackets]
    assert fams and all(len(f) == 1 and f[0].epow == 1 for f in fams)
    assert not derives


def test_lem32_memo_memory_stays_bounded():
    """The bracket part's operators and their columns live for one
    ring's bracket part.  In a fresh process the p1xp1 job's traced peak
    stays below 6 MB (about 3 MB measured), and what it leaves behind,
    the ring's caches, below 2 MB (about 0.8 MB); a memo kept for the
    process would leave its 2 MB of operators behind."""
    code = ("import tracemalloc\n"
            "from hilbfock.verify import SuiteSpec, run_suite\n"
            "tracemalloc.start()\n"
            "ok = run_suite(SuiteSpec('lem32', surface='p1xp1')).ok\n"
            "print(ok, *tracemalloc.get_traced_memory())\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    ok, kept, peak = proc.stdout.split()
    kept, peak = int(kept) / 2**20, int(peak) / 2**20
    assert ok == "True"
    assert peak < 6, "lem32-p1xp1 traced peak %.2f MB" % peak
    assert kept < 2, "lem32-p1xp1 left %.2f MB traced" % kept


# The states each built-in ring numbers after default thm31, lem32 and
# heis runs in one process (measured), plus a 5% margin.
STATE_INDEX_CAPS = {"p2": (1007, 1060), "p1xp1": (2581, 2710),
                    "k3": (26460, 27790), "abelian": (20522, 21550)}


def test_state_index_stays_bounded():
    """Every state a column holds is numbered in its ring's index
    (ring.states), which is never cleared.  In a fresh process the
    default thm31, lem32 and heis runs number the states of
    STATE_INDEX_CAPS, and each number names one state."""
    code = ("from hilbfock.verify import SuiteSpec, run_suite\n"
            "from hilbfock.ring import SURFACE_NAMES, builtin_ring\n"
            "for suite in ('thm31', 'lem32', 'heis'):\n"
            "    assert run_suite(SuiteSpec(suite)).ok, suite\n"
            "for name in SURFACE_NAMES:\n"
            "    ring = builtin_ring(name)\n"
            "    assert len(ring.state_ids) == len(ring.states)\n"
            "    print(name, len(ring.states))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    counts = {name: int(n) for name, n in
              (line.split() for line in proc.stdout.splitlines())}
    assert counts.keys() == STATE_INDEX_CAPS.keys()
    for name, (measured, cap) in STATE_INDEX_CAPS.items():
        assert counts[name] <= cap, (name, counts[name], measured)


def _eq22_nonempty_inner(ring):
    """The nonempty plain brackets of two singles in eq22's Jacobi grid
    at p_max = m_max = 1, from the pair table."""
    names = verify._W_CLASSES[ring.name]
    singles = [(p, m, cn) for p in range(2) for m in range(-1, 2)
               for cn in names]
    sub = [walgebra.wterm(p, m, ring.basis(cn)) for p, m, cn in singles
           if m in (-2, 0, 1) and cn in names[:3]]
    assert len(singles) == 24 and len(sub) == 12
    return sum(1 for x in sub for y in sub if walgebra.wbracket(ring, x, y))


def test_eq22_brackets_each_pair_once(recorded):
    """eq22 brackets every ordered pair of single terms once per ring and
    reads antisymmetry and the inner Jacobi brackets from that table, so
    at the benchmark's bounds (24 singles per ring, 12 of them in the
    Jacobi grid) it calls wbracket 24^2 times per ring, plus, per Jacobi
    triple, once for each of its three inner brackets that is nonempty:
    3 * 12 times the nonempty pairs of the grid.  An outer bracket of an
    empty inner one is zero and is not computed.  Its reports keep their
    frozen bytes."""
    rings = verify._rings(SuiteSpec("eq22"))
    jacobi = sum(3 * 12 * _eq22_nonempty_inner(ring) for ring in rings)
    assert 0 < jacobi < len(rings) * 3 * 12 ** 3
    calls = recorded(verify, "wbracket")
    for mutation, want in (("", len(rings) * 24 ** 2 + jacobi),
                           ("central-shift", 24 ** 2)):
        calls.clear()
        report = run_suite(SuiteSpec("eq22", bounds={"p_max": 1, "m_max": 1},
                                     mutation=mutation))
        text = serialize_report(report, "jsonl")
        assert report.ok == (not mutation)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            REFS["suites"]["eq22" + ("+mutation" if mutation else "")]
        assert len(calls) == want, (mutation, len(calls))


@pytest.mark.parametrize("name", ("lem61", "lem53"))
def test_mutated_symbolic_run_reuses_the_plain_cells(recorded, name):
    """After its plain run, a mutated lem61 or lem53 run derives nothing
    and builds no series the plain run built: it reads them from
    _window.  Only lem53's mutation builds a series of its own, its 28
    :a^{p-1}:_m terms, once per process, so a second mutated run builds
    none."""
    verify._window.cache_clear()
    derives, smeared = (recorded(verify, fn)
                        for fn in ("s_derive", "series_to_smeared"))
    assert run_suite(SuiteSpec(name)).ok
    assert len(smeared) > 0
    mutation = SUITES[name].mutation
    for own in ((28 if name == "lem53" else 0), 0):
        derives.clear()
        smeared.clear()
        misses = verify._window.cache_info().misses
        assert not run_suite(SuiteSpec(name, mutation=mutation)).ok
        assert (len(derives), len(smeared)) == (0, own), \
            (len(derives), len(smeared))
        assert verify._window.cache_info().misses - misses == own


@pytest.mark.parametrize("name", ("lem52",))
def test_mutated_jay_run_reads_the_plain_windows(recorded, name):
    """lem52 reads J^p_n from _window, its mutation too, so after the
    plain run the mutated one builds no series."""
    verify._window.cache_clear()
    calls = recorded(verify, "series_to_smeared")
    assert run_suite(SuiteSpec(name)).ok
    assert len(calls) > 0
    calls.clear()
    assert not run_suite(SuiteSpec(name, mutation=SUITES[name].mutation)).ok
    assert len(calls) == 0


# The acceptance battery's plain runs, whose digests REPORT_SHA256
# freezes, of every suite but thm31 and lem32, which would add about 5 s.
ORDER_SPECS = {
    "cor48": {"bounds": {"n_max": 4}},
    "def51-ids": {"bounds": {"p_max": 4, "n_max": 3}},
    "eq22": {},
    "heis": {"bounds": {"m_max": 4}},
    "lem52": {"bounds": {"p_max": 4, "n_max": 3}},
    "lem53": {"bounds": {"p_max": 4, "m_max": 3}},
    "lem61": {"bounds": {"n_max": 4, "m_max": 3}},
    "rmk410": {"bounds": {"n_max": 4}},
    "rmk43": {"bounds": {"k_max": 3, "n_max": 3}},
    "rmk56": {"surface": "k3", "bounds": {"p_max": 3, "n_max": 2}},
    "thm42": {"cutoff": 8, "bounds": {"k_max": 3, "n_max": 3}},
    "thm46-unique": {"bounds": {"k_max": 3}},
    "thm55": {"cutoff": 8, "bounds": {"pq_max": 6, "m_max": 3}},
    "thm57": {"bounds": {"pq_max": 5, "m_max": 3}},
    "vir": {"cutoff": 8, "bounds": {"m_max": 3}},
}


@pytest.mark.parametrize("name", sorted(ORDER_SPECS))
def test_reports_do_not_depend_on_the_run_order(name):
    """From cleared process caches and ring caches, the mutated run and
    then the plain one give their frozen digests, and so do the plain
    run and then the mutated one: no run reads what the other left."""
    for order in ((True, False), (False, True)):
        clear_process_caches()
        for mutated in order:
            report = run_suite(
                SuiteSpec(name, mutation=SUITES[name].mutation) if mutated
                else SuiteSpec(name, **ORDER_SPECS[name]))
            assert report.ok != mutated
            digests = MUTATED_SHA256 if mutated else REPORT_SHA256
            assert report_sha256(report) == digests[name], (order, mutated)


def _every_kind():
    """One side of each leaf kind, the two leaves verify._w adds (J^p_n on
    e a b and integral(a b) Id) and thm31's a_n(K b) among them, and one
    of each node kind over them."""
    leaf = verify._Leaf
    leaves = [leaf("a", 0, -1, "b"), leaf("L", 1, 1, "b"),
              leaf("G", 2, 0, "a"), leaf("J", 2, -1, "ab"),
              leaf("D", 2, -1, "a"), leaf("F", 1, -1, "b", -1),
              leaf("E", 2, 0, "b"), leaf("1", 0, 0, "eb"),
              leaf("J", 1, -1, "eab"), leaf("1", 0, 0, "ab"),
              leaf("a", 0, -1, "Kb"), leaf("V", 2, -1, "a"),
              leaf("M", 2, -1, "b")]
    return leaves + [verify._Br(leaves[2], leaves[0]),
                     verify._Der(leaves[3], 1),
                     tuple((Fraction(1, 2), x) for x in leaves)]


# The leaves of _every_kind whose column is zero at each (surface, a, b)
# of the test below: a class that vanishes (e a b = e x on p2; e b, e a b
# and the unit Euler family where e = 0; K b where K = 0, on k3 and
# abelian) or integrates to 0 (a b = 1 on k3, t1 on abelian).
ZERO_KINDS = {("p2", "x", "1"): {8}, ("k3", "1", "1"): {9, 10},
              ("abelian", "1", "t1"): {6, 7, 8, 9, 10}}


@pytest.mark.parametrize("surface, a, b", sorted(ZERO_KINDS))
def test_expanded_sides_never_read_the_smeared_side(recorded, surface, a,
                                                    b):
    """_on builds every leaf and node kind by operators' and walgebra's
    constructors alone: building each and taking its columns on the
    action states makes no call to verify's smeared kernels, so the
    action records ground the residuals on an independent route.  Each
    kind has a nonzero column there but the leaves of ZERO_KINDS."""
    ring = builtin_ring(surface)
    calls = [recorded(verify, name) for name in (
        "series_to_smeared", "series_bracket", "s_derive", "instantiate",
        "smeared_series")]
    classes = {"a": ring.basis(a), "b": ring.basis(b), "e": ring.e,
               "K": ring.K}
    states = verify._action_states(ring)
    zero = {i for i, x in enumerate(_every_kind()) if not any(
        [verify._on(ring, x, classes, {}).column(s) for s in states])}
    assert not any(calls)
    assert zero == ZERO_KINDS[surface, a, b]


def test_w_action_records_never_read_the_smeared_side(recorded):
    """thm55 and thm57 build both sides of their action records from _w
    by _on: a plain thm55 run on p2 and a plain thm57 run, each with its
    action record, make no smeared_series call, so those records ground
    the stored residuals on an independent route.  thm31, whose records
    are all action records, builds its sides from _thm31 by _on alone: a
    small plain run on p2 makes no call to verify's smeared kernels."""
    calls = [recorded(verify, "smeared_series")]
    bounds = {"pq_max": 2, "m_max": 1}
    for spec in (SuiteSpec("thm55", surface="p2", bounds=bounds),
                 SuiteSpec("thm57", bounds=bounds)):
        report = run_suite(spec)
        assert report.ok, spec.suite
        assert [r.params for r in report.records
                if r.params.get("check") == "action"] == [{
                    "check": "action", "surface": ring.name}
                    for ring in verify._rings(spec)], spec.suite
    assert not any(calls)
    calls += [recorded(verify, name) for name in (
        "series_to_smeared", "series_bracket", "s_derive", "instantiate")]
    report = run_suite(SuiteSpec("thm31", surface="p2",
                                 bounds={"m_max": 1, "k_max": 1}))
    assert report.ok and {r.params["part"] for r in report.records} == {
        "mixed", "replacement", "character-pin"}
    assert not any(calls)


@pytest.mark.parametrize("name, failing", [("vir", 8), ("thm42", 7)])
def test_vir_and_thm42_records_come_from_the_two_evaluators(name, failing):
    """Every record of a plain or mutated vir or thm42 report at default
    bounds is a universal record (_residual) or an action record (_on):
    no instantiate, classes or central record, which would count checks
    on a residual the universal record already decides.  The mutated
    run still fails that many records."""
    for mutation in ("", SUITES[name].mutation):
        report = run_suite(SuiteSpec(name, mutation=mutation))
        assert {r.params["check"] for r in report.records} == {
            "universal", "action"}, mutation
        assert report.ok == (not mutation), mutation
        assert report.failed >= (failing if mutation else 0), mutation


def test_thm55_records_come_from_the_two_evaluators_and_its_sweep():
    """Every record of a plain or mutated thm55 report at default bounds
    is a universal record (_residual), an instantiate record of its
    sweep or an action record (_on): no central record, which would
    pass whenever its cell's universal record does.  The mutated run
    fails its 8 universal records and no other."""
    for mutation in ("", SUITES["thm55"].mutation):
        report = run_suite(SuiteSpec("thm55", mutation=mutation))
        assert {r.params["check"] for r in report.records} <= {
            "universal", "instantiate", "action"}, mutation
        failed = [r.params["check"] for r in report.records
                  if r.status != "pass"]
        assert failed == (["universal"] * 8 if mutation else []), mutation


def test_thm42_mutated_spot_checks_a_class_the_mutation_moves():
    """thm42's mutated run checks on states the first K-trivial class
    whose Euler term e*a the mutation moves: class 1 on k3, with or
    without --surface k3, and its action record fails.  p2 has no such
    class among 1 and x, so its mutated run has no action record."""
    for surface, classes in (("", ["1"]), ("k3", ["1"]), ("p2", [])):
        report = run_suite(SuiteSpec("thm42", surface=surface,
                                     bounds={"n_max": 1},
                                     mutation="euler-shift"))
        action = [r for r in report.records
                  if r.params["check"] == "action"]
        assert [r.params.get("class", r.params.get("a")) for r in action] \
            == classes, surface
        assert all(r.status == "fail" for r in action), surface
        assert not report.ok


def test_each_identity_is_stated_once():
    """Every expanded side but lem32's is built from a statement by _on:
    the top-level definitions of verify.py that call Bracket, Linear or
    derivative are exactly _on and _run_lem32, which checks the smeared
    calculus against its own compositions."""
    tree = ast.parse(Path(verify.__file__).read_text(encoding="utf-8"))
    builders = {node.name for node in tree.body
                for call in ast.walk(node)
                if isinstance(call, ast.Call)
                and getattr(call.func, "id", None) in (
                    "Bracket", "Linear", "derivative")}
    assert builders == {"_on", "_run_lem32"}


def test_only_the_group_and_verdict_build_records():
    """Every record of verify.py comes from _Group or _verdict: no other
    top-level definition calls InstanceRecord(...)."""
    tree = ast.parse(Path(verify.__file__).read_text(encoding="utf-8"))
    builders = {node.name for node in tree.body
                for call in ast.walk(node)
                if isinstance(call, ast.Call)
                and getattr(call.func, "id", None) == "InstanceRecord"}
    assert builders == {"_Group", "_verdict"}
