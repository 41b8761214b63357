"""Suite registry, run plumbing, and report serialization."""

import ast
import hashlib
import json
import re
import subprocess
import sys
from functools import cache
from itertools import product
from pathlib import Path

import pytest

from hilbfock import operators, verify, walgebra
from hilbfock.fock import combine, render_state, render_terms
from hilbfock.operators import box_keep, series_nums
from hilbfock.ring import SURFACE_NAMES, builtin_ring
from hilbfock.verify import (InstanceRecord, SUITES, SuiteSpec, _sound_pos,
                             VerificationReport, list_suites, report_lines,
                             run_suite, serialize_report)
from test_acceptance import MUTATED_SHA256, REPORT_SHA256, report_sha256

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
    (SuiteSpec("rmk43", cutoff=False), "cutoff")])
def test_non_integer_bound_or_cutoff_rejected(spec, key):
    """A bound or cutoff runs as given or not at all: m_max=1.7 would run
    the m_max=1 grid under a header that names 1.7."""
    with pytest.raises(ValueError, match="^%s must be an integer" % key):
        run_suite(spec)


def test_run_without_records_rejected():
    with pytest.raises(ValueError, match="cor48 has nothing to check"):
        run_suite(SuiteSpec("cor48", bounds={"n_max": 0}))


@pytest.mark.parametrize("name,bounds", [
    ("thm55", {"pq_max": 2}), ("thm57", {"pq_max": 0}),
    ("heis", {"m_max": 0})])
def test_mutated_run_that_no_check_fails_rejected(name, bounds):
    """Bounds that leave the mutated term out of every check (Omega
    enters thm55 only at p + q >= 3) would pass the mutated run; it is
    refused, while the plain run at those bounds passes."""
    mutation = SUITES[name].mutation
    with pytest.raises(ValueError, match="^suite %s passes with mutation %s: "
                       "these bounds leave the mutation nothing to change$"
                       % (name, mutation)):
        run_suite(SuiteSpec(name, bounds=bounds, mutation=mutation))
    assert run_suite(SuiteSpec(name, bounds=bounds)).ok


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
def w_memo(monkeypatch):
    """The W-bracket memo, cleared before and after one test; the list it
    yields records each key the runners ask of it."""
    W_CELL.cache_clear()
    keys = []

    def recorded(key):
        keys.append(key)
        return W_CELL(key)

    monkeypatch.setattr(verify, "_w_cell", recorded)
    yield keys
    W_CELL.cache_clear()


def _stored_residuals_empty(keys):
    """Every residual the memo holds for keys is empty; re-reading them
    measures nothing anew."""
    misses = W_CELL.cache_info().misses
    empty = all(not W_CELL(key)[0].terms for key in keys)
    return empty and W_CELL.cache_info().misses == misses


def test_w_cells_are_measured_once_per_process(monkeypatch, w_memo):
    """thm55 and then thm57 in one process measure each (cell, window)
    once, and after their passing runs every stored residual is empty."""
    calls = []
    measure = verify.bracket_nums

    def counted(*args):
        calls.append(args)
        return measure(*args)

    monkeypatch.setattr(verify, "bracket_nums", counted)
    bounds = {"pq_max": 2, "m_max": 1}
    assert run_suite(SuiteSpec("thm55", surface="p2", bounds=bounds)).ok
    assert run_suite(SuiteSpec("thm57", bounds=bounds)).ok
    keys = {cell + (SUITES[name].window,) for name in ("thm55", "thm57")
            for cell in verify._w_cells(2, 1)}
    info = W_CELL.cache_info()
    assert len(calls) == len(keys) == info.currsize == info.misses
    assert set(w_memo) == keys
    assert _stored_residuals_empty(keys)


@pytest.mark.parametrize("name,bounds", [
    ("vir", {"m_max": 1}), ("thm55", {"pq_max": 3, "m_max": 1}),
    ("thm57", {"pq_max": 2, "m_max": 1})])
def test_w_memo_keeps_every_byte(w_memo, name, bounds):
    """A report from an empty memo and one from a warm memo are
    byte-identical, plain and mutated.  The mutation fails cold and after
    the plain run, and adds its term to a copy: the stored residuals stay
    empty."""
    def run(mutation):
        report = run_suite(SuiteSpec(name, bounds=bounds, mutation=mutation))
        return report.ok, serialize_report(report, "jsonl")

    mutation = SUITES[name].mutation
    cold_mutated = run(mutation)
    W_CELL.cache_clear()
    cold = run("")
    assert cold[0] and not cold_mutated[0]
    assert run(mutation) == cold_mutated
    assert run("") == cold
    assert w_memo and _stored_residuals_empty(w_memo)


def _family_tables(kind):
    """{(p, n, i) + key: (cap, rows)}: every table of one kind, "_tables"
    (contraction, keyed by (x, negcap)) or "_sheds" (shed, keyed by
    (v, x, negcap)), of the J-families the default W-bracket runs
    read."""
    return {(p, n, i) + key: table
            for p in range(8) for n in range(-7, 8)
            for i, fam in enumerate(walgebra.jay_families(p, n))
            for key, table in getattr(fam, kind).items()}


def test_family_tables_are_built_once_and_bounded():
    """From cleared caches, the default-bounds thm55, thm57 and vir runs
    leave at most 1,584 contraction tables with 21,003 rows and at most
    1,613 shed tables with 9,014 rows (the counts measured); a second
    thm55 run, its cells measured anew, builds no table and enumerates
    no partition.  thm55 runs on p2 only, and the second run with
    p + q <= 3: the tables depend on its cells, not on its surfaces."""
    walgebra.jay_families.cache_clear()
    W_CELL.cache_clear()
    verify._jay_nums.cache_clear()
    for spec in (SuiteSpec("thm55", surface="p2"), SuiteSpec("thm57"),
                 SuiteSpec("vir")):
        assert run_suite(spec).ok, spec.suite
    tables = {kind: _family_tables(kind) for kind in ("_tables", "_sheds")}
    for kind, count, rows in (("_tables", 1584, 21003),
                              ("_sheds", 1613, 9014)):
        assert len(tables[kind]) <= count, kind
        assert sum(len(r) for _, r in tables[kind].values()) <= rows, kind
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
    verify._jay_nums.cache_clear()
    walgebra.jay_families.cache_clear()
    operators._stats_list.cache_clear()
    return {(cell, N): W_CELL(cell + (N,))[0]
            for N in order for cell in WINDOW_CELLS}


def _unstable_residuals(residuals):
    """The cells whose window-6 residual differs from the window-8
    residual restricted to the window-6 box."""
    return [cell for cell in WINDOW_CELLS
            if residuals[cell, 6] != residuals[cell, 8].filter(
                box_keep(_sound_pos(6, *cell[2:]), 6))]


def test_w_residuals_are_window_stable(w_memo):
    """Each W-bracket residual on window 6 equals the window-8 residual
    restricted to its box, and every residual is the same whichever
    window runs first."""
    assert len(WINDOW_CELLS) == 375
    narrow_first = _w_residuals((6, 8))
    assert _unstable_residuals(narrow_first) == []
    assert _w_residuals((8, 6)) == narrow_first


def test_w_residual_stability_sees_a_short_expected_window(monkeypatch,
                                                           w_memo):
    """An expected side whose J windows stop one mode short of the box
    edge leaves window-6 residuals that the window-8 ones, restricted,
    do not have, in either window order."""
    monkeypatch.setattr(verify, "_jay_nums", cache(
        lambda p, n, pos, neg: series_nums(walgebra.jay_families(p, n),
                                           pos - 1, neg)))
    for order in ((6, 8), (8, 6)):
        assert len(_unstable_residuals(_w_residuals(order))) == 252, order


# lem52 cells (p, n) with p <= 4 and |n| <= 3.
LEM52_CELLS = [(p, n) for p in range(5) for n in range(-3, 4)]


@pytest.fixture
def lem52_memo():
    """The lem52 cells and J windows, cleared before and after one test,
    so that no cell measured under a patched window outlives it."""
    for memo in (verify._lem52_cell, verify._jay_nums):
        memo.cache_clear()
    yield
    for memo in (verify._lem52_cell, verify._jay_nums):
        memo.cache_clear()


def _lem52_residuals(order):
    """{(cell, N): the residual _lem52_cell keeps} for each window N in
    order, from cleared cells, J windows, families and partition lists."""
    verify._lem52_cell.cache_clear()
    verify._jay_nums.cache_clear()
    walgebra.jay_families.cache_clear()
    operators._stats_list.cache_clear()
    return {(cell, N): verify._lem52_cell(*cell, N)
            for N in order for cell in LEM52_CELLS}


def _unstable_lem52(residuals):
    """The cells whose window-6 residual differs from the window-8
    residual restricted to the window-6 box."""
    return [(p, n) for p, n in LEM52_CELLS
            if residuals[(p, n), 6] != residuals[(p, n), 8].filter(
                box_keep(_sound_pos(6, 0, n), 6))]


def test_lem52_residuals_are_window_stable(lem52_memo):
    """Each lem52 residual on window 6 equals the window-8 residual
    restricted to its box, and every residual is the same whichever
    window runs first."""
    assert len(LEM52_CELLS) == 35
    narrow_first = _lem52_residuals((6, 8))
    assert _unstable_lem52(narrow_first) == []
    assert _lem52_residuals((8, 6)) == narrow_first


def test_lem52_stability_sees_a_short_expected_window(monkeypatch,
                                                      lem52_memo):
    """An expected side whose J windows stop one mode short of the box
    edge leaves window-6 residuals that the window-8 ones, restricted,
    do not have, in either window order."""
    monkeypatch.setattr(verify, "_jay_nums", cache(
        lambda p, n, pos, neg: series_nums(walgebra.jay_families(p, n),
                                           pos - 1, neg)))
    for order in ((6, 8), (8, 6)):
        assert len(_unstable_lem52(_lem52_residuals(order))) == 24, order


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


REFS = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                   / "refs.json").read_text())


def test_lem32_builds_each_bracket_operator_once(monkeypatch):
    """lem32's bracket part takes each a_nu(tau a) from one memo per ring
    and each instantiated right side from one memo per (nu, mu), so on
    p1xp1 it builds 48 monomials there and 48 in the derivative part
    (2,928 when every cell built its own) and at most 720 right sides
    (2,304), and its report keeps its frozen bytes."""
    counts = {"monomial": 0, "instantiate": 0}

    def counted(name):
        build = getattr(verify, name)

        def wrapper(*args):
            counts[name] += 1
            return build(*args)
        return wrapper

    for name in counts:
        monkeypatch.setattr(verify, name, counted(name))
    report = run_suite(SuiteSpec("lem32", surface="p1xp1"))
    text = serialize_report(report, "jsonl")
    assert report.ok
    assert hashlib.sha256(text.encode()).hexdigest() == \
        REFS["suites"]["lem32-p1xp1"]
    assert counts["monomial"] <= 96, counts
    assert counts["instantiate"] <= 720, counts


def test_thm31_builds_each_transfer_operator_once(monkeypatch):
    """thm31's mixed and character-pin parts take a_n(b) and
    a_{m+n}(ab) from one memo per ring, so on p1xp1 the suite builds 113
    transfer operators (346 with a memo per m, 1,621 when every (m, a,
    b) built its own), and its report keeps its frozen bytes."""
    calls = []
    build = verify.heisenberg

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(verify, "heisenberg", counted)
    report = run_suite(SuiteSpec("thm31", surface="p1xp1"))
    text = serialize_report(report, "jsonl")
    assert report.ok
    assert hashlib.sha256(text.encode()).hexdigest() == \
        REFS["suites"]["thm31-p1xp1"]
    assert len(calls) <= 113, len(calls)


def _composed_record(ring, states, lm, an, rhs, params):
    """The record of [lm, an] against rhs on each state, composed as
    lm.act(an.act(s)) - an.act(lm.act(s)) for two even operators: a pass
    named by params, or the first failing state with rhs as expected."""
    for s in states:
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


def test_heis_composes_only_the_brackets_the_index_keeps(monkeypatch,
                                                         heis_memo):
    """heis checks each (m, n) cell as one block, so on k3 at m_max=2 it
    composes at most the 4,656 brackets that the family index keeps
    (168,768 when every (a, b, state) triple the mode rule leaves live
    was composed), and its report keeps its frozen bytes.  The mutated
    run after it reads the stored cells and composes no bracket."""
    calls = 0
    bracket = operators.commutator_column

    def counted(*args):
        nonlocal calls
        calls += 1
        return bracket(*args)

    monkeypatch.setattr(operators, "commutator_column", counted)
    for mutation, ok in (("", True), ("central-shift", False)):
        report = run_suite(SuiteSpec("heis", surface="k3",
                                     bounds={"m_max": 2}, mutation=mutation))
        text = serialize_report(report, "jsonl")
        assert report.ok is ok
        assert hashlib.sha256(text.encode()).hexdigest() == \
            REFS["suites"]["heis-k3" + ("+mutation" if mutation else "")]
        if not mutation:
            plain_calls = calls
    assert 0 < plain_calls <= 4656, plain_calls
    assert calls == plain_calls, calls - plain_calls


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


@pytest.mark.parametrize("surface, bounds", [
    ("p2", {"m_max": 2}), ("p1xp1", {"m_max": 2}),
    ("abelian", {"m_max": 1, "w_max": 2})])
def test_heis_memo_reports_a_fault_alike_cold_and_warm(monkeypatch,
                                                       heis_memo, surface,
                                                       bounds):
    """A fault in the contractions (the last one on a state of two or
    more factors doubled) fails the plain run, and its plain and mutated
    reports are the same from cleared cells in either order and from the
    cells the fault left."""
    annihilate = operators.annihilate_state

    def doubled(ring, n, i, state):
        out = annihilate(ring, n, i, state)
        if len(state) > 1 and out:
            out[-1] = (out[-1][0], 2 * out[-1][1])
        return out

    monkeypatch.setattr(operators, "annihilate_state", doubled)
    plain, mutated = _heis_pair(surface, bounds, "")
    assert not plain[0] and not mutated[0]
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


def test_eq22_brackets_each_pair_once(monkeypatch):
    """eq22 brackets every ordered pair of single terms once per ring and
    reads antisymmetry and the inner Jacobi brackets from that table, so
    at the benchmark's bounds (24 singles per ring, 12 of them in the
    Jacobi grid) it calls wbracket 24^2 times per ring, plus, per Jacobi
    triple, once for each of its three inner brackets that is nonempty:
    3 * 12 times the nonempty pairs of the grid.  An outer bracket of an
    empty inner one is zero and is not computed.  Its reports keep their
    frozen bytes."""
    calls = 0
    bracket = verify.wbracket

    def counted(*args):
        nonlocal calls
        calls += 1
        return bracket(*args)

    rings = verify._rings(SuiteSpec("eq22"))
    jacobi = sum(3 * 12 * _eq22_nonempty_inner(ring) for ring in rings)
    assert 0 < jacobi < len(rings) * 3 * 12 ** 3
    monkeypatch.setattr(verify, "wbracket", counted)
    for mutation, want in (("", len(rings) * 24 ** 2 + jacobi),
                           ("central-shift", 24 ** 2)):
        calls = 0
        report = run_suite(SuiteSpec("eq22", bounds={"p_max": 1, "m_max": 1},
                                     mutation=mutation))
        text = serialize_report(report, "jsonl")
        assert report.ok == (not mutation)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            REFS["suites"]["eq22" + ("+mutation" if mutation else "")]
        assert calls == want, (mutation, calls)


SYMBOLIC_CELLS = ("_rmk43_cell", "_field_component", "_field_window",
                  "_jay_window")


@pytest.mark.parametrize("name", ("rmk43", "lem61", "lem53"))
def test_mutated_symbolic_run_reuses_the_plain_cells(monkeypatch, name):
    """After its plain run, a mutated rmk43, lem61 or lem53 run derives
    nothing and builds no series the plain run built.  Only lem53's
    mutation builds a series of its own, its 28 :a^{p-1}:_m terms, once
    per process, so a second mutated run builds none."""
    for cell in SYMBOLIC_CELLS:
        getattr(verify, cell).cache_clear()
    calls = dict.fromkeys(("s_derive", "series_to_smeared"), 0)
    for fn in calls:
        def counted(*args, _fn=fn, _real=getattr(verify, fn), **kwargs):
            calls[_fn] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(verify, fn, counted)
    assert run_suite(SuiteSpec(name)).ok
    assert calls["series_to_smeared"] > 0
    mutation = SUITES[name].mutation
    for own in ((28 if name == "lem53" else 0), 0):
        calls.update(dict.fromkeys(calls, 0))
        misses = {cell: getattr(verify, cell).cache_info().misses
                  for cell in SYMBOLIC_CELLS}
        assert not run_suite(SuiteSpec(name, mutation=mutation)).ok
        grown = {cell: getattr(verify, cell).cache_info().misses - n
                 for cell, n in misses.items()}
        assert calls == {"s_derive": 0, "series_to_smeared": own}, calls
        assert grown == dict.fromkeys(SYMBOLIC_CELLS, 0) | {
            "_field_component": own}, grown


@pytest.mark.parametrize("name", ("lem52", "rmk56"))
def test_mutated_jay_run_reads_the_plain_windows(monkeypatch, name):
    """lem52 and rmk56 read J^p_n from _jay_nums, lem52's mutation and
    rmk56 through _jay_window, so after the plain run the mutated one
    builds no series: every window it reads is kept."""
    verify._lem52_cell.cache_clear()
    verify._jay_window.cache_clear()
    verify._jay_nums.cache_clear()
    calls = 0
    build = verify.series_nums

    def counted(*args):
        nonlocal calls
        calls += 1
        return build(*args)

    monkeypatch.setattr(verify, "series_nums", counted)
    assert run_suite(SuiteSpec(name)).ok
    assert calls > 0
    calls = 0
    assert not run_suite(SuiteSpec(name, mutation=SUITES[name].mutation)).ok
    assert calls == 0


@pytest.mark.parametrize("name,measure,kept,bounds", [
    ("lem52", "bracket_nums", "_lem52_cell", {"p_max": 4, "n_max": 3}),
    ("thm57", "wbracket", "_thm57_comparisons", {"pq_max": 5, "m_max": 3})])
def test_mutated_run_after_the_plain_one_measures_nothing(
        monkeypatch, name, measure, kept, bounds):
    """lem52 keeps its bracket cells (_lem52_cell) and thm57 the
    comparisons of its symbolic part (_thm57_comparisons) for the
    process: from cleared cells, whichever run comes first measures
    them, the other makes no bracket_nums or wbracket call, and both
    keep the frozen digests of the acceptance battery, whose plain runs
    name their default bounds."""
    calls = 0
    real = getattr(verify, measure)

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(verify, measure, counted)
    for first in (False, True):
        getattr(verify, kept).cache_clear()
        for mutated in (first, not first):
            calls = 0
            report = run_suite(
                SuiteSpec(name, mutation=SUITES[name].mutation) if mutated
                else SuiteSpec(name, bounds=bounds))
            assert report.ok != mutated
            assert (calls > 0) == (mutated == first), (first, mutated)
            digests = MUTATED_SHA256 if mutated else REPORT_SHA256
            assert report_sha256(report) == digests[name], mutated


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


def test_only_the_group_and_verdict_build_records():
    """Every record of verify.py comes from _Group or _verdict: no other
    top-level definition calls InstanceRecord(...)."""
    tree = ast.parse(Path(verify.__file__).read_text(encoding="utf-8"))
    builders = {node.name for node in tree.body
                for call in ast.walk(node)
                if isinstance(call, ast.Call)
                and getattr(call.func, "id", None) == "InstanceRecord"}
    assert builders == {"_Group", "_verdict"}
