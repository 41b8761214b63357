"""Suite registry, run plumbing, and report serialization."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from hilbfock import verify
from hilbfock.ring import SURFACE_NAMES
from hilbfock.verify import (InstanceRecord, SUITES, SuiteSpec,
                             VerificationReport, list_suites, report_lines,
                             run_suite, serialize_report)

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
        assert report.wall_ms > 0


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


@pytest.fixture
def w_memo(monkeypatch):
    """An empty W-bracket memo for one test; the process's own memo is
    put back afterwards."""
    memo = {}
    monkeypatch.setattr(verify, "_W_MEMO", memo)
    return memo


def test_w_cells_are_measured_once_per_process(monkeypatch, w_memo):
    """thm55 and then thm57 in one process measure each (cell, window)
    once, and after their passing runs every stored residual is empty."""
    calls = []
    measure = verify.series_bracket

    def counted(*args):
        calls.append(args)
        return measure(*args)

    monkeypatch.setattr(verify, "series_bracket", counted)
    bounds = {"pq_max": 2, "m_max": 1}
    assert run_suite(SuiteSpec("thm55", surface="p2", bounds=bounds)).ok
    assert run_suite(SuiteSpec("thm57", bounds=bounds)).ok
    keys = {cell + (SUITES[name].window,) for name in ("thm55", "thm57")
            for cell in verify._w_cells(2, 1)}
    assert len(calls) == len(keys) == len(w_memo)
    assert set(w_memo) == keys
    assert all(not residual.terms for residual, _ in w_memo.values())


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
    w_memo.clear()
    cold = run("")
    assert cold[0] and not cold_mutated[0]
    assert run(mutation) == cold_mutated
    assert run("") == cold
    assert w_memo and all(not residual.terms
                          for residual, _ in w_memo.values())


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
    """thm31's mixed part takes a_n(b) and a_{m+n}(ab) from its per-m
    memo, so on p1xp1 the suite builds 346 transfer operators (1,621
    when every (m, a, b) built its own), and its report keeps its frozen
    bytes."""
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
    assert len(calls) <= 346, len(calls)


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
