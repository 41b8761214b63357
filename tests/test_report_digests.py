"""Report-digest lock: every frozen benchmark output is reproduced.

The benchmark freezes, in perfbench/refs.json, the sha256 of every suite
job's jsonl report and the exit code and stdout sha256 of every CLI
query.  This test re-runs all of them: each suite job of the action and
symbolic workloads, plain and mutated, with the job specs taken from
perfbench/workloads.py, and each request of the query universe once
and again in one process forward and reversed, and requires every byte
to match.  It reads both files and changes neither.
"""

import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import pkgutil
from pathlib import Path

import pytest

import hilbfock
from hilbfock import operators, ring, verify, walgebra
from hilbfock.cli import main
from hilbfock.ring import SURFACE_NAMES, builtin_ring
from hilbfock.verify import SuiteSpec, list_suites, run_suite, serialize_report

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REFS = json.loads((BENCH / "refs.json").read_text())
WORKLOADS = _load_workloads()
JOBS = dict(WORKLOADS.ACTION + WORKLOADS.SYMBOLIC)
QUERIES = {qid: text.split() for qid, text, _ in WORKLOADS.QUERIES}
MUTATION = {row["suite"]: row["mutation"] for row in list_suites()}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_frozen_output_is_run():
    """The parametrizations below cover refs.json exactly."""
    jobs = {job + ("+mutation" if mutated else "")
            for job in JOBS for mutated in (False, True)}
    assert jobs == set(REFS["suites"])
    assert set(QUERIES) == set(REFS["queries"])


def _check_job(job, mutated):
    spec = SuiteSpec(**JOBS[job], jobs=1)
    if mutated:
        spec.mutation = MUTATION[spec.suite]
    report = run_suite(spec)
    assert report.ok != mutated
    key = job + ("+mutation" if mutated else "")
    text = serialize_report(report, "jsonl")
    assert _sha256(text) == REFS["suites"][key], key


@pytest.mark.parametrize("mutated", (False, True))
@pytest.mark.parametrize("job", sorted(JOBS))
def test_report_matches_frozen_digest(job, mutated):
    _check_job(job, mutated)


def _run_query(qid):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(QUERIES[qid])
    return [code, _sha256(out.getvalue())]


@pytest.mark.parametrize("qid", sorted(QUERIES))
def test_query_matches_frozen_output(qid):
    assert _run_query(qid) == REFS["queries"][qid], qid


def test_query_outputs_do_not_depend_on_history():
    """The whole query universe in one process, forward and then
    reversed, from empty memos of named series: how far an earlier
    request grew a shared series must not change a later output (G_2(x)
    on p1xp1 meets a four-point chern and then a cutoff-5 dump, and
    then the two again in the other order)."""
    for name in SURFACE_NAMES:
        builtin_ring(name)._cache.pop("named", None)
    order = [qid for qid, _, _ in WORKLOADS.QUERIES]
    for qid in order + order[::-1]:
        assert _run_query(qid) == REFS["queries"][qid], qid


def clear_process_caches():
    """Empty every functools cache among the globals of the hilbfock
    modules, found rather than listed, so that a new or renamed cache is
    not left out, and return them; all but the built-in rings themselves
    (ring._built), which callers compare by identity, so each keeps its
    object and has its _cache cleared instead."""
    found = {}
    for info in pkgutil.iter_modules(hilbfock.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module("hilbfock." + info.name)
        for value in vars(module).values():
            if hasattr(value, "cache_clear") and value is not ring._built:
                found[id(value)] = value
    for cached in found.values():
        cached.cache_clear()
    for name in SURFACE_NAMES:
        builtin_ring(name)._cache.clear()
    return list(found.values())


def test_outputs_survive_clearing_every_process_cache():
    """The caches that live as long as the process only save work: with
    each of them emptied, the query universe and five suite jobs give
    their frozen bytes again; thm57 measures its W-bracket cells anew,
    from new J-families, contraction and shed tables and windows, and
    lem61 and lem53 build their windows anew."""
    assert {verify._window, verify._w_cell, walgebra.jay_families,
            operators._stats_list} <= set(clear_process_caches())
    for qid in sorted(QUERIES):
        assert _run_query(qid) == REFS["queries"][qid], qid
    for job in ("heis-p1xp1", "thm57", "rmk43", "lem61", "lem53"):
        _check_job(job, False)


def _jay_family_fields():
    """{(p, n): (the shared tuple, each family's fields)} over the J-family
    keys that def51-ids reads."""
    return {(p, n): (fams, [(f.ell, f.total, f.num, f.den, f.epow)
                            for f in fams])
            for p in range(5) for n in range(-3, 4)
            for fams in [walgebra.jay_families(p, n)]}


def test_def51_mutation_leaves_the_shared_families_alone():
    """def51-ids' mutation builds J^p_n with another shift, apart from
    the shared J^p_n family tuple: after its mutated run jay_families
    returns the same families, and thm55, measured anew, keeps its
    frozen digest."""
    before = _jay_family_fields()
    report = run_suite(SuiteSpec("def51-ids", mutation=MUTATION["def51-ids"]))
    assert not report.ok
    after = _jay_family_fields()
    assert all(after[key][0] is fams for key, (fams, _) in before.items())
    assert after == before
    verify._w_cell.cache_clear()
    verify._window.cache_clear()
    _check_job("thm55", False)


# The process cache of the symbolic jobs below: the series windows of
# lem61 and lem53.
SYMBOLIC_CELLS = ("_window",)


@pytest.fixture
def cell_keys(recorded):
    """The symbolic cell caches, cleared before and after one test; the
    dict it yields maps each cache's name to the cache and the list of
    keys the runners read from it, one per read."""
    keys = {}
    for name in SYMBOLIC_CELLS:
        cached = getattr(verify, name)
        cached.cache_clear()
        keys[name] = (cached, recorded(verify, name))
    yield keys
    for cached, _ in keys.values():
        cached.cache_clear()


@pytest.mark.parametrize("first", (False, True), ids=("plain", "mutated"))
@pytest.mark.parametrize("job", ("rmk43", "lem61", "lem53"))
def test_symbolic_cells_keep_the_frozen_digests_in_either_order(cell_keys,
                                                                job, first):
    """From cleared caches, the plain and the mutated run give their
    frozen bytes whichever of them runs first and builds the windows;
    rmk43 reads none."""
    _check_job(job, first)
    _check_job(job, not first)
    assert any(seen for _, seen in cell_keys.values()) == (job != "rmk43")


def _cell_terms(cell_keys):
    """{(cache name, key): (smeared list, a copy of its numerators and
    denominator)} for each key read so far, from the caches themselves."""
    return {(name, key): (cell, (dict(cell.terms), cell.den))
            for name, (cached, seen) in cell_keys.items()
            for key in seen for cell in [cached(*key)]}


@pytest.mark.parametrize("job", ("lem61", "lem53"))
def test_symbolic_mutation_leaves_the_cached_cells_alone(cell_keys, job):
    """A mutated lem61 or lem53 run after the plain one adds its
    term to new lists: every cell the plain run cached is the same object
    with the same terms afterwards, and the plain run again keeps its
    frozen digest."""
    _check_job(job, False)
    before = _cell_terms(cell_keys)
    assert before
    _check_job(job, True)
    after = _cell_terms(cell_keys)
    for key, (op, terms) in before.items():
        now, now_terms = after[key]
        assert now is op and now_terms == terms, key
    _check_job(job, False)
