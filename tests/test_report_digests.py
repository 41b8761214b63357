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
import importlib.util
import io
import json
from pathlib import Path

import pytest

from hilbfock import operators, partitions, verify
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


def test_outputs_survive_clearing_every_process_cache():
    """The caches that live as long as the process only save work: with
    each of them emptied, the query universe and two suite jobs give
    their frozen bytes again; thm57 measures its W-bracket cells anew."""
    operators._stats_cache.clear()
    verify._W_MEMO.clear()
    partitions._exact_partitions.cache_clear()
    for name in SURFACE_NAMES:
        builtin_ring(name)._cache.clear()
    for qid in sorted(QUERIES):
        assert _run_query(qid) == REFS["queries"][qid], qid
    for job in ("heis-p1xp1", "thm57"):
        _check_job(job, False)
