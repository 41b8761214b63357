"""Report-digest lock: cheap suite jobs reproduce their frozen reports.

The benchmark freezes the sha256 of every suite job's jsonl report in
perfbench/refs.json.  This test re-runs the cheap jobs of the action
workload and the symbolic jobs other than thm55, plain and mutated, with
the job specs taken from perfbench/workloads.py, and requires every
report byte to match.  It reads both files and changes neither.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from hilbfock.verify import SuiteSpec, list_suites, run_suite, serialize_report

BENCH = Path(__file__).resolve().parents[1] / "perfbench"

# (job id, mutated): the action jobs that finish in well under a second,
# and the symbolic jobs that take a few seconds at most.
CHEAP = (("heis-p2", False), ("heis-p1xp1", False),
         ("lem32-p1xp1", True), ("thm31-p1xp1", True))
SYMBOLIC = tuple((job, mutated)
                 for job in ("eq22", "lem53", "lem61", "rmk43", "thm57")
                 for mutated in (False, True))


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REFS = json.loads((BENCH / "refs.json").read_text())["suites"]
WORKLOADS = _load_workloads()
JOBS = dict(WORKLOADS.ACTION + WORKLOADS.SYMBOLIC)
MUTATION = {row["suite"]: row["mutation"] for row in list_suites()}


@pytest.mark.parametrize("job,mutated", CHEAP + SYMBOLIC)
def test_report_matches_frozen_digest(job, mutated):
    spec = SuiteSpec(**JOBS[job], jobs=1)
    if mutated:
        spec.mutation = MUTATION[spec.suite]
    report = run_suite(spec)
    assert report.ok != mutated
    text = serialize_report(report, "jsonl")
    key = job + ("+mutation" if mutated else "")
    assert hashlib.sha256(text.encode()).hexdigest() == REFS[key], key
