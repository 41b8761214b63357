"""tools/work_counts.py: exact call counts that do not depend on the host
or on the hash seed."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "work_counts.py"


def _counts(hashseed):
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    proc = subprocess.run(
        [sys.executable, str(TOOL), "heis,surface=p2,m_max=1"],
        capture_output=True, text=True, check=True, env=env)
    line, = proc.stdout.splitlines()
    return json.loads(line)


def test_heis_counts_are_the_same_under_two_hash_seeds():
    """heis on p2 at m_max=1, counted in two fresh processes under
    PYTHONHASHSEED 0 and 1, gives the same total calls and the same
    ncalls of every kernel, and the kernels it runs are counted."""
    first, second = _counts(0), _counts(1)
    assert first == second
    assert first["run"] == "heis,surface=p2,m_max=1"
    kernels = first["kernels"]
    assert kernels["OperatorSum.column"] > 0
    assert kernels["commutator_block"] > 0
    assert kernels["series_bracket"] == 0
    assert first["calls"] > sum(kernels.values())


@pytest.mark.parametrize("job, item", [("thm55,surface", "'surface'"),
                                       ("thm55,pq_max=", "'pq_max='"),
                                       ("thm55,m_max=1,m_max=2", "'m_max=2'")])
def test_a_malformed_job_exits_2_before_any_child(job, item):
    """An item without "=", with an empty value, or with a repeated key
    exits 2 with one line naming it, before any child starts: the well
    formed job given first prints no count."""
    proc = subprocess.run(
        [sys.executable, str(TOOL), "heis,surface=p2,m_max=1", job],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    line, = proc.stderr.splitlines()
    assert line.startswith("work_counts.py: %s: item %s" % (job, item))


@pytest.mark.parametrize("job, message", [
    ("thm55,foo=1", "suite thm55 has no bound foo"),
    ("nosuch", "unknown suite 'nosuch'")])
def test_a_refused_job_exits_2_with_one_line(job, message):
    """A job that verify.run_suite refuses, an unknown bound or suite,
    exits 2 with one stderr line naming the job and the reason, and no
    traceback."""
    proc = subprocess.run([sys.executable, str(TOOL), job],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    line, = proc.stderr.splitlines()
    assert line.startswith("work_counts.py: %s: %s" % (job, message)), line
