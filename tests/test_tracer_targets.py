"""Every function the benchmark's layer tracer wraps still exists.

perfbench/tracer.py names its targets as (module, function) or
(module, "Class.method") pairs and patches them by getattr on the
package; a renamed or deleted target would break traced benchmark runs.
The tracer file is only read here, never changed.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import hilbfock

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
WORKER = TRACER.with_name("worker.py")


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets():
    tracer = _tracer()
    pairs = [t for targets in tracer.GROUPS.values() for t in targets]
    pairs += list(tracer.COUNT_ONLY.values())
    return tracer.MODULES, pairs


MODULES, TARGETS = _targets()
for _name in MODULES:
    importlib.import_module("hilbfock." + _name)


def test_tracer_lists_targets():
    assert ("operators", "commutator_action") in TARGETS
    assert ("operators", "OperatorSum.apply") in TARGETS


@pytest.mark.parametrize("module,path", TARGETS)
def test_tracer_target_resolves(module, path):
    obj = getattr(hilbfock, module)
    for part in path.split("."):
        obj = getattr(obj, part)
    assert callable(obj), (module, path)


def test_traced_queries_run_has_no_failed_operation():
    """A traced queries run wraps every target; a wrapped function that a
    request reaches with arguments its counter cannot read (the
    operators.apply counter reads args[-1].terms) would fail that
    request."""
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--workload", "queries", "--seed", "1",
         "--trace"], capture_output=True, text=True, timeout=120,
        check=True)
    rep = json.loads(proc.stdout.strip().splitlines()[-1])["rep"]
    assert rep["failed"] == []
    assert rep["self_test_ok"]
