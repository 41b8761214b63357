"""tools/fault_matrix.py: its mutants name edits that apply to src/."""

import importlib.util
from pathlib import Path

import pytest

from hilbfock.verify import SUITES

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "fault_matrix", ROOT / "tools" / "fault_matrix.py")
fault_matrix = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fault_matrix)


@pytest.mark.parametrize("name", sorted(fault_matrix.MUTANTS))
def test_each_mutant_old_text_occurs_once_in_src(name):
    """Each mutant's old text occurs exactly once in the package, in its
    file and in no other, and its new text differs from it, so a mutant
    edits one known place and a drifted kernel shows here rather than
    as a silent survivor."""
    path, old, new = fault_matrix.MUTANTS[name]
    counts = {p.name: p.read_text(encoding="utf-8").count(old)
              for p in (ROOT / "src" / "hilbfock").glob("*.py")}
    assert {p: c for p, c in counts.items() if c} == {path: 1}
    assert new != old


def test_survivors_are_mutants():
    """Every named survivor is a mutant of the table, with a reason."""
    assert set(fault_matrix.SURVIVORS) <= set(fault_matrix.MUTANTS)
    assert all(fault_matrix.SURVIVORS.values())


def test_single_killers_are_mutants():
    """Every mutant of the single-killer table is a mutant of the table,
    not a survivor, and its killer is a suite."""
    single = fault_matrix.SINGLE_KILLERS
    assert set(single) <= set(fault_matrix.MUTANTS) - set(
        fault_matrix.SURVIVORS)
    assert set(single.values()) <= set(SUITES)
