"""tools/src_lines.py: line and code-line counts of the package."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"
_spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

# 17 lines: 7 hold code; the docstrings (lines 1-2, 8 and 14), blank
# lines and the comment line 15 do not, and a string that is no
# docstring (lines 16-17) counts on every line it spans.
SOURCE = '''"""Module doc
spanning two lines."""

import os  # comment


class A:
    """Class doc."""

    x = (1,
         2)

    def f(self):
        """Function doc."""
        # only a comment
        return """not a
docstring"""
'''


def test_counts_lines_and_code_lines_of_a_source():
    assert src_lines.counts(SOURCE) == (17, 7)


def test_prints_one_line_per_file_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(SOURCE)
    (tmp_path / "a.py").write_text("x = 1\n\n# end\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    src_lines.main([str(tmp_path)])
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert rows == [{"file": "a.py", "lines": 3, "code": 1},
                    {"file": "b.py", "lines": 17, "code": 7},
                    {"file": "total", "lines": 20, "code": 8}]
