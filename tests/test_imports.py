"""Every name a module under src/ imports is used in that module, and
every private name defined under src/ is referenced somewhere in src/."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(SRC.rglob("*.py"))


def unused_imports(source):
    """Names bound by import statements that no other node of the module
    loads; names listed in __all__ count as used."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_checker_flags_an_unused_import():
    source = "import os\nfrom math import comb, factorial\nprint(comb)\n"
    assert unused_imports(source) == [(1, "os"), (2, "factorial")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == [], path.relative_to(SRC)


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def unreferenced_private_names(sources):
    """(file, line, name) of every private name (a leading underscore,
    not a dunder) that a def, a class or a module-level assignment in
    sources defines and that no other node of sources references, as a
    name, an attribute or an imported name.  sources maps file names to
    their text."""
    defined = {}
    refs = Counter()
    for path, source in sources.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.setdefault(node.name, (path, node.lineno))
            elif isinstance(node, ast.Name):
                refs[node.id] += 1
            elif isinstance(node, ast.Attribute):
                refs[node.attr] += 1
            elif isinstance(node, ast.alias):
                refs[node.name] += 1
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            for t in targets:
                if isinstance(t, ast.Name):
                    # the defining name node is not a reference
                    refs[t.id] -= 1
                    defined.setdefault(t.id, (path, t.lineno))
    return sorted((path, line, name)
                  for name, (path, line) in defined.items()
                  if _is_private(name) and refs[name] <= 0)


def test_checker_flags_an_unreferenced_private_name():
    source = ("_LIMIT = 3\n_SPARE = 4\n"
              "def _grow(n):\n    return min(n + 1, _LIMIT)\n"
              "class _Box:\n"
              "    def _peek(self):\n        return _grow(0)\n"
              "    def _drop(self):\n        pass\n"
              "    def __len__(self):\n        return _Box()._peek()\n")
    assert unreferenced_private_names({"m.py": source}) == [
        ("m.py", 2, "_SPARE"), ("m.py", 8, "_drop")]


def test_every_private_name_is_referenced():
    sources = {str(p.relative_to(SRC)): p.read_text() for p in MODULES}
    assert unreferenced_private_names(sources) == []


TRACER = SRC.parent / "perfbench" / "tracer.py"


def unreferenced_public_names(sources, held=()):
    """(file, line, name) of every public top-level def or class in
    sources that no node of sources references, as a name, an attribute
    or an imported name, and that held does not name."""
    defined = {}
    refs = set()
    for path, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not node.name.startswith("_")):
                defined.setdefault(node.name, (path, node.lineno))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.alias):
                refs.add(node.name)
    return sorted((path, line, name)
                  for name, (path, line) in defined.items()
                  if name not in refs and name not in held)


def test_checker_flags_an_unreferenced_public_name():
    sources = {"a.py": "def grow(n):\n    return n\n"
                       "def spare():\n    pass\nclass Box:\n    pass\n"
                       "def traced():\n    pass\n",
               "b.py": "from a import grow\nprint(grow(1))\n"}
    assert unreferenced_public_names(sources, {"traced"}) == [
        ("a.py", 3, "spare"), ("a.py", 5, "Box")]


def _tracer_names():
    """The function names the benchmark tracer wraps: the (module, path)
    pairs of its GROUPS and COUNT_ONLY tables, read as literals; a
    "Class.method" path names its class."""
    pairs = []
    for node in ast.parse(TRACER.read_text()).body:
        if (isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None)
                in ("GROUPS", "COUNT_ONLY")):
            table = ast.literal_eval(node.value)
            for value in table.values():
                pairs += value if isinstance(value, list) else [value]
    return {path.split(".")[0] for _, path in pairs}


def test_every_public_name_is_referenced_or_traced():
    """A public function or class under src/ that src/ never uses is dead
    code unless the benchmark's layer tracer wraps it; the tracer file is
    only read here."""
    sources = {str(p.relative_to(SRC)): p.read_text() for p in MODULES}
    assert unreferenced_public_names(sources, _tracer_names()) == []


def _module_name(path):
    """The dotted import name of a module file under src/."""
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


CONCURRENCY = ("multiprocessing", "concurrent", "threading")


def concurrency_imports(source):
    """(line, module) of every import statement in source, at any depth,
    that reaches multiprocessing, concurrent.futures or threading."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.split(".")[0] in CONCURRENCY]
    return sorted(found)


def test_checker_flags_a_concurrency_import():
    source = ("import os, threading\n"
              "def run():\n    from multiprocessing import Pool\n"
              "    import concurrent.futures as cf\n"
              "from . import threads\n")
    assert concurrency_imports(source) == [
        (1, "threading"), (3, "multiprocessing"), (4, "concurrent.futures")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_worker_pool(path):
    """Every run does its work in the process that reports it, where the
    benchmark's tracer sees it; a lazy import inside a function counts,
    which the import-time test below cannot see."""
    assert concurrency_imports(path.read_text()) == [], path.relative_to(SRC)


def test_importing_the_package_loads_no_multiprocessing():
    """A fresh interpreter that imports hilbfock and every submodule has
    not loaded multiprocessing: importing the package starts no
    process."""
    names = [_module_name(p) for p in MODULES]
    assert {"hilbfock", "hilbfock.cli", "hilbfock.verify"} <= set(names)
    code = ("import importlib, sys\n"
            "for name in %r:\n"
            "    importlib.import_module(name)\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] == 'multiprocessing'))\n" % names)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"
