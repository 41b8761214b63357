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


FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFS = FUNCS + (ast.ClassDef,)


def unreferenced_public_names(sources, held=()):
    """(file, line, name) of every public top-level def or class in
    sources that no node of sources loads as a name or imports, and of
    every public method or property of a top-level class, named
    "Class.method", whose name no node of sources loads at all; held
    names the ones exempted.

    An attribute load does not count for a top-level name: x.spare() may
    be a method of the same name.  For a method any load counts, an
    attribute or a plain name: the check cannot tell a method elem from
    an argument elem, so it errs toward keeping a method."""
    defined = {}
    refs = set()
    loads = set()
    for path, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, DEFS) and not node.name.startswith("_"):
                defined.setdefault(node.name, (path, node.lineno, refs))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, FUNCS)
                            and not item.name.startswith("_")):
                        defined.setdefault(
                            "%s.%s" % (node.name, item.name),
                            (path, item.lineno, loads))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.add(node.id)
                loads.add(node.id)
            elif isinstance(node, ast.alias):
                refs.add(node.name)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                loads.add(node.attr)
    return sorted((path, line, name)
                  for name, (path, line, used) in defined.items()
                  if name.rpartition(".")[2] not in used
                  and name not in held)


def test_checker_flags_an_unreferenced_public_name():
    sources = {"a.py": "def grow(n):\n    return n\n"
                       "def spare():\n    pass\nclass Box:\n    pass\n"
                       "def traced():\n    pass\n",
               "b.py": "from a import grow\nprint(grow(1))\nx.spare()\n"}
    assert unreferenced_public_names(sources, {"traced"}) == [
        ("a.py", 3, "spare"), ("a.py", 5, "Box")]


def test_checker_flags_an_unreferenced_public_method():
    """A method or property counts as used when some node loads its name;
    storing to the name does not."""
    sources = {"a.py": "class Box:\n"
                       "    def grow(self):\n        return self.size\n"
                       "    @property\n    def size(self):\n"
                       "        return 1\n"
                       "    def spare(self):\n        pass\n"
                       "    def traced(self):\n        pass\n"
                       "    def _hidden(self):\n        pass\n"
                       "    def elem(self):\n        pass\n",
               "b.py": "from a import Box\nspare = Box()\n"
                       "print(Box().grow(), elem)\n"}
    assert unreferenced_public_names(sources, {"Box.traced"}) == [
        ("a.py", 7, "Box.spare")]


def _tracer_names():
    """The function names the benchmark tracer wraps: the (module, path)
    pairs of its GROUPS and COUNT_ONLY tables, read as literals; a
    "Class.method" path names its method and its class."""
    pairs = []
    for node in ast.parse(TRACER.read_text()).body:
        if (isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None)
                in ("GROUPS", "COUNT_ONLY")):
            table = ast.literal_eval(node.value)
            for value in table.values():
                pairs += value if isinstance(value, list) else [value]
    return ({path.split(".")[0] for _, path in pairs}
            | {path for _, path in pairs})


def test_every_public_name_is_referenced_or_traced():
    """A public function, class, method or property under src/ that src/
    never uses is dead code unless the benchmark's layer tracer wraps it;
    the tracer file is only read here."""
    sources = {str(p.relative_to(SRC)): p.read_text() for p in MODULES}
    assert unreferenced_public_names(sources, _tracer_names()) == []


# Kept only for the tracer's operators.apply layer, whose counter reads
# args[-1].terms: a dict has none, so a traced call from src/ would raise.
TRACER_ONLY = ("apply", "commutator_action", "derivation_apply",
               "apply_arrangement")


def tracer_only_calls(source):
    """(line, name) of every call in source to a TRACER_ONLY name, as a
    plain name or an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in TRACER_ONLY:
                found.append((node.lineno, name))
    return found


def test_checker_flags_a_tracer_only_call():
    source = ("op.apply(v)\nops.apply_arrangement(r, m, e, t)\n"
              "op.act(v)\napply = op.act\n")
    assert tracer_only_calls(source) == [(1, "apply"),
                                         (2, "apply_arrangement")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_calls_a_tracer_only_name(path):
    assert tracer_only_calls(path.read_text()) == [], path.relative_to(SRC)


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


ENVIRONMENT = ("environ", "environb", "getenv")


def environment_reads(source):
    """(line, name) of every read of the process environment in source:
    an attribute environ, environb or getenv (os.environ.get, os.getenv)
    or a from-import of one of them."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name in ENVIRONMENT]
    return sorted(found)


def test_checker_flags_an_environment_read():
    source = ("import os\nfrom os import getenv as g\n"
              "def where():\n    return os.environ.get('HOME')\n"
              "x = os.getenv('A') or os.environb[b'B']\n"
              "environ = {}\nprint(environ)\n")
    assert environment_reads(source) == [
        (2, "getenv"), (4, "environ"), (5, "environb"), (5, "getenv")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_reads_the_environment(path):
    """Every input of a run is a command-line option or an argument, so
    the same command line gives the same output in any environment."""
    assert environment_reads(path.read_text()) == [], path.relative_to(SRC)


EMPTY_CONTAINERS = ("set", "dict", "OrderedDict")


def module_level_empty_containers(source):
    """(line, name) of every module-level name bound to an empty {}, [],
    set(), dict() or OrderedDict(): a container that lives as long as the
    process and that nothing bounds or clears."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        value = node.value
        empty = ((isinstance(value, ast.Dict) and not value.keys)
                 or (isinstance(value, ast.List) and not value.elts)
                 or (isinstance(value, ast.Call) and not value.args
                     and not value.keywords
                     and getattr(value.func, "id",
                                 getattr(value.func, "attr", None))
                     in EMPTY_CONTAINERS))
        if empty:
            found += [(node.lineno, t.id) for t in targets
                      if isinstance(t, ast.Name)]
    return sorted(found)


def test_checker_flags_a_module_level_empty_container():
    source = ("import collections\n_MEMO = {}\n_stats = {}\n"
              "_rings = {}\n_seen: list = []\n_ids = set()\n"
              "_named = collections.OrderedDict()\n_kw = dict()\n"
              "_TABLE = {'p2': 1}\n_FROZEN = frozenset()\n"
              "def run():\n    memo = {}\n    return memo\n")
    assert module_level_empty_containers(source) == [
        (2, "_MEMO"), (3, "_stats"), (4, "_rings"),
        (5, "_seen"), (6, "_ids"), (7, "_named"), (8, "_kw")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_level_memo_container(path):
    """A memo that lives as long as the process goes through functools
    (functools.cache, which cache_clear() empties), a ring's _cache or an
    operator's own columns, not through a hand-rolled module dict."""
    assert module_level_empty_containers(path.read_text()) == [], \
        path.relative_to(SRC)


# Operations that act on whole {state: coeff} dicts: a state check built
# from them would compute a side outside _Group.columns.
DICT_LEVEL = ("commutator_column", "commutator_action", "derive",
              "derivation_apply")


def state_check_bypasses(source):
    """(line, name) of every call .columns(...) in source that is passed a
    lambda, or a function defined in the same enclosing function, and of
    every import of a DICT_LEVEL name: a state check that builds a side
    per state rather than comparing two column sources."""
    found = []
    for scope in ast.walk(ast.parse(source)):
        if isinstance(scope, ast.ImportFrom):
            found += [(scope.lineno, alias.name) for alias in scope.names
                      if alias.name in DICT_LEVEL]
        if not isinstance(scope, FUNCS + (ast.Module,)):
            continue
        local = {node.name for node in ast.walk(scope)
                 if isinstance(node, FUNCS) and node is not scope}
        for call in ast.walk(scope):
            if not (isinstance(call, ast.Call)
                    and getattr(call.func, "attr", None) == "columns"):
                continue
            for arg in call.args + [kw.value for kw in call.keywords]:
                if isinstance(arg, ast.Lambda):
                    found.append((call.lineno, "lambda"))
                elif getattr(arg, "id", None) in local:
                    found.append((call.lineno, arg.id))
    return sorted(set(found))


def test_checker_flags_a_bracket_closure():
    source = ("from .operators import Bracket, commutator_column\n"
              "def run(t, f, g, rhs):\n"
              "    t.columns(r, ss, lambda s: commutator_column(f, g, s),\n"
              "              rhs, {})\n"
              "    def sides(s):\n"
              "        return f.column(s)\n"
              "    t.columns(r, ss, f, sides, {})\n"
              "    t.columns(r, ss, Bracket(f, g), rhs, {})\n")
    assert state_check_bypasses(source) == [
        (1, "commutator_column"), (3, "lambda"), (7, "sides")]


def test_state_checks_go_through_group_columns():
    """Every check a verify suite makes on states goes through
    _Group.columns, which compares two column sources, and verify
    imports no operation on whole dicts to build a side with."""
    source = (SRC / "hilbfock" / "verify.py").read_text()
    assert state_check_bypasses(source) == []


def _int_parse(node):
    """Whether the try statement node only parses an integer: its body
    is one assignment of int(...)."""
    body = node.body
    return (len(body) == 1 and isinstance(body[0], ast.Assign)
            and getattr(getattr(body[0].value, "func", None), "id",
                        None) == "int")


def exit_path_bypasses(source):
    """(line, name) of every read of _emit outside main, and of every
    except clause in a _cmd_* function but _cmd_verify's integer parse:
    a command that writes its own output or reports its own error rather
    than returning (text, exit code) to main."""
    found = [(line, "_emit")
             for line, _ in reads_outside(source, "_emit", ("main",))]
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, FUNCS) and func.name.startswith("_cmd_"):
            found += [(handler.lineno, func.name)
                      for node in ast.walk(func) if isinstance(node, ast.Try)
                      and not (func.name == "_cmd_verify"
                               and _int_parse(node))
                      for handler in node.handlers]
    return sorted(found)


def test_checker_flags_a_second_exit_path():
    source = ("def _cmd_verify(args):\n"
              "    try:\n"
              "        bound = int(args.bound)\n"
              "    except ValueError:\n"
              "        raise UsageError('bad bound')\n"
              "    try:\n"
              "        report = run_suite(spec)\n"
              "    except ValueError as exc:\n"
              "        raise UsageError(str(exc))\n"
              "    return text, 0\n"
              "def _cmd_omega(args):\n"
              "    try:\n"
              "        value = int(args.p)\n"
              "    except ValueError:\n"
              "        value = 0\n"
              "    _emit(text, args.out)\n"
              "def main(argv):\n"
              "    text, code = args.func(args)\n"
              "    _emit(text, args.out)\n")
    assert exit_path_bypasses(source) == [
        (8, "_cmd_verify"), (14, "_cmd_omega"), (16, "_emit")]


def test_cli_output_and_errors_leave_through_main():
    """In cli.py only main writes a command's output (_emit), and no
    _cmd_* function catches an exception but _cmd_verify's --bound
    integer parse: every refused input reaches main's one ValueError
    branch, which exits 2 with one line."""
    source = (SRC / "hilbfock" / "cli.py").read_text()
    assert exit_path_bypasses(source) == []


# The one function under src/ that may decode a packed code.
DECODE_EDGES = ("sorted_items",)

# The functions under src/ that may read the decoded keys: text (render),
# a ring (smeared_classes, which instantiate and verify's sweeps and
# scalar checks read) and the literal bracket s_bracket.
SORTED_ITEMS_READERS = ("render", "smeared_classes", "s_bracket")

# The functions under src/ that may build a family by mult_family: the
# one template of the paper's series and rmk43's unit Euler term.
MULT_FAMILY_CALLERS = ("series_families", "_euler_families")


def reads_outside(source, name, allowed):
    """(line, function) of every read of name, as a name or an attribute,
    outside the functions named in allowed (function None at module
    level)."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, FUNCS) else func
            if ((getattr(child, "id", None) == name
                 or getattr(child, "attr", None) == name)
                    and func not in allowed):
                found.append((child.lineno, func))
            visit(child, inner)

    visit(ast.parse(source), None)
    return sorted(found)


def test_checker_flags_a_read_outside_its_functions():
    source = ("from .walgebra import mult_family\n"
              "FAM = mult_family(1, 0, abs)\n"
              "def series_families(ell):\n"
              "    return [mult_family(ell, 0, abs)]\n"
              "def chern(k):\n"
              "    return walgebra.mult_family(k, 0, abs)\n")
    assert reads_outside(source, "mult_family", MULT_FAMILY_CALLERS) == [
        (2, None), (6, "chern")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_decoded_keys_and_family_builds_have_one_home(path):
    """Under src/ a smeared list's decoded keys are read only where it
    meets text, a ring or the literal bracket, and only the series
    template and rmk43's Euler term build a family by mult_family."""
    source = path.read_text()
    assert reads_outside(source, "sorted_items", SORTED_ITEMS_READERS) == []
    assert reads_outside(source, "mult_family", MULT_FAMILY_CALLERS) == []


# The functions of operators.py that may divide a numerator by its
# denominator: the one-pass expansion of an operator's words and the
# sorted items of a smeared list, where it meets text or a ring.
RATIO_READERS = ("_words", "sorted_items")


def test_checker_flags_a_stray_division():
    source = ("from .ring import ratio\n"
              "def _words(nums, den):\n"
              "    return {w: ratio(v, den) for w, v in nums.items()}\n"
              "def _divided(nums, den):\n"
              "    return {k: ring.ratio(n, den) for k, n in nums.items()}\n"
              "def _summed(pieces):\n"
              "    return lcm(*[d for _, _, d in pieces])\n")
    assert reads_outside(source, "ratio", RATIO_READERS) == [
        (5, "_divided")]
    assert reads_outside(source, "lcm", ()) == [(7, "_summed")]


def test_smeared_lists_are_divided_only_where_read():
    """operators.py divides a numerator (ring.ratio) only in _words and
    SmearedOp.sorted_items, and verify.py reads neither ratio nor lcm:
    every residual is one operators.combined, over one denominator."""
    operators = (SRC / "hilbfock" / "operators.py").read_text()
    verify = (SRC / "hilbfock" / "verify.py").read_text()
    assert reads_outside(operators, "ratio", RATIO_READERS) == []
    assert reads_outside(verify, "ratio", ()) == []
    assert reads_outside(verify, "lcm", ()) == []


def _tuple_keyed(node):
    """Whether node is a dict display or comprehension with a tuple key."""
    if isinstance(node, ast.Dict):
        return any(isinstance(key, ast.Tuple) for key in node.keys)
    return isinstance(node, ast.DictComp) and isinstance(node.key,
                                                         ast.Tuple)


def tuple_key_paths(source):
    """(line, name) of every read of decode outside the DECODE_EDGES
    functions, and of every SmearedOp(...) built from a dict display or
    comprehension with tuple keys: a smeared path keyed by (modes, e, K)
    tuples rather than by packed code."""
    found = [(line, "decode")
             for line, _ in reads_outside(source, "decode", DECODE_EDGES)]
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "SmearedOp"
                and any(map(_tuple_keyed, node.args))):
            found.append((node.lineno, "SmearedOp"))
    return sorted(found)


def test_checker_flags_a_tuple_keyed_path():
    source = ("def decoded(nums):\n"
              "    return {decode(k): n for k, n in nums.items()}\n"
              "def run(parts, sm):\n"
              "    one = SmearedOp({(parts, 0, 0): 1})\n"
              "    two = SmearedOp({(k, 0, 0): c for k, c in sm})\n"
              "    keys = map(operators.decode, sm.terms)\n"
              "    return SmearedOp({encode(parts): 1})\n"
              "class SmearedOp:\n"
              "    def sorted_items(self):\n"
              "        return sorted((decode(k), c) for k in self.terms)\n")
    assert tuple_key_paths(source) == [(2, "decode"), (4, "SmearedOp"),
                                       (5, "SmearedOp"), (6, "decode")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_smeared_lists_are_keyed_by_packed_code(path):
    """Under src/ a packed code is decoded only where a smeared list
    meets text or a ring (SmearedOp.sorted_items), and no SmearedOp is
    built with tuple keys."""
    assert tuple_key_paths(path.read_text()) == [], path.relative_to(SRC)
