"""Command line front end: rings, operators, classes, and suites.

Every numeric value is printed as an exact integer or p/q string; output
for a fixed invocation is byte-identical across runs, so files written
with --out are safe to diff.  Exit codes: 0 success, 1 a verification or
match failure, 2 any refused input (one `error:` line on stderr), 141
(quietly) a closed standard output, as `| head -0` leaves.  A command
line is parsed once, by its subcommand's parser (main).
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys

from .fock import render_terms, vector_records
from .hilbert import (chern_class, cup_product, hilb_integral,
                      intersection_number, intersection_number_closed,
                      k_multisets)
from .operators import heisenberg
from .ring import RingError, builtin_ring, dump_ring, load_ring
from .verify import (SuiteSpec, dumps, list_suites, run_suite,
                     serialize_report)
from .walgebra import chern, jay, omega, virasoro


class UsageError(ValueError):
    """A refused command line; main reports every ValueError alike."""


def _resolve_ring(surface, ring_file):
    """The ring in the JSON file ring_file, else the built-in surface
    (p2 by default); an unreadable file is a UsageError, an unknown
    surface a RingError."""
    if surface and ring_file:
        raise UsageError("give either --surface or --ring-file, not both")
    if not ring_file:
        return builtin_ring(surface or "p2")
    try:
        with open(ring_file, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError("cannot read %s: %s" % (ring_file, exc))
    return load_ring(text)


def _class(ring, name):
    """(name, element) of the basis class called name; an empty name is
    the point class, the degree-4 basis class (hilbert.point_class)."""
    name = name or ring.basis_names[ring.degrees.index(4)]
    if name not in ring.index:
        raise UsageError("unknown class %r on surface %s; classes: %s"
                         % (name, ring.name, ", ".join(ring.basis_names)))
    return name, ring.basis(name)


_OP_RE = re.compile(r"^\s*([aLGJ])\(\s*([-0-9,\s]+?)\s*;\s*(\w+)\s*\)\s*$")


def parse_operator(ring, text):
    """Operator from a string like a(-2;H), L(1;x), G(2;x), J(2,-1;x)."""
    m = _OP_RE.match(text)
    if not m:
        raise UsageError("cannot parse operator %r; expected forms "
                         "a(n;c), L(n;c), G(k;c), J(p,n;c)" % text)
    name, argstr, clsname = m.groups()
    try:
        nums = [int(x) for x in argstr.split(",")]
    except ValueError:
        raise UsageError("bad integer arguments in %r" % text)
    _, elem = _class(ring, clsname)
    want = 2 if name == "J" else 1
    if len(nums) != want:
        raise UsageError("%s takes %d integer argument%s"
                         % (name, want, "s" if want > 1 else ""))
    if name == "a":
        return heisenberg(ring, nums[0], elem)
    if name == "L":
        return virasoro(ring, nums[0], elem)
    if name == "G":
        return chern(ring, nums[0], elem)
    return jay(ring, nums[0], nums[1], elem)


def _emit(text, out):
    """Write text to the file out, else to stdout (flushed, so that a
    closed one fails here); a path that cannot be written is a UsageError.
    Only main calls it: every subcommand returns (text, exit code)."""
    if not out:
        sys.stdout.write(text)
        sys.stdout.flush()
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError("cannot write %s: %s" % (out, exc))


def _jline(doc):
    return dumps(doc) + "\n"


def _csv(rows):
    """The intersect CSV of (ks, n, value, oracle) rows."""
    return "".join(["ks,n,value,oracle,match\n"] + [
        "%s,%d,%s,%s,%s\n" % ("+".join(map(str, ks)), n, value, oracle,
                              str(value == oracle).lower())
        for ks, n, value, oracle in rows])


# -- subcommands -----------------------------------------------------------


def _cmd_verify(args):
    if args.list:
        if (args.suite or args.surface or args.cutoff or args.mutation
                or args.bound):
            raise UsageError("--list takes only --format and --out")
        if args.format == "jsonl":
            text = "".join(_jline(row) for row in list_suites())
        else:
            text = "".join("%-14s %s\n" % (row["suite"], row["description"])
                           for row in list_suites())
        return text, 0
    if not args.suite:
        raise UsageError("verify needs --suite NAME (or --list)")
    bounds = {}
    for item in args.bound:
        if "=" not in item:
            raise UsageError("--bound expects KEY=INT, got %r" % item)
        key, _, val = item.partition("=")
        if key in bounds:
            raise UsageError("--bound %s is given more than once" % key)
        try:
            bounds[key] = int(val)
        except ValueError:
            raise UsageError("--bound expects KEY=INT, got %r" % item)
    spec = SuiteSpec(suite=args.suite, surface=args.surface,
                     cutoff=args.cutoff, bounds=bounds,
                     mutation=args.mutation)
    report = run_suite(spec)
    return serialize_report(report, args.format), 0 if report.ok else 1


def _cmd_chern(args):
    ring = _resolve_ring(args.surface, args.ring_file)
    cls, elem = _class(ring, args.cls)
    vec = chern_class(ring, args.k, elem, args.n)
    if args.format == "jsonl":
        text = _jline({"surface": ring.name, "k": args.k, "n": args.n,
                       "class": cls, "vector": vector_records(vec, ring)})
    else:
        text = ("G_%d(%s) on %d points over %s:\n%s\n"
                % (args.k, cls, args.n, ring.name, render_terms(vec, ring)))
    return text, 0


def _cmd_cup(args):
    ring = _resolve_ring(args.surface, args.ring_file)
    if not args.k:
        raise UsageError("cup needs at least one --k")
    classes = args.cls or [""]
    if len(classes) == 1:
        classes = classes * len(args.k)
    if len(classes) != len(args.k):
        raise UsageError("--class count must be 1 or match --k count")
    classes, elems = zip(*(_class(ring, c) for c in classes))
    vec = cup_product(ring, list(args.k), elems, args.n)
    integral = hilb_integral(ring, vec, args.n)
    if args.format == "jsonl":
        text = _jline({"surface": ring.name, "n": args.n,
                       "ks": list(args.k), "classes": list(classes),
                       "integral": str(integral),
                       "vector": vector_records(vec, ring)})
    else:
        text = ("cup of %s on %d points over %s:\n%s\nintegral: %s\n"
                % (" ".join("G_%d(%s)" % (k, c)
                            for k, c in zip(args.k, classes)),
                   args.n, ring.name, render_terms(vec, ring), integral))
    return text, 0


def _cmd_intersect(args):
    ring = _resolve_ring(args.surface, args.ring_file)
    if args.n < 1:
        raise UsageError("--n must be at least 1, got %d" % args.n)
    if args.grid:
        rows = []
        for n in range(1, args.n + 1):
            for ks in k_multisets(n):
                value = intersection_number(ring, ks, n)
                oracle = intersection_number_closed(ks, n)
                rows.append((ks, n, value, oracle))
        if args.format == "csv":
            text = _csv(rows)
        else:
            text = "".join(_jline(
                {"ks": list(ks), "match": value == oracle, "n": n,
                 "oracle": str(oracle), "value": str(value)})
                for ks, n, value, oracle in rows)
        return text, 0 if all(v == o for _, _, v, o in rows) else 1
    if not args.k:
        raise UsageError("intersect needs --k (repeatable) or --grid")
    ks = tuple(args.k)
    if sum(k + 2 for k in ks) != 2 * args.n:
        raise UsageError(
            "degree mismatch: sum of (k+2) over --k must be 2n; "
            "got %d for n=%d" % (sum(k + 2 for k in ks), args.n))
    value = intersection_number(ring, ks, args.n)
    oracle = intersection_number_closed(ks, args.n)
    match = value == oracle
    if args.format == "jsonl":
        text = _jline({"match": match, "oracle": str(oracle),
                       "value": str(value)})
    elif args.format == "csv":
        text = _csv([(ks, args.n, value, oracle)])
    else:
        text = ("surface %s, n=%d, ks=%s\nvalue  %s\noracle %s\nmatch  %s\n"
                % (ring.name, args.n, ",".join(map(str, ks)), value,
                   oracle, str(match).lower()))
    return text, 0 if match else 1


def _cmd_ring(args):
    ring = _resolve_ring(args.surface, args.ring_file)
    if args.validate:
        # every ring is validated when it is built, so reaching here is ok
        return "ok: %s (dim %d)\n" % (ring.name, ring.dim), 0
    if args.dump:
        return dump_ring(ring), 0
    return ("name: %s\ndim: %d\nclasses: %s\ndegrees: %s\n"
            % (ring.name, ring.dim, " ".join(ring.basis_names),
               " ".join(str(d) for d in ring.degrees))), 0


def _cmd_omega(args):
    value = omega(args.p, args.q, args.m, args.n)
    if args.format == "jsonl":
        text = _jline({"m": args.m, "n": args.n, "omega": str(value),
                       "p": args.p, "q": args.q})
    else:
        text = "%s\n" % value
    return text, 0


def _cmd_dump(args):
    ring = _resolve_ring(args.surface, args.ring_file)
    if args.cutoff < 0:
        raise UsageError("--cutoff must be at least 0, got %d" % args.cutoff)
    op = parse_operator(ring, args.op).terms_within(args.cutoff)
    if args.format == "jsonl":
        text = _jline({"cutoff": args.cutoff, "op": args.op.strip(),
                       "surface": ring.name, "scalar": str(op.scalar),
                       "terms": vector_records(op.terms, ring)})
    else:
        text = op.render() + "\n"
    return text, 0


# -- parser ----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A parser, and so each command parser, storing an option once."""

    class _StoreOnce(argparse._StoreAction):
        def __call__(self, parser, namespace, values, option_string=None):
            if self.dest in vars(namespace).setdefault("_given", set()):
                parser.error("%s is given more than once" % option_string)
            namespace._given.add(self.dest)
            setattr(namespace, self.dest, values)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.register("action", None, self._StoreOnce)


def _add_ring_flags(p):
    p.add_argument("--surface", default="",
                   help="built-in surface name (default p2)")
    p.add_argument("--ring-file", default="",
                   help="JSON file with an explicit ring")


def _add_out_flags(p, formats):
    p.add_argument("--format", choices=formats, default=formats[0])
    p.add_argument("--out", default="", help="write output to this file")


def build_parser():
    ap = _Parser(
        prog="hilbfock",
        description="Exact operator calculus on Fock models of Hilbert "
                    "schemes of points on surfaces.")
    sub = ap.add_subparsers(dest="command")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", default="")
    p.add_argument("--list", action="store_true",
                   help="list available suites")
    p.add_argument("--surface", default="",
                   help="restrict to one built-in surface")
    p.add_argument("--cutoff", type=int, default=0,
                   help="window cutoff: 0 (the default) runs the suite's "
                        "default window; otherwise at least 2, and only "
                        "for suites that read a window")
    p.add_argument("--mutation", default="",
                   help="run the suite's documented mutation; it must fail")
    p.add_argument("--bound", action="append", default=[],
                   metavar="KEY=INT", help="override a grid bound")
    _add_out_flags(p, ["human", "jsonl", "csv"])
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("chern", help="character class on n points")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--class", dest="cls", default="",
                   help="basis class name (default the point class, the "
                        "degree-4 class)")
    _add_ring_flags(p)
    _add_out_flags(p, ["human", "jsonl"])
    p.set_defaults(func=_cmd_chern)

    p = sub.add_parser("cup", help="cup product of character classes")
    p.add_argument("--k", type=int, action="append", default=[])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--class", dest="cls", action="append", default=[],
                   help="basis class name, once or once per --k (default "
                        "the point class, the degree-4 class)")
    _add_ring_flags(p)
    _add_out_flags(p, ["human", "jsonl"])
    p.set_defaults(func=_cmd_cup)

    p = sub.add_parser("intersect",
                       help="intersection number of character classes")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--k", type=int, action="append", default=[])
    which.add_argument("--grid", action="store_true",
                       help="all degree-matched tuples up to --n")
    p.add_argument("--n", type=int, required=True)
    _add_ring_flags(p)
    _add_out_flags(p, ["human", "jsonl", "csv"])
    p.set_defaults(func=_cmd_intersect)

    p = sub.add_parser("ring", help="inspect, dump, or validate a ring")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--dump", action="store_true")
    which.add_argument("--validate", action="store_true")
    _add_ring_flags(p)
    p.add_argument("--out", default="", help="write output to this file")
    p.set_defaults(func=_cmd_ring)

    p = sub.add_parser("omega", help="structure polynomial value")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_out_flags(p, ["human", "jsonl"])
    p.set_defaults(func=_cmd_omega)

    p = sub.add_parser("dump", help="term list of an operator expression")
    p.add_argument("--op", required=True,
                   help="operator string such as J(2,-1;x) or a(-2;H)")
    p.add_argument("--cutoff", type=int, default=6,
                   help="render window: print the terms that create and "
                        "annihilate at most this many points each")
    _add_ring_flags(p)
    _add_out_flags(p, ["human", "jsonl"])
    p.set_defaults(func=_cmd_dump)

    return ap


@functools.cache
def _parser():
    """The process's one argument parser, built on first use, and its
    command parsers by name (the subparsers action's choices): building
    the argparse tree costs far more than parsing with it, and parsing
    leaves the parsers unchanged."""
    ap = build_parser()
    sub, = [a for a in ap._actions
            if isinstance(a, argparse._SubParsersAction)]
    return ap, sub.choices


def main(argv=None):
    """Run one command line (sys.argv[1:] when argv is None) and return
    its exit code; argparse usage errors exit 2 through SystemExit, and
    any other refused input (a ValueError, wherever raised, or a
    RingError) exits 2 with one stderr line.

    Calls in one process share one parser tree (_parser).  A command
    line that starts with a command name is parsed once, by that
    command's parser, and the top parser refuses its leftovers as its
    parse_args would; the top parser parses any other line."""
    argv = sys.argv[1:] if argv is None else argv
    ap, commands = _parser()
    if argv and argv[0] in commands:
        args, extras = commands[argv[0]].parse_known_args(argv[1:])
        if extras:
            ap.error("unrecognized arguments: %s" % " ".join(extras))
    else:
        args = ap.parse_args(argv)
    if not getattr(args, "func", None):
        ap.print_usage(sys.stderr)
        return 2
    try:
        text, code = args.func(args)
        _emit(text, args.out)
        return code
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except RingError as exc:
        print("ring error: %s" % exc, file=sys.stderr)
        return 2
    except BrokenPipeError:  # stdout to devnull: exit flushes it again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
