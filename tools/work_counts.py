"""Exact work counts: cProfile call counts of the benchmark's request lists
and of the 34 default reports.

    python3 tools/work_counts.py [RUN ...]

A RUN is one of
- symbolic, action or queries: the seed-1 request list of that workload
  in perfbench/workloads.py, run as perfbench/worker.py runs it (each
  suite job plain and mutated, each query through the CLI's main);
- reports: the 17 suites, each plain at the bounds of
  tests/test_acceptance.py and then mutated at its defaults, in sorted
  order;
- a suite job written SUITE[,surface=S][,cutoff=C][,mutation=M][,KEY=V],
  such as heis,surface=p2,m_max=1.
The default is symbolic, action, queries and reports.

Each run starts a fresh interpreter on this checkout's src/, imports the
package and builds the four built-in rings, and then profiles the run
alone.  It prints one JSON line per run: the run, its total calls and
the ncalls of each kernel in KERNELS.  Calls are counted exactly, so two
runs of one tree give the same numbers on any host and under any hash
seed; they miss work done inside a builtin, such as a dict or int
operation, so they complement time and do not replace it.  Uses the
standard library only, and reads perfbench/ without changing it.
"""

import argparse
import contextlib
import cProfile
import io
import json
import os
import pstats
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = ("symbolic", "action", "queries", "reports")
SURFACES = ("abelian", "k3", "p1xp1", "p2")

# (module, qualified name) of each counted kernel.
KERNELS = (
    ("operators", "OperatorSum.column"),
    ("operators", "commutator_column"),
    ("operators", "commutator_block"),
    ("operators", "series_bracket"),
    ("operators", "s_derive"),
    ("operators", "series_to_smeared"),
    ("fock", "annihilate_state"),
    ("fock", "create_state"),
    ("ring", "SurfaceRing.multiply"),
    ("ring", "SurfaceRing.tau"),
)

# The plain runs of tests/test_acceptance.py: (suite, SuiteSpec fields).
PLAIN = (
    ("cor48", {"bounds": {"n_max": 4}}),
    ("def51-ids", {"bounds": {"p_max": 4, "n_max": 3}}),
    ("eq22", {}),
    ("heis", {"bounds": {"m_max": 4}}),
    ("lem32", {}),
    ("lem52", {"bounds": {"p_max": 4, "n_max": 3}}),
    ("lem53", {"bounds": {"p_max": 4, "m_max": 3}}),
    ("lem61", {"bounds": {"n_max": 4, "m_max": 3}}),
    ("rmk410", {"bounds": {"n_max": 4}}),
    ("rmk43", {"bounds": {"k_max": 3, "n_max": 3}}),
    ("rmk56", {"surface": "k3", "bounds": {"p_max": 3, "n_max": 2}}),
    ("thm31", {"bounds": {"m_max": 3, "k_max": 3}}),
    ("thm42", {"cutoff": 8, "bounds": {"k_max": 3, "n_max": 3}}),
    ("thm46-unique", {"bounds": {"k_max": 3}}),
    ("thm55", {"cutoff": 8, "bounds": {"pq_max": 6, "m_max": 3}}),
    ("thm57", {"bounds": {"pq_max": 5, "m_max": 3}}),
    ("vir", {"cutoff": 8, "bounds": {"m_max": 3}}),
)


def job_fields(run):
    """The SuiteSpec fields of a suite job written as in the module
    docstring.  An item without "=", with an empty key or value, with a
    key given before, or with a value that is not an integer where one is
    needed raises ValueError naming the item."""
    name, *items = run.split(",")
    fields = {"suite": name, "bounds": {}}
    seen = set()
    for item in items:
        key, eq, value = item.partition("=")
        if not (eq and key and value):
            raise ValueError("%s: item %r is not KEY=VALUE with a nonempty "
                             "key and value" % (run, item))
        if key in seen:
            raise ValueError("%s: item %r repeats the key %s"
                             % (run, item, key))
        seen.add(key)
        if key in ("surface", "mutation"):
            fields[key] = value
            continue
        try:
            value = int(value)
        except ValueError:
            raise ValueError("%s: item %r needs an integer value"
                             % (run, item)) from None
        if key == "cutoff":
            fields[key] = value
        else:
            fields["bounds"][key] = value
    return fields


def specs(hf, run):
    """The SuiteSpecs of a suite run, in order."""
    verify = hf.verify
    mutation = {row["suite"]: row["mutation"] for row in verify.list_suites()}
    if run == "reports":
        return ([verify.SuiteSpec(name, **fields) for name, fields in PLAIN]
                + [verify.SuiteSpec(name, mutation=mutation[name])
                   for name, _ in PLAIN])
    if run in ("symbolic", "action"):
        from perfbench.workloads import suite_requests
        return [verify.SuiteSpec(**fields, mutation=mutation[fields["suite"]]
                                 if mutated else "")
                for _, fields, flags in suite_requests(run, 1)
                for mutated in flags]
    return [verify.SuiteSpec(**job_fields(run))]


def queries(hf):
    """The seed-1 query stream, each request through the CLI's main with
    its output captured."""
    from perfbench.workloads import query_stream
    for _, argv in query_stream(1):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                hf.cli.main(argv)
            except SystemExit:
                pass


def count(run):
    """The counts of one run in this process: {"run", "calls",
    "kernels"}."""
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    import hilbfock.cli
    import hilbfock.verify
    hf = hilbfock
    for name in SURFACES:
        hf.ring.builtin_ring(name)
    jobs = [] if run == "queries" else specs(hf, run)
    prof = cProfile.Profile()
    prof.enable()
    if run == "queries":
        queries(hf)
    for spec in jobs:
        hf.verify.serialize_report(hf.verify.run_suite(spec), "jsonl")
    prof.disable()
    stats = pstats.Stats(prof)
    codes = {}
    for module, qualname in KERNELS:
        obj = sys.modules["hilbfock." + module]
        for part in qualname.split("."):
            obj = getattr(obj, part)
        code = obj.__code__
        codes[qualname] = (code.co_filename, code.co_firstlineno,
                           code.co_name)
    return {"run": run, "calls": stats.total_calls,
            "kernels": {name: stats.stats.get(key, (0, 0))[1]
                        for name, key in codes.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("runs", nargs="*", default=list(RUNS))
    ap.add_argument("--in-process", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.in_process:
        print(json.dumps(count(args.runs[0])))
        return
    # A malformed job is refused before any child starts.
    for run in [run for run in args.runs if run not in RUNS]:
        try:
            job_fields(run)
        except ValueError as exc:
            sys.stderr.write("work_counts.py: %s\n" % exc)
            raise SystemExit(2)
    for run in args.runs:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--in-process", run],
            capture_output=True, text=True)
        if proc.returncode:
            sys.stderr.write(proc.stderr)
            raise SystemExit(2)
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()


if __name__ == "__main__":
    main()
