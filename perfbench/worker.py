"""One benchmark repetition, run in a fresh process.

The package keeps process-global caches that every job shares, so each
repetition starts a new interpreter: set-up (import plus building and
validating the four built-in rings), then the workload's fixed job list
or query stream.  The last line of standard output is a JSON object with
the timings, peak RSS, the operations that failed their frozen reference,
and, when traced, the per-layer aggregates.

Timings are taken twice: as wall time and as CPU time of the process's
single thread (see speed.py for why not of the process).
The package is single-threaded and does no I/O or waiting while it
computes, so on an idle machine the two agree; on a shared machine the
wall time also counts the periods the process was not scheduled, and the
CPU time does not.  Set-up and request times are CPU time scaled to the
host's reference speed by the probe in speed.py, except in traced runs.

    python3 perfbench/worker.py --workload symbolic --seed 1 [--trace]
"""

import argparse
import contextlib
import copy
import hashlib
import importlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFS = os.path.join(HERE, "refs.json")
SURFACES = ("abelian", "k3", "p1xp1", "p2")

import workloads
from speed import Clock
from tracer import MODULES, Tracer


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def load_package():
    """Import hilbfock from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "hilbfock", "__init__.py")):
        raise SystemExit("perfbench: no hilbfock sources under %s" % SRC)
    sys.path.insert(0, SRC)
    package = importlib.import_module("hilbfock")
    for name in MODULES:
        importlib.import_module("hilbfock." + name)
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise SystemExit("perfbench: imported hilbfock from %s, not %s"
                         % (package.__file__, SRC))
    return package


def suite_key(job_id, mutated):
    return job_id + ("+mutation" if mutated else "")


def suite_check(verdict_ok, mutated, digest, ref):
    """An operation passes when the verdict is right and the digest frozen."""
    return verdict_ok != mutated and digest == ref


def run_suites(hf, workload, seed, refs, tracer, clock):
    mutation = {row["suite"]: row["mutation"]
                for row in hf.verify.list_suites()}
    observed, failed, latencies = {}, [], []
    first_clean = None
    requests = workloads.suite_requests(workload, seed)
    for n, (job_id, fields, flags) in enumerate(requests):
        if tracer:
            tracer.request = n
        t0 = time.thread_time()
        for mutated in flags:
            key = suite_key(job_id, mutated)
            spec = hf.verify.SuiteSpec(**fields, jobs=1)
            if mutated:
                spec.mutation = mutation[spec.suite]
            report = hf.verify.run_suite(spec)
            digest = sha256(hf.verify.serialize_report(report, "jsonl"))
            observed[key] = digest
            if not suite_check(report.ok, mutated, digest, refs.get(key)):
                failed.append(key)
            if first_clean is None and not mutated:
                first_clean = (key, report)
        latencies.append(clock.seconds(t0, time.thread_time()) * 1000.0)
    ok = self_test(hf, first_clean, refs)
    return observed, failed, latencies, len(observed) + 1, ok


def self_test(hf, clean, refs):
    """Change one number of a passing report; its check must fail."""
    key, report = clean
    bad = copy.deepcopy(report)
    bad.records[0].checks += 1
    digest = sha256(hf.verify.serialize_report(bad, "jsonl"))
    return not suite_check(bad.ok, False, digest, refs.get(key))


def run_queries(hf, seed, refs, tracer, clock):
    observed, failed, latencies = {}, [], []
    for n, (qid, argv) in enumerate(workloads.query_stream(seed)):
        out, err = io.StringIO(), io.StringIO()
        if tracer:
            tracer.request = n
        t0 = time.thread_time()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = hf.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        latencies.append(clock.seconds(t0, time.thread_time()) * 1000.0)
        text = out.getvalue()
        if tracer:
            tracer.counts["cli.bytes_out"] += len(text.encode())
        got = [code, sha256(text)]
        if observed.setdefault(qid, got) != got or refs.get(qid) != got:
            failed.append(qid)
    return observed, failed, latencies, len(latencies), True


def run_workload(hf, args, refs, tracer, clock):
    """The workload's job list or query stream once, with its timings;
    cpu_s is unscaled CPU time, less the probe's."""
    w0, c0 = time.perf_counter(), time.thread_time()
    if args.workload == "queries":
        ran = run_queries(hf, args.seed, refs.get("queries", {}), tracer,
                          clock)
    else:
        ran = run_suites(hf, args.workload, args.seed, refs.get("suites", {}),
                         tracer, clock)
    rep = {"cpu_s": clock.busy(c0, time.thread_time()),
           "wall_s": time.perf_counter() - w0}
    observed, failed, latencies, attempted, self_test_ok = ran
    rep.update(observed=observed, failed=failed, latencies_ms=latencies,
               attempted=attempted, self_test_ok=self_test_ok,
               rss_mb=resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return rep


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["symbolic", "action", "queries"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default="", help="write traced spans here")
    args = ap.parse_args(argv)

    clock = Clock()
    if not args.trace:
        clock.start()
    w0, c0 = time.perf_counter(), time.thread_time()
    hf = load_package()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(hf)
    for name in SURFACES:
        hf.ring.builtin_ring(name)
    c1 = time.thread_time()
    result = {"setup_s": clock.seconds(c0, c1),
              "setup_cpu_s": clock.busy(c0, c1),
              "setup_wall_s": time.perf_counter() - w0}
    if args.setup_only:
        clock.stop()
        print(json.dumps(result))
        return
    refs = {}
    if os.path.exists(REFS):
        with open(REFS) as fh:
            refs = json.load(fh)
    result["rep"] = run_workload(hf, args, refs, tracer, clock)
    clock.stop()
    if clock.running:
        result["slowdown"] = clock.slowdown()
    if tracer:
        result["trace"] = tracer.summary()
        result["requests"] = tracer.request_breakdown()
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
