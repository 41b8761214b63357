"""hilbfock benchmark: one measured run of one workload.

    python3 perfbench/run.py --workload symbolic --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py):
  symbolic  suite jobs whose work is the smeared calculus and the
            abstract W-algebra bracket
  action    suite jobs whose work is applying expanded operators to
            Fock basis states
  queries   a seeded stream of CLI requests answered in-process

The package keeps process-global caches, so every repetition runs in a
fresh worker process (worker.py): set-up, then the fixed job list.  A run
makes a fixed number of repetitions of the job list, all with the same
seed, then a fixed number of set-up-only repetitions; both numbers depend
only on the workload and --seconds (PLAN), so two commits measured with
the same --seconds use the same estimators.  Every output is checked
against the frozen references in refs.json.

End-to-end metrics (--trace 0), all timed as CPU time of the worker's
thread, scaled to the host's reference speed by the probe in speed.py:
  setup_s           median set-up time over the run's set-up samples
  run_cpu_s         time to finish the fixed job list: the sum over its
                    requests of each one's minimum over the repetitions
  query_cpu_p50_ms, query_cpu_p90_ms
                    percentiles over the requests of each one's minimum
                    over the repetitions; a request is a CLI call in
                    queries (400 of them), and in symbolic and action a
                    suite job run unmutated and mutated (6 of them, so
                    there p90 interpolates between the two slowest jobs)
  peak_rss_mb       largest peak RSS of a worker
  ok_frac           operations that passed their check, over all attempted

A request does the same work in every repetition, so its minimum over
the repetitions leaves out a repetition that a slow stretch of the host
hit beyond what the scaling corrects.

With --trace 1 it makes one untraced and one traced repetition and
reports the per-layer metrics of the traced one; spans go to .perfbench/.
The last line of standard output is the result object.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracer import GROUPS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SPAN_DIR = os.path.join(ROOT, ".perfbench")
# Every run must end within 180 s; no worker may outlive this.
HARD_LIMIT_S = 170.0
# Repetitions of the job list and extra set-up-only samples per run at
# --seconds 30, scaled in proportion to --seconds.  Sized from the wall
# time of a repetition at the parent commit on a quiet 2-vCPU host (set-up
# 3 s; job list 8-9 s on symbolic, 15-16 s on action, 6-7 s on queries) so
# a run takes about 30 s there, and 22 runs of every workload stay within
# an hour when the host is 1.4 times slower, as it was on average over
# some hours.  At --seconds 30 every run has three set-ups.
PLAN = {"symbolic": (2, 1), "action": (1, 2), "queries": (2, 1)}
PLAN_SECONDS = 30


class WorkerError(Exception):
    pass


def percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def plan(workload, seconds):
    """(job-list repetitions, extra set-up-only samples) for one run."""
    reps, setups = PLAN[workload]
    scale = seconds / PLAN_SECONDS
    return max(1, round(reps * scale)), round(setups * scale)


class Runner:
    def __init__(self, workload, seed):
        self.base = ["--workload", workload, "--seed", str(seed)]
        self.start = time.monotonic()

    def worker(self, *extra):
        """Run one worker process and return its result."""
        t0 = time.monotonic()
        timeout = HARD_LIMIT_S - (t0 - self.start)
        if timeout <= 0:
            raise WorkerError("out of time before starting a worker")
        try:
            proc = subprocess.run([sys.executable, WORKER] + self.base
                                  + list(extra), cwd=ROOT, text=True,
                                  capture_output=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise WorkerError("worker exceeded %.0f s" % timeout)
        if proc.returncode != 0:
            raise WorkerError("worker exited %d: %s"
                              % (proc.returncode, proc.stderr.strip()[-2000:]))
        return json.loads(proc.stdout.splitlines()[-1])


def tally(reps):
    """(attempted, failed, failed operation ids) over full repetitions."""
    attempted = failed = 0
    bad = []
    for rep in reps:
        attempted += rep["attempted"]
        failed += len(rep["failed"]) + (0 if rep["self_test_ok"] else 1)
        bad.extend(rep["failed"])
        if not rep["self_test_ok"]:
            bad.append("self-test")
    return attempted, failed, bad


def end_to_end(runner, workload, seconds):
    n_reps, n_setups = plan(workload, seconds)
    reps, setups, slowdowns = [], [], []
    for _ in range(n_reps):
        res = runner.worker()
        reps.append(res["rep"])
        setups.append(res["setup_s"])
        slowdowns.append(res["slowdown"])
    for _ in range(n_setups):
        setups.append(runner.worker("--setup-only")["setup_s"])
    per_request = [min(x) for x in
                   zip(*(rep["latencies_ms"] for rep in reps))]
    attempted, failed, bad = tally(reps)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_cpu_s": (sum(per_request) / 1000.0, "s"),
        "query_cpu_p50_ms": (percentile(per_request, 50), "ms"),
        "query_cpu_p90_ms": (percentile(per_request, 90), "ms"),
        "peak_rss_mb": (max(r["rss_mb"] for r in reps), "MB"),
        "ok_frac": (1.0 - failed / attempted, "ratio"),
    }
    notes = ["%d repetitions, %d set-ups, %d requests"
             % (len(reps), len(setups), len(per_request)),
             "wall_s %.3f, cpu_s %.3f (medians of the unscaled job list)"
             % (statistics.median(r["wall_s"] for r in reps),
                statistics.median(r["cpu_s"] for r in reps)),
             "host slowdown %s (probe time over its reference)"
             % ", ".join("%.3f" % x for x in slowdowns),
             "failed_frac %.6f (%d of %d operations)"
             % (failed / attempted, failed, attempted)]
    return metrics, attempted, failed, bad, notes


def layer_shares(lat, requests):
    """Self seconds per group: set-up, the workload, and the slowest
    tenth of its requests (requests are numbered in run order)."""
    cut = percentile(lat, 90)
    slow = {str(n) for n, x in enumerate(lat) if x >= cut}
    requests = dict(requests)
    setup = requests.pop("None", {})
    work, tail = {}, {}
    for key, groups in requests.items():
        for group, s in groups.items():
            work[group] = work.get(group, 0.0) + s
            if key in slow:
                tail[group] = tail.get(group, 0.0) + s
    return setup, work, tail


def per_layer(runner, workload, seed):
    plain = runner.worker()["rep"]
    os.makedirs(SPAN_DIR, exist_ok=True)
    spans = os.path.join(SPAN_DIR, "spans-%s-%d.jsonl" % (workload, seed))
    res = runner.worker("--trace", "--spans", spans)
    traced = res["rep"]
    t = res["trace"]
    calls, self_s, counts = t["calls"], t["self_s"], t["counts"]

    def ratio(num, den):
        return counts.get(num, 0) / calls[den] if calls.get(den) else 0.0

    metrics = {}
    for group in GROUPS:
        metrics[group + ".calls"] = (calls.get(group, 0), "count")
        metrics[group + ".self_s"] = (self_s.get(group, 0.0), "s")
    metrics.update({
        "operators.smeared.terms_out": (
            counts.get("operators.smeared.terms_out", 0), "count"),
        "operators.apply.states_in": (
            counts.get("operators.apply.states_in", 0), "count"),
        "fock.create_state.calls": (calls.get("fock.create_state", 0),
                                    "count"),
        "fock.create_state.dropped_ratio": (
            ratio("fock.create_state.dropped", "fock.create_state"),
            "ratio"),
        "fock.annihilate_state.calls": (
            calls.get("fock.annihilate_state", 0), "count"),
        "fock.annihilate_state.empty_ratio": (
            ratio("fock.annihilate_state.empty", "fock.annihilate_state"),
            "ratio"),
        "verify.checks": (counts.get("verify.checks", 0), "count"),
        "verify.records": (counts.get("verify.records", 0), "count"),
        "ring.tau.repeat_ratio": (
            ratio("ring.tau.repeats", "ring.tau"), "ratio"),
        "operators.build.repeat_ratio": (
            ratio("operators.build.repeats", "operators.build"), "ratio"),
        "cli.bytes_out": (counts.get("cli.bytes_out", 0), "B"),
        "trace.overhead_s": (traced["cpu_s"] - plain["cpu_s"], "s"),
    })
    attempted, failed, bad = tally([plain, traced])
    setup, work, tail = layer_shares(traced["latencies_ms"],
                                     res["requests"])
    notes = ["job list CPU time %.3f s untraced, %.3f s traced; %d spans "
             "(%d not kept)" % (plain["cpu_s"], traced["cpu_s"], t["spans"],
                                t["spans_dropped"]),
             "spans written to %s" % spans]
    for title, part in (("set-up", setup), ("workload", work),
                        ("slowest tenth of requests", tail)):
        total = sum(part.values())
        if total:
            notes.append("self time by layer, %s (%.3f s): %s" % (
                title, total, ", ".join(
                    "%s %.1f%%" % (g, 100.0 * s / total) for g, s in
                    sorted(part.items(), key=lambda kv: -kv[1]))))
    return metrics, attempted, failed, bad, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["symbolic", "action", "queries"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hilbfock",
                                       "__init__.py")):
        print("perfbench: no hilbfock sources under %s"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            result = per_layer(runner, args.workload, args.seed)
        else:
            result = end_to_end(runner, args.workload, args.seconds)
    except WorkerError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    metrics, attempted, failed, bad, notes = result
    print("workload %s, seed %d, trace %d" % (args.workload, args.seed,
                                              args.trace))
    for line in notes:
        print("  " + line)
    if bad:
        print("  failed operations: %s" % ", ".join(sorted(set(bad))))
    for name, (value, unit) in metrics.items():
        print("  %-36s %14.6f %s" % (name, value, unit))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
