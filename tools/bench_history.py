"""Benchmark trajectory: run the benchmark of past revisions, one file each.

    python3 tools/bench_history.py pr45=5108483 pr46=HEAD

Once every REV is known to name a tree that holds src/ and
perfbench/series.py (else it exits 2), for each LABEL=REV the tree of
the git revision REV is unpacked with `git archive` into a temporary
directory, and that tree's own perfbench/series.py runs every workload
of BENCHMARK.json on seeds 1-5, for run_seconds of BENCHMARK.json, the
same on every revision.
The revisions alternate run by run, and which one goes first alternates
too, so that a slow stretch of the host falls on all of them alike.
Apart from the files it writes, the repository is only read.

Each revision gets BENCH_<label>.json at the root of the repository:
the revision, its commit (null for a bare tree, such as
`git write-tree` makes of uncommitted work) and its src/ tree, whose id
a later commit with the same sources shares, the Python version
and CPU count of the host, and per workload and end-to-end metric of
BENCHMARK.json the median, quartiles and n over the seeds, with the raw
lines series.py wrote.  The quartiles are those of this repository's
perfbench/compare.py, which is only imported.  Uses the standard library
only.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
from perfbench.compare import quartiles  # noqa: E402

SCHEMA = 1
SEEDS = range(1, 6)


def git(*args):
    return subprocess.run(("git",) + args, cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def unpack(rev, dest):
    """The tree of rev, unpacked into dest by git archive."""
    archive = os.path.join(dest, "tree.tar")
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                       check=True, stdout=fh)
    tree = os.path.join(dest, "tree")
    with tarfile.open(archive) as tar:
        tar.extractall(tree)
    os.remove(archive)
    return tree


def summary(values):
    """Median, quartiles and n of a metric's values over the seeds."""
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def bench_file(label, rev, rows, bench, seconds):
    """The BENCH_<label>.json document of one revision's series lines."""
    metrics = {}
    for workload in bench["workloads"]:
        name = workload["name"]
        results = [row["result"]["metrics"] for row in rows
                   if row["workload"] == name]
        metrics[name] = {
            m["name"]: dict(summary([r[m["name"]]["value"]
                                     for r in results]), unit=m["unit"])
            for m in bench["end_to_end"]}
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", "-q", rev + "^{commit}"], cwd=ROOT,
        capture_output=True, text=True).stdout.strip()
    return {"schema": SCHEMA, "label": label, "revision": rev,
            "commit": commit or None,
            "src_tree": git("rev-parse", rev + ":src"),
            "python": platform.python_version(), "cpu_count": os.cpu_count(),
            "seconds": seconds, "metrics": metrics, "raw": rows}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("revisions", nargs="+", metavar="LABEL=REV")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    pairs = [item.split("=", 1) for item in args.revisions]
    if any(len(pair) != 2 or not all(pair) for pair in pairs):
        ap.error("each revision is LABEL=REV")
    if len({label for label, _ in pairs}) != len(pairs):
        ap.error("each LABEL is given once")
    for label, rev in pairs:
        for spec in (rev + "^{tree}", rev + ":src",
                     rev + ":perfbench/series.py"):
            if subprocess.run(["git", "rev-parse", "--verify", "-q", spec],
                              cwd=ROOT, capture_output=True).returncode:
                ap.error("%s=%s: %s does not resolve" % (label, rev, spec))
    with tempfile.TemporaryDirectory() as tmp:
        trees = {}
        for label, rev in pairs:
            os.mkdir(os.path.join(tmp, label))
            trees[label] = unpack(rev, os.path.join(tmp, label))
        rows = {label: [] for label, _ in pairs}
        turn = 0
        for seed in SEEDS:
            for workload in bench["workloads"]:
                order = pairs if turn % 2 == 0 else pairs[::-1]
                turn += 1
                for label, _ in order:
                    out = os.path.join(tmp, label + ".jsonl")
                    if os.path.exists(out):
                        os.remove(out)
                    tree = trees[label]
                    subprocess.run(
                        [sys.executable,
                         os.path.join(tree, "perfbench", "series.py"),
                         "--workload", workload["name"],
                         "--seeds", str(seed), "--seconds", str(seconds),
                         "--out", out], cwd=tree, check=True,
                        stdout=subprocess.DEVNULL)
                    with open(out) as fh:
                        rows[label] += [json.loads(line) for line in fh]
                    print("%s %s seed %d" % (label, workload["name"], seed),
                          flush=True)
    for label, rev in pairs:
        path = os.path.join(ROOT, "BENCH_%s.json" % label)
        with open(path, "w") as fh:
            json.dump(bench_file(label, rev, rows[label], bench, seconds),
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
        print("wrote", path)


if __name__ == "__main__":
    main()
