"""Run the benchmark once per seed and append each result to a file.

    python3 perfbench/series.py --workload action --seeds 1-10 \\
        --out results/base.jsonl

Each appended line is {"workload", "seed", "seconds", "result"}, where
result is the last output line of an untraced run (per-layer numbers come
from single runs of run.py --trace 1).  compare.py reads the files.
The run length defaults to run_seconds from BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    seconds = args.seconds
    if not seconds:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            seconds = json.load(fh)["run_seconds"]
    for seed in args.seeds:
        for workload in args.workload:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit("run failed (%s, seed %d): %s"
                         % (workload, seed, proc.stderr.strip()))
            result = json.loads(proc.stdout.splitlines()[-1])
            with open(args.out, "a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed,
                                     "seconds": seconds, "result": result})
                         + "\n")
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.4g" % (k, v["value"])
                for k, v in result["metrics"].items())), flush=True)


if __name__ == "__main__":
    main()
