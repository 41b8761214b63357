"""Record the frozen references in perfbench/refs.json.

Runs every workload once in a fresh worker and stores the sha256 of
``serialize_report(report, "jsonl")`` for every suite job, mutations
included, and the exit code and stdout sha256 of every request in the
query universe.  Run it only at a commit whose outputs are known good;
a change that alters a report byte must not re-freeze to pass.

    python3 perfbench/freeze.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def observe(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"),
         "--workload", workload, "--seed", "0"],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["rep"]["observed"]


def main():
    suites = {}
    for workload in ("symbolic", "action"):
        suites.update(observe(workload))
    refs = {"suites": dict(sorted(suites.items())),
            "queries": dict(sorted(observe("queries").items()))}
    with open(os.path.join(HERE, "refs.json"), "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
