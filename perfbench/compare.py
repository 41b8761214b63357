"""Compare benchmark result sets written by series.py.

    python3 perfbench/compare.py base.jsonl              # steadiness
    python3 perfbench/compare.py base.jsonl change.jsonl # base vs change

For every workload and end-to-end metric it prints the median and
quartiles of each set and the spread, (Q3 - Q1) / median, against the
metric's bound from BENCHMARK.json.  Given two sets it also pairs runs in
seed order (by seed when both sets used the same seeds) and reports the
change's paired wins, and a verdict:

  gain          the change wins at least 9 of 10 pairs (ties count for
                neither) and the medians differ by more than the base
                set's own quartile distance
  regression    the change's median is worse than the base median by
                more than the bound
  unresolved    the base spread exceeds the bound and not every change
                run beats every base run
  no regression otherwise

The exit code is 1 when a set is incorrect, a spread exceeds its bound or
a verdict is a regression, else 0.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load(path):
    """{workload: {seed: result}} from a series file."""
    out = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                row = json.loads(line)
                out.setdefault(row["workload"], {})[row["seed"]] = \
                    row["result"]
    return out


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worse(a, b, better):
    """How much worse b is than a, as a share of a (negative: better)."""
    return (b - a) / a if better == "lower" else (a - b) / a


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("change", nargs="?")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    base = load(args.base)
    change = load(args.change) if args.change else {}
    status = 0
    for workload in sorted(base):
        for name, runs in (("base", base[workload]),
                           ("change", change.get(workload, {}))):
            bad = [s for s, r in runs.items() if not r["correct"]]
            if bad:
                print("%s %s: incorrect runs, seeds %s" % (workload, name,
                                                           bad))
                status = 1
        print("%s (%d base runs%s)" % (
            workload, len(base[workload]),
            ", %d change runs" % len(change[workload])
            if workload in change else ""))
        for m in metrics:
            key, bound, better = m["name"], m["bound"], m["better"]
            b_runs = {s: r["metrics"][key]["value"]
                      for s, r in base[workload].items()}
            bq1, bmed, bq3 = quartiles(list(b_runs.values()))
            spread = (bq3 - bq1) / bmed
            note = ("steady" if spread <= bound / 3 else
                    "within bound" if spread <= bound else "SPREAD > BOUND")
            if spread > bound:
                status = 1
            line = ("  %-14s base %.6g [%.6g, %.6g] spread %.3f of bound "
                    "%.2f (%s)" % (key, bmed, bq1, bq3, spread, bound, note))
            if workload in change:
                c_runs = {s: r["metrics"][key]["value"]
                          for s, r in change[workload].items()}
                cq1, cmed, cq3 = quartiles(list(c_runs.values()))
                pairs = list(zip((b_runs[s] for s in sorted(b_runs)),
                                 (c_runs[s] for s in sorted(c_runs))))
                wins = sum(1 for b, c in pairs if worse(b, c, better) < 0)
                delta = worse(bmed, cmed, better)
                all_better = all(worse(b, c, better) < 0
                                 for b in b_runs.values()
                                 for c in c_runs.values())
                if (wins >= 0.9 * len(pairs) and delta < 0
                        and abs(cmed - bmed) > bq3 - bq1):
                    verdict = "gain"
                elif delta > bound:
                    verdict = "regression"
                    status = 1
                elif spread > bound and not all_better:
                    verdict = "unresolved"
                else:
                    verdict = "no regression"
                line += ("\n  %-14s change %.6g [%.6g, %.6g] worse by "
                         "%+.3f, wins %d of %d pairs: %s"
                         % ("", cmed, cq1, cq3, delta, wins, len(pairs),
                            verdict))
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
