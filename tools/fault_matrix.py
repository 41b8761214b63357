"""Kernel fault matrix: which plain suites kill each one-line mutant of the
package.

    python3 tools/fault_matrix.py

Each mutant of MUTANTS is an exact (file, old text, new text) edit of one
file of src/hilbfock, whose old text occurs there exactly once.  For each
mutant, in table order, this copies src/ into a temporary directory,
applies the edit there and runs the 17 plain suites at the bounds of
work_counts.PLAIN in one fresh interpreter on the copy.  A suite kills
the mutant when its report has a failing record or its run raises; a
copy that cannot be imported is killed by "import".

It prints {mutant: [killing suites]} as one JSON object, and exits 1 when
a mutant that SURVIVORS does not name has no killer, or when the mutants
with exactly one killer, and that killer, differ from SINGLE_KILLERS.
The checkout itself is never edited.  Uses the standard library only,
and takes about 5 s per mutant.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from work_counts import PLAIN  # noqa: E402

# name: (file under src/hilbfock, old text, new text).
MUTANTS = {
    "smeared-classes-no-e": (
        "operators.py",
        "for factor in (ring.e,) * ep + (ring.K,) * kp:",
        "for factor in (ring.K,) * kp:"),
    "euler-shifted-keeps-e": (
        "operators.py",
        "                      if not k & 15}, smeared.den)",
        "                      }, smeared.den)"),
    "smeared-items-scalar-sign": (
        "operators.py",
        "scalar += n * ring.integrate(cls)",
        "scalar -= n * ring.integrate(cls)"),
    "series-euler-shift": (
        "walgebra.py",
        "lambda ws: -lead * (ws + shift), 24, epow=1))",
        "lambda ws: -lead * (ws + shift + 1), 24, epow=1))"),
    "derivation-k-term-from-3": (
        "operators.py",
        "for n in range(2, reach + 1)]",
        "for n in range(3, reach + 1)]"),
    "pairing-sign": (
        "fock.py",
        "odd = m + (ring.parity[i] and sum(ring.parity[j] for _, j in rest))",
        "odd = m"),
    "omega-sign": (
        "walgebra.py",
        "- p**2 * n * q",
        "+ p**2 * n * q"),
    "wbracket-central-sign": (
        "walgebra.py",
        "-mm * gram[i][j]",
        "mm * gram[i][j]"),
    "closed-euler-weight": (
        "hilbert.py",
        "(j + 1 + s - 2)",
        "(j + 1 + s - 1)"),
    "unit-shift-factorial": (
        "hilbert.py",
        "factorial(r)",
        "factorial(r + 1)"),
    "derivation-k-term-n": (
        "operators.py",
        "-3 * (n - 1)",
        "-3 * n"),
    "wbracket-linear": (
        "walgebra.py",
        "lin = q * mm - p * nn",
        "lin = q * mm - p * nn + 1"),
}

# Mutants that no plain suite kills, each with the reason.
SURVIVORS = {
    "pairing-sign": "the Koszul sign of an odd class in the pairing; only "
                    "tests/test_fock.py::test_pairing_odd_sign reads it "
                    "(ROADMAP items 8 and 21)",
}

# Mutants that exactly one plain suite kills, with that suite: a change
# that drops or weakens the suite's records loses the kill.
SINGLE_KILLERS = {
    "smeared-items-scalar-sign": "lem32",
    "omega-sign": "thm55",
    "wbracket-central-sign": "thm57",
    "closed-euler-weight": "cor48",
    "unit-shift-factorial": "cor48",
}

# Run in the child: the plain suites on the package at argv[1], printing
# the suites that fail as a JSON list.
CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import hilbfock.verify as verify
assert verify.__file__.startswith(sys.argv[1]), verify.__file__
killers = []
for name, fields in json.loads(sys.argv[2]):
    try:
        if not verify.run_suite(verify.SuiteSpec(name, **fields)).ok:
            killers.append(name)
    except Exception:
        killers.append(name)
print(json.dumps(killers))
"""


def killers(name):
    """The plain suites that fail with the mutant name applied to a copy
    of src/, in PLAIN order."""
    path, old, new = MUTANTS[name]
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(os.path.join(ROOT, "src"), src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        target = os.path.join(src, "hilbfock", path)
        with open(target, encoding="utf-8") as fh:
            text = fh.read()
        if text.count(old) != 1:
            raise SystemExit("fault_matrix.py: %s: the old text occurs %d "
                             "times in %s" % (name, text.count(old), path))
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text.replace(old, new))
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, src, json.dumps(PLAIN)],
            capture_output=True, text=True, cwd=tmp,
            env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    if proc.returncode:
        return ["import"]
    return json.loads(proc.stdout)


def main():
    table = {name: killers(name) for name in MUTANTS}
    print(json.dumps(table, indent=1))
    unkilled = [n for n in MUTANTS if not table[n] and n not in SURVIVORS]
    single = {n: k[0] for n, k in table.items() if len(k) == 1}
    moved = [n for n in MUTANTS if single.get(n) != SINGLE_KILLERS.get(n)]
    if unkilled:
        sys.stderr.write("fault_matrix.py: no suite kills %s\n"
                         % ", ".join(unkilled))
    if moved:
        sys.stderr.write("fault_matrix.py: the single killer of %s differs "
                         "from SINGLE_KILLERS\n" % ", ".join(moved))
    if unkilled or moved:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
