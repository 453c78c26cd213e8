"""Print the root-solve cost of each run of tools/report_digests.py.

Run from the repository root:

    python3 tools/cost_ledger.py

One line per run, the ledger's case: its label, the number of find_root
solves the check makes, their summed max-row nfev and their summed
objective rows, then each solve as module[rows]:nfev/objective rows, in
call order, with the module that made it, its row count, its slowest row's evaluation count and the
rows the objective was evaluated on (the sum of len(r) over its calls). A
solve runs as long as its slowest row, so the summed max-row nfev is what
the solves cost in objective calls, whatever their row counts; the
objective rows are what those calls cost in oracle work. nfev counts the
bracket ends, as scipy's does, also where the caller hands find_root their
values (f_init) and the objective does not run on them. A last line gives
the totals.

The counts are the same on every machine and in every run, so two trees'
outputs compare directly: a diff shows which solve a change removed or made
cheaper. The solves are counted by wrapping find_root in the library modules
that call it, as the tests' solve counts do; the cases are the 24 runs of
tools/report_digests.py, under its labels: the 13 L3 cases of perfbench
(read, never changed) and 11 configurations that reach the off-centre,
affine and skip paths.

The committed record is COST_LEDGER.json, each case's solves, summed nfev
and objective rows:

    python3 tools/cost_ledger.py --write COST_LEDGER.json
    python3 tools/cost_ledger.py --check COST_LEDGER.json

--check prints the ledger as above, then exits 1 when a case's count rose
above the record, or the cases differ from it; a count that fell is named,
and the record is rewritten with --write.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tools")]

from ellipsoid_forge import bodies, cones, planar, theorems  # noqa: E402
from ellipsoid_forge.numeric import find_root  # noqa: E402

from report_digests import runs  # noqa: E402

MODULES = (bodies, cones, planar, theorems)


def solves_of(run):
    """(module, rows, max-row nfev, objective rows) of every find_root call
    that run makes."""
    solves = []

    def counted(name):
        def solve(f, init, *args, **kwargs):
            evaluated = []

            def objective(x, r):
                evaluated.append(len(r))
                return f(x, r)
            sol = find_root(objective, init, *args, **kwargs)
            solves.append((name, sol.nfev.size, int(sol.nfev.max(initial=0)),
                           sum(evaluated)))
            return sol
        return solve
    for mod in MODULES:
        mod.find_root = counted(mod.__name__.rsplit(".", 1)[-1])
    try:
        run()
    finally:
        for mod in MODULES:
            mod.find_root = find_root
    return solves


COUNTS = ("solves", "nfev", "rows")


def ledger():
    """{label: (counts, solves)} of every run of report_digests, in its
    order: its find_root solves, their summed max-row nfev and their summed
    objective rows by name, and the solves themselves (see solves_of)."""
    cases = {}
    for label, run in runs():
        solves = solves_of(run)
        cases[label] = (dict(solves=len(solves), nfev=sum(s[2] for s in solves),
                             rows=sum(s[3] for s in solves)), solves)
    return cases


def compare(recorded, counts):
    """(rises, falls): a line for each count of counts ({label: {name:
    count}}) above, or below, its recorded value; a case in one and not the
    other is a rise."""
    rises, falls = [], []
    for label in sorted(set(recorded) ^ set(counts)):
        rises.append("%s: %s" % (label, "not recorded" if label in counts
                                 else "recorded, not run"))
    for label in recorded.keys() & counts.keys():
        for name in COUNTS:
            was, now = recorded[label][name], counts[label][name]
            if now != was:
                (rises if now > was else falls).append(
                    "%s: %s %d -> %d" % (label, name, was, now))
    return rises, falls


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", metavar="PATH",
                        help="write each case's counts to PATH as JSON")
    parser.add_argument("--check", metavar="PATH",
                        help="exit 1 when a count rose above PATH's")
    args = parser.parse_args(argv)
    cases = ledger()
    for label, (counts, solves) in cases.items():
        print("%-36s %2d solves  nfev %4d  rows %7d  %s" % (
            label, counts["solves"], counts["nfev"], counts["rows"],
            " ".join("%s[%d]:%d/%d" % s for s in solves)))
    print("%-36s %2d solves  nfev %4d  rows %7d" % (("total",) + tuple(
        sum(c[name] for c, _ in cases.values()) for name in COUNTS)))
    counts = {label: c for label, (c, _) in cases.items()}
    if args.write:
        with open(args.write, "w") as fh:
            json.dump(counts, fh, indent=1)
            fh.write("\n")
    if args.check:
        with open(args.check) as fh:
            rises, falls = compare(json.load(fh), counts)
        for line in falls:
            print("fell: %s (rewrite %s with --write)" % (line, args.check))
        for line in rises:
            print("ROSE: %s" % line)
        return 1 if rises else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
