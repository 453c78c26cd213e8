"""Print the root-solve cost of each L3 case of perfbench.

Run from the repository root:

    python3 tools/cost_ledger.py

One line per case: its label, the number of find_root solves the check
makes, their summed max-row nfev and their summed objective rows, then each
solve as module[rows]:nfev/objective rows, in call order, with the module
that made it, its row count, its slowest row's evaluation count and the
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
that call it, as the tests' solve counts do; the cases are the 13 L3 cases
of perfbench (read, never changed).
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from ellipsoid_forge import bodies, cones, planar, theorems  # noqa: E402
from ellipsoid_forge.numeric import find_root  # noqa: E402

import workloads  # noqa: E402

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


def main():
    total_solves = total_nfev = total_rows = 0
    for workload in ("cone-sweeps", "section-sweeps", "polytope-oracles"):
        for case in workloads.l3_cases(workload):
            solves = solves_of(case.run)
            nfev = sum(s[2] for s in solves)
            rows = sum(s[3] for s in solves)
            total_solves += len(solves)
            total_nfev += nfev
            total_rows += rows
            print("%-34s %2d solves  nfev %4d  rows %7d  %s" % (
                case.label, len(solves), nfev, rows,
                " ".join("%s[%d]:%d/%d" % s for s in solves)), flush=True)
    print("%-34s %2d solves  nfev %4d  rows %7d" % ("total", total_solves,
                                                     total_nfev, total_rows))


if __name__ == "__main__":
    main()
