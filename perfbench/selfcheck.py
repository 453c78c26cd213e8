"""Determinism self-check of the benchmark.

    python3 perfbench/selfcheck.py --workload cone-sweeps --seed 3 [--rounds 1]

Runs run.py twice untraced and twice traced, each time for the same fixed
number of rounds with one seed, and checks that

* the two untraced runs did the same ops with the same results and the same
  correctness outcomes (the op log hashes agree), and
* the two traced runs report identical per-layer counts and ratios, and the
  same op log as the untraced runs.

Exits 0 when every comparison holds, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")


def run(workload, seed, rounds, trace):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--trace", str(trace), "--rounds", str(rounds)],
        capture_output=True, text=True, timeout=900, cwd=os.path.dirname(HERE))
    if out.returncode != 0:
        raise SystemExit("run.py failed:\n%s" % out.stderr[-2000:])
    lines = out.stdout.strip().splitlines()
    oplog = next(ln.split()[-1] for ln in lines if ln.startswith("op log sha256"))
    return oplog, json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description="determinism self-check of run.py")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=1)
    args = ap.parse_args()
    ok = True

    logs, outcomes = [], []
    for _ in range(2):
        oplog, doc = run(args.workload, args.seed, args.rounds, 0)
        logs.append(oplog)
        outcomes.append((doc["attempted"], doc["failed"], doc["correct"]))
    same = logs[0] == logs[1] and outcomes[0] == outcomes[1]
    print("untraced op logs and outcomes identical: %s  (%s, %s)" % (same, logs[0][:16],
                                                                       outcomes[0]))
    ok &= same

    counts = []
    for _ in range(2):
        oplog, doc = run(args.workload, args.seed, args.rounds, 1)
        logs.append(oplog)
        counts.append({k: v["value"] for k, v in doc["metrics"].items()
                       if v["unit"] in ("count", "ratio") and k != "trace.overhead"})
    diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
    print("traced per-layer counts identical: %s  (%d metrics%s)" % (
        not diff, len(counts[0]), "; differ: " + ", ".join(diff) if diff else ""))
    ok &= not diff
    same_ops = len(set(logs)) == 1
    print("traced op logs equal the untraced ones: %s" % same_ops)
    ok &= same_ops

    print("selfcheck %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
