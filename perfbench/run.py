"""Closed-loop benchmark of ellipsoid-forge: oracles -> constructions -> checks.

Run from the repository root:

    python3 perfbench/run.py --workload cone-sweeps --seed 1 --seconds 25 --trace 0

One process, one client, no threads: each op starts when the previous one has
finished and been checked. An untraced run (--trace 0) does whole rounds of
its workload until --seconds have passed and at least MIN_OPS ops are done,
then prints the end-to-end metrics. A traced run (--trace 1) does a fixed
number of rounds twice, untraced and then traced, checks that both passes
return identical results, prints the per-layer metrics and trace.overhead,
and then runs each check at its CLI defaults (the L3 table).

The CPU speed of a small shared host drifts by 2x and more, switching within
seconds, so headline timings are in calibration units (cu): the time of a
fixed benchmark-owned kernel of scalar Python and small numpy calls, timed in
the same process before and after every op and, on a timer signal, inside
long ops. Raw seconds are reported beside them but not gated.

selfcheck.py checks that runs with one seed repeat exactly.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines above it are a readable report.
"""

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_OPS = 100           # p90 needs ten samples beyond it
SETUP_PROBES = 5        # fresh processes timing import + body set-up
CU_ITERS = 100          # kernel iterations in one cu (about 1 ms)
CAL_REPS = 3            # whole-cu kernel timings before and after each op
TICK = 0.02             # seconds between in-op calibration ticks
TICK_ITERS = 10         # kernel iterations per tick (under 1% of op time)
EDGE = 0.005            # seconds either side of an op whose samples calibrate it
TRACE_ROUNDS = {"cone-sweeps": 4, "section-sweeps": 2, "polytope-oracles": 2}


# ---------------------------------------------------------------------------
# calibration kernel: the unit of the cu timings
# ---------------------------------------------------------------------------

def _kernel(np, q, v, iters):
    """Oracle-shaped work: 3-vectors, a quadratic form, an l_p norm, scalars."""
    acc = 0.0
    for i in range(iters):
        w = v * (1.0 + 1e-3 * i)
        acc += float(np.sqrt(w @ q @ w))
        acc += float(np.linalg.norm(w, ord=4.0))
        acc += math.cos(acc * 1e-9)
    return acc


class Calibrator:
    """Times the kernel around every op and, through SIGALRM, inside long ones.

    One cu is the time of CU_ITERS kernel iterations. Between ops, sample()
    times CAL_REPS full kernels. While ticking, a timer signal every TICK
    seconds runs TICK_ITERS iterations in the main thread, between bytecodes
    of whatever op is running, so an op of a second or more is calibrated by
    the speed during it and not only at its ends. The time spent in ticks is
    kept in `spent` so that callers can take it out of their op times.
    """

    def __init__(self, np):
        self.np = np
        self.q = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.2]])
        self.v = np.array([0.3, -0.2, 0.9])
        self.times = []    # end time of each sample
        self.cu = []       # seconds per cu measured by each sample
        self.spent = 0.0   # seconds spent inside tick samples
        self._previous = None

    def _measure(self, iters):
        t0 = perf_counter()
        _kernel(self.np, self.q, self.v, iters)
        t1 = perf_counter()
        self.times.append(t1)
        self.cu.append((t1 - t0) * CU_ITERS / iters)

    def sample(self):
        # a tick inside a timed kernel would inflate it: hold ticks until done
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            for _ in range(CAL_REPS):
                self._measure(CU_ITERS)
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def warm_up(self):
        """Let the kernel's first-call costs pass, then forget those samples."""
        for _ in range(20):
            self.sample()
        self.times.clear()
        self.cu.clear()

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self._measure(TICK_ITERS)
        self.spent += perf_counter() - t0

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK, TICK)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, t0, t1):
        """Mean cu per second over the samples taken in [t0, t1]."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        return statistics.fmean(1.0 / c for c in self.cu[lo:hi])


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def fingerprint(obj):
    """Hash of an op result's values, for the determinism checks."""
    import numpy as np
    from ellipsoid_forge.bodies import ConvexBody

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(x.tobytes())
        elif isinstance(x, (bool, int, float, str, type(None), np.generic)):
            h.update(repr(x).encode())
        elif isinstance(x, dict):
            for k in sorted(x, key=str):
                if k != "wall_time":  # CheckReport's measured time
                    h.update(str(k).encode())
                    feed(x[k])
        elif isinstance(x, (list, tuple)):
            for item in x:
                feed(item)
        elif isinstance(x, ConvexBody):
            h.update(x.kind.encode())
        elif hasattr(x, "__dict__"):
            h.update(type(x).__name__.encode())
            feed(vars(x))
        else:
            h.update(repr(x).encode())

    h = hashlib.sha256()
    feed(obj)
    return h.hexdigest()


def quantile(values, q):
    """Linear-interpolation quantile, as numpy's default."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "ellipsoid_forge")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def host_record(cal_seconds):
    import numpy
    import scipy
    q1, med, q3 = statistics.quantiles(cal_seconds, n=4)
    return [
        ("nproc", os.cpu_count()),
        ("python", platform.python_version()),
        ("numpy", numpy.__version__),
        ("scipy", scipy.__version__),
        ("commit", commit()),
        ("src digest", source_digest()),
        ("cu kernel ms (q1/median/q3)", "%.4f / %.4f / %.4f  over %d samples"
         % (1e3 * q1, 1e3 * med, 1e3 * q3, len(cal_seconds))),
    ]


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def timed_setup(workload, seed):
    """Import the library and build the workload's bodies; returns (pool, seconds).

    Set-up is import, body construction, the parse_body round trip and the
    lazy diameter/radius caches. Importing the benchmark's own modules is
    not counted.
    """
    t0 = perf_counter()
    import ellipsoid_forge  # noqa: F401
    import ellipsoid_forge.theorems  # noqa: F401
    t1 = perf_counter()
    import workloads
    t2 = perf_counter()
    pool = workloads.WORKLOADS[workload].setup(setup_rng(seed))
    t3 = perf_counter()
    return pool, (t1 - t0) + (t3 - t2)


def setup_rng(seed):
    import numpy as np
    return np.random.default_rng([seed, 7])


def probe_setups(workload, seed):
    """Set-up times of SETUP_PROBES fresh processes, run one after another."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if out.returncode != 0:
            raise RuntimeError("set-up probe failed: %s" % out.stderr.strip()[-400:])
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

class Record:
    __slots__ = ("kind", "label", "seconds", "cu", "error", "digest")


def run_op(op, cal):
    rec = Record()
    rec.kind, rec.label = op.kind, op.label
    cal.sample()
    spent = cal.spent
    t0 = perf_counter()
    try:
        result = op.run()
        rec.error = None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        result = None
        rec.error = "%s: %s" % (type(exc).__name__, exc)
    t1 = perf_counter()
    rec.seconds = (t1 - t0) - (cal.spent - spent)
    cal.sample()
    # the window holds the samples just before and after the op and its ticks
    rec.cu = rec.seconds * cal.speed(t0 - EDGE, t1 + EDGE)
    if rec.error is None:
        try:
            rec.error = op.check(result)
        except Exception as exc:
            rec.error = "checker raised %s: %s" % (type(exc).__name__, exc)
    rec.digest = fingerprint(result) if rec.error is None else rec.error
    return rec


def run_rounds(wl, pool, seed, cal, seconds=None, rounds=None):
    """Whole rounds until `rounds` are done, or `seconds` and MIN_OPS are met."""
    records = []
    t_start = perf_counter()
    r = 0
    cal.start()
    try:
        while True:
            if rounds is not None and r >= rounds:
                break
            if (rounds is None and perf_counter() - t_start >= seconds
                    and len(records) >= MIN_OPS):
                break
            for op in wl.round_ops(pool, seed, r):
                records.append(run_op(op, cal))
            r += 1
    finally:
        cal.stop()
    return records, r


def end_to_end(records, setup_s):
    """The benchmark's end-to-end metrics: (value, unit) by name."""
    cu = [r.cu for r in records]
    failed = sum(r.error is not None for r in records)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops_per_kcu": (1000.0 * len(records) / sum(cu), "ops/kcu"),
        "op_cu.p50": (quantile(cu, 0.5), "cu"),
        "op_cu.p90": (quantile(cu, 0.9), "cu"),
        "ok_rate": (1.0 - failed / len(records), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def raw_timings(records):
    """Wall-clock figures, printed beside the calibrated ones.

    They follow the host's speed swings (run-to-run spread 12-52% on a
    2-core shared host), so they are reported but not gated.
    """
    secs = [r.seconds for r in records]
    return {
        "ops_per_s": (len(records) / sum(secs), "1/s"),
        "op_s.p50": (quantile(secs, 0.5), "s"),
        "op_s.p90": (quantile(secs, 0.9), "s"),
    }


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def print_kinds(records):
    kinds = sorted({r.kind for r in records})
    print("%-16s %6s %10s %10s %10s" % ("op kind", "ops", "cu p50", "cu max", "errors"))
    for k in kinds:
        rs = [r for r in records if r.kind == k]
        cu = [r.cu for r in rs]
        print("%-16s %6d %10.1f %10.1f %10d" % (k, len(rs), quantile(cu, 0.5), max(cu),
                                               sum(r.error is not None for r in rs)))


def print_failures(records):
    bad = [r for r in records if r.error is not None]
    print("error_rate %.6f  (%d of %d ops)" % (len(bad) / len(records), len(bad), len(records)))
    for r in bad[:20]:
        print("  FAILED %s: %s" % (r.label, r.error))


def print_metrics(metrics):
    for name, (value, unit) in metrics.items():
        print("%-40s %16.6g %s" % (name, value, unit))


def emit(correct, attempted, failed, metrics):
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def untraced(args):
    import numpy as np
    probes = probe_setups(args.workload, args.seed)
    pool, own = timed_setup(args.workload, args.seed)
    setup_s = statistics.median(probes + [own])
    import workloads
    pool.build_models()
    cal = Calibrator(np)
    cal.warm_up()
    wl = workloads.WORKLOADS[args.workload]
    t0 = perf_counter()
    records, rounds = run_rounds(wl, pool, args.seed, cal, seconds=args.seconds,
                                 rounds=args.rounds)
    wall = perf_counter() - t0
    metrics = end_to_end(records, setup_s)
    failed = sum(r.error is not None for r in records)
    print("workload %s  seed %d  rounds %d  ops %d  loop wall %.2f s"
          % (args.workload, args.seed, rounds, len(records), wall))
    print("setup_s samples: %s" % " ".join("%.3f" % t for t in probes + [own]))
    for k, v in host_record(cal.cu):
        print("host %-28s %s" % (k, v))
    print("op log sha256 %s" % fingerprint([(r.label, r.digest) for r in records]))
    print_kinds(records)
    print_failures(records)
    print("raw wall-clock timings (not gated):")
    print_metrics(raw_timings(records))
    print("end-to-end metrics:")
    print_metrics(metrics)
    emit(failed == 0, len(records), failed, metrics)


def traced(args):
    import numpy as np
    import spans as tracing
    import workloads
    pool, _ = timed_setup(args.workload, args.seed)
    pool.build_models()
    cal = Calibrator(np)
    cal.warm_up()
    wl = workloads.WORKLOADS[args.workload]
    rounds = args.rounds or TRACE_ROUNDS[args.workload]

    plain, _ = run_rounds(wl, pool, args.seed, cal, rounds=rounds)
    cases = workloads.l3_cases(args.workload)
    tracer = tracing.Tracer()
    tracer.install(pool.bodies + [b for case in cases for b in case.bodies])
    try:
        recs, _ = run_rounds(wl, pool, args.seed, cal, rounds=rounds)
        snap = tracer.snapshot()
        l3 = run_l3(cases, tracer)
    finally:
        tracer.uninstall()

    mismatched = [(a.label, a.digest, b.digest) for a, b in zip(plain, recs)
                  if a.digest != b.digest]
    op_seconds = sum(r.seconds for r in recs)
    metrics = tracing.per_layer_metrics(snap, len(recs), op_seconds)
    plain_rate = len(plain) / sum(r.cu for r in plain)
    traced_rate = len(recs) / sum(r.cu for r in recs)
    metrics["trace.overhead"] = (plain_rate / traced_rate, "ratio")
    failed = sum(r.error is not None for r in recs) + len(mismatched)
    failed += sum(row["error"] is not None for row in l3)

    print("workload %s  seed %d  traced rounds %d  ops %d" % (args.workload, args.seed,
                                                              rounds, len(recs)))
    for k, v in host_record(cal.cu):
        print("host %-28s %s" % (k, v))
    print("op log sha256 %s" % fingerprint([(r.label, r.digest) for r in recs]))
    print("traced and untraced results identical: %s" % (not mismatched))
    for label, a, b in mismatched[:10]:
        print("  MISMATCH %s: %s vs %s" % (label, a[:16], b[:16]))
    print_failures(recs)
    print_spans(snap)
    print_l3(l3)
    print_metrics(metrics)
    emit(failed == 0, len(recs) + len(l3), failed, metrics)


def print_spans(snap):
    print("%-34s %9s %9s %10s %10s" % ("span", "calls", "nested", "self s", "total s"))
    for name in sorted(snap["total"]):
        print("%-34s %9d %9d %10.3f %10.3f" % (name, snap["calls"][name],
                                                snap["nested"][name], snap["self"][name],
                                                snap["total"][name]))


def run_l3(cases, tracer):
    import spans as tracing
    rows = []
    for case in cases:
        before = tracer.snapshot()
        t0 = perf_counter()
        try:
            rep = case.run()
            error = None if rep.verdict == case.want else "verdict %s, expected %s" % (
                rep.verdict, case.want)
        except Exception as exc:
            error = "%s: %s" % (type(exc).__name__, exc)
        wall = perf_counter() - t0
        d = tracing.delta(tracer.snapshot(), before)
        rows.append({"label": case.label, "wall": wall, "error": error, "d": d})
    return rows


def print_l3(rows):
    if not rows:
        return
    print("L3: checks at CLI defaults (traced wall time)")
    print("%-32s %8s %8s %8s %8s %8s %8s %8s %8s %8s %8s" % (
        "check", "wall s", "self s", "support", "supp_pt", "gauge", "normal",
        "bfc", "bpoint", "brentq", "linprog"))
    for row in rows:
        d = row["d"]
        c = d["calls"]
        self_s = sum(v for k, v in d["self"].items() if k.startswith("theorems."))
        print("%-32s %8.2f %8.3f %8d %8d %8d %8d %8d %8d %8d %8d" % (
            row["label"], row["wall"], self_s, c.get("bodies.support", 0),
            c.get("bodies.support_point", 0), c.get("bodies.gauge", 0),
            c.get("bodies.normal_at", 0), c.get("bodies.boundary_from_center", 0),
            c.get("bodies.boundary_point", 0), c.get("solver.brentq", 0),
            c.get("solver.linprog", 0)))
        print("%-32s support2 %d  support_point2 %d  minimize_scalar %d  "
              "brentq fevals %d  nested oracle calls %d%s" % (
                  "", c.get("planar.support2", 0), c.get("planar.support_point2", 0),
                  c.get("solver.minimize_scalar", 0),
                  d["fevals"].get("solver.brentq", 0), sum(d["nested"].values()),
                  "  FAILED " + row["error"] if row["error"] else ""))


def setup_probe(args):
    _, seconds = timed_setup(args.workload, args.seed)
    print("%.9f" % seconds)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rounds", type=int, default=None,
                    help="run exactly this many rounds (determinism self-check)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ellipsoid_forge", "__init__.py")):
        print("run.py: no src/ellipsoid_forge next to perfbench/; run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.workload not in TRACE_ROUNDS:
        print("run.py: unknown workload %r (have: %s)" % (
            args.workload, ", ".join(TRACE_ROUNDS)), file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    if args.setup_probe:
        setup_probe(args)
    elif args.trace:
        traced(args)
    else:
        untraced(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
