"""Batch front-end: bodies from spec files, checks, samplers, sweeps.

Exit status: 0 consistent / completed, 2 hypothesis-violated (or "not a
pole"), 3 conclusion-violated, 1 usage, I/O, or geometry errors. Machine
output goes to files (JSON report, CSV curves); stdout gets one line per
stage.
"""

import argparse
import inspect
import json
import os
import sys

import numpy as np

from .bodies import PBall, load_body
from .cones import CurveSample, cone_intersection, graze, shadow_boundary, write_curve_csv
from .errors import BodySpecError, GeometryError, NonFiniteInput, ZeroDirection
from .numeric import circle_directions, require_sizes
from .planar import section
from .projective import Hyperplane
from .theorems import (
    SCHEMA,
    check_theorem1,
    check_theorem2,
    check_theorem3,
    check_theorem4,
    check_theorem_basico,
    check_theorem_radon,
    polar_of,
)

ENV_TOLERANCES = "ELLIPSOID_FORGE_TOLERANCES"


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is taken by hypothesis-violated
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _vec(text):
    try:
        return np.array([float(t) for t in text.split(",")])
    except ValueError:
        raise _UsageError("cannot parse vector %r (want e.g. 2,0,0)" % text)


def _grid(text):
    try:
        lo, hi, n = text.split(":")
        grid = np.linspace(float(lo), float(hi), int(n))
    except ValueError:
        raise _UsageError("cannot parse grid %r (want lo:hi:count)" % text)
    if grid.size < 1:
        raise _UsageError("grid %r is empty (want count >= 1)" % text)
    return grid


def _tol_pairs(text):
    out = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, value = item.partition("=")
        if not sep:
            raise _UsageError("tolerance override %r is not key=value" % item)
        try:
            out[key.strip()] = float(value)
        except ValueError:
            raise _UsageError("tolerance %r is not a number" % value)
    return out


def _tolerances(args):
    """defaults < environment profile < command line; the library rejects
    unknown keys."""
    tol = _tol_pairs(os.environ.get(ENV_TOLERANCES, ""))
    for item in args.tol or []:
        tol.update(_tol_pairs(item))
    return tol


def _print_stages(report):
    for s in report.stages:
        print("[%-4s] %-10s %-36s residual %.6e  tol %.1e"
              % (s.verdict, s.kind, s.name, s.residual, s.tolerance))
    if report.branch:
        print("branch %s" % report.branch)
    print("verdict %s" % report.verdict)


def _finish_check(report, args):
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
    _print_stages(report)
    return {"consistent": 0, "hypothesis-violated": 2,
            "conclusion-violated": 3}[report.verdict]


def _cmd_body_validate(args):
    status = 0
    for path in args.spec:
        try:
            body = load_body(path)
        except (BodySpecError, OSError) as exc:
            print("%s: INVALID: %s" % (path, exc), file=sys.stderr)
            status = 1
            continue
        print("%s: ok  kind %s  dim %d  diameter %.6g"
              % (path, body.kind, body.dim, body.diameter()))
    return status


def _section_sample(body, normal, offset, m, seed):
    require_sizes("section sample", {"m": m}, least={"m": 3})
    if not np.all(np.isfinite(normal)):
        raise NonFiniteInput("section normal %s is not finite" % normal.tolist())
    if not normal.any():
        raise ZeroDirection("the section normal is zero")
    nrm = normal / np.linalg.norm(normal)
    plane = Hyperplane(nrm, float(offset))  # offset in unit-normal scale
    sec = section(body, plane)
    pts = sec.to_world(sec.boundary2(circle_directions(m, seed=seed)))
    res = np.abs(body.gauge(pts) - 1.0)
    meta = {
        "curve": "section",
        "body": body.body_id(),
        "normal": [float(t) for t in plane.normal],
        "offset": float(plane.offset),
        "m": int(m),
        "seed": int(seed),
    }
    return CurveSample(pts, res, meta)


def _cmd_sample(args):
    body = load_body(args.body)
    if args.kind == "graze":
        if args.apex is None:
            raise _UsageError("sample graze needs --apex")
        sample = graze(body, _vec(args.apex), m=args.m, seed=args.seed)
    elif args.kind == "shadow":
        if args.direction is None:
            raise _UsageError("sample shadow needs --direction")
        sample = shadow_boundary(body, _vec(args.direction), m=args.m,
                                 seed=args.seed)
    elif args.kind == "omega":
        if args.apex is None or args.apex2 is None:
            raise _UsageError("sample omega needs --apex and --apex2")
        sample = cone_intersection(body, _vec(args.apex), _vec(args.apex2),
                                   m=args.m, seed=args.seed)
    else:
        if args.normal is None:
            raise _UsageError("sample section needs --normal")
        sample = _section_sample(body, _vec(args.normal), args.offset,
                                 args.m, args.seed)
    write_curve_csv(sample, args.out)
    print("wrote %d points to %s  (max residual %.3e)"
          % (len(sample), args.out, sample.max_residual))
    return 0


def _run_check(name, bodies, args):
    """Call check name's function on bodies with the inputs, sizes, seed and
    tolerances in the parsed args."""
    fn, _, input_flags, size_flags = _CHECKS[name]
    given = vars(args)
    inputs = [given[flag] for flag in input_flags]
    # a size flag the user omitted is absent, so the function's default holds
    sizes = {param: given[param] for _, param in _sizes(size_flags)
             if param in given}
    return fn(*bodies, *inputs, seed=args.seed,
              tolerances=_tolerances(args) or None, **sizes)


def _cmd_check(args):
    bodies = [load_body(getattr(args, flag)) for flag in _CHECKS[args.theorem][1]]
    result = _run_check(args.theorem, bodies, args)
    if args.theorem == "pole":
        return _finish_pole(result, bodies[0], args.point, args)
    return _finish_check(result, args)


def _finish_pole(result, body, point, args):
    if result.polar.is_infinite:
        polar_desc = {"at_infinity": True}
    else:
        polar_desc = {"normal": [float(t) for t in result.polar.normal],
                      "offset": float(result.polar.offset)}
    doc = {
        "schema": SCHEMA,
        "theorem": "pole",
        "classification": result.classification,
        "residual": result.residual,
        "fit_residual": result.fit_residual,
        "cr_residual": result.cr_residual,
        "graze_hausdorff": result.graze_hausdorff,
        "polar": polar_desc,
        "body": body.body_id(),
        "point": [float(t) for t in point],
        "detail": result.detail,
    }
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, indent=2) + "\n")
    is_pole = result.classification != "not a pole"
    print("[%-4s] %-10s %-36s residual %.6e"
          % ("pass" if is_pole else "fail", "hypothesis",
             "harmonic-conjugate-polar", result.residual))
    if result.graze_hausdorff is not None:
        print("[%-4s] %-10s %-36s residual %.6e"
              % ("pass" if not result.detail.get("graze_disagrees") else "fail",
                 "derived", "graze-polar-agreement", result.graze_hausdorff))
    print("classification %s" % result.classification)
    return 0 if is_pole else 2


def _cmd_sweep(args):
    semi_axes = _vec(args.semi_axes)
    args.p = np.zeros(len(semi_axes))  # sweep runs basico about the origin
    rows = []
    for p in _grid(args.exponents):
        body = PBall(float(p), semi_axes)
        report = _run_check(args.check, [body], args)
        worst = max((s.residual for s in report.stages
                     if s.verdict in ("pass", "fail", "info")), default=0.0)
        rows.append({"exponent": float(p), "verdict": report.verdict,
                     "max_residual": worst})
        print("exponent %-8.4f verdict %-20s max residual %.6e"
              % (p, report.verdict, worst))
    if args.report:
        doc = {"schema": SCHEMA, "sweep": args.check,
               "semi_axes": [float(t) for t in semi_axes],
               "seed": int(args.seed), "rows": rows}
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, indent=2) + "\n")
    return 0


#: check name -> (function, body flags, input flags, size flags). Bodies and
#: inputs go by position; a size flag is passed only when given, so each
#: default lives in the function's signature. ("lines", "m") is the flag
#: --lines for the parameter m.
_CHECKS = {
    "t1": (check_theorem1, ("inner", "outer"), (), ("apexes", "m", "pairs")),
    "t2": (check_theorem2, ("inner", "outer"), ("p",),
           ("apexes", "m", "chords", "radon_k")),
    "t3": (check_theorem3, ("inner", "outer"), (),
           ("apexes", "m", "lines", "w_samples")),
    "t4": (check_theorem4, ("body",), ("ball_radius",), ("samples", "m")),
    "basico": (check_theorem_basico, ("body",), ("p",),
               ("eps", "planes", "offsets", "m", "sym_m")),
    "radon": (check_theorem_radon, ("body",), (), ("planes", "diameters")),
    "pole": (polar_of, ("body",), ("point",), (("lines", "m"),)),
}
_INPUTS = {
    "p": dict(type=_vec, default="0,0,0"),
    "ball_radius": dict(type=float, required=True),
    "point": dict(type=_vec, required=True),
}


def _sizes(size_flags):
    """(flag, parameter) pairs of a _CHECKS row."""
    return [(f, f) if isinstance(f, str) else f for f in size_flags]


def _add_common(sp):
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--tol", action="append", metavar="KEY=VALUE",
                    help="tolerance override, repeatable")
    sp.add_argument("--report", help="write the JSON report here")


def build_parser():
    parser = _Parser(prog="ellipsoid-forge",
                     description="convex-body constructions and checks")
    sub = parser.add_subparsers(dest="command", required=True)

    body = sub.add_parser("body", parents=[], help="body spec utilities")
    body_sub = body.add_subparsers(dest="body_command", required=True)
    validate = body_sub.add_parser("validate")
    validate.add_argument("spec", nargs="+")

    sample = sub.add_parser("sample", help="export a sampled curve as CSV")
    sample.add_argument("kind", choices=["graze", "shadow", "omega", "section"])
    sample.add_argument("--body", required=True)
    sample.add_argument("--apex")
    sample.add_argument("--apex2")
    sample.add_argument("--direction")
    sample.add_argument("--normal")
    sample.add_argument("--offset", type=float, default=0.0)
    sample.add_argument("--m", type=int, default=200)
    sample.add_argument("--seed", type=int, default=0)
    sample.add_argument("--out", required=True)

    check = sub.add_parser("check", help="run one theorem check")
    check_sub = check.add_subparsers(dest="theorem", required=True)
    for name, (fn, body_flags, input_flags, size_flags) in _CHECKS.items():
        sp = check_sub.add_parser(name)
        for flag in body_flags:
            sp.add_argument("--" + flag, required=True)
        for flag in input_flags:
            sp.add_argument("--" + flag.replace("_", "-"), **_INPUTS[flag])
        for flag, param in _sizes(size_flags):
            default = inspect.signature(fn).parameters[param].default
            sp.add_argument("--" + flag.replace("_", "-"), dest=param,
                            type=type(default), default=argparse.SUPPRESS)
        _add_common(sp)

    sweep = sub.add_parser("sweep",
                           help="grid over the pball exponent, one check per point")
    sweep.add_argument("--check", choices=["radon", "basico", "t4"],
                       default="radon")
    sweep.add_argument("--exponents", default="1.5:3:7", metavar="LO:HI:N")
    sweep.add_argument("--semi-axes", default="1,1,1")
    sweep.add_argument("--planes", type=int, default=4)
    sweep.add_argument("--diameters", type=int, default=64)
    sweep.add_argument("--eps", type=float, default=0.2)
    sweep.add_argument("--ball-radius", type=float, default=0.5)
    sweep.add_argument("--samples", type=int, default=8)
    sweep.add_argument("--m", type=int, default=48)
    _add_common(sweep)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "body":
            return _cmd_body_validate(args)
        if args.command == "sample":
            return _cmd_sample(args)
        if args.command == "check":
            return _cmd_check(args)
        return _cmd_sweep(args)
    except GeometryError as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1
    except (_UsageError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
