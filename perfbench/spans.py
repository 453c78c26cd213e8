"""Spans and counts around the library's public functions, from outside src/.

Installing a Tracer rebinds names; it changes no behaviour:

* Oracle methods are wrapped on each body *instance* the benchmark hands to
  the library, so isinstance() fast paths and serialize_body dispatch still
  see the real class. A call made while another oracle of the same body is
  running (boundary_from_center calling self.gauge) is a nested self-call and
  is counted apart from the top-level calls.
* Module functions are rebound in every library namespace that holds them,
  which covers the `from .x import name` bindings in theorems and cones.
* PlanarSection methods are patched on the class, because the checks create
  their own sections.
* The scipy solvers are rebound where the library imported them; their
  objective functions are wrapped to count evaluations.

uninstall() restores every binding. A span's self time is its duration minus
the durations of the spans it directly encloses. A solver's objective function
is timed as an "<layer>.objective" span of the layer that called the solver,
so solver self time is scipy's own work.
"""

import importlib
from collections import Counter, defaultdict
from time import perf_counter

ORACLES = ("support", "support_point", "gauge", "normal_at",
           "boundary_from_center", "boundary_point")
FUNCTIONS = {
    "bodies": ("line_boundary_points", "o_symmetry_residual"),
    "cones": ("graze", "shadow_boundary", "cone_intersection", "is_ellipsoidal_cone"),
    "planar": ("section", "central_symmetry", "is_radon_curve"),
    "fitting": ("fit_quadric", "fit_planar_conic", "fit_hyperplane"),
    "projective": ("fit_hyperplane_projective", "harmonic_conjugate", "cross_ratio"),
    "theorems": ("check_theorem1", "check_theorem2", "check_theorem3",
                 "check_theorem4", "check_theorem_basico", "check_theorem_radon",
                 "polar_of"),
}
SECTION_METHODS = ("support2", "support_point2", "boundary2")
SOLVERS = ("brentq", "minimize_scalar", "linprog")
CURVES = ("cones.graze", "cones.shadow_boundary", "cones.cone_intersection")
MODULES = ("ellipsoid_forge", "ellipsoid_forge.bodies", "ellipsoid_forge.cones",
           "ellipsoid_forge.planar", "ellipsoid_forge.fitting",
           "ellipsoid_forge.projective", "ellipsoid_forge.theorems",
           "ellipsoid_forge.numeric", "ellipsoid_forge.cli")


class Tracer:
    def __init__(self):
        self.calls = Counter()          # span name -> top-level calls
        self.nested = Counter()         # oracle span name -> nested self-calls
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.fevals = Counter()
        self.failures = Counter()
        self.oracle_by_fn = Counter()   # (innermost library function, oracle) -> calls
        self.curve_points = 0
        self._frames = []               # one child-time accumulator per open span
        self._names = []                # names of the open spans
        self._fns = []                  # open library-function span names
        self._depth = Counter()         # id(body) -> open oracle spans on it
        self._undo = []

    # -- span bookkeeping ---------------------------------------------------

    def _timed(self, name, fn, library_fn=False):
        frames, names, fns = self._frames, self._names, self._fns

        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            names.append(name)
            if library_fn:
                fns.append(name)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                frames.pop()
                names.pop()
                if library_fn:
                    fns.pop()
                self.total[name] += dt
                self.self_time[name] += dt - frame[0]
                if frames:
                    frames[-1][0] += dt
        return wrapper

    def _function(self, name, fn):
        timed = self._timed(name, fn, library_fn=True)
        curve = name in CURVES

        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            out = timed(*args, **kwargs)
            if curve:
                self.curve_points += len(out)
            return out
        return wrapper

    def _oracle(self, body, method):
        name = "bodies." + method
        key = id(body)
        timed = self._timed(name, getattr(body, method))

        def wrapper(*args, **kwargs):
            if self._depth[key]:
                self.nested[name] += 1
            else:
                self.calls[name] += 1
                self.oracle_by_fn[(self._fns[-1] if self._fns else "-", method)] += 1
            self._depth[key] += 1
            try:
                return timed(*args, **kwargs)
            finally:
                self._depth[key] -= 1
        return wrapper

    def _solver(self, short, fn):
        name = "solver." + short
        timed = self._timed(name, fn)

        def wrapper(first, *args, **kwargs):
            self.calls[name] += 1
            if callable(first):
                # the objective is the calling layer's code: time it as a
                # span of that layer so solver self time is scipy's alone
                caller = next((n for n in reversed(self._names)
                               if layer_of(n) != "solver"), "-")
                span = layer_of(caller) + ".objective"
                objective = self._timed(span, first)

                def first(*x):
                    self.fevals[name] += 1
                    self.calls[span] += 1
                    return objective(*x)
            try:
                out = timed(first, *args, **kwargs)
            except Exception:
                self.failures[name] += 1
                raise
            if getattr(out, "success", True) is False:
                self.failures[name] += 1
            return out
        return wrapper

    # -- install / uninstall --------------------------------------------------

    def _rebind(self, original, replacement):
        for modname in MODULES:
            mod = importlib.import_module(modname)
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def install(self, bodies_to_wrap):
        if self._undo:
            raise RuntimeError("tracer is already installed")
        for layer, names in FUNCTIONS.items():
            mod = importlib.import_module("ellipsoid_forge." + layer)
            for fname in names:
                original = getattr(mod, fname)
                self._rebind(original, self._function(layer + "." + fname, original))
        import scipy.optimize
        for short in SOLVERS:
            original = getattr(scipy.optimize, short)
            self._rebind(original, self._solver(short, original))
        from ellipsoid_forge.planar import PlanarSection
        for meth in SECTION_METHODS:
            original = vars(PlanarSection)[meth]
            self._undo.append((PlanarSection, meth, original))
            setattr(PlanarSection, meth, self._function("planar." + meth, original))
        for body in bodies_to_wrap:
            for meth in ORACLES:
                self._undo.append((body, meth, None))
                setattr(body, meth, self._oracle(body, meth))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            if value is None:
                delattr(owner, attr)  # drop the instance attribute: the class method shows again
            else:
                setattr(owner, attr, value)

    # -- results ----------------------------------------------------------------

    def snapshot(self):
        return {
            "calls": Counter(self.calls), "nested": Counter(self.nested),
            "self": dict(self.self_time), "total": dict(self.total),
            "fevals": Counter(self.fevals), "failures": Counter(self.failures),
            "oracle_by_fn": Counter(self.oracle_by_fn),
            "curve_points": self.curve_points,
        }


def delta(after, before):
    """Per-key difference of two snapshots."""
    out = {}
    for key, value in after.items():
        if isinstance(value, dict):
            base = before[key]
            out[key] = {k: v - base.get(k, 0) for k, v in value.items()}
        else:
            out[key] = value - before[key]
    return out


def layer_of(name):
    return name.split(".", 1)[0]


def per_layer_metrics(snap, ops, op_seconds):
    """The per-layer metrics of one traced pass over `ops` ops.

    Self times are in seconds. Counts and ratios repeat exactly for a seed.
    `<layer>.share` is the layer's self time as a percentage of the pass's op
    time; what is left is the benchmark's own op code. Self times can only be
    reported for spans that every workload enters, since a time that reads 0
    on every run of a workload is no measurement; the rest are in the span
    table of the traced report.
    """
    calls, selft = snap["calls"], snap["self"]
    m = {}

    def count(name, value):
        m[name] = (int(value), "count")

    def ratio(name, num, den):
        m[name] = (float(num) / den if den else 0.0, "ratio")

    oracle_calls = sum(calls["bodies." + o] for o in ORACLES)
    for o in ORACLES:
        count("bodies.%s.calls" % o, calls["bodies." + o])
    count("bodies.nested_calls", sum(snap["nested"].values()))
    m["bodies.oracle.self_s"] = (sum(selft.get("bodies." + o, 0.0) for o in ORACLES), "s")
    count("bodies.line_boundary_points.calls", calls["bodies.line_boundary_points"])
    m["bodies.line_boundary_points.self_s"] = (selft.get("bodies.line_boundary_points", 0.0), "s")
    ratio("bodies.oracle_calls_per_op", oracle_calls, ops)
    count("solver.linprog.calls", calls["solver.linprog"])

    for f in FUNCTIONS["cones"]:
        count("cones.%s.calls" % f, calls["cones." + f])
    count("cones.curve_points", snap["curve_points"])
    cone_oracles = sum(v for (fn, _), v in snap["oracle_by_fn"].items()
                       if layer_of(fn) == "cones")
    ratio("cones.oracle_calls_per_point", cone_oracles, snap["curve_points"])

    for f in ("section",) + SECTION_METHODS + ("central_symmetry", "is_radon_curve"):
        count("planar.%s.calls" % f, calls["planar." + f])
        m["planar.%s.self_s" % f] = (selft.get("planar." + f, 0.0), "s")
    sp_in_s2 = sum(snap["oracle_by_fn"][(fn, "support_point")]
                   for fn in ("planar.support2", "planar.support_point2"))
    ratio("planar.support_point_per_support2", sp_in_s2,
          calls["planar.support2"] + calls["planar.support_point2"])

    for layer in ("fitting", "projective", "theorems"):
        for f in FUNCTIONS[layer]:
            count("%s.%s.calls" % (layer, f), calls["%s.%s" % (layer, f)])
    m["theorems.self_s"] = (sum(v for k, v in selft.items() if layer_of(k) == "theorems"), "s")

    for s in ("brentq", "minimize_scalar"):
        count("solver.%s.calls" % s, calls["solver." + s])
        count("solver.%s.fevals" % s, snap["fevals"]["solver." + s])
    ratio("solver.fevals_per_root", snap["fevals"]["solver.brentq"], calls["solver.brentq"])
    count("solver.failures", sum(snap["failures"].values()))
    m["solver.self_s"] = (sum(v for k, v in selft.items() if layer_of(k) == "solver"), "s")

    for layer in ("bodies", "cones", "planar", "fitting", "projective", "theorems", "solver"):
        share = sum(v for k, v in selft.items() if layer_of(k) == layer)
        m["%s.share" % layer] = (100.0 * share / op_seconds if op_seconds else 0.0, "%")
    return m
