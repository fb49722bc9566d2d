"""Per-layer spans for crjet, recorded from outside the package.

The tracer wraps the public functions of every layer module, and a few
hot public methods, and rebinds each wrapper under every name that bound
the original in any loaded ``crjet`` module: ``from .linalg import
nullspace`` copies the binding, so patching ``crjet.linalg`` alone would
miss ``autdim`` and ``invariants``.  Uninstalling restores every binding.

A span is (call, name, start_ns, end_ns, parent), its times read from the
clock the tracer is given (by default ``time.perf_counter_ns``; the
benchmark passes its reference clock); spans stay in memory and
are written out once, at the end of a run.  A layer's self time is its
spans' durations minus the part covered by child spans.  Work done in the
tracer's own count hooks is charged to no span, so it shows only in the
traced wall time (the tracing overhead).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("series", "linalg", "hypersurface", "invariants", "operators",
          "mappings", "jets", "autdim", "cli")
MODULES = {
    "series": ("crjet.series",),
    "linalg": ("crjet.linalg",),
    "hypersurface": ("crjet.hypersurface",),
    "invariants": ("crjet.invariants",),
    "operators": ("crjet.operators",),
    "mappings": ("crjet.mappings",),
    "jets": ("crjet.jets",),
    "autdim": ("crjet.autdim",),
    "cli": ("crjet.cli.documents", "crjet.cli.report", "crjet.cli.main"),
}
# public methods worth a span: the series kernels and the frame operators
# that the invariant and mapping layers spend their time in
METHODS = {
    "crjet.series": {"TruncatedSeries": ("__mul__", "__rmul__", "__pow__",
                                         "compose", "invert_unit", "derive",
                                         "conjugate", "recenter",
                                         "eval_at")},
    "crjet.linalg": {"SpanTracker": ("add", "contains")},
    "crjet.hypersurface": {"VectorFieldOp": ("apply", "bracket"),
                           "OneForm": ("pair",),
                           "TwoFormEvaluator": ("component", "contract"),
                           "Hypersurface": ("restrict",
                                            "graph_substitution")},
    "crjet.autdim": {"FormalVectorField": ("apply",)},
}
SPAN_NAMES = {"__mul__": "mul", "__rmul__": "mul", "__pow__": "pow",
              "invert_unit": "invert"}
AUT_SOLVES = ("autdim.holomorphic_degeneracy_test",
              "autdim.infinitesimal_aut_dim")


def rk4_substeps(grid, step, axis_order=None) -> int:
    """Fourth-order steps ``jets.integrate`` takes on this grid.

    Follows its documented marching rule: axes in axis_order, each from
    0 forward then backward through its grid values, every reached node
    seeding the next axis, and each run split into max(1, round(dist /
    step)) uniform substeps (none for a zero-length run).
    """
    step = float(step)
    axes = [sorted(float(g) for g in axis) for axis in grid]
    order = range(len(axes)) if axis_order is None else axis_order
    total, parents = 0, 1
    for a in order:
        per_parent = 0
        forward = [g for g in axes[a] if g >= 0]
        backward = [g for g in reversed(axes[a]) if g < 0]
        for branch in (forward, backward):
            t = 0.0
            for g in branch:
                if g != t:
                    per_parent += max(1, round(abs(g - t) / step))
                t = g
        total += parents * per_parent
        parents *= len(axes[a])
    return total


class Tracer:
    """Span recorder plus per-pass aggregates."""

    def __init__(self, clock_ns=time.perf_counter_ns):
        self.clock_ns = clock_ns
        self.spans = []
        self.keep_spans = True
        self.call = 0
        self._stack = []          # [span index, child_ns] per open span
        self._active = Counter()  # span name -> open spans of that name
        self._bindings = []       # (owner, attribute, original)
        self.reset()

    def reset(self):
        """Start a fresh set of aggregates (one per pass)."""
        self.time_ns = Counter()     # outermost spans only, per name
        self.calls = Counter()
        self.self_ns = Counter()     # per layer
        self.counts = Counter()
        self.aut_nullspace_ns = 0
        self.full_rank_ns = 0        # nullspace calls with an empty basis
        self.distinct = defaultdict(set)

    # -- recording -----------------------------------------------------

    def _run(self, name, fn, args, kwargs, pre=None, post=None):
        clock_ns = self.clock_ns
        hook_start = clock_ns()
        if pre is not None:
            pre(self, args, kwargs)
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        index = len(self.spans) if self.keep_spans else -1
        if self.keep_spans:
            self.spans.append(None)
        self._active[name] += 1
        frame = [index, 0]
        stack.append(frame)
        done = False
        start = clock_ns()
        try:
            result = fn(*args, **kwargs)
            done = True
        finally:
            end = clock_ns()
            stack.pop()
            self._active[name] -= 1
            dur = end - start
            self.calls[name] += 1
            if not self._active[name]:
                self.time_ns[name] += dur
            self.self_ns[name.split(".", 1)[0]] += dur - frame[1]
            if name == "linalg.nullspace":
                if any(self._active[a] for a in AUT_SOLVES):
                    self.aut_nullspace_ns += dur
                if done and not result:
                    self.full_rank_ns += dur
            if self.keep_spans:
                self.spans[index] = (self.call, name, start, end, parent)
            if done and post is not None:
                post(self, args, kwargs, result)
            if stack:
                # the parent's self time excludes this span and its hooks
                stack[-1][1] += clock_ns() - hook_start
        return result

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for call, name, start, end, parent in self.spans:
                handle.write(json.dumps([call, name, start, end, parent])
                             + "\n")

    # -- installation --------------------------------------------------

    def _wrapper(self, name, fn):
        pre, post = HOOKS.get(name, (None, None))
        run = self._run

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return run(name, fn, args, kwargs, pre, post)
        return traced

    def _mul_wrapper(self, fn):
        from crjet.series import TruncatedSeries
        run = self._run

        @functools.wraps(fn)
        def traced(a, b):
            if isinstance(b, TruncatedSeries):
                return run("series.mul", fn, (a, b), {}, _count_pairs)
            return run("series.scale", fn, (a, b), {})
        return traced

    def install(self):
        """Wrap every layer's public functions and the METHODS above."""
        for names in MODULES.values():
            for modname in names:
                importlib.import_module(modname)
        loaded = [m for n, m in sorted(sys.modules.items())
                  if n == "crjet" or n.startswith("crjet.")]
        for layer, names in MODULES.items():
            for modname in names:
                module = sys.modules[modname]
                for attr, obj in sorted(vars(module).items()):
                    if (attr.startswith("_") or not inspect.isfunction(obj)
                            or obj.__module__ != modname):
                        continue
                    wrapper = self._wrapper(f"{layer}.{attr}", obj)
                    for mod in loaded:
                        for key, value in list(vars(mod).items()):
                            if value is obj:
                                self._bind(mod, key, wrapper)
                for cls_name, methods in METHODS.get(modname, {}).items():
                    cls = getattr(module, cls_name)
                    for meth in methods:
                        fn = cls.__dict__[meth]
                        if meth in ("__mul__", "__rmul__"):
                            wrapper = self._mul_wrapper(fn)
                        else:
                            span = SPAN_NAMES.get(meth, meth)
                            wrapper = self._wrapper(f"{layer}.{span}", fn)
                        self._bind(cls, meth, wrapper)

    def _bind(self, owner, attr, wrapper):
        self._bindings.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()

    # -- per-pass metrics ------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metrics of the pass aggregated since reset().

        Which end-to-end figure each group should move, and where:
        - linalg.*: aut_s and wall_s on symmetry, nothing on invariants
          (linalg.span.* included); linalg.full_rank.* are the nullspace
          calls of full column rank (tall systems with an empty basis);
        - series.mul.*: verify_s, analyze_s and scan_s on invariants,
          reflect_s on transport, aut_s on symmetry once linalg shrinks;
          series.compose.* and series.invert.calls: reflect_s;
        - hypersurface.*: reflect_s most, every verb somewhat;
        - invariants.* and operators.*: verify_s on invariants (watch
          peak_rss_mb there too, since a larger cache can raise it);
        - mappings.*: reflect_s;  jets.*: reconstruct_s only;
        - autdim.*: aut_s;  cli.*: setup_s and the per-call floor.
        Times are seconds per pass; counts and ratios are per pass and
        repeat exactly.
        """
        s = {name: ns / 1e9 for name, ns in self.time_ns.items()}
        c, k = self.calls, self.counts

        def sec(*names):
            return sum(s.get(n, 0.0) for n in names)

        def ratio(a, b):
            return a / b if b else 0.0

        substeps = k["jets.rk4_substeps"]
        aut_s = sec(*AUT_SOLVES)
        m = {
            "linalg.nullspace.s": sec("linalg.nullspace"),
            "linalg.nullspace.calls": c["linalg.nullspace"],
            "linalg.rows": k["linalg.rows"],
            "linalg.cols": k["linalg.cols"],
            "linalg.nonzeros": k["linalg.nonzeros"],
            "linalg.pivot_ratio": ratio(k["linalg.rank"], k["linalg.rows"]),
            "linalg.full_rank.calls": k["linalg.full_rank_calls"],
            "linalg.full_rank.s": self.full_rank_ns / 1e9,
            "linalg.span.adds": c["linalg.add"],
            "linalg.span.s": sec("linalg.add"),
            "series.mul.calls": c["series.mul"],
            "series.mul.s": sec("series.mul"),
            "series.mul.term_pairs": k["series.term_pairs"],
            "series.compose.calls": c["series.compose"],
            "series.compose.s": sec("series.compose"),
            "series.invert.calls": c["series.invert"],
            "hypersurface.from_defining.calls":
                c["hypersurface.from_defining"],
            "hypersurface.from_defining.s": sec("hypersurface.from_defining"),
            "hypersurface.build_frame.calls": c["hypersurface.build_frame"],
            "hypersurface.build_frame.s": sec("hypersurface.build_frame"),
            "invariants.filtration.calls":
                c["invariants.intrinsic_filtration"],
            "invariants.filtration.s": sec("invariants.intrinsic_filtration"),
            "invariants.filtration.per_frame": ratio(
                c["invariants.intrinsic_filtration"],
                len(self.distinct["filtration"])),
            "invariants.h_tensor.calls": c["invariants.h_tensor"],
            "invariants.h_tensor.distinct_frac": ratio(
                len(self.distinct["h_tensor"]), c["invariants.h_tensor"]),
            "invariants.extrinsic_k0.s": sec("invariants.extrinsic_k0"),
            "invariants.suite.frame.s":
                sec("invariants.verify_frame_structure"),
            "invariants.suite.recursion.s":
                sec("invariants.verify_derivative_recursion"),
            "invariants.suite.leading.s":
                sec("invariants.verify_leading_order_reduction"),
            "invariants.suite.commutators.s":
                sec("invariants.verify_bracket_pairing"),
            "invariants.scan.s": sec("invariants.nondegeneracy_scan"),
            "operators.certificates.s":
                sec("operators.operator_certificates"),
            "operators.certificates.count": k["operators.certificates"],
            "mappings.pushforward.s": sec("mappings.pushforward_data"),
            "mappings.base.s": sec("mappings.verify_reflection_base"),
            "mappings.recursion.s": sec("mappings.verify_transport_recursion"),
            "mappings.levi_solve.s": sec("mappings.solve_levi_reflection"),
            "jets.taylor.s": sec("jets.taylor_propagate"),
            "jets.taylor.values": k["jets.taylor_values"],
            "jets.integrate.s": sec("jets.integrate"),
            "jets.rk4_substeps": substeps,
            "jets.us_per_substep": ratio(sec("jets.integrate") * 1e6,
                                         substeps),
            "autdim.holomorphic.s":
                sec("autdim.holomorphic_degeneracy_test"),
            "autdim.real.s": sec("autdim.infinitesimal_aut_dim"),
            "autdim.assembly.self_s": aut_s - self.aut_nullspace_ns / 1e9,
            "autdim.unknowns": k["autdim.unknowns"],
            "autdim.equations": k["autdim.equations"],
            "cli.parse.s": sec("cli.load_document", "cli.parse_document"),
            "cli.build.s": sec("cli.build_hypersurface", "cli.build_map",
                               "cli.build_system", "cli.build_jet"),
            "cli.emit.s": sec("cli.emit"),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self.self_ns[layer] / 1e9
        return m


def unit_of(name) -> str:
    """Unit of a layer metric; counts and ratios must repeat exactly."""
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("us_per_substep"):
        return "us"
    if name.endswith(("_frac", "_ratio", ".per_frame")):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# count hooks: (pre(tracer, args, kwargs), post(tracer, args, kwargs, result))


def _count_pairs(tracer, args, kwargs):
    a, b = args
    tracer.counts["series.term_pairs"] += len(a.terms()) * len(b.terms())


def _nullspace_shape(tracer, args, kwargs, basis):
    rows = args[0]
    ncols = len(rows[0]) if rows else (
        args[1] if len(args) > 1 else kwargs.get("ncols"))
    k = tracer.counts
    k["linalg.rows"] += len(rows)
    k["linalg.cols"] += ncols
    k["linalg.nonzeros"] += sum(1 for r in rows for x in r if x)
    k["linalg.rank"] += ncols - len(basis)
    if not basis:
        k["linalg.full_rank_calls"] += 1


def _frame_key(tracer, args):
    return (tracer.call, id(args[0]))


def _filtration(tracer, args, kwargs):
    tracer.distinct["filtration"].add(_frame_key(tracer, args))


def _h_tensor(tracer, args, kwargs):
    k = args[1] if len(args) > 1 else kwargs["k"]
    tracer.distinct["h_tensor"].add(_frame_key(tracer, args) + (k,))


def _certificates(tracer, args, kwargs, result):
    tracer.counts["operators.certificates"] += len(result)


def _taylor(tracer, args, kwargs, result):
    tracer.counts["jets.taylor_values"] += len(result.values)


def _integrate(tracer, args, kwargs):
    grid = args[2] if len(args) > 2 else kwargs["grid"]
    step = args[3] if len(args) > 3 else kwargs["step"]
    tracer.counts["jets.rk4_substeps"] += rk4_substeps(
        grid, step, kwargs.get("axis_order"))


def _tangency(tracer, args, kwargs, result):
    tracer.counts["autdim.unknowns"] += len(result.unknowns)
    tracer.counts["autdim.equations"] += len(result.equations)


HOOKS = {
    "linalg.nullspace": (None, _nullspace_shape),
    "invariants.intrinsic_filtration": (_filtration, None),
    "invariants.h_tensor": (_h_tensor, None),
    "operators.operator_certificates": (None, _certificates),
    "jets.taylor_propagate": (None, _taylor),
    "jets.integrate": (_integrate, None),
    "autdim.holomorphic_degeneracy_test": (None, _tangency),
    "autdim.infinitesimal_aut_dim": (None, _tangency),
}
