"""Out-of-program tracing of fiberdyn's layers.

The tracer wraps the public functions of each layer in every module
namespace that binds them (``bisect_preimage`` is bound in ``branches``,
``markov``, ``hyptimes`` and the package root; the runner imports names
directly), so calls between layers are caught.  Each call records a span:
name, start, end, parent and experiment index, with the parent taken from a
``contextvars`` stack.  Spans stay in memory until the run ends.

Map evaluations get no span: a depth-20 branch makes ~7,900 of them and a
logistic ``ftle`` ~4e7.  They are counted and timed in aggregate by
wrapping the callables of every system ``make_system`` returns; their time
is charged to the enclosing span and taken out of its self time.

Self time is a span's duration minus its direct children's durations and
its map time.  Per-call wrapper cost stays in the self time of the span
that made the call; the run reports the total as ``trace.overhead_s``.
"""

import contextvars
import functools
import gzip
import importlib
import itertools
import time
from collections import defaultdict

import numpy as np

# Module namespaces searched for bindings of the traced functions.
NAMESPACES = (
    "fiberdyn", "fiberdyn.maps", "fiberdyn.branches", "fiberdyn.expansion",
    "fiberdyn.hyptimes", "fiberdyn.measures", "fiberdyn.markov",
    "fiberdyn.experiments", "fiberdyn.experiments.config",
    "fiberdyn.experiments.runner", "fiberdyn.experiments.cli",
)

# System attributes that evaluate a map or its first derivatives.
MAP_CALLABLES = {
    "IntervalMap": ("evaluator", "derivative"),
    "SkewProduct": ("base", "base_derivative", "fiber", "fiber_dx",
                    "fiber_dtheta"),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _bisect_residual(tracer, span, args, kwargs, result, exc):
    maps, target = _arg(args, kwargs, 0, "maps"), _arg(args, kwargs, 1, "target")
    x = result
    for m in maps:
        x = float(m.evaluator(x))
    span.info = abs(x - float(target))


def _orbit_steps(tracer, span, args, kwargs, result, exc):
    if exc is None:
        span.info = int(_arg(args, kwargs, 2, "n"))
    else:
        span.info = int(getattr(exc, "step", 0))


def _branch_stats_elems(tracer, span, args, kwargs, result, exc):
    # branch_stats(m, x0, n)
    x0, n = _arg(args, kwargs, 1, "x0"), _arg(args, kwargs, 2, "n")
    span.info = int(n) * int(np.size(x0))


def _fiber_branch_stats_elems(tracer, span, args, kwargs, result, exc):
    # fiber_branch_stats(skew, thetas, x0, n)
    x0, n = _arg(args, kwargs, 2, "x0"), _arg(args, kwargs, 3, "n")
    span.info = int(n) * int(np.size(x0))


def _bin_count_elems(tracer, span, args, kwargs, result, exc):
    samples = _arg(args, kwargs, 1, "samples")
    span.info = int(samples) * int(_arg(args, kwargs, 2, "n"))


def _branch_count(tracer, span, args, kwargs, result, exc):
    span.info = len(result.branches) if exc is None else 0


def _out_bytes(tracer, span, args, kwargs, result, exc):
    span.info = (sum(e["bytes"] for e in result["outputs"])
                 if exc is None else 0)


def _count_system_maps(tracer, span, args, kwargs, result, exc):
    if exc is None:
        tracer.count_maps(result)


# (defining module, function) -> (span name, post hook).  Hooks run after
# the span closes, with map counting diverted, so what they compute is
# charged to no span.  The spans with no metric of their own
# (expansion.ay_decay, measures.empirical_measure) keep their work out of
# their caller's self time, here experiments.io_s.
TRACED = {
    ("fiberdyn.experiments.cli", "main"): ("experiments.cli", None),
    ("fiberdyn.experiments.config", "validate_config"):
        ("experiments.config", None),
    ("fiberdyn.experiments.runner", "run_experiment"):
        ("experiments.run", _out_bytes),
    ("fiberdyn.maps", "make_system"): ("maps.make_system", _count_system_maps),
    ("fiberdyn.branches", "bisect_preimage"):
        ("branches.bisect", _bisect_residual),
    ("fiberdyn.branches", "track_branch"): ("branches.track_branch", None),
    ("fiberdyn.branches", "monotonicity_partition"):
        ("branches.partition", None),
    ("fiberdyn.branches", "component_census"): ("branches.census", None),
    ("fiberdyn.expansion", "ftle_fiber"): ("expansion.ftle_fiber", _orbit_steps),
    ("fiberdyn.expansion", "ftle_full"): ("expansion.ftle_full", _orbit_steps),
    ("fiberdyn.expansion", "branch_stats"):
        ("expansion.branch_stats", _branch_stats_elems),
    ("fiberdyn.expansion", "fiber_branch_stats"):
        ("expansion.branch_stats", _fiber_branch_stats_elems),
    ("fiberdyn.expansion", "measure_AY_decay"): ("expansion.ay_decay", None),
    ("fiberdyn.hyptimes", "pliss_times"): ("hyptimes.pliss", None),
    ("fiberdyn.hyptimes", "slope_envelope"): ("hyptimes.slope_envelope", None),
    ("fiberdyn.hyptimes", "curve_growth_constants"):
        ("hyptimes.curve_constants", None),
    ("fiberdyn.hyptimes", "probe_neighborhood"): ("hyptimes.probe", None),
    ("fiberdyn.measures", "orbit_bin_counts"):
        ("measures.orbit_bin_counts", _bin_count_elems),
    ("fiberdyn.measures", "empirical_measure"):
        ("measures.empirical_measure", None),
    ("fiberdyn.measures", "ergodic_components"):
        ("measures.ergodic_components", None),
    ("fiberdyn.markov", "build_partition"): ("markov.build_partition", None),
    ("fiberdyn.markov", "monotone_scale"): ("markov.monotone_scale", None),
    ("fiberdyn.markov", "inducing_time"): ("markov.inducing_time", None),
    ("fiberdyn.markov", "assemble_markov"): ("markov.assemble", _branch_count),
    ("fiberdyn.markov", "summability_stat"): ("markov.summability", None),
}

# Exceptions assemble_markov's discovery swallows from inducing_time.
INDUCING_FAILURES = ("HitCritical", "InducingTimeNotFound", "ValueError")


class Span:
    __slots__ = ("id", "name", "parent", "experiment", "start",
                 "end", "child_s", "map_s", "scalar_calls", "array_calls",
                 "array_elems", "error", "info")

    def __init__(self, sid, name, parent, experiment):
        self.id = sid
        self.name = name
        self.parent = parent
        self.experiment = experiment
        self.start = self.end = 0.0
        self.child_s = self.map_s = 0.0
        self.scalar_calls = self.array_calls = self.array_elems = 0
        self.error = None
        self.info = None

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s - self.map_s

    @property
    def evals(self):
        return self.scalar_calls + self.array_calls


class Tracer:
    """Installs span and map-call wrappers; collects spans in memory."""

    def __init__(self):
        self.spans = []
        self.experiment = -1
        self._ids = itertools.count()
        self._current = contextvars.ContextVar("perfbench_span", default=None)
        self._root = Span(-1, "untraced", None, -1)    # map calls outside spans
        self._sink = Span(-2, "hook", None, -1)        # map calls made by hooks
        self._patched = []

    # -- installation --------------------------------------------------

    def install(self):
        modules = {name: importlib.import_module(name) for name in NAMESPACES}
        wrappers = {}
        for (mod_name, fn_name), (span_name, hook) in TRACED.items():
            fn = getattr(modules[mod_name], fn_name)
            wrappers[id(fn)] = self._span_wrapper(fn, span_name, hook)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # -- wrappers ------------------------------------------------------

    def _span_wrapper(self, fn, name, hook):
        current, clock, ids, tracer = (self._current, time.perf_counter,
                                       self._ids, self)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = current.get()
            span = Span(next(ids), name, parent, tracer.experiment)
            token = current.set(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as ex:
                span.end = clock()
                current.reset(token)
                span.error = type(ex).__name__
                tracer._close(span, hook, args, kwargs, None, ex)
                raise
            span.end = clock()
            current.reset(token)
            tracer._close(span, hook, args, kwargs, result, None)
            return result

        return traced

    def _close(self, span, hook, args, kwargs, result, exc):
        self.spans.append(span)
        hook_s = 0.0
        if hook is not None:
            t0 = time.perf_counter()
            token = self._current.set(self._sink)
            try:
                hook(self, span, args, kwargs, result, exc)
            finally:
                self._current.reset(token)
            hook_s = time.perf_counter() - t0
        if span.parent is not None:
            span.parent.child_s += span.duration + hook_s

    def count_maps(self, system):
        """Wrap a system's map callables so their calls are counted."""
        for attr in MAP_CALLABLES.get(type(system).__name__, ()):
            fn = getattr(system, attr)
            if fn is not None:
                object.__setattr__(system, attr, self._map_wrapper(fn))

    def _map_wrapper(self, fn):
        current, clock, root = self._current, time.perf_counter, self._root

        @functools.wraps(fn)
        def counted(*args):
            t0 = clock()
            result = fn(*args)
            dt = clock() - t0
            span = current.get() or root
            span.map_s += dt
            if isinstance(result, float) or np.ndim(result) == 0:
                span.scalar_calls += 1
            else:
                span.array_calls += 1
                span.array_elems += result.size
            return result

        return counted

    # -- output --------------------------------------------------------

    def write_spans(self, path):
        """Gzipped CSV, one row per span, in the order spans closed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,experiment,name,start,end,self_s,map_s,"
                     "scalar_calls,array_calls,array_elems,error\n")
            for s in self.spans:
                parent = s.parent.id if s.parent is not None else ""
                fh.write(f"{s.id},{parent},{s.experiment},{s.name},"
                         f"{s.start!r},{s.end!r},{s.self_s!r},{s.map_s!r},"
                         f"{s.scalar_calls},{s.array_calls},{s.array_elems},"
                         f"{s.error or ''}\n")

    def layer_metrics(self):
        """Per-layer counts and self times, keyed by benchmark metric name."""
        by = defaultdict(list)
        for s in self.spans:
            by[s.name].append(s)

        def calls(name):
            return len(by[name])

        def self_s(name):
            return sum(s.self_s for s in by[name])

        def info(name):
            return sum(s.info for s in by[name])

        every = self.spans + [self._root]
        bisect = by["branches.bisect"]
        inducing = by["markov.inducing_time"]
        hits = sum(1 for s in by["expansion.ftle_fiber"]
                   if s.error == "HitCritical")
        m = {
            "maps.scalar_calls": sum(s.scalar_calls for s in every),
            "maps.array_calls": sum(s.array_calls for s in every),
            "maps.array_elems": sum(s.array_elems for s in every),
            "maps.time_s": sum(s.map_s for s in every),
            "maps.make_system.self_s": self_s("maps.make_system"),
            "branches.bisect.calls": len(bisect),
            "branches.bisect.evals": sum(s.evals for s in bisect),
            "branches.bisect.self_s": self_s("branches.bisect"),
            "branches.bisect.max_residual":
                max((s.info for s in bisect), default=0.0),
            "branches.track_branch.calls": calls("branches.track_branch"),
            "branches.track_branch.self_s": self_s("branches.track_branch"),
            "branches.partition.calls": calls("branches.partition"),
            "branches.partition.self_s": self_s("branches.partition"),
            "branches.census.self_s": self_s("branches.census"),
            "expansion.ftle_fiber.steps": info("expansion.ftle_fiber"),
            "expansion.ftle_fiber.self_s": self_s("expansion.ftle_fiber"),
            "expansion.ftle_full.steps": info("expansion.ftle_full"),
            "expansion.ftle_full.self_s": self_s("expansion.ftle_full"),
            "expansion.hit_critical": hits,
            "expansion.degenerate": sum(
                1 for s in by["expansion.ftle_full"]
                if s.error == "DegenerateDifferential"),
            "expansion.branch_stats.elem_steps": info("expansion.branch_stats"),
            "expansion.branch_stats.self_s": self_s("expansion.branch_stats"),
            "hyptimes.pliss.self_s": self_s("hyptimes.pliss"),
            "hyptimes.slope_envelope.self_s": self_s("hyptimes.slope_envelope"),
            "hyptimes.curve_constants.self_s":
                self_s("hyptimes.curve_constants"),
            "hyptimes.probe.self_s": self_s("hyptimes.probe"),
            "hyptimes.probe.failed": sum(1 for s in by["hyptimes.probe"]
                                         if s.error is not None),
            "measures.orbit_bin_counts.elem_steps":
                info("measures.orbit_bin_counts"),
            "measures.orbit_bin_counts.self_s":
                self_s("measures.orbit_bin_counts"),
            "measures.ergodic_components.self_s":
                self_s("measures.ergodic_components"),
            "markov.build_partition.self_s": self_s("markov.build_partition"),
            "markov.monotone_scale.calls": calls("markov.monotone_scale"),
            "markov.monotone_scale.self_s": self_s("markov.monotone_scale"),
            "markov.inducing_time.calls": len(inducing),
            "markov.inducing_time.self_s": self_s("markov.inducing_time"),
            "markov.discovery_yield": (info("markov.assemble") / len(inducing)
                                       if inducing else 0.0),
            "markov.assemble.self_s": self_s("markov.assemble"),
            "markov.summability.self_s": self_s("markov.summability"),
            "experiments.config_s": (self_s("experiments.cli")
                                     + sum(s.duration for s in
                                           by["experiments.config"])),
            "experiments.io_s": self_s("experiments.run"),
            "experiments.out_bytes": info("experiments.run"),
        }
        for exc in INDUCING_FAILURES:
            m[f"markov.inducing_time.failed.{exc}"] = sum(
                1 for s in inducing if s.error == exc)
        return m
