"""Layer tracer for phasekit that lives outside the package.

`Tracer.install()` replaces every public function of the traced layers with a
timing wrapper wherever a ``phasekit`` module binds it, so calls from one
layer into another are caught as well as calls from the job.  It also wraps
``LimitCycle.project`` and the ``solve_ivp`` that ``phasekit.ode`` looks up.
Nothing inside ``src/`` changes; `uninstall()` restores every binding.

Spans nest through a context variable.  A span's self time is its duration
minus the durations of its child spans.  Solver work (calls, RHS evaluations,
time inside the RHS and time inside ``solve_ivp``) is not a span of its own:
it is charged to the innermost open span, so it is part of that span's self
time.  Spans stay in memory until `summary()` and `dump()` are called at the
end of the job.
"""

import contextvars
import importlib
import inspect
import json
import math
import sys
import time

# Layers whose whole ``__all__`` is wrapped.
LAYERS = ("cycles", "phase", "reduction", "network", "diagnostics")
# Single entry points of the remaining layers.
EXTRA = {
    "cli": ("main",),
    "output": ("load_config", "write_table", "write_json_atomic",
               "write_manifest"),
}
ROOT = "job"


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s", "solver_calls",
                 "nfev", "rhs_s", "solve_s", "info")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.solver_calls = 0
        self.nfev = 0
        self.rhs_s = 0.0
        self.solve_s = 0.0
        self.info = None

    def self_s(self):
        return self.end - self.start - self.child_s


class Tracer:
    def __init__(self):
        self.spans = []
        self._current = contextvars.ContextVar("perfbench_span", default=None)
        self._undo = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name):
        parent = self._current.get()
        span = Span(name, parent)
        self.spans.append(span)
        token = self._current.set(span)
        span.start = time.perf_counter()
        return span, token

    def _close(self, span, token):
        span.end = time.perf_counter()
        self._current.reset(token)
        if span.parent is not None:
            span.parent.child_s += span.end - span.start

    def run(self, fn, *args, **kwargs):
        """Call fn inside the root span."""
        span, token = self._open(ROOT)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span, token)

    def _wrap(self, name, fn, note=None):
        tracer = self

        def traced(*args, **kwargs):
            span, token = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    span.info = note(args, kwargs, result)
                return result
            finally:
                tracer._close(span, token)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def _traced_solve_ivp(self, solve_ivp):
        tracer = self

        def traced(fun, t_span, y0, *args, **kwargs):
            rhs_s = 0.0

            def timed_rhs(t, y):
                nonlocal rhs_s
                t0 = time.perf_counter()
                try:
                    return fun(t, y)
                finally:
                    rhs_s += time.perf_counter() - t0

            t0 = time.perf_counter()
            res = solve_ivp(timed_rhs, t_span, y0, *args, **kwargs)
            solve_s = time.perf_counter() - t0
            span = tracer._current.get()
            if span is not None:
                span.solver_calls += 1
                span.nfev += int(res.nfev)
                span.rhs_s += rhs_s
                span.solve_s += solve_s
            return res

        traced.__wrapped__ = solve_ivp
        return traced

    # -- installation --------------------------------------------------------

    def _rebind(self, original, replacement):
        """Point every phasekit module binding of `original` at `replacement`."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "phasekit"
                                   or modname.startswith("phasekit.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def install(self):
        for layer, names in [(lay, None) for lay in LAYERS] + list(EXTRA.items()):
            mod = importlib.import_module("phasekit." + layer)
            for name in names or mod.__all__:
                fn = getattr(mod, name)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                qual = f"{layer}.{name}"
                self._rebind(fn, self._wrap(qual, fn, NOTES.get(qual)))

        cycles = importlib.import_module("phasekit.cycles")
        project = cycles.LimitCycle.project
        cycles.LimitCycle.project = self._wrap(
            "cycles.LimitCycle.project", project, _note_project)
        self._undo.append((cycles.LimitCycle, "project", project))

        ode = importlib.import_module("phasekit.ode")
        self._undo.append((ode, "solve_ivp", ode.solve_ivp))
        ode.solve_ivp = self._traced_solve_ivp(ode.solve_ivp)

    def uninstall(self):
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)

    # -- results -------------------------------------------------------------

    def dump(self, path):
        """Write every span (name, parent index, times, solver work)."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        t_base = self.spans[0].start if self.spans else 0.0
        rows = []
        for s in self.spans:
            rows.append({
                "name": s.name,
                "parent": index.get(id(s.parent)),
                "start_s": s.start - t_base,
                "end_s": s.end - t_base,
                "self_s": s.self_s(),
                "solver_calls": s.solver_calls,
                "rhs_evals": s.nfev,
                "rhs_s": s.rhs_s,
                "solve_s": s.solve_s,
                "info": s.info,
            })
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows}, fh)

    def summary(self):
        """Per-layer numbers, named <module>.<function>.<quantity>."""
        by_name = {}
        for s in self.spans:
            by_name.setdefault(s.name, []).append(s)

        def spans(name):
            return by_name.get(name, [])

        def self_s(name):
            return sum(s.self_s() for s in spans(name))

        def total(name, attr):
            return sum(getattr(s, attr) for s in spans(name))

        def per_eval(seconds, evals):
            return 1e6 * seconds / evals if evals else 0.0

        every = self.spans
        out = {}
        nfev = sum(s.nfev for s in every)
        rhs_s = sum(s.rhs_s for s in every)
        solve_s = sum(s.solve_s for s in every)
        out["ode.solver_calls"] = sum(s.solver_calls for s in every)
        out["ode.rhs_evals"] = nfev
        out["ode.rhs_s"] = rhs_s
        out["ode.stepper_s"] = solve_s - rhs_s
        out["ode.rhs_us_per_eval"] = per_eval(rhs_s, nfev)

        sim = "network.simulate_full"
        out[sim + ".self_s"] = self_s(sim)
        out[sim + ".rhs_evals"] = total(sim, "nfev")
        out[sim + ".rhs_us_per_eval"] = per_eval(total(sim, "rhs_s"),
                                                 total(sim, "nfev"))
        out[sim + ".stepper_s"] = total(sim, "solve_s") - total(sim, "rhs_s")
        for name in ("network.build_phase_model", "network.network_phases",
                     "phase.asymptotic_phase", "cycles.LimitCycle.project",
                     "phase.compute_isochron", "phase.phase_sensitivity",
                     "cycles.find_limit_cycle", "cycles.floquet_exponent",
                     "reduction.average_periodic", "reduction.mean_value"):
            out[name + ".self_s"] = self_s(name)
        for name in ("phase.asymptotic_phase", "phase.compute_isochron",
                     "cycles.find_limit_cycle"):
            out[name + ".solver_calls"] = total(name, "solver_calls")
            out[name + ".rhs_evals"] = total(name, "nfev")
        for name in ("cycles.LimitCycle.project", "phase.phase_sensitivity",
                     "reduction.mean_value"):
            out[name + ".calls"] = len(spans(name))
        out["phase.asymptotic_phase.states"] = sum(
            s.info or 0 for s in spans("phase.asymptotic_phase"))
        out["cycles.LimitCycle.project.computed_bytes"] = sum(
            s.info or 0 for s in spans("cycles.LimitCycle.project"))
        out["phase.phase_sensitivity.distinct_models"] = len(
            {s.info for s in spans("phase.phase_sensitivity")} - {None})

        series = spans("diagnostics.lock_psi_series")
        classifications = len(series)
        halvings = sum(s.info or 0.0
                       for s in spans("diagnostics.critical_coupling"))
        out["diagnostics.classifications"] = classifications
        out["diagnostics.halvings_per_classification"] = (
            halvings / classifications if classifications else 0.0)
        out["diagnostics.lock_psi_series.s"] = (
            sum(s.end - s.start for s in series) / classifications
            if classifications else 0.0)

        writers = [n for n in by_name if n.startswith("output.write_")]
        out["output.write_s"] = sum(self_s(n) for n in writers)
        out["cli.self_s"] = self_s("cli.main")
        out["job.self_s"] = self_s(ROOT)
        out["trace.spans"] = len(every)
        out["trace.self_sum_s"] = sum(s.self_s() for s in every
                                      if s.name != ROOT)
        return out


# Per-call notes kept on a span that returned, summed or counted by `summary`.

def _stack_size(x):
    """K for a (K, dim) stack of states, 1 for a single state."""
    shape = getattr(x, "shape", ())
    return shape[0] if len(shape) == 2 else 1


def _note_asymptotic_phase(args, kwargs, result):
    return _stack_size(args[2] if len(args) > 2 else kwargs["x"])


def _note_project(args, kwargs, result):
    cycle = args[0]
    m, dim = cycle.points.shape
    # the (K, M, dim) float64 difference array the projection builds
    return _stack_size(args[1] if len(args) > 1 else kwargs["x"]) * m * dim * 8


def _note_phase_sensitivity(args, kwargs, result):
    model = args[0] if args else kwargs["model"]
    return repr((model.name, sorted(model.params.items())))


def _note_critical_coupling(args, kwargs, result):
    lo = args[1] if len(args) > 1 else kwargs["eps_lo"]
    hi = args[2] if len(args) > 2 else kwargs["eps_hi"]
    b_lo, b_hi = result.bracket
    return math.log2((hi - lo) / (b_hi - b_lo))


NOTES = {
    "phase.asymptotic_phase": _note_asymptotic_phase,
    "phase.phase_sensitivity": _note_phase_sensitivity,
    "diagnostics.critical_coupling": _note_critical_coupling,
}
