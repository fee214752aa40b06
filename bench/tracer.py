"""Outside-in tracing of the `sie` layers.

Wraps public entry points of each `sie` module from outside the package:
coarse boundaries get spans (calls, inclusive and self time), the hottest
methods get count-only wrappers, because a span per call would dominate the
run.  A function imported by name into another module (`from .hybrid import
simulate`) is a separate binding, so every `sie.*` module attribute that is
the original object is replaced, and `restore` puts every one back.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field
from time import perf_counter

# evaluator calls run 10^5-10^6 times per round; time one in this many
_EVAL_SAMPLE_EVERY = 16

# deterministic counts: two traced passes over the same inputs must agree
COUNT_KEYS = (
    "flow.steps", "flow.dense_evals", "core.f_evals", "core.h_evals", "core.grad_evals",
    "events.crossings", "events.h_evals", "events.steps",
    "hybrid.trajectories", "hybrid.impacts", "hybrid.steps", "hybrid.segment_steps",
    "poincare.solves", "poincare.map_evals", "poincare.newton_iters",
    "orbit.queries", "orbit.query_dense_evals", "orbit.prop1_samples",
    "iss.excluded_trials", "iss.window_samples", "traj.evals",
)


@dataclass
class SpanStat:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


@dataclass
class Tracer:
    # COUNT_KEYS plus the float "hybrid.simulate_s" so run_sweep can take
    # the simulation time inside it out of its own
    tally: dict = field(default_factory=lambda: {**dict.fromkeys(COUNT_KEYS, 0),
                                                 "hybrid.simulate_s": 0.0})
    spans: dict = field(default_factory=dict)
    eval_time: float = 0.0
    eval_timed: int = 0
    sweep_measure_s: float = 0.0
    # (what, counted by the tracer, counted by the program) that disagreed
    mismatches: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _patched: list = field(default_factory=list)

    def counts(self) -> dict:
        return {k: self.tally[k] for k in COUNT_KEYS}

    def check(self, what: str, counted, independent) -> None:
        if counted != independent:
            self.mismatches.append((what, counted, independent))

    # -- wrappers ------------------------------------------------------------

    def span(self, name, fn, snapshot=(), on_exit=None):
        """Time every call of fn as span `name`; on_exit(result, inner, dt)
        sees how much each `snapshot` tally grew during the call."""
        stat = self.spans.setdefault(name, SpanStat())
        stack = self._stack
        tally = self.tally

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = [tally[k] for k in snapshot]
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stat.calls += 1
                stat.total += dt
                stat.self_time += dt - frame[0]
            if on_exit is not None:
                on_exit(result, {k: tally[k] - b for k, b in zip(snapshot, before)}, dt)
            return result
        return wrapper

    def count(self, key, fn):
        tally = self.tally

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tally[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def count_timed(self, key, fn):
        """Count every call; time one call in _EVAL_SAMPLE_EVERY."""
        tally = self.tally
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            n = tally[key] = tally[key] + 1
            if n % _EVAL_SAMPLE_EVERY:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            tracer.eval_time += perf_counter() - t0
            tracer.eval_timed += 1
            return result
        return wrapper

    # -- patching ------------------------------------------------------------

    def patch_function(self, original, wrapper) -> None:
        """Replace every binding of `original` in the loaded sie modules."""
        hits = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "sie" or mod_name.startswith("sie.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))
                    hits += 1
        if hits == 0:
            raise RuntimeError(f"no binding of {original!r} found")

    def patch_method(self, cls, name, make_wrapper) -> None:
        original = cls.__dict__[name]
        setattr(cls, name, make_wrapper(original))
        self._patched.append((cls, name, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap the layer boundaries of the imported `sie` package."""
        from sie import cli, core, events, flow, hybrid, iss, orbit, poincare

        t = self.tally

        def step_done(result, inner, dt):
            t["flow.steps"] += 1

        def crossing_done(search, inner, dt):
            t["events.crossings"] += search.event is not None
            t["events.h_evals"] += inner["core.h_evals"]
            t["events.steps"] += inner["flow.steps"]
            self.check("steps in one first_crossing vs its segment.n_accepted",
                       inner["flow.steps"], search.segment.n_accepted)

        def simulate_done(traj, inner, dt):
            t["hybrid.trajectories"] += 1
            t["hybrid.impacts"] += len(traj.impacts)
            t["hybrid.steps"] += inner["flow.steps"]
            t["hybrid.segment_steps"] += sum(s.n_accepted for s in traj.segments)
            t["hybrid.simulate_s"] += dt

        def solve_done(report, inner, dt):
            t["poincare.solves"] += 1
            t["poincare.newton_iters"] += len(report.newton_residuals) - 1

        def map_done(result, inner, dt):
            t["poincare.map_evals"] += 1

        def query_done(result, inner, dt):
            t["orbit.queries"] += 1
            t["orbit.query_dense_evals"] += inner["flow.dense_evals"]

        def certify_done(report, inner, dt):
            t["orbit.prop1_samples"] += report.n_samples

        def sweep_done(report, inner, dt):
            t["iss.excluded_trials"] += sum(report.trials - len(c.per_trial_orbital)
                                            for c in report.cells)
            t["iss.window_samples"] += inner["traj.evals"]
            self.sweep_measure_s += dt - inner["hybrid.simulate_s"]

        spans = [
            ("cli.main", cli.main, (), None),
            ("iss.run_sweep", iss.run_sweep, ("traj.evals", "hybrid.simulate_s"), sweep_done),
            ("hybrid.simulate", hybrid.simulate, ("flow.steps",), simulate_done),
            ("events.first_crossing", events.first_crossing,
             ("flow.steps", "core.h_evals"), crossing_done),
            ("poincare.find_fixed_point", poincare.find_fixed_point, (), solve_done),
            ("poincare.linearize", poincare.linearize, (), None),
            ("poincare.poincare_map", poincare.poincare_map, (), map_done),
            ("orbit.build_orbit", orbit.build_orbit, (), None),
            ("orbit.certify_prop1", orbit.certify_prop1, (), certify_done),
            ("orbit.dist_to_orbit", orbit.dist_to_orbit, ("flow.dense_evals",), query_done),
            ("orbit.refine_distance", orbit.refine_distance, ("flow.dense_evals",), query_done),
        ]
        for name, fn, snapshot, on_exit in spans:
            self.patch_function(fn, self.span(name, fn, snapshot, on_exit))
        self.patch_method(flow.Stepper, "step",
                          lambda fn: self.span("flow.Stepper.step", fn, (), step_done))
        self.patch_method(flow.FlowSegment, "eval", lambda fn: self.count("flow.dense_evals", fn))
        self.patch_method(flow.FlowSegment, "eval_many",
                          lambda fn: self.count("flow.dense_evals", fn))
        self.patch_method(hybrid.HybridTrajectory, "eval", lambda fn: self.count("traj.evals", fn))
        for method, key in (("eval_f", "core.f_evals"), ("eval_h", "core.h_evals"),
                            ("surface_gradient", "core.grad_evals")):
            self.patch_method(core.HybridSystemDef, method,
                              lambda fn, key=key: self.count_timed(key, fn))

    # -- report --------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics, named `<module>.<metric>`."""
        t = self.tally

        def stat(name: str) -> SpanStat:
            return self.spans.get(name, SpanStat())

        def ratio(num, den) -> float:
            return num / den if den else 0.0

        def self_s(*names: str) -> float:
            return sum(stat(n).self_time for n in names)

        step = stat("flow.Stepper.step")
        maps = stat("poincare.poincare_map")
        queries = ("orbit.dist_to_orbit", "orbit.refine_distance")
        query_s = sum(stat(n).total for n in queries)
        sweep = stat("iss.run_sweep")
        return {
            "flow.steps": t["flow.steps"],
            "flow.us_per_step": 1e6 * ratio(step.total, t["flow.steps"]),
            "flow.self_s": step.self_time,
            "core.f_evals": t["core.f_evals"],
            "core.h_evals": t["core.h_evals"],
            "core.grad_evals": t["core.grad_evals"],
            "core.eval_us": 1e6 * ratio(self.eval_time, self.eval_timed),
            "events.self_s": self_s("events.first_crossing"),
            "events.h_per_step": ratio(t["events.h_evals"], t["events.steps"]),
            "events.crossings": t["events.crossings"],
            "hybrid.self_s": self_s("hybrid.simulate"),
            "hybrid.impacts": t["hybrid.impacts"],
            "hybrid.trajectories": t["hybrid.trajectories"],
            "poincare.map_evals": t["poincare.map_evals"],
            "poincare.map_evals_per_solve": ratio(t["poincare.map_evals"], t["poincare.solves"]),
            "poincare.newton_iters": t["poincare.newton_iters"],
            "poincare.ms_per_map_eval": 1e3 * ratio(maps.total, t["poincare.map_evals"]),
            "poincare.self_s": self_s("poincare.find_fixed_point", "poincare.linearize",
                                      "poincare.poincare_map"),
            "orbit.queries": t["orbit.queries"],
            "orbit.us_per_query": 1e6 * ratio(query_s, t["orbit.queries"]),
            "orbit.dense_evals_per_query": ratio(t["orbit.query_dense_evals"], t["orbit.queries"]),
            "orbit.self_s": self_s("orbit.build_orbit", "orbit.certify_prop1", *queries),
            "orbit.build_s": stat("orbit.build_orbit").total,
            "iss.self_s": self_s("iss.run_sweep"),
            "iss.measure_share": ratio(self.sweep_measure_s, sweep.total),
            "iss.window_samples": t["iss.window_samples"],
            "iss.excluded_trials": t["iss.excluded_trials"],
            "cli.self_s": self_s("cli.main"),
        }


LAYER_UNITS = {
    "flow.steps": "count", "flow.us_per_step": "us", "flow.self_s": "s",
    "core.f_evals": "count", "core.h_evals": "count", "core.grad_evals": "count",
    "core.eval_us": "us",
    "events.self_s": "s", "events.h_per_step": "1", "events.crossings": "count",
    "hybrid.self_s": "s", "hybrid.impacts": "count", "hybrid.trajectories": "count",
    "poincare.map_evals": "count", "poincare.map_evals_per_solve": "1",
    "poincare.newton_iters": "count", "poincare.ms_per_map_eval": "ms", "poincare.self_s": "s",
    "orbit.queries": "count", "orbit.us_per_query": "us", "orbit.dense_evals_per_query": "1",
    "orbit.self_s": "s", "orbit.build_s": "s",
    "iss.self_s": "s", "iss.measure_share": "1", "iss.window_samples": "count",
    "iss.excluded_trials": "count",
    "cli.self_s": "s", "cli.bytes_written": "bytes",
    "trace.traced_s": "s", "trace.overhead_s": "s",
}
