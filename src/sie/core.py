"""Domain types shared by every module: the system triple (f, delta, H),
continuous and discrete input signals with sup-norm queries, and the
central-difference derivative that stands in for every derivative a model
does not declare.

All types are immutable after construction and safe to share between threads.
The Euclidean norm is used throughout; per-space norms are never mixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import _rng
from .errors import EvaluatorFailure, PreconditionError

_SURFACE_TOL = 1e-8  # |H| below this, relative to max(1, |x|), is on the surface
# central-difference step of the stand-in derivatives (grad H, Df, D delta):
# the O(step^2) error sits near 1e-12 times the local curvature
_FD_REL_STEP = 1e-6
# a declared grad_h, jac_f or jac_delta must match central differences to
# this, relative to the size of the map and its derivative: far above the
# stand-in's rounding (about 1e-10), far below any wrong entry
_JAC_MATCH_REL = 1e-6


def surface_tol(x: np.ndarray) -> float:
    return _SURFACE_TOL * max(1.0, float(np.max(np.abs(x))))


def euclidean(x: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(x, dtype=float)))


def central_difference(fn: Callable[[np.ndarray], object], x: np.ndarray,
                       rel_step: float) -> np.ndarray:
    """Column i is (fn(x + s e_i) - fn(x - s e_i)) / (2 s), s = rel_step *
    max(1, |x_i|); shape (n,) for a scalar fn, (m, n) for a vector fn."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        step = rel_step * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += step
        xm[i] -= step
        cols.append((fn(xp) - fn(xm)) / (2.0 * step))
    return np.array(cols, dtype=float).T if cols else np.empty((0, 0))


# ---------------------------------------------------------------------------
# system definition


@dataclass(frozen=True)
class HybridSystemDef:
    """The triple (f, delta, H) with dimensions (n, p, q).

    f(x, u_value) is the vector field, delta(x, v_value) the reset applied on
    the switching surface S = {H(x) = 0}.  H is declared once: either as
    h(x), with an optional analytic grad_h(x), or as surface = (g, c), the
    affine H(x) = c + g . x with gradient g, which lets the event scan clear
    a whole step at once.  Optional analytic derivatives of the flow and the
    reset: jac_f(x, u_value) = Df (n x n, in x) and jac_delta(x, v_value) =
    D delta (n x n, in x); central differences stand in for any derivative
    that is left out, and `validate_system` checks the declared ones against
    them.  Evaluators must be total: exceptions and non-finite outputs
    surface as EvaluatorFailure, never as silent NaN propagation.

    surface_reset_ok marks models whose reset intentionally lands on S itself
    (identity-reset adapters for continuous limit cycles, restitution maps of
    the bouncing-ball kind).  For ordinary systems the reset must land
    strictly above the surface and the default (False) keeps that contract.
    """

    n: int
    p: int
    q: int
    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    delta: Callable[[np.ndarray, np.ndarray], np.ndarray]
    h: Callable[[np.ndarray], float] | None = None
    grad_h: Callable[[np.ndarray], np.ndarray] | None = None
    surface_reset_ok: bool = False
    name: str = ""
    # compare=False: an array field would make == and hash raise
    surface: tuple[np.ndarray, float] | None = field(default=None, compare=False)
    jac_f: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    jac_delta: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.surface is None and self.h is None:
            raise PreconditionError("H is undeclared: give h, or surface = (g, c)")
        if self.surface is not None and (self.h is not None or self.grad_h is not None):
            raise PreconditionError("surface = (g, c) declares H and its gradient; "
                                    "h and grad_h would declare them twice")
        if self.surface is not None:
            g, c = self.surface
            g, c = np.asarray(g, dtype=float), float(c)
            if g.shape != (self.n,) or not (np.isfinite(g).all() and math.isfinite(c)):
                raise PreconditionError("surface must be (g, c), g finite of shape (n,), c finite")
            object.__setattr__(self, "surface", (g, c))

    @cached_property
    def _surface_terms(self) -> tuple[float, list[tuple[int, float]]]:
        """The affine surface as c and the (j, g_j) of its nonzero g_j, the
        terms of the event scan's per-step clear; a variational system's
        padded g keeps n of its n + n^2 entries."""
        g, c = self.surface
        return c, [(j, gj) for j, gj in enumerate(g.tolist()) if gj != 0.0]

    def eval_f(self, x: np.ndarray, u_value: np.ndarray) -> np.ndarray:
        return _checked(self.f, "f", (self.n,), x, u_value)

    def eval_delta(self, x: np.ndarray, v_value: np.ndarray) -> np.ndarray:
        return _checked(self.delta, "delta", (self.n,), x, v_value)

    def eval_h(self, x: np.ndarray) -> float:
        # its own float path: the event scan's hot call, at 1/10 of `_checked`'s cost
        try:
            out = (float(self.h(x)) if self.surface is None
                   else self.surface[1] + float(self.surface[0] @ x))
        except Exception as exc:  # noqa: BLE001
            raise EvaluatorFailure("h", x, str(exc)) from exc
        if not math.isfinite(out):
            raise EvaluatorFailure("h", x, f"returned {out!r}")
        return out

    def surface_gradient(self, x: np.ndarray) -> np.ndarray:
        """grad H(x): the surface's g, the declared grad_h, else central differences of h."""
        if self.surface is not None:
            return self.surface[0].copy()
        return self._derivative("grad_h", self.eval_h, x)

    def flow_jacobian(self, x: np.ndarray, u_value: np.ndarray) -> np.ndarray:
        """Df(x, u): the declared jac_f, else central differences of f."""
        return self._derivative("jac_f", self.eval_f, x, u_value)

    def reset_jacobian(self, x: np.ndarray, v_value: np.ndarray) -> np.ndarray:
        """D delta(x, v): the declared jac_delta, else central differences of
        delta."""
        return self._derivative("jac_delta", self.eval_delta, x, v_value)

    def _derivative(self, which: str, evaluate, x: np.ndarray, *args) -> np.ndarray:
        """The declared derivative `which`, checked: (n,) for h, (n, n) for f
        and delta; else central differences of x -> evaluate(x, *args)."""
        declared = getattr(self, which)
        if declared is None:
            return central_difference(lambda y: evaluate(y, *args), x, _FD_REL_STEP)
        return _checked(declared, which, (self.n,) * (1 + len(args)), x, *args)


def _checked(fn, which: str, shape: tuple[int, ...], x: np.ndarray, *args) -> np.ndarray:
    """fn(x, *args) as a float array of the given shape with finite entries,
    else EvaluatorFailure labelled `which`."""
    try:
        out = np.asarray(fn(x, *args), dtype=float)
    except EvaluatorFailure:
        raise  # a checked evaluator inside fn already named itself
    except Exception as exc:  # noqa: BLE001 - converted to structured failure
        raise EvaluatorFailure(which, x, str(exc)) from exc
    if out.shape != shape or not np.isfinite(out).all():
        raise EvaluatorFailure(which, x, f"returned {out!r}")
    return out


# ---------------------------------------------------------------------------
# continuous-time inputs


@dataclass(frozen=True)
class ContinuousSignal:
    """A continuous input on [0, inf) with a finite, queryable sup-norm bound.

    Kinds: zero, constant, sinusoid, tabulated (linear interpolation, held
    constant beyond the last sample) and composite (sum).  `scaled` multiplies
    amplitudes, preserving shape; `shifted` advances the time origin, so
    shifted(dt)(t) == original(dt + t).
    """

    dim: int
    kind: str
    value: tuple[float, ...] = ()
    amplitude: tuple[float, ...] = ()
    omega: float = 0.0
    phase: float = 0.0
    times: tuple[float, ...] = ()
    values: tuple[tuple[float, ...], ...] = ()
    parts: tuple["ContinuousSignal", ...] = ()
    scale: float = 1.0
    t_shift: float = 0.0

    @staticmethod
    def zero(dim: int) -> "ContinuousSignal":
        return ContinuousSignal(dim=dim, kind="zero")

    @staticmethod
    def constant(value: Sequence[float]) -> "ContinuousSignal":
        v = tuple(float(a) for a in value)
        return ContinuousSignal(dim=len(v), kind="constant", value=v)

    @staticmethod
    def sinusoid(amplitude: Sequence[float], omega: float, phase: float = 0.0) -> "ContinuousSignal":
        a = tuple(float(x) for x in amplitude)
        return ContinuousSignal(dim=len(a), kind="sinusoid", amplitude=a,
                                omega=float(omega), phase=float(phase))

    @staticmethod
    def tabulated(times: Sequence[float], values) -> "ContinuousSignal":
        ts = tuple(float(t) for t in times)
        vals = tuple(tuple(float(v) for v in row) for row in np.atleast_2d(np.asarray(values, dtype=float)))
        if len(ts) != len(vals) or len(ts) < 2:
            raise PreconditionError("tabulated signal needs matching times/values with >= 2 samples")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise PreconditionError("tabulated sample times must be strictly increasing")
        return ContinuousSignal(dim=len(vals[0]), kind="tabulated", times=ts, values=vals)

    @staticmethod
    def composite(parts: Sequence["ContinuousSignal"]) -> "ContinuousSignal":
        parts = tuple(parts)
        if not parts:
            raise PreconditionError("composite signal needs at least one part")
        if len({p.dim for p in parts}) != 1:
            raise PreconditionError("composite parts must share a dimension")
        return ContinuousSignal(dim=parts[0].dim, kind="composite", parts=parts)

    def scaled(self, factor: float) -> "ContinuousSignal":
        return replace(self, scale=self.scale * float(factor))

    def shifted(self, dt: float) -> "ContinuousSignal":
        return replace(self, t_shift=self.t_shift + float(dt))

    def compile(self) -> Callable[[float], np.ndarray]:
        """A plain closure evaluating the signal; used in integrator hot loops."""
        s = self.scale
        t0 = self.t_shift
        if self.kind == "zero" or s == 0.0:
            z = np.zeros(self.dim)
            return lambda t: z
        if self.kind == "constant":
            v = s * np.asarray(self.value)
            return lambda t: v
        if self.kind == "sinusoid":
            amplitudes = [s * ai for ai in self.amplitude]
            w, ph = self.omega, self.phase

            def _sin(t: float) -> np.ndarray:
                st = math.sin(w * (t + t0) + ph)  # once, however many amplitudes
                return np.array([ai * st for ai in amplitudes])

            return _sin
        if self.kind == "tabulated":
            ts = np.asarray(self.times)
            vals = s * np.asarray(self.values)

            def _tab(t: float) -> np.ndarray:
                tt = min(max(t + t0, ts[0]), ts[-1])
                i = int(np.searchsorted(ts, tt, side="right")) - 1
                i = min(max(i, 0), len(ts) - 2)
                w = (tt - ts[i]) / (ts[i + 1] - ts[i])
                return (1.0 - w) * vals[i] + w * vals[i + 1]

            return _tab
        if self.kind == "composite":
            fns = [replace(p, scale=p.scale * s, t_shift=p.t_shift + t0).compile() for p in self.parts]
            return lambda t: sum(fn(t) for fn in fns)
        raise PreconditionError(f"unknown signal kind {self.kind!r}")

    def sup_norm(self) -> float:
        """A finite upper bound on sup_t ||u(t)||; exact for zero, constant
        and sinusoid, max-sample bound for tabulated."""
        s = abs(self.scale)
        if self.kind == "zero":
            return 0.0
        if self.kind == "constant":
            return s * euclidean(np.asarray(self.value))
        if self.kind == "sinusoid":
            return s * euclidean(np.asarray(self.amplitude))
        if self.kind == "tabulated":
            return s * float(np.max(np.linalg.norm(np.asarray(self.values), axis=1)))
        if self.kind == "composite":
            return s * sum(p.sup_norm() for p in self.parts)
        raise PreconditionError(f"unknown signal kind {self.kind!r}")


# ---------------------------------------------------------------------------
# discrete-time inputs


@dataclass(frozen=True)
class DiscreteSequence:
    """A sequence k -> v_k in R^q with a finite sup-norm.

    iid-uniform draws each component of v_k uniformly from [-bound_i, bound_i]
    using the pinned splitmix64 counter generator, so a fixed seed replays
    bit-identically on every platform and any element is O(1) to access.
    """

    dim: int
    kind: str
    value: tuple[float, ...] = ()
    bound: tuple[float, ...] = ()
    seed: int = 0
    entries: tuple[tuple[float, ...], ...] = ()
    scale: float = 1.0

    @staticmethod
    def zero(dim: int) -> "DiscreteSequence":
        return DiscreteSequence(dim=dim, kind="zero")

    @staticmethod
    def constant(value: Sequence[float]) -> "DiscreteSequence":
        v = tuple(float(a) for a in value)
        return DiscreteSequence(dim=len(v), kind="constant", value=v)

    @staticmethod
    def iid_uniform(bound, seed: int, dim: int | None = None) -> "DiscreteSequence":
        if np.isscalar(bound):
            if dim is None:
                dim = 1
            b = tuple(float(bound) for _ in range(dim))
        else:
            b = tuple(float(x) for x in bound)
        if not all(x >= 0 for x in b):  # NaN too
            raise PreconditionError("iid-uniform bounds must be nonnegative")
        return DiscreteSequence(dim=len(b), kind="iid-uniform", bound=b, seed=int(seed))

    @staticmethod
    def explicit(entries) -> "DiscreteSequence":
        rows = tuple(tuple(float(v) for v in row) for row in np.atleast_2d(np.asarray(entries, dtype=float)))
        return DiscreteSequence(dim=len(rows[0]), kind="explicit", entries=rows)

    def scaled(self, factor: float) -> "DiscreteSequence":
        return replace(self, scale=self.scale * float(factor))

    def __getitem__(self, k: int) -> np.ndarray:
        if k < 0:
            raise PreconditionError("sequence index must be nonnegative")
        s = self.scale
        if self.kind == "zero":
            return np.zeros(self.dim)
        if self.kind == "constant":
            return s * np.asarray(self.value)
        if self.kind == "iid-uniform":
            out = np.empty(self.dim)
            for i, b in enumerate(self.bound):
                u = _rng.uniform01(self.seed, k * self.dim + i)
                out[i] = b * (2.0 * u - 1.0)
            return s * out
        if self.kind == "explicit":
            # held at the last entry beyond the provided range
            row = self.entries[min(k, len(self.entries) - 1)]
            return s * np.asarray(row)
        raise PreconditionError(f"unknown sequence kind {self.kind!r}")

    def sup_norm(self) -> float:
        s = abs(self.scale)
        if self.kind == "zero":
            return 0.0
        if self.kind == "constant":
            return s * euclidean(np.asarray(self.value))
        if self.kind == "iid-uniform":
            return s * euclidean(np.asarray(self.bound))
        if self.kind == "explicit":
            return s * float(np.max(np.linalg.norm(np.asarray(self.entries), axis=1)))
        raise PreconditionError(f"unknown sequence kind {self.kind!r}")


# ---------------------------------------------------------------------------
# model validation


@dataclass(frozen=True)
class ProbeResult:
    index: int
    on_surface: bool
    degenerate_gradient: bool


@dataclass(frozen=True)
class ValidationReport:
    probes: tuple[ProbeResult, ...] = field(default=())

    @property
    def degenerate_gradient_flagged(self) -> bool:
        return any(p.degenerate_gradient for p in self.probes)


def validate_system(sys: HybridSystemDef, probe_states: Sequence[np.ndarray]) -> ValidationReport:
    """Spot-check a system definition at the given probe states.

    Per probe, with zero inputs: f, delta and h are evaluated, checked, and
    gradients that vanish on the surface (below 1e-12, breaking the
    codimension-1 structure) are flagged.  Evaluator failures propagate as
    EvaluatorFailure with the probe index attached.  A declared grad_h,
    jac_f or jac_delta that misses central differences of the bare model by
    more than _JAC_MATCH_REL of the size of the map and its derivative
    raises PreconditionError.
    """
    probes = [np.asarray(p, dtype=float) for p in probe_states]
    if not probes:
        raise PreconditionError("validate_system needs at least one probe state")
    if any(p.shape != (sys.n,) for p in probes):
        raise PreconditionError(f"probe states must have shape ({sys.n},)")
    if any(not np.all(np.isfinite(p)) for p in probes):
        raise PreconditionError("probe states must be finite")

    u0, v0 = np.zeros(sys.p), np.zeros(sys.q)
    bare = replace(sys, grad_h=None, jac_f=None, jac_delta=None)  # central differences only
    results = []
    for idx, x in enumerate(probes):
        try:
            hv = sys.eval_h(x)
            # (declaration, the map's value, the derivative's accessor, inputs after x)
            derivatives = (("grad_h", hv, "surface_gradient", ()),
                           ("jac_f", sys.eval_f(x, u0), "flow_jacobian", (u0,)),
                           ("jac_delta", sys.eval_delta(x, v0), "reset_jacobian", (v0,)))
            for which, value, accessor, args in derivatives:
                if getattr(sys, which) is None:
                    continue
                fd = getattr(bare, accessor)(x, *args)
                miss = euclidean(getattr(sys, accessor)(x, *args) - fd)
                if not miss <= _JAC_MATCH_REL * max(1.0, euclidean(fd), euclidean(value)):
                    raise PreconditionError(
                        f"probe {idx}: declared {which} misses central differences by {miss:.3g}")
            grad = sys.surface_gradient(x)
        except EvaluatorFailure as exc:
            exc.detail = f"probe {idx}: {exc.detail}"
            raise
        on_surface = abs(hv) <= surface_tol(x)
        results.append(ProbeResult(index=idx, on_surface=on_surface,
                                   degenerate_gradient=on_surface and euclidean(grad) < 1e-12))
    return ValidationReport(probes=tuple(results))
