"""Full hybrid execution: flow-reset alternation with right-continuous
solution storage and runtime guards against Zeno and beating behavior.

The stored value at an impact instant is always the post-reset state; the
pre-impact state survives as the left limit in the impact log, which is also
what the discrete section iteration consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ContinuousSignal, DiscreteSequence, HybridSystemDef, surface_tol
from .errors import (Blowup, GrazeDetected, PreconditionError, ResetNotInSPlus,
                     SieError)
from .events import check_reset_side, first_crossing
from .flow import FlowSegment, IntegratorConfig


@dataclass(frozen=True)
class GuardConfig:
    """Runtime guards; on by default so parameter sweeps can tally
    terminations instead of crashing."""

    k_max: int = 10_000
    min_dwell: float | None = None  # auto: 1e-6 * t_star if known, else 1e-9 * t_final
    t_star: float | None = None

    def __post_init__(self):
        if not isinstance(self.k_max, (int, np.integer)) or self.k_max < 0:
            raise PreconditionError("k_max must be a nonnegative integer")
        if self.min_dwell is not None and not self.min_dwell >= 0:  # also NaN
            raise PreconditionError("min_dwell must be nonnegative")
        if self.t_star is not None and not self.t_star > 0:
            raise PreconditionError("t_star must be positive")

    def dwell_floor(self, t_final: float) -> float:
        if self.min_dwell is not None:
            return self.min_dwell
        if self.t_star is not None:
            return 1e-6 * self.t_star
        return 1e-9 * t_final


@dataclass(frozen=True)
class Impact:
    k: int
    t: float
    x_minus: np.ndarray
    v: np.ndarray
    x_plus: np.ndarray


@dataclass(frozen=True)
class HybridTrajectory:
    segments: tuple[FlowSegment, ...]
    impacts: tuple[Impact, ...]
    t_final: float
    termination: str  # horizon-reached | zeno-guard | beating-guard | escape | error
    error: str | None = None

    def eval(self, t: float) -> np.ndarray:
        return self.eval_many(np.array([t], dtype=float))[0]

    def eval_many(self, ts: np.ndarray) -> np.ndarray:
        """States at a batch of times, one row per time.  A time shared by
        two segments (an impact instant) belongs to the later one, so the
        post-reset state is returned there."""
        if not self.segments:
            raise PreconditionError("trajectory holds no flow segments")
        ts = np.asarray(ts, dtype=float)
        t_end = self.t_final + 1e-12 * max(1.0, abs(self.t_final))
        outside = ~((ts >= self.segments[0].t0) & (ts <= t_end))  # NaN too
        if outside.any():
            raise PreconditionError(f"t={float(ts[outside][0])!r} outside trajectory span")
        starts = np.array([s.t0 for s in self.segments])
        which = np.clip(np.searchsorted(starts, ts, side="right") - 1, 0, len(self.segments) - 1)
        out = np.empty((len(ts), self.segments[0].n))
        for i in np.unique(which):
            rows = which == i
            seg = self.segments[i]
            out[rows] = seg.eval_many(np.minimum(ts[rows], seg.t1))
        return out

    def impact_times(self) -> np.ndarray:
        return np.array([imp.t for imp in self.impacts])


def simulate(sys: HybridSystemDef, x0: np.ndarray, u: ContinuousSignal,
             vbar: DiscreteSequence, t_final: float,
             guards: GuardConfig | None = None,
             cfg: IntegratorConfig | None = None) -> HybridTrajectory:
    """Hybrid solution over [0, t_final] unless a guard fires.

    The initial state must lie above the surface, or on it, in which case the
    reset applies immediately and consumes the first discrete input.  Inputs
    are evaluated on the global clock (each inter-impact piece sees u
    restricted to its window, not restarted).  Guard firings and structured
    numerical failures terminate the trajectory with a labelled termination
    instead of raising.
    """
    if not 0 < t_final < math.inf:  # also NaN
        raise PreconditionError("t_final must be positive and finite")
    guards = guards or GuardConfig()
    cfg = cfg or IntegratorConfig()
    x = np.asarray(x0, dtype=float)
    t = 0.0
    segments: list[FlowSegment] = []
    impacts: list[Impact] = []
    min_dwell = guards.dwell_floor(t_final)

    h0 = sys.eval_h(x)
    if h0 < -surface_tol(x):
        raise PreconditionError(f"initial state lies below the surface (H={h0:.3g})")

    def _terminate(kind: str, err: str | None = None) -> HybridTrajectory:
        return HybridTrajectory(segments=tuple(segments), impacts=tuple(impacts),
                                t_final=t, termination=kind, error=err)

    def _reset(t_hit: float, x_minus: np.ndarray) -> np.ndarray:
        """Apply the reset with the next discrete input, log the impact and
        move the clock to it; ResetNotInSPlus when the reset state lands on
        the wrong side, for the initial reset as for any other."""
        nonlocal t
        k = len(impacts)
        v_k = vbar[k]
        x_plus = sys.eval_delta(x_minus, v_k)
        impacts.append(Impact(k=k, t=t_hit, x_minus=x_minus, v=np.asarray(v_k, float), x_plus=x_plus))
        t = t_hit
        check_reset_side(sys, x_plus)
        return x_plus

    try:
        if abs(h0) <= surface_tol(x):
            x = _reset(0.0, x.copy())

        while t < t_final:
            search = first_crossing(sys, x, u, t, t_final, cfg)
            segments.append(search.segment)
            if search.event is None:
                t = t_final
                return _terminate("horizon-reached")
            ev = search.event
            dwell = ev.t_hit - t
            x = _reset(ev.t_hit, ev.x_minus)
            if dwell < min_dwell:
                return _terminate("zeno-guard", f"inter-impact interval {dwell:.3g} below {min_dwell:.3g}")
            if len(impacts) > guards.k_max:
                return _terminate("zeno-guard", f"impact count exceeded {guards.k_max}")
        return _terminate("horizon-reached")
    except ResetNotInSPlus as exc:
        return _terminate("beating-guard", str(exc))
    except Blowup as exc:
        if exc.segment is not None:
            segments.append(exc.segment)
            t = exc.segment.t1
        return _terminate("escape", str(exc))
    except GrazeDetected as exc:
        # at the bottom of an impact accumulation the crossing velocity
        # collapses, so the graze detector trips just before the dwell guard;
        # inside an established cascade that is the Zeno phenomenon itself
        intervals = np.diff([imp.t for imp in impacts])
        if len(intervals) >= 3 and intervals[-1] < 1e3 * min_dwell:
            return _terminate("zeno-guard", str(exc))
        return _terminate("error", str(exc))
    except SieError as exc:
        return _terminate("error", str(exc))
