"""Surface-crossing location: the first downward crossing of the free flow.

Crossings are located by sign-change bracketing on the dense output of each
accepted step (bisection, then one Newton polish using the flow derivative
of H).  Only downward crossings (H passing from positive to negative) are
events; tangential grazes are rejected loudly because the whole analysis
assumes transversality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ContinuousSignal, HybridSystemDef, surface_tol
from .errors import EvaluatorFailure, GrazeDetected, ResetNotInSPlus
from .flow import FlowSegment, IntegratorConfig, Stepper, _build_segment, _quartic

_SAMPLES_PER_STEP = 12
_SCAN_STEPS = np.arange(_SAMPLES_PER_STEP, dtype=float)
_BISECT_REL_WIDTH = 1e-13
_GRAZE_REL = 1e-8

# events are localized more tightly than core.surface_tol judges membership,
# so states produced by a previous localization re-enter preconditions cleanly
_EVENT_TOL = 1e-10

# an affine H clears a step when the quartic it follows there stays above
# this, relative to the size of its terms: far above the rounding of the
# dense output and of H
_CLEAR_REL = 1e-12


def event_tol(x: np.ndarray) -> float:
    return _EVENT_TOL * max(1.0, float(np.max(np.abs(x))))


@dataclass(frozen=True)
class ImpactEvent:
    t_hit: float
    x_minus: np.ndarray
    lfh: float
    localization_width: float


def _transversality(sys: HybridSystemDef, x: np.ndarray, u_value: np.ndarray) -> tuple[float, float]:
    """The flow derivative of H, grad H(x) . f(x, u), and the graze tolerance
    _GRAZE_REL |f| |grad H| below which its size counts as tangential, from
    one evaluation of f and one of grad H."""
    fv = sys.eval_f(x, u_value)
    gv = sys.surface_gradient(x)
    graze_tol = _GRAZE_REL * float(np.linalg.norm(fv)) * float(np.linalg.norm(gv))
    return float(np.dot(gv, fv)), graze_tol


def _scan_times(t_lo: float, t_hi: float) -> np.ndarray:
    """np.linspace(t_lo, t_hi, _SAMPLES_PER_STEP), with the same arithmetic
    but without its call overhead."""
    ts = _SCAN_STEPS * ((t_hi - t_lo) / (_SAMPLES_PER_STEP - 1)) + t_lo
    ts[-1] = t_hi
    return ts


def _refine_in_record(sys, ufn, record, ta, tb) -> tuple[float, np.ndarray, float, float, float]:
    """Bisect H to a relative width floor inside one dense record, then apply
    a single Newton polish with the flow derivative; returns
    (t_hit, x_minus, lfh, graze_tol, width), lfh and graze_tol those of
    `_transversality` at x_minus."""
    t_left, h, y_left, _y_right, Q = record
    width_tol = _BISECT_REL_WIDTH * max(1.0, abs(tb))
    while (tb - ta) > width_tol:
        tm = 0.5 * (ta + tb)
        if sys.eval_h(_quartic(t_left, h, y_left, Q, tm)) > 0.0:
            ta = tm
        else:
            tb = tm
    t_hit = 0.5 * (ta + tb)
    x = _quartic(t_left, h, y_left, Q, t_hit)
    lfh, graze_tol = _transversality(sys, x, ufn(t_hit))
    if lfh != 0.0:
        t_polish = t_hit - sys.eval_h(x) / lfh
        if t_left <= t_polish <= t_left + h:
            t_hit = t_polish
            x = _quartic(t_left, h, y_left, Q, t_hit)
            lfh, graze_tol = _transversality(sys, x, ufn(t_hit))
    return t_hit, x, lfh, graze_tol, tb - ta


def _clears_surface(surface_terms: tuple[float, list[tuple[int, float]]], record) -> bool:
    """Whether an affine H = c + g . x stays above its rounding margin over
    the whole step, at the dense output and at the step's end state.  Along
    the step H is the quartic a0 + a1 th + .. + a4 th^4 with a0 = c + g .
    y_left and a_k = h (g . Q)_k, which lies above the least of its
    Bernstein coefficients b_i = sum over k <= i of C(i, k) / C(4, k) a_k
    (Farin, Curves and Surfaces for CAGD).  The sums run over the nonzero
    g_j alone (`HybridSystemDef._surface_terms`): a zero g_j adds an exact
    zero to each of them on a finite record, and the margin test ignores
    the sign of zero.  Plain floats: for a handful of coordinates they cost
    less than array calls."""
    c, terms = surface_terms
    _t_left, h, y_left, y_right, Q = record
    a0 = a_right = c
    a1 = a2 = a3 = a4 = 0.0
    size = 1.0 + abs(c)
    for j, gj in terms:
        yl, yr = y_left.item(j), y_right.item(j)
        q1, q2, q3, q4 = Q[j].tolist()
        a0 += gj * yl
        a_right += gj * yr
        a1 += gj * q1
        a2 += gj * q2
        a3 += gj * q3
        a4 += gj * q4
        size += abs(gj) * (abs(yl) + abs(h) * (abs(q1) + abs(q2) + abs(q3) + abs(q4)))
    a1, a2, a3, a4 = h * a1, h * a2, h * a3, h * a4
    lowest = min(a0, a_right, a0 + a1 / 4, a0 + a1 / 2 + a2 / 6,
                 a0 + 3 * a1 / 4 + a2 / 2 + a3 / 4, a0 + a1 + a2 + a3 + a4)
    return lowest > _CLEAR_REL * size


def _scan_record(sys, ufn, record, from_t: float) -> tuple[float, np.ndarray, float, float] | None:
    """First downward sign change of H inside one step record; a hit within
    the dwell floor of from_t, the start of the search, is skipped.  A step
    that a declared affine surface clears has none, and is not sampled."""
    if sys.surface is not None and _clears_surface(sys._surface_terms, record):
        return None
    t_left, h, y_left, y_right, Q = record
    ts = _scan_times(t_left, t_left + h)
    xs = _quartic(t_left, h, y_left, Q, ts)
    # the step's own end state, from which the next step starts: the dense
    # value at the step end can round to the other side of H = 0, and then
    # neither step brackets a crossing that sits on the node
    xs[-1] = y_right
    hs = [sys.eval_h(x) for x in xs]
    dwell_floor = 1e-11 * max(1.0, abs(from_t))
    for i in range(len(ts) - 1):
        if hs[i] > 0.0 and hs[i + 1] <= 0.0:
            t_hit, x, lfh, graze_tol, width = _refine_in_record(sys, ufn, record, ts[i], ts[i + 1])
            if t_hit <= from_t + dwell_floor:
                continue
            if abs(lfh) < graze_tol:
                raise GrazeDetected(t_hit, lfh)
            if lfh >= 0.0:
                # a bracket at the rounding level of H is an interpolant
                # wiggle; one well clear of it contradicts the flow derivative
                if min(hs[i], -hs[i + 1]) > event_tol(x):
                    raise EvaluatorFailure(
                        "grad_h", x, f"the flow derivative of H, {lfh:.3g}, is not negative "
                        f"where H falls from {hs[i]:.3g} to {hs[i + 1]:.3g}")
                continue
            return t_hit, x, lfh, width
    return None


def _endpoint_event(sys, ufn, t_end: float, x_end: np.ndarray):
    """A trajectory that lands on the surface exactly at the end of the span
    (within event tolerance, approaching transversally) counts as a crossing
    at the endpoint."""
    if abs(sys.eval_h(x_end)) <= event_tol(x_end):
        lfh, graze_tol = _transversality(sys, x_end, ufn(t_end))
        if lfh < 0.0 and abs(lfh) >= graze_tol:
            return ImpactEvent(t_hit=t_end, x_minus=np.asarray(x_end, dtype=float).copy(),
                               lfh=lfh, localization_width=0.0)
    return None


@dataclass(frozen=True)
class TimeToImpact:
    """One crossing search: the segment integrated from the start state and
    the first downward crossing it ends at, or event None when the flow did
    not reach the surface before the cap.  Then time is math.inf (the
    truncated 'otherwise' branch) and state None; otherwise time is the
    crossing time on the search's clock and state the pre-impact state."""

    segment: FlowSegment
    event: ImpactEvent | None

    @property
    def finite(self) -> bool:
        return self.event is not None

    @property
    def time(self) -> float:
        return self.event.t_hit if self.finite else math.inf

    @property
    def state(self) -> np.ndarray | None:
        return self.event.x_minus if self.finite else None


def first_crossing(sys: HybridSystemDef, x0: np.ndarray, u: ContinuousSignal,
                   t0: float, t_end: float, cfg: IntegratorConfig) -> TimeToImpact:
    """Integrate from (t0, x0) stopping at the first downward crossing of H:
    the free-flow time to impact T_I, with no reset applied first.  Its time
    is math.inf when the flow does not reach the surface by t_end.

    The returned segment is trimmed to end at the crossing time with the
    localized pre-impact state as its final node; when no crossing occurs the
    segment covers [t0, t_end] and event is None.
    """
    stepper = Stepper(sys, x0, u, t0, t_end, cfg)
    ufn = stepper.ufn
    while not stepper.done:
        record = stepper.step()
        # the dwell floor belongs to the start of the search, not to each
        # step: a crossing just after a step's left edge is a real one
        hit = _scan_record(sys, ufn, record, t0)
        if hit is not None:
            t_hit, x, lfh, width = hit
            event = ImpactEvent(t_hit=t_hit, x_minus=x, lfh=lfh, localization_width=width)
            seg = _build_segment(stepper.records, t0, t_hit, stepper.n_accepted,
                                 stepper.n_rejected, final_y=x)
            return TimeToImpact(segment=seg, event=event)
    seg = _build_segment(stepper.records, t0, t_end, stepper.n_accepted, stepper.n_rejected)
    return TimeToImpact(segment=seg, event=_endpoint_event(sys, ufn, t_end, seg.ys[-1]))


def check_reset_side(sys: HybridSystemDef, x_plus: np.ndarray) -> None:
    """Validate which side of the surface a reset landed on.

    Ordinary systems must land strictly above the surface.  Systems declaring
    surface_reset_ok may land on it (identity adapters, restitution maps) but
    never strictly below.
    """
    h_plus = sys.eval_h(x_plus)
    tol = surface_tol(x_plus)
    if sys.surface_reset_ok:
        if h_plus < -tol:
            raise ResetNotInSPlus(h_plus)
    elif h_plus <= tol:
        raise ResetNotInSPlus(h_plus)
