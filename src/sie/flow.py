"""Continuous-phase solver.

An embedded Dormand-Prince 5(4) pair with the free 4th-order dense
interpolant.  Dense output is kept for every accepted step because event
location and orbit distance queries both evaluate the flow between nodes.
Time-varying inputs are handled by evaluating u(t) at the stage times, i.e.
the solver integrates the frozen-signal vector field (t, x) -> f(x, u(t)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ContinuousSignal, HybridSystemDef
from .errors import Blowup, PreconditionError, StepLimitExceeded

# Dormand-Prince 5(4) tableau with the Shampine dense-output matrix.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([], dtype=float),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])
# stages 1 to 6 as (i, A_i, c_i), c_i a Python float: the same products, cheaper
_STAGES = [(i, _A[i], float(_C[i])) for i in range(1, 7)]

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ERR_EXPONENT = -0.2  # -1/(error order + 1)


@dataclass(frozen=True)
class IntegratorConfig:
    rtol: float = 1e-9
    atol: float = 1e-11
    max_step: float = math.inf
    max_steps: int = 1_000_000
    blowup: float = 1e8

    def __post_init__(self):
        if not (self.rtol > 0 and self.atol > 0):  # NaN fails every check
            raise PreconditionError("rtol and atol must be positive")
        if not (self.max_step > 0 and self.blowup > 0):
            raise PreconditionError("max_step and blowup must be positive")
        if not isinstance(self.max_steps, (int, np.integer)):
            raise PreconditionError("max_steps must be an integer")
        if self.max_steps < 1:
            raise PreconditionError("max_steps must be at least 1")


@dataclass(frozen=True)
class FlowSegment:
    """Dense solution of one continuous phase over [t0, t1].

    ts holds the left edge of each accepted step, hs the step sizes used to
    scale the interpolant, ys the node states (one more row than steps) and
    qs the per-step dense coefficient matrices.  The last node may sit inside
    the final step's interpolation range when the segment was trimmed at an
    event time.
    """

    t0: float
    t1: float
    ts: np.ndarray
    hs: np.ndarray
    ys: np.ndarray
    qs: np.ndarray
    n_accepted: int
    n_rejected: int

    @property
    def n(self) -> int:
        return self.ys.shape[1]

    def _jet(self, t):
        """`_quartic` jet of the step holding each time; the values at and
        beyond the segment's ends are its end nodes exactly.  `eval` and
        `eval_many` read the values alone; they keep the three-row product,
        whose rounding a one-row product need not repeat, so orbit samples
        and trajectory rows keep their bits."""
        i = self.ts[1:].searchsorted(t, "right")  # 0 before the first node
        y, dy, ddy = _quartic(self.ts[i], self.hs[i], self.ys[i], self.qs[i], t, jet=True)
        y[t <= self.t0] = self.ys[0]
        y[t >= self.t1] = self.ys[-1]
        return y, dy, ddy

    def _check_span(self, t) -> None:
        lo, hi = (t.min(), t.max()) if isinstance(t, np.ndarray) else (t, t)
        if not (lo >= self.t0 - 1e-12 * max(1.0, abs(self.t0))  # negated: NaN fails too
                and hi <= self.t1 + 1e-12 * max(1.0, abs(self.t1))):
            raise PreconditionError(f"t={t!r} outside segment [{self.t0!r}, {self.t1!r}]")

    def eval(self, t: float) -> np.ndarray:
        self._check_span(t)
        return self._jet(t)[0]

    def eval_many(self, ts: np.ndarray) -> np.ndarray:
        """`eval` of a batch of times, one row each, without the span check:
        times outside [t0, t1] return the end states."""
        return self._jet(np.asarray(ts, dtype=float))[0]


def _quartic(t0, h, y0, q, t, jet: bool = False):
    """Dense output of the step that starts at (t0, y0) with size h and
    coefficient matrix q: y0 + h q [th, th^2, th^3, th^4] at th = (t - t0)/h,
    with jet also its first two t-derivatives.  One step at one time or
    many (t an array), or one time per step (every argument an array with
    one row per step); a row of the second form is bit for bit the first
    form at that one time."""
    th = (t - t0) / h
    t2 = th * th
    t3 = t2 * th
    # row l of the basis, times q, is the l-th t-derivative of y - y0
    # times h^(l - 1)
    rows = [[th, t2, t3, t2 * t2]]
    if jet:
        one = th ** 0  # shaped like th
        rows += [[one, 2.0 * th, 3.0 * t2, 4.0 * t3], [0.0 * th, 2.0 * one, 6.0 * th, 12.0 * t2]]
    basis = np.array(rows).T.swapaxes(-1, -2)  # (..., rows, 4)
    if q.ndim == 2:  # one step: one product for all its times
        d = np.dot(basis, q.T)
    else:
        d = basis @ np.swapaxes(q, -1, -2)
        h = h[:, None]
    y = y0 + h * d[..., 0, :]
    return (y, d[..., 1, :], d[..., 2, :] / h) if jet else y


class Stepper:
    """Adaptive Dormand-Prince stepper producing one dense record per
    accepted step; driven directly by event location so integration can stop
    at a surface crossing without overshooting the step budget.  The model's
    output is checked once per step, not once per stage call."""

    def __init__(self, sys: HybridSystemDef, x0: np.ndarray, u: ContinuousSignal,
                 t0: float, t_end: float, cfg: IntegratorConfig):
        if not t_end > t0:  # also NaN
            raise PreconditionError("integration span must have positive length")
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (sys.n,) or not np.all(np.isfinite(x0)):
            raise PreconditionError("initial state must be finite with the system dimension")
        self.sys = sys
        self.cfg = cfg
        self.t = float(t0)
        self.t_end = float(t_end)
        self.y = x0.copy()
        self._ay = np.abs(self.y)
        self._n_sqrt = math.sqrt(self.y.size)
        self._ones = np.ones(7 * self.y.size)
        self.ufn = u.compile()
        self._k1 = sys.eval_f(self.y, self.ufn(self.t))
        self._h = self._initial_step()
        self.n_accepted = 0
        self.n_rejected = 0
        self.records: list[tuple[float, float, np.ndarray, np.ndarray, np.ndarray]] = []

    @property
    def done(self) -> bool:
        return self.t >= self.t_end

    def _initial_step(self) -> float:
        scale = self.cfg.atol + self.cfg.rtol * np.abs(self.y)
        d0 = np.linalg.norm(self.y / scale) / math.sqrt(self.y.size)
        d1 = np.linalg.norm(self._k1 / scale) / math.sqrt(self.y.size)
        h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
        y1 = self.y + h0 * self._k1
        f1 = self.sys.eval_f(y1, self.ufn(self.t + h0))
        d2 = np.linalg.norm((f1 - self._k1) / scale) / math.sqrt(self.y.size) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** 0.2
        return min(100 * h0, h1, self.t_end - self.t, self.cfg.max_step)

    def _stages(self, h: float, f) -> tuple[np.ndarray, np.ndarray]:
        """The stage slopes K of a step of size h, one row per stage, and
        the step's end state, the last stage's argument.  f is the model's
        raw `f` or its checked `eval_f`; an output other than an array of
        the state's shape goes through np.asarray, and one of another
        shape raises, since K[i] = out would broadcast a scalar.  Stage i's
        state is y + h (A_i . K[:i]), its two roundings made in place, h
        as a 0-d array, which an in-place product takes faster than a
        Python float."""
        t, y, ufn, shape = self.t, self.y, self.ufn, self.y.shape
        h_arr = np.array(h)
        K = np.empty((7, y.size))
        K[0] = self._k1
        for i, a, c in _STAGES:
            yi = a.dot(K[:i])
            yi *= h_arr
            yi += y
            out = f(yi, ufn(t + c * h))
            if out.__class__ is not np.ndarray or out.shape != shape:
                out = np.asarray(out, dtype=float)
                if out.shape != shape:
                    raise ValueError(f"stage {i} returned shape {out.shape}")
            K[i] = out
        return K, yi

    def step(self) -> tuple[float, float, np.ndarray, np.ndarray, np.ndarray]:
        """Advance one accepted step; returns (t_left, h, y_left, y_right, Q).
        Every state is a fresh array that nothing writes into, so the record
        holds y_left itself."""
        if self.done:
            raise PreconditionError("stepper already reached the end of its span")
        cfg = self.cfg
        while True:
            if self.n_accepted + self.n_rejected >= cfg.max_steps:
                raise StepLimitExceeded(cfg.max_steps, self.t)
            h = min(self._h, cfg.max_step, self.t_end - self.t)
            tiny = 10.0 * abs(math.nextafter(self.t, math.inf) - self.t)
            if h < tiny:
                h = tiny
            try:
                K, y_new = self._stages(h, self.sys.f)
                # the sum of K's entries, as one dot product with ones: any
                # inf or NaN makes it non-finite in any order, and a sum
                # that overflows on finite slopes only costs the checked pass
                ok = math.isfinite(K.ravel().dot(self._ones))
            except Exception:  # noqa: BLE001 - the checked pass names the failure
                ok = False
            if not ok:
                # the checked evaluator raises the EvaluatorFailure of the
                # first bad stage, as a check of every call would
                K, y_new = self._stages(h, self.sys.eval_f)
            # scale = atol + rtol max(|y|, |y_new|) and err = ||h (E . K) / scale|| / sqrt(n)
            ay_new = np.abs(y_new)
            scale = np.maximum(self._ay, ay_new)
            scale *= cfg.rtol
            scale += cfg.atol
            e = _E.dot(K)
            e *= h
            e /= scale
            err = math.sqrt(float(e.dot(e))) / self._n_sqrt
            if err <= 1.0:
                t_left = self.t
                # snap to the span end when within rounding of it; the record
                # keeps the true step size used to scale the interpolant
                self.t = self.t_end if (self.t + h) >= self.t_end - tiny else self.t + h
                record = (t_left, h, self.y, y_new, K.T.dot(_P))
                self.records.append(record)
                self.y = y_new
                self._ay = ay_new
                self._k1 = K[6]
                self.n_accepted += 1
                factor = _MAX_FACTOR if err == 0.0 else min(_MAX_FACTOR, _SAFETY * err**_ERR_EXPONENT)
                self._h = h * factor
                # a NaN in y_new makes scale and err NaN and rejects the step,
                # so Python's max over an accepted one is exact
                if not max(ay_new.tolist()) <= cfg.blowup:
                    raise Blowup(self.t, float(ay_new.max()), _build_segment(
                        self.records, self.records[0][0], self.t, self.n_accepted, self.n_rejected))
                return record
            self.n_rejected += 1
            self._h = h * max(_MIN_FACTOR, _SAFETY * err**_ERR_EXPONENT)


def _build_segment(records, t0: float, t1: float, n_acc: int, n_rej: int,
                   final_y: np.ndarray | None = None) -> FlowSegment:
    if not records:
        raise PreconditionError("cannot build a segment from zero accepted steps")
    ts = np.array([r[0] for r in records])
    hs = np.array([r[1] for r in records])
    ys = np.vstack([np.array([r[2] for r in records]), records[-1][3][None, :]])
    qs = np.stack([r[4] for r in records])
    if final_y is not None:
        ys[-1] = final_y
    return FlowSegment(t0=t0, t1=t1, ts=ts, hs=hs, ys=ys, qs=qs,
                       n_accepted=n_acc, n_rejected=n_rej)


def integrate(sys: HybridSystemDef, x0: np.ndarray, u: ContinuousSignal,
              t_span: tuple[float, float], cfg: IntegratorConfig | None = None) -> FlowSegment:
    """Dense forced flow of the continuous phase over t_span.

    Raises StepLimitExceeded, Blowup (carrying the partial segment) or
    EvaluatorFailure; otherwise the returned segment covers the whole span
    and reproduces its stored endpoints exactly.
    """
    cfg = cfg or IntegratorConfig()
    t0, t1 = float(t_span[0]), float(t_span[1])
    stepper = Stepper(sys, x0, u, t0, t1, cfg)
    while not stepper.done:
        stepper.step()
    return _build_segment(stepper.records, t0, t1, stepper.n_accepted, stepper.n_rejected)
