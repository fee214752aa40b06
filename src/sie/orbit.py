"""The periodic orbit as a geometric object: dense parameterization, refined
sample polyline, nearest-point queries, and the empirical distance-sandwich
certificate relating on-surface distance to distance from the fixed point.

The orbit is parameterized forward in time from the post-reset point, so
tau runs over [0, T*] with y(0) the reset image and y(T*) the fixed point;
the equivalent backward indexing is tau -> T* - tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import HybridSystemDef
from .errors import ClosureError, PreconditionError, SieError
from .events import check_reset_side
from .flow import FlowSegment, IntegratorConfig, integrate
from .poincare import StabilityReport, SurfaceChart, zero_inputs

_CLOSURE_REL = 1e-8
_DS_MAX_REL = 1e-3
_TAU_TOL_REL = 1e-12
_TAU_SET_TOL = 1e-9
_BLOCK_ELEMENTS = 1 << 15  # row-chord pairs per nearest_chords block
_REFINE_ROUNDS = 6


class UpperBoundViolation(SieError):
    """dist(x, orbit) exceeded ||x - x*||; analytically impossible, so this
    always indicates a distance-query defect."""

    def __init__(self, x, excess: float, report=None):
        self.x = x
        self.excess = excess
        self.report = report
        super().__init__(f"orbit distance exceeds fixed-point distance by {excess:.3g} at {x!r}")


@dataclass(frozen=True)
class PeriodicOrbit:
    x_star: np.ndarray
    t_star: float
    segment: FlowSegment
    taus: np.ndarray     # refined, ascending, taus[0] = 0, taus[-1] = t_star
    points: np.ndarray   # points[i] = y(taus[i])
    diameter: float
    ds_max: float

    def eval(self, tau: float) -> np.ndarray:
        return self.segment.eval(min(max(tau, 0.0), self.t_star))

    def eval_many(self, taus: np.ndarray) -> np.ndarray:
        return self.segment.eval_many(np.clip(taus, 0.0, self.t_star))

    # -- polyline machinery -------------------------------------------------

    def coarse_distances(self, x: np.ndarray) -> np.ndarray:
        """Distance from x to every chord of the sample polyline."""
        return np.sqrt(_chord_sq_distances(self.points, np.asarray(x, dtype=float)[None, :])[0])


def _chord_sq_distances(points: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Squared distance from each row of xs to each chord of the polyline
    through points, shape (len(xs), len(points) - 1).  A zero-length chord
    (a repeated sample) counts as its endpoint.  Works one coordinate at a
    time on (rows, chords) arrays, in place where it can."""
    p = points[:-1]
    d = points[1:] - p
    denom = np.einsum("ij,ij->i", d, d)
    denom[denom == 0.0] = 1.0
    # s: clipped projection parameter of x onto each chord
    s = (xs[:, 0, None] - p[:, 0]) * d[:, 0]
    for j in range(1, points.shape[1]):
        s += (xs[:, j, None] - p[:, j]) * d[:, j]
    s /= denom
    np.clip(s, 0.0, 1.0, out=s)
    out = np.zeros_like(s)
    for j in range(points.shape[1]):
        diff = s * d[:, j]
        diff += p[:, j]
        np.subtract(xs[:, j, None], diff, out=diff)
        diff *= diff
        out += diff
    return out


def nearest_chords(points: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index and distance of the nearest polyline chord for each row of xs.

    Rows go through `_chord_sq_distances` in blocks of at most
    _BLOCK_ELEMENTS row-chord pairs, keeping only each row's minimum, so
    memory stays flat however many rows there are.
    """
    rows = max(1, _BLOCK_ELEMENTS // (len(points) - 1))
    idx = np.empty(len(xs), dtype=np.intp)
    sq = np.empty(len(xs))
    for lo in range(0, len(xs), rows):
        chord = _chord_sq_distances(points, xs[lo:lo + rows])
        best = np.argmin(chord, axis=1)
        idx[lo:lo + rows] = best
        sq[lo:lo + rows] = chord[np.arange(len(best)), best]
    return idx, np.sqrt(sq)


def build_orbit(sys: HybridSystemDef, report: StabilityReport,
                cfg: IntegratorConfig | None = None) -> PeriodicOrbit:
    """Integrate the zero-input flow from the reset image over one period and
    refine samples until consecutive points are closer than ds_max, which is
    _DS_MAX_REL times the orbit diameter.

    Raises ClosureError when the flow fails to return to the fixed point,
    which indicates a stale or unconverged report.
    """
    if not report.newton_residuals:
        raise PreconditionError("build_orbit needs a converged report")
    cfg = (cfg or IntegratorConfig()).tightened(1e-12, 1e-14)
    u0, v0 = zero_inputs(sys)
    x_star = np.asarray(report.x_star, dtype=float)
    x_plus = sys.eval_delta(x_star, v0)
    check_reset_side(sys, x_plus)
    seg = integrate(sys, x_plus, u0, (0.0, report.t_star), cfg)
    closure = float(np.linalg.norm(seg.ys[-1] - x_star))
    scale = max(1.0, float(np.linalg.norm(x_star)))
    if closure > _CLOSURE_REL * scale:
        raise ClosureError(
            f"orbit endpoint misses the fixed point by {closure:.3g} "
            f"(tolerance {_CLOSURE_REL * scale:.3g}); report may be stale")

    nodes = np.concatenate([seg.ts, [report.t_star]])
    pts = seg.eval_many(nodes)
    diff = pts[:, None, :] - pts[None, :, :]
    diameter = float(np.sqrt(np.max(np.einsum("ijk,ijk->ij", diff, diff))))
    if diameter <= 0.0:
        raise ClosureError("orbit has zero diameter")
    ds_max = _DS_MAX_REL * diameter

    # split the step intervals one level at a time, every live interval in
    # one batch; the leaves sorted by their right ends are the depth-first
    # order of the recursive split
    taus = [np.zeros(1)]
    points = [seg.ys[:1]]
    a, b = nodes[:-1], nodes[1:]
    while len(a):
        yb = seg.eval_many(b)
        split = ((np.linalg.norm(yb - seg.eval_many(a), axis=1) > ds_max)
                 & ((b - a) > 1e-13 * report.t_star))
        taus.append(b[~split])
        points.append(yb[~split])
        a, b = a[split], b[split]
        mid = 0.5 * (a + b)
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
    taus = np.concatenate(taus)
    order = np.argsort(taus, kind="stable")
    return PeriodicOrbit(x_star=x_star, t_star=report.t_star, segment=seg,
                         taus=taus[order], points=np.vstack(points)[order],
                         diameter=diameter, ds_max=ds_max)


def _golden_refine(orbit: PeriodicOrbit, x: np.ndarray, lo: float, hi: float) -> tuple[float, float]:
    """Minimize ||x - y(tau)||^2 on [lo, hi]: golden section to the tau
    tolerance, then one parabolic polish step."""

    def g(tau: float) -> float:
        d = x - orbit.eval(tau)
        return float(d @ d)

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    tol = _TAU_TOL_REL * max(1.0, orbit.t_star)
    c = b - invphi * (b - a)
    d_ = a + invphi * (b - a)
    gc, gd = g(c), g(d_)
    while (b - a) > tol:
        if gc < gd:
            b, d_, gd = d_, c, gc
            c = b - invphi * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d_, gd
            d_ = a + invphi * (b - a)
            gd = g(d_)
    tau = 0.5 * (a + b)
    # parabolic polish through three nearby samples
    h = max(tol, 1e-9 * max(1.0, orbit.t_star))
    t0, t1, t2 = max(lo, tau - h), tau, min(hi, tau + h)
    if t0 < t1 < t2:
        g1 = g(t1)
        t_par = float(_parabolic_min((t0, t1, t2), (g(t0), g1, g(t2))))
        if t_par != t1 and lo <= t_par <= hi and g(t_par) < g1:
            tau = t_par
    return tau, math.sqrt(g(tau))


def _parabolic_min(ts, gs):
    """Vertex of the parabola through three (t, g) samples, elementwise
    when each of the three is an array; the middle t on degenerate input."""
    (t0, t1, t2), (g0, g1, g2) = ts, gs
    denom = (t1 - t0) * (g1 - g2) - (t1 - t2) * (g1 - g0)
    flat = denom == 0.0
    num = (t1 - t0) ** 2 * (g1 - g2) - (t1 - t2) ** 2 * (g1 - g0)
    return np.where(flat, t1, t1 - 0.5 * num / np.where(flat, 1.0, denom))


def refine_distance(orbit: PeriodicOrbit, xs: np.ndarray, i_chords: np.ndarray) -> np.ndarray:
    """Cheap sharpening of the polyline distance of each row of xs near its
    chord i_chords[k]: rounds of parabolic interpolation of
    ||x - y(tau)||^2 on the dense interpolant, for all rows at once.  Always
    an overestimate of the true curve distance (it evaluates actual curve
    points), accurate to far below the chord sag."""
    xs = np.asarray(xs, dtype=float)
    i_chords = np.asarray(i_chords, dtype=np.intp)

    def g(rows: np.ndarray, taus: np.ndarray) -> np.ndarray:
        d = xs[rows] - orbit.eval_many(taus)
        return np.einsum("ij,ij->i", d, d)

    lo = orbit.taus[np.maximum(i_chords - 1, 0)]
    hi = orbit.taus[np.minimum(i_chords + 2, len(orbit.taus) - 1)]
    rows = np.arange(len(xs))
    ts = np.stack([lo, 0.5 * (lo + hi), hi])
    gs = g(np.tile(rows, 3), ts.ravel()).reshape(3, -1)
    first = np.argmin(gs, axis=0)
    best_t = ts[first, rows]
    best_g = gs[first, rows]
    width = 0.5 * (hi - lo)
    stop = 1e-12 * max(1.0, orbit.t_star)
    # each round re-centers on the parabola vertex and shrinks the stencil,
    # so the cubic-term bias of a single fit dies off geometrically; a row
    # stops once its stencil is below the tau resolution
    for round_ in range(_REFINE_ROUNDS):
        if round_:
            mid = best_t[rows]
            ts = np.stack([np.maximum(lo[rows], mid - width), mid,
                           np.minimum(hi[rows], mid + width)])
            g_side = g(np.tile(rows, 2), ts[[0, 2]].ravel()).reshape(2, -1)
            gs = np.stack([g_side[0], best_g[rows], g_side[1]])
        t_new = np.clip(_parabolic_min(ts, gs), lo[rows], hi[rows])
        g_new = g(rows, t_new)
        better = g_new < best_g[rows]
        best_t[rows[better]] = t_new[better]
        best_g[rows[better]] = g_new[better]
        width = 0.15 * width
        live = width >= stop
        rows, width = rows[live], width[live]
        if not rows.size:
            break
    return np.sqrt(best_g)


def dist_to_orbit(orbit: PeriodicOrbit, x: np.ndarray) -> tuple[float, list[float]]:
    """Distance from x to the orbit closure and the set of parameter values
    realizing it.

    The coarse polyline minimum brackets the candidates; each bracket is
    refined on the dense interpolant.  The endpoint tau = T* (the fixed
    point itself) is always a candidate, so closure points are included.
    Total: never raises.
    """
    x = np.asarray(x, dtype=float)
    chord = orbit.coarse_distances(x)
    d_min = float(np.min(chord))
    # every chord whose distance could hide the true minimum gets refined,
    # with contiguous candidate chords merged into one bracket
    cand = np.flatnonzero(chord <= d_min + orbit.ds_max)
    runs: list[tuple[int, int]] = []
    for i in cand:
        if runs and i == runs[-1][1] + 1:
            runs[-1] = (runs[-1][0], int(i))
        else:
            runs.append((int(i), int(i)))
    best: list[tuple[float, float]] = []
    for i0, i1 in runs:
        lo = orbit.taus[max(i0 - 1, 0)]
        hi = orbit.taus[min(i1 + 2, len(orbit.taus) - 1)]
        best.append(_golden_refine(orbit, x, lo, hi))
    for tau_end in (0.0, orbit.t_star):
        d_end = float(np.linalg.norm(x - orbit.eval(tau_end)))
        best.append((tau_end, d_end))
    d = min(b[1] for b in best)
    near = sorted(t for t, dv in best if dv <= d + _TAU_SET_TOL)
    tau_set: list[float] = []
    for t in near:
        if not tau_set or t - tau_set[-1] > _TAU_SET_TOL:
            tau_set.append(t)
    return d, tau_set


@dataclass(frozen=True)
class Prop1Report:
    """Empirical certificate of the two-sided distance comparison on S.

    ratio_min is the smallest observed dist(x, orbit) / ||x - x*|| over the
    sample set (the empirical stand-in for the existential contraction
    constant); the upper bound dist <= ||x - x*|| is unconditional, so any
    violation is counted as a bug signal.  excluded counts the samples within
    1e-12 of x*: they are in n_samples but not in the ratio statistics.
    """

    ratio_min: float
    violations: int
    upper_margin: float
    n_samples: int
    radii: tuple[float, ...]
    seed: int
    per_radius_ratio_min: tuple[float, ...]
    excluded: int


def certify_prop1(orbit: PeriodicOrbit, sys: HybridSystemDef, n_samples: int,
                  radii: tuple[float, ...] | None = None, seed: int = 0,
                  far_field: bool = True) -> Prop1Report:
    """Sample the surface around the fixed point at a schedule of radii and
    check the distance sandwich on every sample.

    Raises UpperBoundViolation (report attached) if any sample has orbit
    distance above its fixed-point distance plus 1e-9.
    """
    if n_samples < 1:
        raise PreconditionError("need at least one sample")
    if radii is None:
        radii = tuple(r * orbit.diameter for r in (1e-3, 1e-2, 1e-1, 1.0))
        if far_field:
            radii = radii + tuple(r * orbit.diameter for r in (10.0, 100.0, 1000.0))
    chart = SurfaceChart.build(sys, orbit.x_star)
    z_star = chart.project(orbit.x_star)
    rng = np.random.default_rng(seed)
    per_radius = n_samples // len(radii) + (1 if n_samples % len(radii) else 0)

    ratio_min = math.inf
    worst_margin = -math.inf
    violations = 0
    first_violation = None
    used = 0
    excluded = 0
    per_radius_min = []
    for r in radii:
        r_min = math.inf
        for _ in range(per_radius):
            if used >= n_samples:
                break
            direction = rng.normal(size=z_star.size)
            nrm = float(np.linalg.norm(direction))
            if nrm == 0.0:
                continue
            x = chart.embed(z_star + (r / nrm) * direction)
            dx = float(np.linalg.norm(x - orbit.x_star))
            used += 1
            if dx < 1e-12:
                excluded += 1
                continue
            d, _ = dist_to_orbit(orbit, x)
            margin = d - dx
            worst_margin = max(worst_margin, margin)
            if margin > 1e-9:
                violations += 1
                if first_violation is None:
                    first_violation = (x, margin)
            ratio = d / dx
            ratio_min = min(ratio_min, ratio)
            r_min = min(r_min, ratio)
        per_radius_min.append(r_min)
    report = Prop1Report(ratio_min=ratio_min, violations=violations,
                         upper_margin=worst_margin, n_samples=used,
                         radii=tuple(radii), seed=seed,
                         per_radius_ratio_min=tuple(per_radius_min),
                         excluded=excluded)
    if violations:
        x_bad, excess = first_violation
        raise UpperBoundViolation(x_bad, excess, report)
    return report
