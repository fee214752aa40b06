"""The periodic orbit as a geometric object: dense parameterization, a
refined sample polyline for output, nearest-point queries that start on the
chords between the integrator's step nodes, and the empirical
distance-sandwich certificate relating on-surface distance to distance from
the fixed point.

The orbit is parameterized forward in time from the post-reset point, so
tau runs over [0, T*] with y(0) the reset image and y(T*) the fixed point;
the equivalent backward indexing is tau -> T* - tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import HybridSystemDef
from .errors import ClosureError, PreconditionError, SieError
from .flow import FlowSegment
from .poincare import StabilityReport, SurfaceChart

_CLOSURE_REL = 1e-8
_DS_MAX_REL = 1e-3
_TAU_TOL_REL = 1e-12
_TAU_SET_TOL = 1e-9
_BLOCK_ELEMENTS = 1 << 15  # point pairs per block of the diameter; nearest_chords takes 1/4
_NEWTON_MAX_ITERS = 100  # bisecting a whole period to the tau tolerance takes 40


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
    taus: np.ndarray     # output only: refined, ascending, taus[0] = 0, taus[-1] = t_star
    points: np.ndarray   # points[i] = y(taus[i])
    diameter: float
    ds_max: float

    def eval(self, tau: float) -> np.ndarray:
        return self.segment.eval(min(max(tau, 0.0), self.t_star))

    @cached_property
    def chords(self) -> Chords:
        """The chords between the segment's step nodes, ending at T*."""
        return Chords.of(np.append(self.segment.ts, self.segment.t1), self.segment.ys)


@dataclass(frozen=True)
class Chords:
    """The chords of a polyline through points[i] = y(taus[i]), built once
    per polyline: start points, direction vectors and squared lengths, one
    contiguous array per coordinate.  A zero-length chord (a repeated
    point) gets squared length 1, so it counts as its start point."""

    taus: np.ndarray
    points: np.ndarray
    starts: tuple[np.ndarray, ...]
    dirs: tuple[np.ndarray, ...]
    sq_lengths: np.ndarray

    @classmethod
    def of(cls, taus: np.ndarray, points: np.ndarray) -> "Chords":
        p = points[:-1]
        d = points[1:] - p
        sq = np.einsum("ij,ij->i", d, d)
        sq[sq == 0.0] = 1.0
        return cls(taus=taus, points=points, starts=tuple(np.ascontiguousarray(c) for c in p.T),
                   dirs=tuple(np.ascontiguousarray(c) for c in d.T), sq_lengths=sq)


def _chord_sq_distances(chords: Chords, xs: np.ndarray) -> np.ndarray:
    """Squared distance from each row of xs to each chord, shape
    (len(xs), number of chords).  Works one coordinate at a time on
    (rows, chords) arrays, in place where it can."""
    p, d = chords.starts, chords.dirs
    # s: clipped projection parameter of x onto each chord
    s = (xs[:, 0, None] - p[0]) * d[0]
    for j in range(1, len(p)):
        s += (xs[:, j, None] - p[j]) * d[j]
    s /= chords.sq_lengths
    np.clip(s, 0.0, 1.0, out=s)
    out = np.zeros_like(s)
    for j in range(len(p)):
        diff = s * d[j]
        diff += p[j]
        np.subtract(xs[:, j, None], diff, out=diff)
        diff *= diff
        out += diff
    return out


def nearest_chords(chords: Chords, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index and distance of the nearest chord for each row of xs, the
    first one on a tie: the argmin of `_chord_sq_distances`, in row blocks
    of at most a quarter of _BLOCK_ELEMENTS row-chord pairs, so memory stays
    flat however many rows there are."""
    idx = np.empty(len(xs), dtype=np.intp)
    sq = np.empty(len(xs))
    rows = max(1, _BLOCK_ELEMENTS // (4 * len(chords.sq_lengths)))
    for lo in range(0, len(xs), rows):
        chord = _chord_sq_distances(chords, xs[lo:lo + rows])
        idx[lo:lo + rows] = np.argmin(chord, axis=1)
        sq[lo:lo + rows] = np.min(chord, axis=1)
    return idx, np.sqrt(sq)


def build_orbit(sys: HybridSystemDef, report: StabilityReport) -> PeriodicOrbit:
    """Sample the report's orbit segment, the zero-input flow from the reset
    image of x* over one period that `find_fixed_point` integrated, and
    refine the samples until consecutive points are closer than ds_max,
    which is _DS_MAX_REL times the orbit diameter.  Nothing is integrated.

    Raises ClosureError when the segment fails to return to the fixed point,
    which indicates a stale or unconverged report.
    """
    if not report.newton_residuals or report.segment is None:
        raise PreconditionError("build_orbit needs a converged report with its orbit segment")
    seg = report.segment
    x_star = np.asarray(report.x_star, dtype=float)
    closure = float(np.linalg.norm(seg.ys[-1] - x_star))
    scale = max(1.0, float(np.linalg.norm(x_star)))
    if closure > _CLOSURE_REL * scale:
        raise ClosureError(
            f"orbit endpoint misses the fixed point by {closure:.3g} "
            f"(tolerance {_CLOSURE_REL * scale:.3g}); report may be stale")

    nodes = np.concatenate([seg.ts, [report.t_star]])
    pts = seg.eval_many(nodes)
    # the widest pair of nodes, in row blocks of _BLOCK_ELEMENTS pairs so
    # memory stays linear in the node count
    rows = max(1, _BLOCK_ELEMENTS // len(pts))
    widest = 0.0
    for i in range(0, len(pts), rows):
        diff = pts[i:i + rows, None, :] - pts[None, :, :]
        widest = max(widest, float(np.max(np.einsum("ijk,ijk->ij", diff, diff))))
    diameter = math.sqrt(widest)
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


def _g_terms(x, y, dy, ddy):
    """g = ||r||^2 and half of g' and g'' for r = x - y(tau), summed one
    coordinate at a time in coordinate order, for floats or columns."""
    rr = r_dy = dy_dy = r_ddy = 0.0
    for xj, yj, dyj, ddyj in zip(x, y, dy, ddy):
        r = xj - yj
        rr = rr + r * r
        r_dy = r_dy + r * dyj
        dy_dy = dy_dy + dyj * dyj
        r_ddy = r_ddy + r * ddyj
    return rr, -r_dy, dy_dy - r_ddy


def _sq_norm(coords):
    """Sum of squares of coords in coordinate order, for floats or columns."""
    out = 0.0
    for c in coords:
        out = out + c * c
    return out


def _newton_refine(orbit: PeriodicOrbit, x: np.ndarray, j0: int, j1: int) -> tuple[float, float]:
    """Minimize g(tau) = ||x - y(tau)||^2 on [taus[j0], taus[j1]] of the
    orbit's chords: Newton's method on the step quartic's jet from the
    bracket's nearest node, bisecting whenever the step leaves the bracket
    or g'' <= 0, down to the tau tolerance.  Returns (tau, distance) of the
    best point evaluated, the bracket's nodes (its two ends among them)
    included.  Runs on Python floats: no array call per iterate."""
    x = x.tolist()
    taus = orbit.chords.taus[j0:j1 + 1].tolist()
    points = orbit.chords.points[j0:j1 + 1].tolist()
    node_g = [_sq_norm([xj - pj for xj, pj in zip(x, p)]) for p in points]
    k = min(range(len(node_g)), key=node_g.__getitem__)  # the first on a tie, as argmin
    best_g, best_t = node_g[k], taus[k]
    a, b = taus[0], taus[-1]
    tau = best_t
    tol = _TAU_TOL_REL * max(1.0, orbit.t_star)
    jet = orbit.segment._jet
    for _ in range(_NEWTON_MAX_ITERS):
        g, slope, curv = _g_terms(x, *jet(tau))
        if g < best_g:
            best_g, best_t = g, tau
        # [a, b] keeps g' < 0 at a and g' > 0 at b
        if slope < 0.0:
            a = tau
        elif slope > 0.0:
            b = tau
        nxt = tau - slope / curv if curv > 0.0 else math.nan
        if not a < nxt < b:  # also NaN
            nxt = 0.5 * (a + b)
        if abs(nxt - tau) <= tol:
            break
        tau = nxt
    return best_t, math.sqrt(best_g)


def _newton_refine_many(orbit: PeriodicOrbit, xs: np.ndarray, j0: np.ndarray,
                        j1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_newton_refine` of each row of xs on its own bracket
    [taus[j0[k]], taus[j1[k]]] (at most four nodes), all rows at once:
    the same float expressions on columns, one per iteration for every live
    row, and a row stops on its own, so each row repeats the scalar result
    bit for bit."""
    taus, points = orbit.chords.taus, orbit.chords.points
    # the bracket's nodes, its last one repeated in a shorter bracket
    js = np.minimum(j0[:, None] + np.arange(4), j1[:, None])
    node_g = _sq_norm(np.moveaxis(xs[:, None, :] - points[js], -1, 0))
    rows = np.arange(len(xs))
    k = np.argmin(node_g, axis=1)
    best_g = node_g[rows, k]
    best_t = taus[js[rows, k]]
    a, b = taus[j0], taus[j1]
    tau = best_t.copy()
    tol = _TAU_TOL_REL * max(1.0, orbit.t_star)
    for _ in range(_NEWTON_MAX_ITERS):
        if not rows.size:
            break
        g, slope, curv = _g_terms(xs[rows].T, *orbit.segment._column_jet(tau))
        better = g < best_g[rows]
        best_g[rows[better]] = g[better]
        best_t[rows[better]] = tau[better]
        a = np.where(slope < 0.0, tau, a)
        b = np.where(slope > 0.0, tau, b)
        nxt = tau - np.divide(slope, curv, out=np.full_like(tau, math.nan), where=curv > 0.0)
        nxt = np.where((a < nxt) & (nxt < b), nxt, 0.5 * (a + b))
        live = np.abs(nxt - tau) > tol
        rows, tau, a, b = rows[live], nxt[live], a[live], b[live]
    return best_t, np.sqrt(best_g)


def refine_distance(orbit: PeriodicOrbit, xs: np.ndarray, i_chords: np.ndarray) -> np.ndarray:
    """Distance from each row of xs to the orbit near its chord i_chords[k]:
    the safeguarded Newton of `dist_to_orbit` on [taus[i - 1], taus[i + 2]],
    batched over the rows."""
    i = np.asarray(i_chords, dtype=np.intp)
    return _newton_refine_many(orbit, np.asarray(xs, dtype=float), np.maximum(i - 1, 0),
                               np.minimum(i + 2, len(orbit.chords.taus) - 1))[1]


def dist_to_orbit(orbit: PeriodicOrbit, x: np.ndarray) -> tuple[float, list[float]]:
    """Distance from x to the orbit closure and the set of parameter values
    realizing it: the least of the distances to the orbit's ends, tau = 0
    and tau = T* (the fixed point), and of the safeguarded Newton on the
    bracket [taus[i - 1], taus[i + 2]] of the chord i that `nearest_chords`
    gives x, and on the other end chord's too when i is an end chord, where
    an identity reset closes the orbit.  Raises PreconditionError unless x
    is a finite point of shape (n,)."""
    try:
        x = np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise PreconditionError(f"query point is not numeric: {exc}") from exc
    if x.shape != orbit.x_star.shape or not np.isfinite(x).all():
        raise PreconditionError(f"query point must be finite of shape {orbit.x_star.shape}")
    i = int(nearest_chords(orbit.chords, x[None, :])[0][0])
    last = len(orbit.chords.taus) - 2  # index of the last chord
    best = [_newton_refine(orbit, x, max(j - 1, 0), min(j + 2, last + 1))
            for j in ([i, last - i] if i in (0, last) else [i])]
    x = x.tolist()
    for t, p in ((0.0, orbit.chords.points[0]), (orbit.t_star, orbit.chords.points[-1])):
        best.append((t, math.sqrt(_sq_norm([xj - pj for xj, pj in zip(x, p.tolist())]))))
    d = min(b[1] for b in best)
    near = sorted(t for t, dv in best if dv <= d + _TAU_SET_TOL)
    tau_set: list[float] = []
    for t in near:
        if not tau_set or t - tau_set[-1] > _TAU_SET_TOL:
            tau_set.append(t)
    return d, tau_set


def orbital_deviations(orbit: PeriodicOrbit, xs: np.ndarray) -> np.ndarray:
    """`dist_to_orbit`'s distance for each row of xs, bit for bit: the same
    candidates, through the batched Newton."""
    i_chord, _ = nearest_chords(orbit.chords, xs)
    last = len(orbit.chords.taus) - 2  # index of the last chord
    at_end = np.flatnonzero((i_chord == 0) | (i_chord == last))
    d = refine_distance(orbit, np.concatenate([xs, xs[at_end]]),
                        np.concatenate([i_chord, last - i_chord[at_end]]))
    dev = d[:len(xs)]
    dev[at_end] = np.minimum(dev[at_end], d[len(xs):])
    for p in orbit.chords.points[[0, -1]]:  # dist_to_orbit's expression, on columns
        dev = np.minimum(dev, np.sqrt(_sq_norm((xs - p).T)))
    return dev


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
    check the distance sandwich on every sample: draw every sample, query
    the orbit distance of each one not within 1e-12 of x*, then reduce.

    Raises UpperBoundViolation (report attached) if any sample has orbit
    distance above its fixed-point distance plus 1e-9.
    """
    if not all(isinstance(v, (int, np.integer)) for v in (n_samples, seed)):
        raise PreconditionError("n_samples and seed must be integers")
    if n_samples < 1:
        raise PreconditionError("need at least one sample")
    if radii is None:
        radii = tuple(r * orbit.diameter for r in (1e-3, 1e-2, 1e-1, 1.0))
        if far_field:
            radii = radii + tuple(r * orbit.diameter for r in (10.0, 100.0, 1000.0))
    if not radii or not all(map(math.isfinite, radii)):
        raise PreconditionError("need at least one radius, all finite")
    chart = SurfaceChart.build(sys, orbit.x_star)
    z_star = chart.project(orbit.x_star)
    if not z_star.size:
        raise PreconditionError("the surface is a point: no directions to sample")
    rng = np.random.default_rng(seed)
    per_radius = -(-n_samples // len(radii))
    # sample j lies at radius j // per_radius; a zero direction (no unit vector) is redrawn
    xs = np.empty((n_samples, orbit.x_star.size))
    for j in range(n_samples):
        nrm = 0.0
        while nrm == 0.0:
            direction = rng.normal(size=z_star.size)
            nrm = float(np.linalg.norm(direction))
        xs[j] = chart.embed(z_star + (radii[j // per_radius] / nrm) * direction)

    dx = np.fromiter((np.linalg.norm(x - orbit.x_star) for x in xs), float, len(xs))
    kept = np.flatnonzero(dx >= 1e-12)
    d = np.fromiter((dist_to_orbit(orbit, xs[j])[0] for j in kept), float, len(kept))

    margin, ratio = d - dx[kept], d / dx[kept]
    per_radius_min = np.full(len(radii), math.inf)
    np.minimum.at(per_radius_min, kept // per_radius, ratio)
    bad = np.flatnonzero(margin > 1e-9)
    report = Prop1Report(ratio_min=float(ratio.min(initial=math.inf)), violations=len(bad),
                         upper_margin=float(margin.max(initial=-math.inf)),
                         n_samples=len(xs), radii=tuple(radii), seed=seed,
                         per_radius_ratio_min=tuple(per_radius_min.tolist()),
                         excluded=len(xs) - len(kept))
    if len(bad):
        raise UpperBoundViolation(xs[kept[bad[0]]], float(margin[bad[0]]), report)
    return report
