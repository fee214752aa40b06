"""Empirical input-to-state stability experiments.

A sweep runs seeded trials over a grid of initial offsets and input
amplitudes, records the discrete deviation at each section crossing and the
supremum orbital deviation over each inter-crossing window, and summarizes
each cell by the median (over trials) of the post-transient maximum.  Decay
rates on zero-input runs are fitted with the exponential ansatz that strict
contraction of the section map justifies; gains are summarized by the
linear fit through the origin that the local theory suggests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import _rng
from .core import ContinuousSignal, DiscreteSequence, HybridSystemDef, surface_tol
from .errors import FitDegenerate, PreconditionError
from .flow import IntegratorConfig
from .hybrid import GuardConfig, HybridTrajectory, simulate
from .orbit import PeriodicOrbit, orbital_deviations
from .poincare import StabilityReport

_ZERO_FLOOR = 1e-6
_FIT_FLOOR = 1e-9  # decay-fit points at or below this are integration noise
_N_BOOT = 300
# trial outcomes a cell tallies instead of measuring, in the column order of cells.csv
TALLIED_OUTCOMES = ("zeno-guard", "beating-guard", "escape", "error", "no-post-transient")


@dataclass(frozen=True)
class SweepConfig:
    offsets: tuple[float, ...]
    u_amps: tuple[float, ...]
    v_amps: tuple[float, ...]
    trials: int = 20
    horizon_periods: float = 30.0
    transient_cutoff: float = 0.5
    seed: int = 0
    u_template: ContinuousSignal | None = None  # unit-amplitude shape; default sinusoid omega=4
    samples_per_step: int = 24  # samples per inter-impact window, not per integrator step
    pair_uv: bool = False  # zip u_amps with v_amps instead of crossing them

    def __post_init__(self):
        for name in ("offsets", "u_amps", "v_amps"):
            vals = getattr(self, name)
            if not vals:
                raise PreconditionError(f"{name} must be non-empty")
            if not all(v >= 0 for v in vals) or list(vals) != sorted(vals):
                raise PreconditionError(f"{name} must be nonnegative and ascending")
        if not (0.0 < self.transient_cutoff < 1.0):
            raise PreconditionError("transient_cutoff must lie in (0, 1)")
        ints = (self.trials, self.samples_per_step, self.seed)
        if not all(isinstance(v, (int, np.integer)) for v in ints):
            raise PreconditionError("trials, samples_per_step and seed must be integers")
        if self.trials < 1 or self.samples_per_step < 1 or not 0 < self.horizon_periods < math.inf:
            raise PreconditionError("trials and samples_per_step must be positive, "
                                    "horizon_periods positive and finite")
        if self.pair_uv and len(self.u_amps) != len(self.v_amps):
            raise PreconditionError("pair_uv needs matching u_amps and v_amps lengths")

    def cells(self) -> list[tuple[float, float, float]]:
        if self.pair_uv:
            return [(o, ua, va) for o in self.offsets
                    for ua, va in zip(self.u_amps, self.v_amps)]
        return [(o, ua, va) for o in self.offsets
                for ua in self.u_amps for va in self.v_amps]


@dataclass(frozen=True)
class TrialSeries:
    """Raw per-trial deviation records kept for decay fits and bootstraps."""

    impact_times: np.ndarray
    discrete_dev: np.ndarray       # ||x_k - x*|| at each crossing
    window_times: np.ndarray       # left edge of each inter-crossing window
    orbital_sup: np.ndarray        # sup of dist(x(t), orbit) over each window


@dataclass(frozen=True)
class CellResult:
    offset: float
    u_amp: float
    v_amp: float
    ultimate_orbital: float
    ultimate_discrete: float
    peak: float
    per_trial_orbital: tuple[float, ...]
    per_trial_discrete: tuple[float, ...]
    guard_tallies: dict = field(default_factory=dict)
    series: tuple[TrialSeries, ...] = ()


@dataclass(frozen=True)
class IssSweepReport:
    cells: tuple[CellResult, ...]
    seed: int
    trials: int
    horizon_periods: float
    transient_cutoff: float
    t_star: float

    def cell(self, offset: float, u_amp: float, v_amp: float) -> CellResult:
        for c in self.cells:
            if (c.offset, c.u_amp, c.v_amp) == (offset, u_amp, v_amp):
                return c
        raise KeyError((offset, u_amp, v_amp))


def _orbital_deviation(orbit: PeriodicOrbit, x: np.ndarray) -> float:
    return float(orbital_deviations(orbit, np.asarray(x, dtype=float)[None, :])[0])


def _window_sups(orbit: PeriodicOrbit, traj: HybridTrajectory, edges: np.ndarray,
                 n_samples: int) -> np.ndarray:
    """Sampled sup of dist(x(t), orbit) over each half-open window
    [edges[i], edges[i+1]): at the right edge the right-continuous
    trajectory already holds the next window's post-reset state.  The sample
    times are np.linspace(lo, hi, n_samples, endpoint=False) per window,
    computed with the same arithmetic for all windows at once."""
    lo = edges[:-1, None]
    ts = np.arange(n_samples) * ((edges[1:, None] - lo) / n_samples) + lo
    dev = orbital_deviations(orbit, traj.eval_many(ts.ravel()))
    return np.max(dev.reshape(ts.shape), axis=1)


def _initial_state(orbit: PeriodicOrbit, sys: HybridSystemDef, offset: float,
                   rng: np.random.Generator) -> np.ndarray:
    for _ in range(32):
        tau = rng.uniform(0.0, orbit.t_star)
        base = orbit.eval(tau)
        direction = rng.normal(size=sys.n)
        nrm = float(np.linalg.norm(direction))
        if nrm == 0.0:
            continue
        x0 = base + (offset / nrm) * direction
        if sys.eval_h(x0) > surface_tol(x0):
            return x0
        x0 = base - (offset / nrm) * direction
        if sys.eval_h(x0) > surface_tol(x0):
            return x0
    raise PreconditionError(f"could not place an initial state at offset {offset}")


def _trial_inputs(sys: HybridSystemDef, sweep: SweepConfig, u_amp: float,
                  v_amp: float, trial_seed: int,
                  rng: np.random.Generator) -> tuple[ContinuousSignal, DiscreteSequence]:
    template = sweep.u_template or ContinuousSignal.sinusoid([1.0] + [0.0] * (sys.p - 1), omega=4.0)
    u = template.scaled(u_amp)
    if template.kind == "sinusoid" and template.omega > 0.0:
        u = u.shifted(rng.uniform(0.0, 2.0 * math.pi / template.omega))
    vbar = DiscreteSequence.iid_uniform(v_amp, seed=trial_seed, dim=sys.q)
    return u, vbar


def run_sweep(sys: HybridSystemDef, orbit: PeriodicOrbit, report: StabilityReport,
              sweep: SweepConfig, cfg: IntegratorConfig | None = None,
              guards: GuardConfig | None = None) -> IssSweepReport:
    """Simulate every cell of the sweep grid and summarize deviations.

    Guard terminations are tallied per cell, never aborting the sweep; an
    automatic dwell floor is 1e-6 T* of the report's period.  The
    per-trial RNG is derived from (seed, offset index, trial), so results do
    not depend on execution order, and every cell at one offset replays the
    same start states, u phases and unit v draws, each scaled by its own
    amplitudes: cells compare paired trials (common random numbers), not
    independent draws.  Raw deviation series are kept only for zero-input
    cells, which is what the decay fits need.
    """
    cfg = cfg or IntegratorConfig()
    x_star = report.x_star
    t_star = report.t_star
    t_final = sweep.horizon_periods * t_star
    t_post = sweep.transient_cutoff * t_final
    guards = replace(guards or GuardConfig(), t_star=t_star)
    cells: list[CellResult] = []
    grid = sweep.cells()
    per_offset = len(grid) // len(sweep.offsets)  # cells() runs offset by offset
    for cell_index, (offset, u_amp, v_amp) in enumerate(grid):
        trial_orb: list[float] = []
        trial_disc: list[float] = []
        peak = 0.0
        tallies = dict.fromkeys(TALLIED_OUTCOMES, 0)
        series: list[TrialSeries] = []
        keep = u_amp == 0.0 and v_amp == 0.0
        for trial in range(sweep.trials):
            tseed = _rng.derive_seed(sweep.seed, cell_index // per_offset, trial)
            rng = np.random.default_rng(tseed)
            x0 = _initial_state(orbit, sys, offset, rng)
            u, vbar = _trial_inputs(sys, sweep, u_amp, v_amp, tseed, rng)
            traj = simulate(sys, x0, u, vbar, t_final, guards, cfg)
            if traj.termination != "horizon-reached":
                tallies[traj.termination] = tallies.get(traj.termination, 0) + 1
                continue
            t_imp = traj.impact_times()
            disc = np.array([float(np.linalg.norm(imp.x_minus - x_star)) for imp in traj.impacts])
            edges = np.concatenate([[0.0], t_imp, [traj.t_final]])
            w_times = edges[:-1]
            orb = _window_sups(orbit, traj, edges, sweep.samples_per_step)
            mask_d = t_imp >= t_post
            mask_o = w_times >= t_post
            if not mask_d.any() or not mask_o.any():
                # the trial stopped returning to the surface (left the basin
                # of the hybrid orbit) or the horizon is too short; tally it
                # like a guard outcome rather than aborting the sweep
                tallies["no-post-transient"] += 1
                continue
            trial_disc.append(float(np.max(disc[mask_d])))
            trial_orb.append(float(np.max(orb[mask_o])))
            peak = max(peak, float(np.max(orb)), float(np.max(disc)))
            if keep:
                series.append(TrialSeries(impact_times=t_imp, discrete_dev=disc,
                                          window_times=w_times, orbital_sup=orb))
        cells.append(CellResult(
            offset=offset, u_amp=u_amp, v_amp=v_amp,
            ultimate_orbital=float(np.median(trial_orb)) if trial_orb else math.nan,
            ultimate_discrete=float(np.median(trial_disc)) if trial_disc else math.nan,
            peak=peak,
            per_trial_orbital=tuple(trial_orb),
            per_trial_discrete=tuple(trial_disc),
            guard_tallies=tallies,
            series=tuple(series),
        ))
    return IssSweepReport(cells=tuple(cells), seed=sweep.seed, trials=sweep.trials,
                          horizon_periods=sweep.horizon_periods,
                          transient_cutoff=sweep.transient_cutoff, t_star=t_star)


# ---------------------------------------------------------------------------
# decay fits


@dataclass(frozen=True)
class DecayFit:
    """Exponential-ansatz fit of zero-input deviation decay.

    Orbital: deviation decays like exp(-rate * t).  Discrete: deviation_k
    decays like ratio**k, with ratio = exp(-discrete rate).  The interval
    bounds are the shortest and longest gap between crossings.
    """

    rate: float
    ratio: float
    interval_min: float
    interval_max: float


def _fit_loglinear(xs: np.ndarray, ys: np.ndarray) -> float:
    """Slope of the least-squares line through (xs, log ys)."""
    A = np.vstack([xs, np.ones_like(xs)]).T
    coef, *_ = np.linalg.lstsq(A, np.log(ys), rcond=None)
    return float(coef[0])


def fit_decay(runs: list[TrialSeries]) -> DecayFit:
    """Least-squares exponential fits on zero-input runs, orbital and
    discrete, after clipping points at or below the numerical floor.

    Needs at least 5 runs with at least 10 usable crossings each.
    """
    if len(runs) < 5:
        raise FitDegenerate(f"need at least 5 runs, got {len(runs)}")

    def _usable(series: np.ndarray) -> np.ndarray:
        # trim both the hard floor and the flattened tail where the decay
        # has bottomed out on integration noise, which would bias the slope
        floor_eff = max(_FIT_FLOOR, 5.0 * float(np.min(series)))
        keep = series > floor_eff
        past_min = np.zeros_like(keep)
        past_min[int(np.argmin(series)):] = True
        return keep & ~past_min

    slopes_o, slopes_d = [], []
    intervals = []
    for run in runs:
        keep_d = _usable(run.discrete_dev)
        keep_o = _usable(run.orbital_sup)
        if int(np.sum(keep_d)) < 10 or int(np.sum(keep_o)) < 10:
            raise FitDegenerate(
                "fewer than 10 crossings above the numerical floor; re-run with a larger offset")
        ks = np.flatnonzero(keep_d).astype(float)
        slopes_d.append(_fit_loglinear(ks, run.discrete_dev[keep_d]))
        slopes_o.append(_fit_loglinear(run.window_times[keep_o], run.orbital_sup[keep_o]))
        if len(run.impact_times) >= 2:
            gaps = np.diff(run.impact_times)
            intervals.extend([float(np.min(gaps)), float(np.max(gaps))])
    rate = -float(np.mean(slopes_o))
    rate_d = -float(np.mean(slopes_d))
    return DecayFit(
        rate=rate,
        ratio=math.exp(-rate_d),
        interval_min=float(np.min(intervals)),
        interval_max=float(np.max(intervals)),
    )


@dataclass(frozen=True)
class GainFit:
    """Linear gain summary: ultimate bound ~ slope * amplitude, fitted
    through the origin (local theory gives linear bounds in the inputs)."""

    slope: float
    residual: float


def fit_gain(report: IssSweepReport, statistic: str = "discrete",
             axis: str = "u") -> GainFit:
    """Least-squares line through the origin of ultimate bound against one
    input-amplitude axis, over cells where the other axis is smallest."""
    if statistic not in ("discrete", "orbital"):
        raise PreconditionError("statistic must be 'discrete' or 'orbital'")
    if axis not in ("u", "v"):
        raise PreconditionError("axis must be 'u' or 'v'")
    other = (lambda c: c.v_amp) if axis == "u" else (lambda c: c.u_amp)
    amp = (lambda c: c.u_amp) if axis == "u" else (lambda c: c.v_amp)
    usable = [c for c in report.cells if not math.isnan(getattr(c, f"ultimate_{statistic}"))]
    if not usable:
        raise PreconditionError("no usable cells")
    floor_other = min(other(c) for c in usable)
    pts = [(amp(c), getattr(c, f"ultimate_{statistic}"))
           for c in usable if other(c) == floor_other and amp(c) > 0.0]
    if len(pts) < 2:
        raise PreconditionError("need at least two nonzero-amplitude cells on the axis")
    a = np.array([p[0] for p in pts])
    b = np.array([p[1] for p in pts])
    slope = float(a @ b / (a @ a))
    resid = float(np.sqrt(np.mean((b - slope * a) ** 2)))
    return GainFit(slope=slope, residual=resid)


# ---------------------------------------------------------------------------
# equivalence verdict


@dataclass(frozen=True)
class PairCheck:
    lower: tuple[float, float, float]
    upper: tuple[float, float, float]
    statistic: str  # orbital | discrete
    median_low: float
    median_high: float
    ci_low: float  # 5th percentile of bootstrap median difference (high - low)
    ok: bool


@dataclass(frozen=True)
class EquivalenceVerdict:
    monotone_ok: bool
    factor_ok: bool
    zero_floor_ok: bool
    factor: float
    pair_checks: tuple[PairCheck, ...]
    floor: float


def _bootstrap_median_diff(low: np.ndarray, high: np.ndarray, seed: int) -> float:
    """5th percentile of median(high*) - median(low*) over _N_BOOT paired
    resamples.  rng.choice(a, size=len(a)) draws a[rng.integers(0, len(a),
    len(a))], so drawing the indices in the same order keeps the stream,
    and one median per side over all resamples replaces one per resample."""
    rng = np.random.default_rng(seed)
    lo = np.empty((_N_BOOT, len(low)), dtype=np.intp)
    hi = np.empty((_N_BOOT, len(high)), dtype=np.intp)
    for b in range(_N_BOOT):
        lo[b] = rng.integers(0, len(low), size=len(low))
        hi[b] = rng.integers(0, len(high), size=len(high))
    diffs = np.median(high[hi], axis=1) - np.median(low[lo], axis=1)
    return float(np.quantile(diffs, 0.05))


def check_equivalence(report: IssSweepReport,
                      factor_limit: float = 10.0) -> EquivalenceVerdict:
    """Three clauses on a completed sweep:

    (a) both ultimate-bound families are monotone nondecreasing along each
        input-amplitude axis, judged by bootstrap medians over trials;
    (b) orbital and discrete ultimate bounds agree within a multiplicative
        factor cell-wise (reported, compared against factor_limit);
    (c) zero-input cells sit at or below the numerical floor _ZERO_FLOOR.
    """
    cells = {(c.offset, c.u_amp, c.v_amp): c for c in report.cells}
    pair_checks: list[PairCheck] = []
    monotone_ok = True
    keys = sorted(cells)

    def _dominates(lo, hi) -> bool:
        return lo != hi and lo[0] == hi[0] and lo[1] <= hi[1] and lo[2] <= hi[2]

    for i, key_lo in enumerate(keys):
        for key_hi in keys:
            # compare amplitude-adjacent cells: hi dominates lo componentwise
            # with no third cell strictly between (covers both cross-product
            # grids and zipped amplitude pairs)
            if not _dominates(key_lo, key_hi):
                continue
            if any(_dominates(key_lo, k) and _dominates(k, key_hi) for k in keys):
                continue
            lo_c, hi_c = cells[key_lo], cells[key_hi]
            for stat in ("orbital", "discrete"):
                lo_vals = np.array(getattr(lo_c, f"per_trial_{stat}"))
                hi_vals = np.array(getattr(hi_c, f"per_trial_{stat}"))
                if len(lo_vals) == 0 or len(hi_vals) == 0:
                    continue
                m_lo = float(np.median(lo_vals))
                m_hi = float(np.median(hi_vals))
                ci = _bootstrap_median_diff(lo_vals, hi_vals,
                                            _rng.derive_seed(report.seed, i, len(pair_checks)))
                ok = (m_hi >= m_lo) or (ci >= -(_ZERO_FLOOR + 1e-12))
                monotone_ok = monotone_ok and ok
                pair_checks.append(PairCheck(lower=key_lo, upper=key_hi, statistic=stat,
                                             median_low=m_lo, median_high=m_hi,
                                             ci_low=ci, ok=ok))
    factor = 0.0
    zero_ok = True
    for c in cells.values():
        if c.u_amp == 0.0 and c.v_amp == 0.0:
            zero_ok = (zero_ok and c.ultimate_orbital <= _ZERO_FLOOR
                       and c.ultimate_discrete <= _ZERO_FLOOR)
            continue
        if math.isnan(c.ultimate_orbital) or math.isnan(c.ultimate_discrete):
            continue
        if c.ultimate_orbital <= _ZERO_FLOOR and c.ultimate_discrete <= _ZERO_FLOOR:
            continue
        lo = max(min(c.ultimate_orbital, c.ultimate_discrete), _ZERO_FLOOR * 1e-3)
        factor = max(factor, max(c.ultimate_orbital, c.ultimate_discrete) / lo)
    return EquivalenceVerdict(
        monotone_ok=monotone_ok,
        factor_ok=factor <= factor_limit,
        zero_floor_ok=zero_ok,
        factor=factor,
        pair_checks=tuple(pair_checks),
        floor=_ZERO_FLOOR,
    )
