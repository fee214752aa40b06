import math
from types import SimpleNamespace

import numpy as np
import pytest

from sie.core import ContinuousSignal, DiscreteSequence
from sie.errors import FitDegenerate, PreconditionError
from sie.hybrid import GuardConfig, simulate
import sie.iss as iss_mod
from sie.iss import (CellResult, IssSweepReport, SweepConfig, TrialSeries,
                     _initial_state, _orbital_deviation, _window_sups,
                     check_equivalence, fit_decay, fit_gain, run_sweep)
from sie.orbit import _chord_sq_distances, _newton_refine
from tests.conftest import LN2, RIMLESS_EIG, scalar_traj_eval


def small_sweep(**kw):
    base = dict(offsets=(0.05,), u_amps=(0.0,), v_amps=(0.0,), trials=5,
                horizon_periods=30.0, transient_cutoff=0.5, seed=3)
    base.update(kw)
    return SweepConfig(**base)


class TestSweepConfig:
    def test_validation(self):
        with pytest.raises(PreconditionError):
            small_sweep(offsets=())
        with pytest.raises(PreconditionError):
            small_sweep(u_amps=(0.1, 0.0))
        with pytest.raises(PreconditionError):
            small_sweep(transient_cutoff=1.5)
        with pytest.raises(PreconditionError):
            small_sweep(u_amps=(0.0, 0.1), v_amps=(0.0,), pair_uv=True)
        with pytest.raises(PreconditionError):
            small_sweep(samples_per_step=0)
        with pytest.raises(PreconditionError):
            small_sweep(horizon_periods=math.inf)

    @pytest.mark.parametrize("field", [
        {"trials": 2.5}, {"trials": 5.0}, {"samples_per_step": 2.5}, {"seed": 1.5},
        {"horizon_periods": math.nan}, {"transient_cutoff": math.nan},
        {"offsets": (math.nan,)}, {"u_amps": (0.0, math.nan)}, {"v_amps": (math.nan, 0.1)}])
    def test_nan_and_non_integer_values_rejected(self, field):
        with pytest.raises(PreconditionError):
            small_sweep(**field)

    def test_cells_cross_and_paired(self):
        cfg = small_sweep(u_amps=(0.0, 0.1), v_amps=(0.0, 0.2))
        assert len(cfg.cells()) == 4
        cfg = small_sweep(u_amps=(0.0, 0.1), v_amps=(0.0, 0.2), pair_uv=True)
        assert cfg.cells() == [(0.05, 0.0, 0.0), (0.05, 0.1, 0.2)]


class TestRunSweep:
    def test_constant_forcing_matches_forced_fixed_point(self, linear_sys, linear_orbit,
                                                         linear_report, sweep_cfg):
        sweep = small_sweep(u_amps=(0.0, 0.01, 0.1),
                            u_template=ContinuousSignal.constant([1.0]))
        report = run_sweep(linear_sys, linear_orbit, linear_report, sweep, sweep_cfg)
        for ua in (0.01, 0.1):
            cell = report.cell(0.05, ua, 0.0)
            assert cell.ultimate_discrete == pytest.approx(ua / LN2, rel=0.02)
        zero = report.cell(0.05, 0.0, 0.0)
        assert zero.ultimate_discrete < 2e-6

    def test_constant_impulses_match_geometric_sum(self, linear_sys, linear_orbit,
                                                   linear_report, sweep_cfg):
        # v == v0 at every crossing: fixed point e^-a v0 / (1 - e^-a) = v0
        from sie import hybrid
        from sie.core import DiscreteSequence

        for v0 in (0.01, 0.1):
            vbar = DiscreteSequence.constant([v0])
            traj = hybrid.simulate(linear_sys, np.array([0.0, 0.05]),
                                   ContinuousSignal.zero(1), vbar, 30.0,
                                   hybrid.GuardConfig(t_star=1.0), sweep_cfg)
            tail = [imp.x_minus[1] for imp in traj.impacts if imp.t >= 15.0]
            assert max(abs(x) for x in tail) == pytest.approx(v0, rel=0.02)

    def test_scale_equivariance_on_linear_model(self, linear_sys, linear_orbit,
                                                linear_report, sweep_cfg):
        sweep = small_sweep(u_amps=(0.02, 0.04),
                            u_template=ContinuousSignal.constant([1.0]))
        report = run_sweep(linear_sys, linear_orbit, linear_report, sweep, sweep_cfg)
        lo = report.cell(0.05, 0.02, 0.0).ultimate_discrete
        hi = report.cell(0.05, 0.04, 0.0).ultimate_discrete
        assert hi == pytest.approx(2.0 * lo, rel=0.05)

    def test_reproducible_with_same_seed(self, linear_sys, linear_orbit,
                                         linear_report, sweep_cfg):
        sweep = small_sweep(u_amps=(0.0, 0.05), trials=3, horizon_periods=25.0)
        a = run_sweep(linear_sys, linear_orbit, linear_report, sweep, sweep_cfg)
        b = run_sweep(linear_sys, linear_orbit, linear_report, sweep, sweep_cfg)
        for ca, cb in zip(a.cells, b.cells):
            assert ca.per_trial_orbital == cb.per_trial_orbital
            assert ca.per_trial_discrete == cb.per_trial_discrete

    def test_cells_at_one_offset_replay_paired_trials(self, linear_sys, linear_orbit,
                                                      linear_report, monkeypatch):
        # trial k of every cell at one offset starts from the same state, with
        # the same u phase and the same unit v draws scaled by the cell's
        # amplitudes (common random numbers); another offset draws anew
        calls = []

        def record(sysd, x0, u, vbar, t_final, guards, cfg):
            calls.append((x0, u, vbar))
            return SimpleNamespace(termination="escape")

        monkeypatch.setattr(iss_mod, "simulate", record)
        sweep = small_sweep(offsets=(0.03, 0.05), u_amps=(0.0, 0.05, 0.1),
                            v_amps=(0.0, 0.01, 0.02), trials=3)
        run_sweep(linear_sys, linear_orbit, linear_report, sweep)
        cells = sweep.cells()
        assert len(calls) == len(cells) * sweep.trials
        by_cell = {cell: calls[i * sweep.trials:(i + 1) * sweep.trials]
                   for i, cell in enumerate(cells)}
        for offset in sweep.offsets:
            ref = by_cell[(offset, 0.05, 0.01)]
            for (o, ua, va), trials in by_cell.items():
                if o != offset:
                    continue
                for (x0, u, vbar), (x0_ref, u_ref, v_ref) in zip(trials, ref):
                    assert np.array_equal(x0, x0_ref)
                    assert u.t_shift == u_ref.t_shift
                    assert u.scale == (ua / 0.05) * u_ref.scale
                    assert vbar.seed == v_ref.seed
                    for k in range(4):
                        assert np.array_equal(vbar[k], (va / 0.01) * v_ref[k])
        low, high = by_cell[(0.03, 0.0, 0.0)], by_cell[(0.05, 0.0, 0.0)]
        assert all(a[1].t_shift != b[1].t_shift for a, b in zip(low, high))

    def test_guard_tallies_zero_on_stable_cells(self, rimless_sys, rimless_orbit,
                                                rimless_report, sweep_cfg):
        sweep = small_sweep(u_amps=(0.0, 0.05), trials=4, horizon_periods=20.0)
        report = run_sweep(rimless_sys, rimless_orbit, rimless_report, sweep, sweep_cfg)
        for cell in report.cells:
            assert all(v == 0 for v in cell.guard_tallies.values())


# -- per-sample reference for the batched window measurement ---------------


def _newton_reference(orbit, x, i_chord):
    """The scalar safeguarded Newton of `dist_to_orbit` on the chord's
    bracket [taus[i - 1], taus[i + 2]] of the orbit's chords."""
    last = len(orbit.chords.taus) - 1
    return _newton_refine(orbit, x, max(i_chord - 1, 0), min(i_chord + 2, last))[1]


def _parabolic_reference(orbit, x, i_chord):
    """Scalar parabolic rounds on ||x - y(tau)||^2, one eval per point: the
    near-orbit refine that the batched Newton replaced."""
    def g(tau):
        d = x - orbit.eval(tau)
        return float(d @ d)

    def vertex(ts, gs):
        (t0, t1, t2), (g0, g1, g2) = ts, gs
        denom = (t1 - t0) * (g1 - g2) - (t1 - t2) * (g1 - g0)
        if denom == 0.0:
            return t1
        return t1 - 0.5 * ((t1 - t0) ** 2 * (g1 - g2) - (t1 - t2) ** 2 * (g1 - g0)) / denom

    taus = orbit.chords.taus
    lo = taus[max(i_chord - 1, 0)]
    hi = taus[min(i_chord + 2, len(taus) - 1)]
    ts = np.array([lo, 0.5 * (lo + hi), hi])
    gs = np.array([g(t) for t in ts])
    best_t, best_g = ts[int(np.argmin(gs))], float(np.min(gs))
    width = 0.5 * (hi - lo)
    for _ in range(6):
        t_new = min(max(vertex(ts, gs), lo), hi)
        g_new = g(t_new)
        if g_new < best_g:
            best_t, best_g = t_new, g_new
        width *= 0.15
        if width < 1e-12 * max(1.0, orbit.t_star):
            break
        ts = np.array([max(lo, best_t - width), best_t, min(hi, best_t + width)])
        gs = np.array([g(ts[0]), best_g, g(ts[2])])
    return math.sqrt(best_g)


def _reference_deviation(orbit, x, refine=_newton_reference):
    i_chord = int(np.argmin(_chord_sq_distances(orbit.chords, x[None, :])))
    return min(refine(orbit, x, i_chord), float(np.linalg.norm(x - orbit.points[0])),
               float(np.linalg.norm(x - orbit.points[-1])))


def _reference_window_sups(orbit, traj, edges, n_samples, refine=_newton_reference):
    sups = []
    for t_lo, t_hi in zip(edges[:-1], edges[1:]):
        sup = 0.0
        for t in np.linspace(t_lo, t_hi, n_samples, endpoint=False):
            sup = max(sup, _reference_deviation(orbit, scalar_traj_eval(traj, t), refine))
        sups.append(sup)
    return np.array(sups)


@pytest.mark.parametrize("case", ["linear-reset", "rimless-wheel", "forced-rimless"])
def test_window_sups_match_per_sample_loop(case, request, sweep_cfg):
    name = "rimless" if "rimless" in case else "linear"
    sysd = request.getfixturevalue(f"{name}_sys")
    orbit = request.getfixturevalue(f"{name}_orbit")
    u, vbar = ContinuousSignal.zero(1), DiscreteSequence.zero(1)
    if case == "forced-rimless":
        u = ContinuousSignal.sinusoid([0.1], omega=4.0)
        vbar = DiscreteSequence.iid_uniform(0.02, seed=8, dim=1)
    x0 = _initial_state(orbit, sysd, 0.05 if name == "linear" else 0.02,
                        np.random.default_rng(21))
    traj = simulate(sysd, x0, u, vbar, 20.0 * orbit.t_star,
                    GuardConfig(t_star=orbit.t_star), sweep_cfg)
    assert traj.termination == "horizon-reached"
    edges = np.concatenate([[0.0], traj.impact_times(), [traj.t_final]])
    batch = _window_sups(orbit, traj, edges, 24)
    ref = _reference_window_sups(orbit, traj, edges, 24)
    assert np.allclose(batch, ref, rtol=1e-12, atol=0.0)
    # the batched Newton moves the parabolic rounds' sups by at most 1e-10
    # relative, or, on the 1e-7 zero-input tails, by less than one rounding
    # unit of the state coordinates, below which no distance is resolved
    parabolic = _reference_window_sups(orbit, traj, edges, 24, _parabolic_reference)
    ulp = np.finfo(float).eps * float(np.max(np.abs(orbit.points)))
    assert np.allclose(batch, parabolic, rtol=1e-10, atol=ulp)
    # the zero-input tails reach the refined near-orbit regime
    assert case == "forced-rimless" or ref.min() < 1e-6


def test_single_deviation_matches_reference(rimless_orbit):
    rng = np.random.default_rng(22)
    for _ in range(40):
        tau = rng.uniform(0.0, rimless_orbit.t_star)
        x = rimless_orbit.eval(tau) + 10.0 ** rng.uniform(-9.0, 0.0) * rng.normal(size=2)
        assert _orbital_deviation(rimless_orbit, x) == pytest.approx(
            _reference_deviation(rimless_orbit, x), rel=1e-12, abs=0.0)


class TestFitDecay:
    def test_linear_reset_ratio(self, linear_sys, linear_orbit, linear_report, sweep_cfg):
        report = run_sweep(linear_sys, linear_orbit, linear_report,
                           small_sweep(trials=5), sweep_cfg)
        fit = fit_decay(list(report.cells[0].series))
        assert fit.ratio == pytest.approx(0.5, abs=0.02)
        assert fit.rate == pytest.approx(LN2, abs=0.05)
        assert fit.interval_min > 0.0

    def test_rimless_ratio(self, rimless_sys, rimless_orbit, rimless_report, sweep_cfg):
        report = run_sweep(rimless_sys, rimless_orbit, rimless_report,
                           small_sweep(trials=5), sweep_cfg)
        fit = fit_decay(list(report.cells[0].series))
        assert fit.ratio == pytest.approx(RIMLESS_EIG, abs=0.05)
        # rate and ratio measured independently agree through the interval band
        lo = math.exp(-2.0 * fit.rate * fit.interval_max)
        hi = math.exp(-fit.rate * fit.interval_min / 2.0)
        assert lo <= fit.ratio <= hi

    def test_too_few_runs(self):
        with pytest.raises(FitDegenerate):
            fit_decay([])

    def test_floor_hit_raises(self):
        # deviations collapse to the floor after 3 crossings
        runs = []
        for _ in range(5):
            dev = np.array([1e-2, 1e-5, 1e-8] + [1e-12] * 20)
            runs.append(TrialSeries(impact_times=np.arange(23.0),
                                    discrete_dev=dev,
                                    window_times=np.arange(23.0),
                                    orbital_sup=dev))
        with pytest.raises(FitDegenerate):
            fit_decay(runs)


def _synthetic_cell(offset, ua, va, values):
    vals = tuple(float(v) for v in values)
    return CellResult(offset=offset, u_amp=ua, v_amp=va,
                      ultimate_orbital=float(np.median(vals)),
                      ultimate_discrete=float(np.median(vals)),
                      peak=max(vals), per_trial_orbital=vals, per_trial_discrete=vals)


def _synthetic_report(cell_values):
    cells = tuple(_synthetic_cell(0.05, ua, 0.0, vals) for ua, vals in cell_values)
    return IssSweepReport(cells=cells, seed=0, trials=len(cells[0].per_trial_orbital),
                          horizon_periods=30.0, transient_cutoff=0.5, t_star=1.0)


class TestCheckEquivalence:
    def test_passes_on_monotone_data(self):
        rng = np.random.default_rng(0)
        report = _synthetic_report([
            (0.0, np.full(20, 1e-9)),
            (0.01, 0.01 + 0.001 * rng.standard_normal(20)),
            (0.1, 0.1 + 0.01 * rng.standard_normal(20)),
        ])
        verdict = check_equivalence(report)
        assert verdict.monotone_ok and verdict.factor_ok and verdict.zero_floor_ok
        assert verdict.factor == pytest.approx(1.0)

    def test_negative_control_fails_monotonicity(self):
        rng = np.random.default_rng(1)
        report = _synthetic_report([
            (0.0, np.full(20, 1e-9)),
            (0.01, 0.5 + 0.001 * rng.standard_normal(20)),
            (0.1, 0.05 + 0.001 * rng.standard_normal(20)),  # decreasing: injected defect
        ])
        verdict = check_equivalence(report)
        assert not verdict.monotone_ok
        assert not (verdict.monotone_ok and verdict.factor_ok and verdict.zero_floor_ok)

    def test_zero_floor_violation_detected(self):
        report = _synthetic_report([(0.0, np.full(20, 1e-3))])
        verdict = check_equivalence(report)
        assert not verdict.zero_floor_ok

    def test_factor_reported_cellwise(self):
        cells = (
            _synthetic_cell(0.05, 0.0, 0.0, np.full(10, 1e-9)),
            CellResult(offset=0.05, u_amp=0.1, v_amp=0.0,
                       ultimate_orbital=0.3, ultimate_discrete=0.1, peak=0.3,
                       per_trial_orbital=tuple(np.full(10, 0.3)),
                       per_trial_discrete=tuple(np.full(10, 0.1))),
        )
        report = IssSweepReport(cells=cells, seed=0, trials=10, horizon_periods=30.0,
                                transient_cutoff=0.5, t_star=1.0)
        verdict = check_equivalence(report, factor_limit=10.0)
        assert verdict.factor == pytest.approx(3.0)
        assert verdict.factor_ok
        verdict = check_equivalence(report, factor_limit=2.0)
        assert not verdict.factor_ok


def test_gain_fit_recovers_linear_slope(linear_sys, linear_orbit, linear_report, sweep_cfg):
    # ultimate discrete bound is u / ln 2 for constant forcing, so the gain
    # line through the origin has slope 1 / ln 2
    sweep = small_sweep(u_amps=(0.0, 0.02, 0.05, 0.1),
                        u_template=ContinuousSignal.constant([1.0]))
    report = run_sweep(linear_sys, linear_orbit, linear_report, sweep, sweep_cfg)
    fit = fit_gain(report, statistic="discrete", axis="u")
    assert fit.slope == pytest.approx(1.0 / LN2, rel=0.02)
    assert fit.residual <= 0.02 * fit.slope * 0.1


def test_gain_fit_validation():
    report = _synthetic_report([(0.0, np.full(5, 1e-9))])
    with pytest.raises(PreconditionError):
        fit_gain(report)


def test_linear_reset_equivalence_clauses(linear_sys, linear_orbit, linear_report, sweep_cfg):
    sweep = small_sweep(u_amps=(0.0, 0.02, 0.05), trials=6, horizon_periods=44.0,
                        u_template=ContinuousSignal.sinusoid([1.0], omega=4.0))
    report = run_sweep(linear_sys, linear_orbit, linear_report, sweep, sweep_cfg)
    verdict = check_equivalence(report)
    assert verdict.monotone_ok
    assert verdict.zero_floor_ok
    assert verdict.factor <= 3.0
