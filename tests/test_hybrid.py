import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sie.core import ContinuousSignal, DiscreteSequence, HybridSystemDef
from sie.errors import PreconditionError
from sie.flow import IntegratorConfig
from sie.hybrid import GuardConfig, simulate
from sie.poincare import poincare_map
from sie import models
from tests.conftest import (RIMLESS_EIG, RIMLESS_OMEGA_STAR, RIMLESS_T_STAR,
                            RIMLESS_THETA_IMPACT, scalar_traj_eval)

U0 = ContinuousSignal.zero(1)
V0 = DiscreteSequence.zero(1)


class TestLinearResetRun:
    def test_impact_log_matches_closed_form(self, linear_sys):
        traj = simulate(linear_sys, np.array([0.0, 0.3]), U0, V0, 5.0)
        assert traj.termination == "horizon-reached"
        assert len(traj.impacts) == 5
        for k, imp in enumerate(traj.impacts):
            assert imp.t == pytest.approx(k + 1.0, abs=1e-9)
            assert imp.x_minus[0] == pytest.approx(1.0, abs=1e-9)
            # x2 halves at every crossing: 0.15, 0.075, ...
            assert imp.x_minus[1] == pytest.approx(0.3 * 0.5 ** (k + 1), abs=1e-9)
            assert imp.x_plus[0] == pytest.approx(0.0, abs=1e-12)

    def test_right_continuity_at_impacts(self, linear_sys):
        traj = simulate(linear_sys, np.array([0.0, 0.3]), U0, V0, 2.5)
        t0 = traj.impacts[0].t
        # the stored value at the impact instant is the post-reset state
        assert np.allclose(traj.eval(t0), traj.impacts[0].x_plus, atol=1e-12)
        # the left limit approaches the pre-impact state
        assert np.allclose(traj.eval(t0 - 1e-9), traj.impacts[0].x_minus, atol=1e-6)

    def test_start_on_orbit_stays_on_orbit(self, linear_sys, linear_orbit):
        from sie.orbit import dist_to_orbit

        x0 = linear_sys.eval_delta(np.array([1.0, 0.0]), np.zeros(1))
        traj = simulate(linear_sys, x0, U0, V0, 6.0)
        for t in np.linspace(0.0, 6.0, 60):
            d, _ = dist_to_orbit(linear_orbit, traj.eval(float(t)))
            assert d <= 1e-7

    def test_on_surface_start_consumes_first_impulse(self, linear_sys):
        vbar = DiscreteSequence.explicit([[0.5], [0.0], [0.0], [0.0], [0.0], [0.0]])
        traj = simulate(linear_sys, np.array([1.0, 0.1]), U0, vbar, 1.5)
        assert traj.impacts[0].t == 0.0
        assert traj.impacts[0].x_plus[1] == pytest.approx(0.6)
        # next crossing sees the second (zero) impulse
        assert traj.impacts[1].v[0] == 0.0

    def test_below_surface_start_rejected(self, linear_sys):
        with pytest.raises(PreconditionError):
            simulate(linear_sys, np.array([1.5, 0.0]), U0, V0, 1.0)


class TestPoincareSequence:
    def test_geometric_sequence(self, linear_sys):
        traj = simulate(linear_sys, np.array([0.0, 0.3]), U0, V0, 5.0)
        x2 = [imp.x_minus[1] for imp in traj.impacts]
        assert np.allclose(x2, [0.15, 0.075, 0.0375, 0.01875, 0.009375], atol=1e-9)

    def test_rimless_contracts_exactly_in_energy_coordinates(self, rimless_sys):
        # the section map is affine in z = omega^2 with slope cos^2(2 alpha)
        traj = simulate(rimless_sys, np.array([0.08 - math.pi / 8.0, 1.2]), U0, V0, 12.0)
        z = np.array([imp.x_minus[1] ** 2 for imp in traj.impacts]) - RIMLESS_OMEGA_STAR ** 2
        ratios = z[1:6] / z[:5]
        assert np.allclose(ratios, RIMLESS_EIG, atol=1e-6)


class TestGuards:
    def test_bouncing_ball_zeno(self):
        sysd = models.model("bouncing-ball")
        traj = simulate(sysd, np.array([1.0, 0.0]), U0, V0, 10.0)
        assert traj.termination == "zeno-guard"
        ts = traj.impact_times()
        assert ts[0] == pytest.approx(math.sqrt(2.0 / 9.81), abs=1e-9)
        # impact intervals halve with the restitution coefficient
        ratios = np.diff(ts)[1:] / np.diff(ts)[:-1]
        assert np.allclose(ratios, 0.5, atol=1e-6)

    def test_k_max_guard(self, linear_sys):
        traj = simulate(linear_sys, np.array([0.0, 0.3]), U0, V0, 10.0,
                        GuardConfig(k_max=3))
        assert traj.termination == "zeno-guard"
        assert len(traj.impacts) == 4

    def test_beating_guard_on_wrong_side_reset(self):
        sysd = HybridSystemDef(n=2, p=1, q=1,
                               f=lambda x, u: np.array([1.0, 0.0]),
                               delta=lambda x, v: np.array([1.5, x[1]]),  # lands in H < 0
                               h=lambda x: 1.0 - float(x[0]))
        traj = simulate(sysd, np.array([0.0, 0.0]), U0, V0, 3.0)
        assert traj.termination == "beating-guard"

    @pytest.mark.parametrize("x0, t_hit", [(1.0, 0.0), (0.0, 1.0)])
    def test_wrong_side_reset_is_beating_from_any_start(self, x0, t_hit):
        # the same reset at the start, on the surface, and after a crossing
        sysd = HybridSystemDef(n=1, p=1, q=1, f=lambda x, u: np.array([1.0]),
                               delta=lambda x, v: np.array([2.0]), h=lambda x: 1.0 - x[0])
        traj = simulate(sysd, np.array([x0]), U0, V0, 3.0)
        assert traj.termination == "beating-guard"
        assert "reset landed at H=-1" in traj.error
        assert len(traj.impacts) == 1
        assert traj.impacts[0].k == 0 and traj.impacts[0].x_plus[0] == 2.0
        assert traj.impacts[0].t == pytest.approx(t_hit, abs=1e-12)
        assert traj.t_final == traj.impacts[0].t

    def test_escape_on_blowup(self):
        sysd = HybridSystemDef(n=1, p=1, q=1,
                               f=lambda x, u: np.array([x[0] ** 2]),
                               delta=lambda x, v: x, h=lambda x: float(x[0]) + 10.0)
        traj = simulate(sysd, np.array([1.0]), U0, V0, 2.0,
                        cfg=IntegratorConfig(blowup=1e6))
        assert traj.termination == "escape"
        assert traj.segments  # partial flow retained

    def test_guards_quiet_on_stable_run(self, rimless_sys, rimless_report):
        u = ContinuousSignal.sinusoid([0.02], omega=4.0)
        vbar = DiscreteSequence.iid_uniform(0.005, seed=12, dim=1)
        t_final = 12.0 * RIMLESS_T_STAR
        traj = simulate(rimless_sys, np.array([0.08 - math.pi / 8.0, 1.1]), u, vbar,
                        t_final, GuardConfig(t_star=rimless_report.t_star))
        assert traj.termination == "horizon-reached"
        # impact count tracks the horizon in periods
        assert abs(len(traj.impacts) - 12) <= 2


@pytest.mark.parametrize("field", [
    {"k_max": 2.5}, {"k_max": math.nan}, {"min_dwell": math.nan},
    {"t_star": 0.0}, {"t_star": math.nan}])
def test_invalid_guard_config_is_a_precondition_error(field):
    # a NaN min_dwell would turn the dwell guard off
    with pytest.raises(PreconditionError):
        GuardConfig(**field)


# at an infinite horizon the automatic dwell floor 1e-9 * t_final would be
# infinite too, and every impact would trip the Zeno guard
@pytest.mark.parametrize("t_final", [0.0, math.nan, math.inf])
def test_invalid_horizon_is_a_precondition_error(linear_sys, t_final):
    with pytest.raises(PreconditionError):
        simulate(linear_sys, np.array([0.0, 0.3]), U0, V0, t_final)


def test_replaying_impacts_through_time_to_impact(linear_sys):
    u = ContinuousSignal.sinusoid([0.05], omega=4.0)
    vbar = DiscreteSequence.iid_uniform(0.02, seed=5, dim=1)
    traj = simulate(linear_sys, np.array([0.0, 0.2]), u, vbar, 4.5)
    assert len(traj.impacts) >= 4
    for a, b in zip(traj.impacts[:-1], traj.impacts[1:]):
        out = poincare_map(linear_sys, a.x_minus, u.shifted(a.t), vbar[a.k], t_cap=3.0)
        assert out.time == pytest.approx(b.t - a.t, abs=1e-9)


def test_segments_join_at_reset_states(linear_sys):
    traj = simulate(linear_sys, np.array([0.0, 0.3]), U0, V0, 3.5)
    for imp, seg in zip(traj.impacts, traj.segments[1:]):
        assert seg.t0 == imp.t
        assert np.allclose(seg.eval(seg.t0), imp.x_plus, atol=1e-12)


def test_every_impact_on_surface_and_transversal(rimless_sys):
    u = ContinuousSignal.sinusoid([0.05], omega=4.0)
    vbar = DiscreteSequence.iid_uniform(0.01, seed=21, dim=1)
    traj = simulate(rimless_sys, np.array([0.08 - math.pi / 8.0, 1.1]), u, vbar,
                    10.0, GuardConfig(t_star=RIMLESS_T_STAR))
    assert traj.termination == "horizon-reached"
    assert len(traj.impacts) >= 5
    for imp in traj.impacts:
        scale = max(1.0, float(np.max(np.abs(imp.x_minus))))
        assert abs(rimless_sys.eval_h(imp.x_minus)) <= 1e-10 * scale
        lfh = np.dot(rimless_sys.surface_gradient(imp.x_minus),
                     rimless_sys.eval_f(imp.x_minus, u.compile()(imp.t)))
        assert lfh < 0.0
        assert rimless_sys.eval_h(imp.x_plus) > 0.0


@pytest.fixture(scope="module")
def forced_rimless_traj(rimless_sys):
    # sinusoidal forcing and random impulses: impacts at uneven times
    x0 = np.array([RIMLESS_THETA_IMPACT - 0.3, 1.2])
    u = ContinuousSignal.sinusoid([0.1], omega=4.0)
    vbar = DiscreteSequence.iid_uniform(0.02, seed=5, dim=1)
    traj = simulate(rimless_sys, x0, u, vbar, 6.0, GuardConfig(t_star=RIMLESS_T_STAR),
                    IntegratorConfig(rtol=1e-9, atol=1e-11))
    assert traj.termination == "horizon-reached" and len(traj.impacts) >= 4
    return traj


def _assert_rows_match(traj, ts):
    batch = traj.eval_many(ts)
    scale = max(1.0, max(float(np.max(np.abs(s.ys))) for s in traj.segments))
    for t, row in zip(ts, batch):
        assert np.max(np.abs(row - scalar_traj_eval(traj, float(t)))) <= 1e-15 * scale


class TestTrajectoryEvalMany:
    def test_matches_rows_at_impacts_and_segment_ends(self, forced_rimless_traj):
        traj = forced_rimless_traj
        ends = [s.t1 for s in traj.segments]
        starts = [s.t0 for s in traj.segments]
        _assert_rows_match(traj, np.array(ends + starts + [0.0, traj.t_final]))
        # an impact instant holds the post-reset state, t_final the last node
        states = traj.eval_many(traj.impact_times())
        assert np.array_equal(states, np.array([imp.x_plus for imp in traj.impacts]))
        assert np.array_equal(traj.eval_many(np.array([traj.t_final]))[0],
                              traj.segments[-1].ys[-1])
        assert np.array_equal(traj.eval(traj.t_final), traj.segments[-1].ys[-1])

    def test_unsorted_times_keep_their_order(self, forced_rimless_traj):
        ts = np.linspace(0.0, forced_rimless_traj.t_final, 301)[::-1].copy()
        _assert_rows_match(forced_rimless_traj, ts)

    def test_out_of_span_raises(self, forced_rimless_traj):
        traj = forced_rimless_traj
        for bad in (-1e-6, traj.t_final + 1e-6):
            with pytest.raises(PreconditionError):
                traj.eval_many(np.array([0.5, bad]))
            with pytest.raises(PreconditionError):
                traj.eval(bad)

    def test_nan_time_raises(self, forced_rimless_traj):
        with pytest.raises(PreconditionError):
            forced_rimless_traj.eval_many(np.array([0.5, math.nan]))
        with pytest.raises(PreconditionError):
            forced_rimless_traj.eval(math.nan)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
    def test_property_random_times(self, forced_rimless_traj, fractions):
        _assert_rows_match(forced_rimless_traj,
                           np.array(fractions) * forced_rimless_traj.t_final)
