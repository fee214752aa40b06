import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sie.core import ContinuousSignal, DiscreteSequence, HybridSystemDef
from sie.errors import (EvaluatorFailure, GrazeDetected, InfiniteTimeToImpact, PreconditionError,
                        ResetNotInSPlus)
import sie.events as events_mod
from sie.events import (_SAMPLES_PER_STEP, _SCAN_BASIS, _refine_in_record, _scan_record,
                        first_crossing)
from sie.flow import IntegratorConfig, Stepper, _dense, integrate
from sie.hybrid import simulate
from sie.poincare import poincare_map
from sie import models
from tests.conftest import (RIMLESS_OMEGA_PLUS, RIMLESS_OMEGA_STAR,
                            RIMLESS_T_STAR, RIMLESS_THETA_IMPACT, plain_twin)

U0 = ContinuousSignal.zero(1)
CFG = IntegratorConfig()


class TestLocateCrossing:
    """Crossing location through first_crossing, which integrates and scans
    step by step."""

    def test_linear_reset_crossing(self, linear_sys):
        # timer hits the surface at exactly t = 1 with x2 halved
        for x2 in (0.0, 0.3, -1.2):
            ev = first_crossing(linear_sys, np.array([0.0, x2]), U0, 0.0, 1.5, CFG).event
            assert ev.t_hit == pytest.approx(1.0, abs=1e-10)
            assert ev.x_minus[0] == pytest.approx(1.0, abs=1e-10)
            assert ev.x_minus[1] == pytest.approx(x2 * 0.5, abs=1e-9)
            assert ev.lfh == pytest.approx(-1.0, abs=1e-9)

    def test_no_crossing_when_h_keeps_sign(self, linear_sys):
        search = first_crossing(linear_sys, np.array([0.0, 0.0]), U0, 0.0, 0.5, CFG)
        assert search.event is None
        assert search.segment.t1 == 0.5

    def test_from_t_skips_earlier_crossings(self, linear_sys):
        # surface sits at x1 = 1; starting past the hit leaves nothing to find
        seg = integrate(linear_sys, np.array([0.0, 0.1]), U0, (0.0, 1.2))
        search = first_crossing(linear_sys, seg.eval(1.05), U0, 1.05, 1.2, CFG)
        assert search.event is None
        assert search.segment.t0 == 1.05

    def test_rimless_energy_balance_at_crossing(self, rimless_sys):
        x0 = np.array([0.08 - math.pi / 8.0, RIMLESS_OMEGA_PLUS])
        ev = first_crossing(rimless_sys, x0, U0, 0.0, 2.0, CFG).event
        omega_expect = math.sqrt(RIMLESS_OMEGA_PLUS ** 2
                                 + 2 * 9.81 * (math.cos(0.08 - math.pi / 8)
                                               - math.cos(0.08 + math.pi / 8)))
        assert ev.x_minus[0] == pytest.approx(RIMLESS_THETA_IMPACT, abs=1e-9)
        assert ev.x_minus[1] == pytest.approx(omega_expect, abs=1e-7)
        assert ev.lfh < 0.0

    def test_upward_crossings_ignored(self):
        # H = x1 rising through zero never triggers (wrong direction)
        sys = HybridSystemDef(n=1, p=1, q=1,
                              f=lambda x, u: np.array([1.0]),
                              delta=lambda x, v: x, h=lambda x: float(x[0]))
        assert first_crossing(sys, np.array([-0.5]), U0, 0.0, 1.0, CFG).event is None

    def test_graze_detected_on_tangential_contact(self):
        # H = x2 + k (x1 - 1)^2 dips to -2e-12 at x1 = 1: slope at the root
        # is ~2 sqrt(dip * k), below the graze tolerance for small k; the
        # constant field needs a step cap so samples resolve the dip
        k = 1e-5
        sys = HybridSystemDef(n=2, p=1, q=1,
                              f=lambda x, u: np.array([1.0, 0.0]),
                              delta=lambda x, v: x,
                              h=lambda x: float(x[1] + k * (x[0] - 1.0) ** 2))
        with pytest.raises(GrazeDetected):
            first_crossing(sys, np.array([0.0, -2e-12]), U0, 0.0, 2.0,
                           IntegratorConfig(max_step=0.005))

    def test_sign_flipped_grad_h_is_refused(self, linear_sys):
        # H = 1 - x1 falls through zero at t = 1, but the declared gradient
        # (1, 0) gives a positive flow derivative there: the bracket runs
        # from H = +4e-4 to -8e-3, far outside the event tolerance, so the
        # crossing is refused rather than dropped as an interpolant wiggle
        bad = replace(plain_twin(linear_sys), grad_h=lambda x: np.array([1.0, 0.0]))
        x0 = np.array([0.0, 0.3])
        with pytest.raises(EvaluatorFailure) as got:
            first_crossing(bad, x0, U0, 0.0, 5.0, CFG)
        assert got.value.which == "grad_h"
        traj = simulate(bad, x0, U0, DiscreteSequence.zero(1), 5.0)
        assert traj.termination == "error"
        assert traj.error == str(got.value)
        assert not traj.impacts

    def test_single_crossing_h_positive_before_hit(self, rimless_sys):
        x0 = np.array([0.08 - math.pi / 8.0, RIMLESS_OMEGA_PLUS])
        search = first_crossing(rimless_sys, x0, U0, 0.0, 2.0, CFG)
        ev = search.event
        grace = max(ev.localization_width, 1e-9)
        for t in np.linspace(grace, ev.t_hit - grace, 100):
            assert rimless_sys.eval_h(search.segment.eval(float(t))) > 0.0


def _per_sample_scan(sys, ufn, record, from_t):
    """Reference scan: one float `_dense` per sample, at the step fractions
    k/11.  Returns (times, states, H values, hit)."""
    t_left, h, y_left, _y_right, Q = record
    ts = [t_left + h * (k / (_SAMPLES_PER_STEP - 1)) for k in range(_SAMPLES_PER_STEP)]
    xs = np.array([_dense(t_left, h, y_left.tolist(), Q.tolist(), t) for t in ts])
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
                continue
            return ts, xs, hs, (t_hit, x, lfh, width)
    return ts, xs, hs, None


SCAN_CASES = {
    "linear-reset": (models.model("linear-reset"), [0.0, 0.3], 1.5),
    "rimless-wheel": (models.model("rimless-wheel"),
                      [0.08 - math.pi / 8.0, RIMLESS_OMEGA_PLUS], 2.0),
    "vdp-adapter": (models.model("vdp-adapter", mu=0.2), [2.0, 0.05], 10.0),
}


@pytest.mark.parametrize("name", sorted(SCAN_CASES))
def test_batched_scan_matches_per_sample_scan(name):
    sys, x0, t_end = SCAN_CASES[name]
    stepper = Stepper(sys, np.array(x0), U0, 0.0, t_end, CFG)
    ufn = U0.compile()
    hits = 0
    while not stepper.done:
        record = stepper.step()
        t_left, h = record[0], record[1]
        # from_t at the step's left edge, and at the search start, which is
        # what first_crossing passes
        for from_t in (t_left, 0.0):
            ts_ref, xs_ref, hs_ref, hit_ref = _per_sample_scan(sys, ufn, record, from_t)
            # the scan's samples, one product with the constant basis, sum
            # in another order than the expression, whose th carries the
            # rounding of its sample time: a few ulps of the terms and of
            # the slope times the time's ulp
            xs = _SCAN_BASIS.dot(record[4].T) * h + record[2]
            q_size = np.abs(record[4]).sum(axis=1)
            bound = 4.0 * (np.spacing(np.abs(record[2]) + h * q_size)
                           + q_size * np.spacing(abs(t_left) + h))
            assert np.all(np.abs(xs - xs_ref) <= bound)
            # the scan's last sample is the step's end state, which the dense
            # value at the step end matches only to rounding of its 7-stage sum
            xs[-1] = record[3]
            scale = max(1.0, float(np.max(np.abs(xs_ref))))
            assert np.max(np.abs(xs[-1] - xs_ref[-1])) <= 1e-14 * scale
            signs = [sys.eval_h(x) > 0.0 for x in xs]
            assert signs == [hv > 0.0 for hv in hs_ref]
            hit = _scan_record(sys, ufn, record, from_t)
            assert (hit is None) == (hit_ref is None)
            if hit is not None:
                hits += 1
                assert hit[0] == hit_ref[0] and hit[2:] == hit_ref[2:]
                assert np.array_equal(hit[1], hit_ref[1])
    assert hits > 0


def test_crossing_evaluates_the_surface_gradient_once_per_state():
    # lfh and the graze tolerance come from one evaluation of f and grad H at
    # each state the localization visits, the bisection midpoint and the
    # Newton-polished state; judging the graze evaluates nothing more
    base = plain_twin(models.model("linear-reset"))
    calls = []

    def grad_h(x):
        calls.append(np.array(x))
        return base.grad_h(x)

    sysd = replace(base, grad_h=grad_h)
    ev = first_crossing(sysd, np.array([0.0, 0.3]), U0, 0.0, 1.5, CFG).event
    assert ev is not None
    assert len(calls) == 2
    assert np.array_equal(calls[-1], ev.x_minus)
    assert ev.lfh == np.dot(sysd.surface_gradient(ev.x_minus), sysd.eval_f(ev.x_minus, np.zeros(1)))


@settings(max_examples=200, deadline=None)
@given(t_left=st.floats(-1e5, 1e5), h=st.floats(1e-3, 1e3), last=st.booleans())
def test_scan_bracket_ends_are_the_step_ends(t_left, h, last):
    # x(t) = 1 - (t - t_left) on one step and H = x - c, crossing at the
    # fraction 0.05 or 0.95 of it: the first bracket starts at t_left and
    # the last ends at t_left + h, exactly
    c = 1.0 - (0.95 if last else 0.05) * h
    sysd = HybridSystemDef(n=1, p=1, q=1, f=lambda x, u: -np.ones(1), delta=lambda x, v: x,
                           h=lambda x: float(x[0]) - c)
    record = (t_left, h, np.ones(1), np.array([1.0 - h]), np.array([[-1.0, 0.0, 0.0, 0.0]]))
    brackets = []

    def refine(sys, ufn, rec, ta, tb):
        brackets.append((ta, tb))
        return _refine_in_record(sys, ufn, rec, ta, tb)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(events_mod, "_refine_in_record", refine)
        assert _scan_record(sysd, U0.compile(), record, t_left - 1.0) is not None
    [(ta, tb)] = brackets
    assert (tb == t_left + h) if last else (ta == t_left)


@pytest.mark.parametrize("name", sorted(SCAN_CASES))
def test_x_minus_is_the_dense_expression_on_its_record(name):
    sys, x0, t_end = SCAN_CASES[name]
    search = first_crossing(sys, np.array(x0), U0, 0.0, t_end, CFG)
    seg, ev = search.segment, search.event
    # the crossing's record is the segment's last step; its right node is x_minus
    want = _dense(seg.ts[-1], seg.hs[-1], seg.ys[-2].tolist(), seg.qs[-1].tolist(), ev.t_hit)
    assert ev.x_minus.tolist() == want
    assert np.array_equal(seg.eval(ev.t_hit), ev.x_minus)


@pytest.mark.parametrize("declared", ["surface", "h"])
def test_overflowing_dense_output_is_a_failure_of_f(declared):
    # slopes of 1e308 are finite but the dense matrix Q overflows, so the
    # scan's samples are NaN and H fails on them: the failure is f's
    surface = {"surface": ([-1.0], 5.0)} if declared == "surface" else {"h": lambda x: 5.0 - x[0]}
    sysd = HybridSystemDef(n=1, p=1, q=1, f=lambda x, u: np.array([1e308]),
                           delta=lambda x, v: x, **surface)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(EvaluatorFailure) as err:
        first_crossing(sysd, np.zeros(1), U0, 0.0, 1.0, IntegratorConfig(max_steps=30))
    assert err.value.which == "f"
    assert np.array_equal(err.value.argument, np.zeros(1))


class TestCrossingProperties:
    """Properties of crossing detection on systems with known crossings."""

    @settings(max_examples=100, deadline=None)
    @given(c=st.floats(0.05, 20.0), x1_0=st.floats(-3.0, 0.99), t0=st.floats(0.0, 50.0),
           step_frac=st.floats(0.05, 1.0))
    # regressions: a crossing on a step node, where the dense value at the
    # step end and the node state fell on opposite sides of H = 0; and a
    # crossing within 1e-11 after a node, taken for the start of the search
    @example(c=9.0, x1_0=0.9375, t0=8.0, step_frac=0.5)
    @example(c=2.0, x1_0=0.8607137424475841, t0=0.0, step_frac=0.0625)
    def test_timer_crossing_time(self, c, x1_0, t0, step_frac):
        # x1' = c, H = 1 - x1: the surface is reached (1 - x1(t0)) / c later;
        # the step cap moves the crossing around inside its step
        sys = HybridSystemDef(n=1, p=1, q=1, f=lambda x, u: np.array([c]),
                              delta=lambda x, v: x, h=lambda x: float(1.0 - x[0]))
        t_exact = (1.0 - x1_0) / c
        cfg = IntegratorConfig(max_step=step_frac * t_exact)
        ev = first_crossing(sys, np.array([x1_0]), U0, t0, t0 + 2.0 * t_exact + 1.0, cfg).event
        assert ev.t_hit - t0 == pytest.approx(t_exact, abs=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(centre=st.floats(0.3, 1.0), depth=st.floats(0.05, 0.1))
    def test_dip_inside_one_step_reports_first_crossing(self, centre, depth):
        # x' = 1, H = (x - centre)^2 - depth^2: H crosses down at centre -
        # depth and back up at centre + depth
        sys = HybridSystemDef(n=1, p=1, q=1, f=lambda x, u: np.array([1.0]),
                              delta=lambda x, v: x,
                              h=lambda x: float((x[0] - centre) ** 2 - depth ** 2))
        search = first_crossing(sys, np.array([0.0]), U0, 0.0, 3.0, CFG)
        seg = search.segment
        # both crossings sit inside the last accepted step
        assert seg.ts[-1] < centre - depth and seg.ts[-1] + seg.hs[-1] > centre + depth
        assert search.event.t_hit == pytest.approx(centre - depth, abs=1e-10)

    @settings(max_examples=8, deadline=None)
    @given(max_step=st.floats(0.02, 0.4), d_omega=st.floats(-0.05, 0.05))
    def test_halving_max_step_keeps_rimless_impacts(self, rimless_sys, max_step, d_omega):
        x0 = np.array([0.08 - math.pi / 8.0, RIMLESS_OMEGA_PLUS + d_omega])
        v0 = DiscreteSequence.zero(1)
        full = simulate(rimless_sys, x0, U0, v0, 5.0, cfg=IntegratorConfig(max_step=max_step))
        half = simulate(rimless_sys, x0, U0, v0, 5.0, cfg=IntegratorConfig(max_step=max_step / 2))
        assert len(full.impacts) == len(half.impacts) > 0
        assert np.max(np.abs(full.impact_times() - half.impact_times())) < 1e-8


class TestTimeToImpact:
    def test_fixed_point_period(self, linear_sys):
        out = poincare_map(linear_sys, np.array([1.0, 0.0]), U0, np.zeros(1), t_cap=5.0)
        assert out.time == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(out.state, [1.0, 0.0], atol=1e-9)

    def test_constant_input_leaves_timer_coordinate_alone(self, linear_sys):
        u = ContinuousSignal.constant([0.7])
        out = poincare_map(linear_sys, np.array([1.0, 0.0]), u, np.zeros(1), t_cap=5.0)
        assert out.time == pytest.approx(1.0, abs=1e-9)

    def test_discrete_input_enters_reset(self, linear_sys):
        out = poincare_map(linear_sys, np.array([1.0, 0.0]), U0, np.array([0.2]), t_cap=5.0)
        # x2 -> e^{-a} (x2 + v) = 0.1
        assert out.state[1] == pytest.approx(0.1, abs=1e-9)

    def test_infinite_when_flow_never_returns(self):
        # H strictly increasing along the flow after the reset
        sys = HybridSystemDef(n=1, p=1, q=1,
                              f=lambda x, u: np.array([1.0]),
                              delta=lambda x, v: np.array([1.0]),
                              h=lambda x: float(x[0]))
        with pytest.raises(InfiniteTimeToImpact):
            poincare_map(sys, np.array([0.0]), U0, np.zeros(1), t_cap=3.0)
        # the free flow from the reset image: no crossing, time inf
        out = first_crossing(sys, np.array([1.0]), U0, 0.0, 3.0, CFG)
        assert math.isinf(out.time)
        assert out.state is None

    def test_reset_below_surface_rejected(self):
        sys = HybridSystemDef(n=1, p=1, q=1,
                              f=lambda x, u: np.array([-1.0]),
                              delta=lambda x, v: np.array([-0.5]),
                              h=lambda x: float(x[0]))
        with pytest.raises(ResetNotInSPlus):
            poincare_map(sys, np.array([0.0]), U0, np.zeros(1), t_cap=3.0)

    def test_off_surface_state_rejected(self, linear_sys):
        with pytest.raises(PreconditionError):
            poincare_map(linear_sys, np.array([0.5, 0.0]), U0, np.zeros(1))

    def test_rimless_below_capture_is_infinite(self, rimless_sys):
        # post-reset speed cos(2a)*1.2 = 0.849 < 0.9757 needed to clear the apex
        with pytest.raises(InfiniteTimeToImpact):
            poincare_map(rimless_sys, np.array([RIMLESS_THETA_IMPACT, 1.2]),
                         U0, np.zeros(1), t_cap=8.0)


class TestTimeToImpactFromSplus:
    """first_crossing as the free-flow time to impact: the flow from a state
    strictly above the surface, no reset applied."""

    def test_timer_closed_form(self, linear_sys):
        out = first_crossing(linear_sys, np.array([0.25, 0.0]), U0, 0.0, 5.0, CFG)
        assert out.time == pytest.approx(0.75, abs=1e-10)
        assert np.allclose(out.state, [1.0, 0.0], atol=1e-9)

    def test_vdp_cycle_returns_within_a_period(self):
        sysd = models.model("vdp-adapter", mu=0.2)
        # just past the section: x2 slightly negative is below the surface,
        # so start slightly above it instead (x2 > 0, on the cycle's way down)
        out = first_crossing(sysd, np.array([2.0, 0.05]), U0, 0.0, 20.0, CFG)
        assert out.finite
        assert 0.0 < out.time < 2.0 * math.pi * (1 + 0.2 ** 2 / 16) * 1.05
        assert np.dot(sysd.surface_gradient(out.state), sysd.eval_f(out.state, np.zeros(1))) < 0.0


def test_time_to_impact_continuity_at_fixed_point(rimless_sys):
    # difference quotients of the impact time stay stable under halving
    x_star = np.array([RIMLESS_THETA_IMPACT, RIMLESS_OMEGA_STAR])
    t_base = poincare_map(rimless_sys, x_star, U0, np.zeros(1), t_cap=5.0).time
    assert t_base == pytest.approx(RIMLESS_T_STAR, abs=1e-8)
    quotients = []
    for eps in (1e-4, 5e-5, 2.5e-5):
        x = x_star + np.array([0.0, eps])
        t_eps = poincare_map(rimless_sys, x, U0, np.zeros(1), t_cap=5.0).time
        quotients.append((t_eps - t_base) / eps)
    assert abs(quotients[1] - quotients[0]) < 0.02 * max(1.0, abs(quotients[0]))
    assert abs(quotients[2] - quotients[1]) < 0.01 * max(1.0, abs(quotients[0]))


def test_impact_time_bounds_near_orbit(rimless_sys, rimless_orbit):
    # impact intervals from perturbed starts stay inside a positive band
    from sie.poincare import SurfaceChart

    chart = SurfaceChart.build(rimless_sys, rimless_orbit.x_star)
    z_star = chart.project(rimless_orbit.x_star)
    rng = np.random.default_rng(8)
    times = []
    for _ in range(200):
        z = z_star + rng.uniform(-0.05, 0.05, size=z_star.size)
        out = poincare_map(rimless_sys, chart.embed(z), U0, np.zeros(1), t_cap=8.0)
        assert out.finite
        times.append(out.time)
    t_lo, t_hi = min(times), max(times)
    assert t_lo > 0.0
    assert t_lo <= RIMLESS_T_STAR <= t_hi
    assert t_hi - t_lo < 0.4 * RIMLESS_T_STAR
