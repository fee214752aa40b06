import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sie.core import ContinuousSignal, HybridSystemDef
from sie.errors import Blowup, PreconditionError, StepLimitExceeded
from sie.flow import FlowSegment, IntegratorConfig, Stepper, _dense, integrate
from sie import models
from tests.conftest import LN2

U0 = ContinuousSignal.zero(1)


def test_linear_reset_closed_form_endpoint(linear_sys):
    # x1(t) = t, x2(t) = x2(0) e^{-a t}; a = ln 2 gives (1, 0.5) at t = 1
    seg = integrate(linear_sys, np.array([0.0, 1.0]), U0, (0.0, 1.0))
    assert np.allclose(seg.ys[-1], [1.0, 0.5], rtol=0.0, atol=1e-9)


def test_eval_at_t0_is_exact(linear_sys):
    x0 = np.array([0.125, 0.73])
    seg = integrate(linear_sys, x0, U0, (0.0, 0.8))
    assert np.array_equal(seg.eval(0.0), x0)
    assert np.array_equal(seg.eval(seg.t1), seg.ys[-1])


def test_dense_output_matches_closed_form(linear_sys):
    seg = integrate(linear_sys, np.array([0.0, 1.0]), U0, (0.0, 1.0))
    for t in np.linspace(0.0, 1.0, 41):
        expect = np.array([t, math.exp(-LN2 * t)])
        assert np.allclose(seg.eval(float(t)), expect, atol=2e-9)


def test_rimless_energy_conserved(rimless_sys):
    from tests.conftest import RIMLESS_OMEGA_PLUS
    x0 = np.array([0.08 - math.pi / 8.0, RIMLESS_OMEGA_PLUS])
    seg = integrate(rimless_sys, x0, U0, (0.0, 1.0))
    ts = np.linspace(0.0, 1.0, 200)
    states = seg.eval_many(ts)
    energy = 0.5 * states[:, 1] ** 2 + 9.81 * np.cos(states[:, 0])
    assert float(energy.max() - energy.min()) < 1e-8


def test_zero_vector_field_is_identity():
    sys = HybridSystemDef(n=2, p=1, q=1,
                          f=lambda x, u: np.zeros(2),
                          delta=lambda x, v: x, h=lambda x: 1.0)
    x0 = np.array([0.3, -1.7])
    seg = integrate(sys, x0, U0, (0.0, 5.0))
    for t in (0.0, 1.3, 5.0):
        assert np.array_equal(seg.eval(t), x0)


def test_semigroup_property():
    # flowing t then s with the shifted input equals flowing t+s
    sysd = models.model("rimless-wheel")
    u = ContinuousSignal.sinusoid([0.05], omega=4.0)
    cfg = IntegratorConfig()
    rng = np.random.default_rng(11)
    from tests.conftest import RIMLESS_OMEGA_PLUS
    for _ in range(20):
        t = rng.uniform(0.1, 0.5)
        s = rng.uniform(0.1, 0.5)
        x = np.array([0.08 - math.pi / 8.0, RIMLESS_OMEGA_PLUS]) + 0.01 * rng.normal(size=2)
        full = integrate(sysd, x, u, (0.0, t + s), cfg).ys[-1]
        mid = integrate(sysd, x, u, (0.0, t), cfg).ys[-1]
        two = integrate(sysd, mid, u.shifted(t), (0.0, s), cfg).ys[-1]
        bound = 50.0 * (cfg.rtol * float(np.linalg.norm(x)) + cfg.atol)
        assert float(np.linalg.norm(full - two)) <= bound


def test_order_sanity_tightening_pays_off():
    sysd = models.model("vdp-adapter", mu=0.2)
    x0 = np.array([2.0, 0.0])
    ref = integrate(sysd, x0, U0, (0.0, 3.0), IntegratorConfig(rtol=1e-11, atol=1e-13)).ys[-1]
    e_loose = np.linalg.norm(integrate(sysd, x0, U0, (0.0, 3.0),
                                       IntegratorConfig(rtol=1e-5, atol=1e-7)).ys[-1] - ref)
    e_tight = np.linalg.norm(integrate(sysd, x0, U0, (0.0, 3.0),
                                       IntegratorConfig(rtol=1e-7, atol=1e-9)).ys[-1] - ref)
    assert e_loose >= 10.0 * e_tight


def test_interpolant_error_within_tolerance_class():
    sysd = models.model("vdp-adapter", mu=0.2)
    x0 = np.array([1.0, 1.0])
    cfg = IntegratorConfig(rtol=1e-7, atol=1e-9)
    seg = integrate(sysd, x0, U0, (0.0, 4.0), cfg)
    ref = integrate(sysd, x0, U0, (0.0, 4.0), IntegratorConfig(rtol=1e-9, atol=1e-11))
    ts = np.linspace(0.0, 4.0, 97)
    err = np.max(np.linalg.norm(seg.eval_many(ts) - ref.eval_many(ts), axis=1))
    scale = max(1.0, float(np.max(np.abs(seg.eval_many(ts)))))
    assert err <= 100.0 * (cfg.rtol * scale + cfg.atol)


def test_step_stats_recorded(linear_sys):
    cfg = IntegratorConfig(max_step=0.05)
    seg = integrate(linear_sys, np.array([0.0, 1.0]), U0, (0.0, 1.0), cfg)
    assert seg.n_accepted == len(seg.ts)
    assert seg.hs.max() <= 0.05 + 1e-12
    assert seg.n_accepted >= 20


def test_step_limit_exceeded(linear_sys):
    cfg = IntegratorConfig(max_steps=5)
    with pytest.raises(StepLimitExceeded):
        integrate(linear_sys, np.array([0.0, 1.0]), U0, (0.0, 1.0),
                  IntegratorConfig(max_steps=5, max_step=0.01))


def test_blowup_carries_partial_segment():
    sys = HybridSystemDef(n=1, p=1, q=1,
                          f=lambda x, u: np.array([x[0] ** 2]),
                          delta=lambda x, v: x, h=lambda x: 1.0)
    with pytest.raises(Blowup) as exc:
        integrate(sys, np.array([1.0]), U0, (0.0, 2.0), IntegratorConfig(blowup=1e6))
    assert exc.value.segment is not None
    assert exc.value.t < 1.01  # 1/(1-t) blows up at t = 1
    assert exc.value.norm >= 1e6


@pytest.mark.parametrize("field", [
    {"blowup": 0.0}, {"blowup": -1.0}, {"max_steps": 0},
    {"rtol": math.nan}, {"atol": math.nan}, {"max_step": math.nan}, {"blowup": math.nan},
    {"max_steps": 2.5}, {"max_steps": math.nan}, {"max_steps": 10.0}])
def test_invalid_config_is_a_precondition_error(field):
    with pytest.raises(PreconditionError):
        IntegratorConfig(**field)


def test_invalid_span_and_state(linear_sys):
    with pytest.raises(PreconditionError):
        integrate(linear_sys, np.array([0.0, 1.0]), U0, (1.0, 1.0))
    with pytest.raises(PreconditionError):
        integrate(linear_sys, np.array([math.nan, 1.0]), U0, (0.0, 1.0))


@pytest.mark.parametrize("span", [(0.0, math.nan), (math.nan, 1.0), (math.nan, math.nan)])
def test_nan_span_is_rejected_before_stepping(linear_sys, span):
    # a NaN span end would otherwise step up to max_steps
    cfg = IntegratorConfig(max_steps=10)
    with pytest.raises(PreconditionError):
        Stepper(linear_sys, np.array([0.0, 1.0]), U0, *span, cfg)
    with pytest.raises(PreconditionError):
        integrate(linear_sys, np.array([0.0, 1.0]), U0, span, cfg)


def test_eval_many_matches_row_by_row_eval(rimless_sys):
    from tests.conftest import RIMLESS_OMEGA_PLUS
    x0 = np.array([0.08 - math.pi / 8.0, RIMLESS_OMEGA_PLUS])
    seg = integrate(rimless_sys, x0, ContinuousSignal.sinusoid([0.05], omega=4.0), (0.0, 1.0))
    rng = np.random.default_rng(12)
    # step nodes, step right ends, step interiors, the span ends, random times
    ts = np.concatenate([seg.ts, seg.ts + seg.hs, seg.ts + 0.37 * seg.hs,
                         [seg.t0, seg.t1], rng.uniform(seg.t0, seg.t1, 200)])
    ts = ts[ts <= seg.t1]
    batch = seg.eval_many(ts)
    for t, row in zip(ts, batch):
        assert np.array_equal(row, seg.eval(float(t)))
    assert np.array_equal(seg.eval_many(np.array([seg.t0, seg.t1])), seg.ys[[0, -1]])
    # outside the span eval raises and eval_many holds the end states
    with pytest.raises(PreconditionError):
        seg.eval(seg.t1 + 1e-3)
    assert np.array_equal(seg.eval_many(np.array([-1.0, 2.0])), seg.ys[[0, -1]])


@pytest.fixture(scope="module")
def rimless_segment(rimless_sys):
    from tests.conftest import RIMLESS_OMEGA_PLUS
    x0 = np.array([0.08 - math.pi / 8.0, RIMLESS_OMEGA_PLUS])
    return integrate(rimless_sys, x0, U0, (0.0, 1.0))


def test_jet_value_is_eval(rimless_segment):
    # the refine's jet and eval read one expression: the same bits
    seg = rimless_segment
    rng = np.random.default_rng(13)
    ts = np.concatenate([seg.ts, seg.ts + 0.37 * seg.hs, [seg.t0, seg.t1],
                         rng.uniform(seg.t0, seg.t1, 200)])
    for t in ts[ts <= seg.t1]:
        assert seg._jet(float(t))[0] == seg.eval(float(t)).tolist()
    # at and beyond the span's ends the value is the end node exactly
    for t, node in ((seg.t0, seg.ys[0]), (seg.t0 - 1e-3, seg.ys[0]), (seg.t1, seg.ys[-1]),
                    (seg.t1 + 1e-3, seg.ys[-1])):
        assert seg._jet(t)[0] == node.tolist()


def test_nan_time_is_a_precondition_error(rimless_segment):
    # every span comparison is False for NaN, so the check is negated
    seg = rimless_segment
    for t in (math.nan, np.array([0.5, math.nan])):
        with pytest.raises(PreconditionError):
            seg.eval(t)


def test_step_jet_of_nan_time_is_nan(rimless_segment):
    # the step arithmetic has no span check (the refine keeps tau inside its
    # bracket): a NaN time reads NaN, never an end node
    assert all(math.isnan(v) for part in rimless_segment._jet(math.nan) for v in part)


def test_jet_slope_at_step_nodes_is_the_vector_field(rimless_sys, rimless_segment):
    # the quartic's first coefficient is the FSAL stage k1 = f(y_left)
    seg = rimless_segment
    scale = max(1.0, float(np.max(np.abs(seg.ys))))
    for t, y_left in zip(seg.ts, seg.ys):
        _, dy, _ = seg._jet(float(t))
        f = rimless_sys.eval_f(y_left, np.zeros(1))
        assert np.max(np.abs(np.array(dy) - f)) <= 1e-12 * scale


def test_jet_derivatives_match_central_differences(rimless_segment):
    seg = rimless_segment
    scale = max(1.0, float(np.max(np.abs(seg.ys))))
    for t, h in zip(seg.ts, seg.hs):
        for frac in (0.25, 0.5, 0.75):
            tc = float(t + frac * h)
            if tc + 1e-3 * h >= seg.t1:
                continue
            _, dy, ddy = seg._jet(tc)
            dt = 1e-3 * h
            yp, y0, ym = seg.eval(tc + dt), seg.eval(tc), seg.eval(tc - dt)
            # quartic in t: the truncation errors are dt^2/6 y''' and dt^2/12 y''''
            assert np.max(np.abs(np.array(dy) - (yp - ym) / (2.0 * dt))) <= 1e-8 * scale
            assert np.max(np.abs(np.array(ddy) - (yp - 2.0 * y0 + ym) / dt**2)) <= 1e-4 * scale


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 9), steps=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_dense_expression_same_bits_on_floats_columns_and_blocks(n, steps, seed):
    # random steps with node and Q entries from 1e-150 to 1e150 in size:
    # eval, the float jet and the event bisection (floats), the column jet
    # (columns) and eval_many (blocks) read one expression, which gives a
    # record's (n,) block the same bits too
    rng = np.random.default_rng(seed)

    def magnitudes(*shape):
        return rng.normal(size=shape) * 10.0 ** rng.uniform(-150.0, 150.0, size=shape)

    hs = rng.uniform(1e-3, 10.0, steps)
    ts = rng.uniform(-100.0, 100.0) + np.concatenate([[0.0], np.cumsum(hs)[:-1]])
    seg = FlowSegment(t0=float(ts[0]), t1=float(ts[-1] + hs[-1]), ts=ts, hs=hs,
                      ys=magnitudes(steps + 1, n), qs=magnitudes(steps, n, 4),
                      n_accepted=steps, n_rejected=0)
    taus = np.concatenate([rng.uniform(seg.t0, seg.t1, 20), ts, [seg.t1]])
    block = seg.eval_many(taus)
    columns = seg._column_jet(taus)
    for k, tau in enumerate(taus.tolist()):
        y, dy, ddy = seg._jet(tau)
        assert _bits(seg.eval(tau)) == _bits(y) == _bits(block[k])
        for part, column in zip((y, dy, ddy), columns):
            assert _bits([c[k] for c in column]) == _bits(part)
        if seg.t0 < tau < seg.t1:
            i = int(ts[1:].searchsorted(tau, "right"))
            t, h, y0, q = ts[i], hs[i], seg.ys[i], seg.qs[i]
            assert _bits(_dense(t, h, y0.tolist(), q.tolist(), tau)) == _bits(y)
            assert _bits(_dense(t, h, [y0], [q.T], tau)[0]) == _bits(y)
