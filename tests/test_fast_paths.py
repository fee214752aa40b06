"""The fast paths pinned to their references, bit for bit:

- the stepper checks model output once per step, yet fails exactly as a
  check of every evaluator call does;
- a declared affine surface clears steps without sampling, yet the scan
  reports what the 12-sample scan reports;
- `nearest_chords` measures only the chord groups its bounding balls keep,
  yet returns the argmin of the full chord pass;
- the bootstrap draws all resamples before one median per side, yet reads
  the old per-resample loop's value.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sie import models
from sie.core import ContinuousSignal, DiscreteSequence, HybridSystemDef
from sie.errors import EvaluatorFailure, GrazeDetected
from sie.events import _scan_record, first_crossing
from sie.flow import IntegratorConfig, _quartic
from sie.hybrid import simulate
from sie.iss import _N_BOOT, _bootstrap_median_diff
from sie.orbit import Chords, _chord_sq_distances, nearest_chords
from tests.conftest import plain_twin

U0 = ContinuousSignal.zero(1)
V0 = DiscreteSequence.zero(1)
CFG = IntegratorConfig()


# ---------------------------------------------------------------------------
# the evaluator contract inside stepping

BAD_OUTPUTS = {
    "raises": None,
    "nan": np.array([1.0, math.nan]),
    "scalar": 1.0,
    "too-long": np.array([1.0, 0.0, 0.0]),
}


def _faulty(base, kind: str, bad_call: int):
    """base with an f that goes wrong at the bad_call-th distinct state it
    sees, and at every later call on that same state, so that a pass which
    evaluates a state twice meets the same fault; also returns the distinct
    states in the order first seen."""
    order: dict[bytes, int] = {}

    def f(x, u):
        if order.setdefault(x.tobytes(), len(order)) == bad_call - 1:
            if kind == "raises":
                raise ValueError("f refuses this state")
            return BAD_OUTPUTS[kind]
        return base.f(x, u)

    return replace(base, f=f), order


def _first_bad_failure(sysd, order, bad_call):
    """What the checked wrapper raises on the first bad evaluation: the
    failure an evaluation-by-evaluation check reports."""
    state = np.frombuffer(next(k for k, i in order.items() if i == bad_call - 1))
    with pytest.raises(EvaluatorFailure) as ref:
        sysd.eval_f(state.copy(), np.zeros(1))
    return ref.value, state


# call 1 is the first slope, call 2 the initial-step probe, so call 5 is
# stage 3 of the first step and call 41 lies in the seventh
@pytest.mark.parametrize("bad_call", [5, 41])
@pytest.mark.parametrize("kind", sorted(BAD_OUTPUTS))
def test_first_crossing_names_the_first_bad_stage(kind, bad_call):
    sysd, order = _faulty(models.model("linear-reset"), kind, bad_call)
    with pytest.raises(EvaluatorFailure) as got:
        first_crossing(sysd, np.array([0.0, 0.3]), U0, 0.0, 1.5, CFG)
    want, state = _first_bad_failure(sysd, order, bad_call)
    assert got.value.which == want.which == "f"
    assert np.array_equal(got.value.argument, state)
    assert got.value.detail == want.detail
    assert str(got.value) == str(want)


@pytest.mark.parametrize("kind", sorted(BAD_OUTPUTS))
def test_simulate_ends_in_the_same_error(kind):
    sysd, order = _faulty(models.model("linear-reset"), kind, 41)
    traj = simulate(sysd, np.array([0.0, 0.3]), U0, V0, 3.0)
    want, _ = _first_bad_failure(sysd, order, 41)
    assert traj.termination == "error"
    assert traj.error == str(want)


def test_list_output_is_accepted_bit_for_bit():
    base = models.model("rimless-wheel")
    listed = replace(base, f=lambda x, u: base.f(x, u).tolist())
    x0 = np.array([0.08 - math.pi / 8.0, 1.2])
    u = ContinuousSignal.sinusoid([0.1], 4.0)
    a = simulate(base, x0, u, V0, 3.0)
    b = simulate(listed, x0, u, V0, 3.0)
    assert a.termination == b.termination == "horizon-reached"
    assert len(a.segments) == len(b.segments)
    for sa, sb in zip(a.segments, b.segments):
        assert np.array_equal(sa.ts, sb.ts) and np.array_equal(sa.ys, sb.ys)
        assert np.array_equal(sa.qs, sb.qs)


# ---------------------------------------------------------------------------
# affine surfaces cleared per step


def _affine_pair(g: np.ndarray, c: float, drift: np.ndarray):
    """The same affine surface declared, and restated as a plain h with
    grad_h = g; the flow is the constant drift, so the crossing direction
    is g . drift."""
    declared = HybridSystemDef(n=len(g), p=1, q=1, f=lambda x, u: drift.copy(),
                               delta=lambda x, v: x, surface=(g, c))
    return declared, plain_twin(declared)


def _scan_outcome(sysd, record, from_t):
    # a graze and a refused flow derivative are outcomes too
    try:
        return _scan_record(sysd, U0.compile(), record, from_t)
    except GrazeDetected as exc:
        return ("graze", exc.args)
    except EvaluatorFailure as exc:
        return ("refused", exc.which, tuple(exc.argument), exc.detail)


def _same(a, b) -> bool:
    if a is None or b is None or isinstance(a[0], str) or isinstance(b[0], str):
        return a == b
    return a[0] == b[0] and np.array_equal(a[1], b[1]) and a[2:] == b[2:]


near_edge = st.one_of(st.floats(-1e-6, 1e-6), st.floats(1.0 - 1e-6, 1.0 + 1e-6))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 4), data=st.data(),
       r1=st.one_of(near_edge, st.floats(-0.5, 1.5)),
       gap=st.one_of(st.floats(-1e-6, 1e-6), st.floats(-1.5, 1.5)),
       lift=st.one_of(st.just(0.0), st.floats(-1e-9, 1e-9), st.floats(-1.0, 1.0)),
       beta=st.floats(-3.0, 3.0), gamma=st.floats(-1.0, 3.0), scale=st.floats(-1e3, 1e3),
       h=st.floats(1e-6, 10.0), t_left=st.floats(-100.0, 100.0),
       y_end_jitter=st.one_of(st.floats(-1e-12, 1e-12), st.floats(-1e-6, 1e-6)))
def test_declared_surface_scans_like_the_samples(n, data, r1, gap, lift, beta, gamma, scale,
                                                 h, t_left, y_end_jitter):
    # H along the step is scale (th - r1)(th - r2)(th^2 + beta th + gamma) + lift:
    # two roots planted near an edge or near each other, a quadratic factor
    # that may add two more, and a lift that can turn a pair into a near graze
    coords = st.floats(-10.0, 10.0)
    g = np.array(data.draw(st.lists(coords, min_size=n, max_size=n)))
    if not np.any(np.abs(g) > 1e-3):
        g[0] = 1.0
    c = data.draw(coords)
    y_rand = np.array(data.draw(st.lists(coords, min_size=n, max_size=n)))
    q_rand = np.array(data.draw(st.lists(coords, min_size=4 * n, max_size=4 * n))).reshape(n, 4)
    drift = np.array(data.draw(st.lists(coords, min_size=n, max_size=n)))
    r2 = r1 + gap
    poly = np.polynomial.polynomial
    p = scale * poly.polymul(poly.polyfromroots([r1, r2]), [gamma, beta, 1.0])
    p[0] += lift
    # y(th) = y_left + h Q [th, .., th^4] with c + g . y(th) = p(th)
    gg = g / (g @ g)
    y_left = y_rand + gg * (p[0] - c - g @ y_rand)
    Q = q_rand + np.outer(gg, p[1:] / h - g @ q_rand)
    # the end state, from which the next step starts, off the dense value
    y_right = _quartic(t_left, h, y_left, Q, t_left + h) + y_end_jitter * gg
    record = (t_left, h, y_left, y_right, Q)
    declared, plain = _affine_pair(g, c, drift)
    from_t = data.draw(st.sampled_from([t_left, t_left - 1.0]))
    assert _same(_scan_outcome(declared, record, from_t), _scan_outcome(plain, record, from_t))


@pytest.mark.parametrize("dip", range(5))
def test_every_bernstein_coefficient_guards_the_clear(dip):
    # H with Bernstein coefficients 1 except a -3 at one index dips below 0
    # around th = dip / 4, where the samples see it
    b = np.ones(5)
    b[dip] = -3.0
    # power coefficients a_k = C(4, k) sum over i <= k of (-1)^(k - i) C(k, i) b_i
    a = np.array([math.comb(4, k) * sum((-1) ** (k - i) * math.comb(k, i) * b[i]
                                        for i in range(k + 1)) for k in range(5)])
    g, c, h = np.array([1.0, 0.0]), 0.5, 0.2
    y_left = np.array([a[0] - c, 0.3])
    Q = np.vstack([a[1:] / h, np.zeros(4)])
    record = (2.0, h, y_left, _quartic(2.0, h, y_left, Q, 2.0 + h), Q)
    outcomes = []
    for drift in (np.array([-1.0, 0.0]), np.array([1.0, 0.0])):
        declared, plain = _affine_pair(g, c, drift)
        want = _scan_outcome(plain, record, 0.0)
        assert _same(_scan_outcome(declared, record, 0.0), want)
        outcomes.append(want)
    # under the downward flow the dip holds a crossing, unless H starts
    # below the surface
    assert (outcomes[0] is None) == (dip == 0)


def test_end_state_guards_the_clear():
    # H = 1 + 1e-6 - th along the dense output, so every Bernstein
    # coefficient clears the surface, but the step's end state, from which
    # the next step starts, lies 1e-6 below it: the samples see a crossing
    g, c, h = np.array([1.0, 0.0]), 0.5, 0.2
    y_left = np.array([1.0 + 1e-6 - c, 0.3])
    Q = np.array([[-1.0 / h, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    y_right = _quartic(2.0, h, y_left, Q, 2.0 + h) - 2e-6 * g
    declared, plain = _affine_pair(g, c, np.array([-1.0, 0.0]))
    want = _scan_outcome(plain, (2.0, h, y_left, y_right, Q), 0.0)
    assert want is not None
    assert _same(_scan_outcome(declared, (2.0, h, y_left, y_right, Q), 0.0), want)


@pytest.mark.parametrize("name, x0, t_end", [
    ("linear-reset", [0.0, 0.3], 3.5),
    ("rimless-wheel", [0.08 - math.pi / 8.0, 1.0954628396476573], 3.5),
    ("bouncing-ball", [1.0, 0.0], 3.0),
])
def test_catalog_crossings_match_the_undeclared_scan(name, x0, t_end, monkeypatch):
    declared = models.model(name)
    assert declared.surface is not None
    plain = plain_twin(declared)
    u = ContinuousSignal.sinusoid([0.05], 3.0)
    calls = {id(declared): 0, id(plain): 0}
    eval_h = HybridSystemDef.eval_h

    def counted(self, x):
        calls[id(self)] += 1
        return eval_h(self, x)

    monkeypatch.setattr(HybridSystemDef, "eval_h", counted)
    a = first_crossing(declared, np.array(x0), u, 0.0, t_end, CFG)
    b = first_crossing(plain, np.array(x0), u, 0.0, t_end, CFG)
    assert a.event is not None and b.event is not None
    assert (a.event.t_hit, a.event.lfh, a.event.localization_width) == \
        (b.event.t_hit, b.event.lfh, b.event.localization_width)
    assert np.array_equal(a.event.x_minus, b.event.x_minus)
    assert np.array_equal(a.segment.ys, b.segment.ys)
    # the declared scan samples only the step that holds the crossing, and
    # then bisects as the undeclared one does
    steps = a.segment.n_accepted
    assert calls[id(plain)] - calls[id(declared)] == 12 * (steps - 1)


# ---------------------------------------------------------------------------
# the grouped chord pass


def _polyline(draw_walk, repeats, m):
    pts = np.cumsum(draw_walk, axis=0)
    for i in sorted(set(repeats), reverse=True):
        if i < len(pts):
            pts = np.insert(pts, i, pts[i], axis=0)
    return pts[:m + 1]


@settings(max_examples=120, deadline=None)
@given(data=st.data(), n=st.integers(1, 3),
       m=st.one_of(st.integers(1, 63), st.sampled_from([64, 128, 192, 256]),
                   st.integers(65, 400)),
       seed=st.integers(0, 2**32 - 1))
def test_grouped_chord_pass_is_the_full_argmin(data, n, m, seed):
    rng = np.random.default_rng(seed)
    step = 10.0 ** data.draw(st.floats(-4.0, 1.0))
    walk = rng.normal(scale=step, size=(m + 1 + m // 4, n))
    repeats = data.draw(st.lists(st.integers(0, m), max_size=m // 4))
    pts = _polyline(walk, repeats, m)
    if len(pts) < 2:
        pts = np.vstack([pts, pts])
    k = data.draw(st.integers(1, 60))
    base = pts[rng.integers(0, len(pts), size=k)]
    offsets = rng.normal(size=(k, n)) * 10.0 ** rng.uniform(-12.0, 6.0, size=(k, 1))
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    inside = lo + (hi - lo) * rng.uniform(size=(k, n))
    xs = np.vstack([base + offsets, inside, pts[:3],
                    pts.mean(axis=0) + 1e7 * rng.normal(size=(2, n))])
    chords = Chords.of(pts)
    idx, dist = nearest_chords(chords, xs)
    full = _chord_sq_distances(chords, xs)
    assert np.array_equal(idx, np.argmin(full, axis=1))
    assert np.array_equal(dist, np.sqrt(np.min(full, axis=1)))


def _loop(center, radius, start_angle):
    th = start_angle + np.linspace(0.0, 2.0 * math.pi, 65)
    return np.asarray(center) + radius * np.column_stack([np.cos(th), np.sin(th)])


def test_grouped_chord_pass_with_uneven_balls():
    # three groups of 64 chords, each a closed loop through (1, 0): a unit
    # circle, a small one just outside it and a mid-sized one inside it.
    # Off the unit circle's rim, the nearest chord's group has a lower bound
    # within a tenth of its radius of the small loop's upper bound; at the
    # unit circle's center the inner loop's lower bound sits above half the
    # unit circle's radius; bounds any looser or tighter than the true
    # ones drop the nearest group there
    pts = np.vstack([_loop((0.0, 0.0), 1.0, 0.0), _loop((1.02, 0.0), 0.02, math.pi)[1:],
                     _loop((0.8, 0.0), 0.2, 0.0)[1:]])
    phi = math.acos((1.03 ** 2 + 1.02 ** 2 - 0.08 ** 2) / (2.0 * 1.03 * 1.02))
    xs = np.array([[1.03 * math.cos(phi), 1.03 * math.sin(phi)], [0.0, 0.0],
                   [1.0, 0.0], [1.2, 0.0], [0.8, 0.0], [-1.5, 0.3]])
    chords = Chords.of(pts)
    assert len(chords.sq_lengths) == 3 * 64
    idx, dist = nearest_chords(chords, xs)
    full = _chord_sq_distances(chords, xs)
    assert np.array_equal(idx, np.argmin(full, axis=1))
    assert np.array_equal(dist, np.sqrt(np.min(full, axis=1)))


def test_grouped_chord_pass_on_rows_without_finite_distances():
    # NaN and infinite rows, and finite rows whose squared distances
    # overflow, get what the full pass gives them
    pts = np.random.default_rng(7).normal(size=(150, 2))
    xs = np.array([[math.nan, 0.0], [math.inf, 0.0], [-math.inf, math.inf], [1e200, 1e200],
                   [0.1, 0.2], [1e150, -3.0]])
    chords = Chords.of(pts)
    with np.errstate(over="ignore", invalid="ignore"):
        idx, dist = nearest_chords(chords, xs)
        full = _chord_sq_distances(chords, xs)
    assert np.array_equal(idx, np.argmin(full, axis=1))
    assert np.array_equal(dist, np.sqrt(np.min(full, axis=1)), equal_nan=True)


def test_grouped_chord_pass_on_a_forced_trajectory(rimless_orbit, rimless_sys):
    x0 = rimless_orbit.points[0] + np.array([0.0, 0.05])
    traj = simulate(rimless_sys, x0, ContinuousSignal.sinusoid([0.1], 4.0),
                    DiscreteSequence.iid_uniform(0.02, seed=5), 10.0)
    xs = traj.eval_many(np.linspace(0.0, traj.t_final, 3000))
    idx, dist = nearest_chords(rimless_orbit.chords, xs)
    full = _chord_sq_distances(rimless_orbit.chords, xs)
    assert np.array_equal(idx, np.argmin(full, axis=1))
    assert np.array_equal(dist, np.sqrt(np.min(full, axis=1)))


# ---------------------------------------------------------------------------
# the bootstrap


def _bootstrap_reference(low, high, seed):
    """The per-resample loop: one choice and one median per side per
    resample."""
    rng = np.random.default_rng(seed)
    diffs = np.empty(_N_BOOT)
    for b in range(_N_BOOT):
        lo = rng.choice(low, size=len(low), replace=True)
        hi = rng.choice(high, size=len(high), replace=True)
        diffs[b] = np.median(hi) - np.median(lo)
    return float(np.quantile(diffs, 0.05))


@settings(max_examples=60, deadline=None)
@given(n_low=st.integers(1, 60), n_high=st.integers(1, 60), seed=st.integers(0, 2**63 - 1),
       values=st.integers(0, 2**32 - 1), ties=st.booleans())
def test_bootstrap_matches_the_per_resample_loop(n_low, n_high, seed, values, ties):
    rng = np.random.default_rng(values)
    low, high = rng.normal(size=n_low), rng.normal(loc=0.3, size=n_high)
    if ties:
        low, high = np.round(low, 1), np.round(high, 1)
    assert _bootstrap_median_diff(low, high, seed) == _bootstrap_reference(low, high, seed)
