"""The fast paths pinned to their references, bit for bit:

- the stepper checks model output once per step, yet fails exactly as a
  check of every evaluator call does;
- the stepper makes its products through fewer NumPy calls, yet steps
  exactly as the former kernel does, and `.dot` gives what `@` gives on
  each of the kernel's products;
- a declared affine surface clears steps without sampling, yet the scan
  reports what the 12-sample scan reports;
- `nearest_chords` measures the rows in blocks, yet returns the argmin of
  the chord pass over all rows at once;
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
from sie.errors import Blowup, EvaluatorFailure, GrazeDetected, PreconditionError, StepLimitExceeded
from sie.events import _CLEAR_REL, _clears_surface, _scan_record, first_crossing
from sie.flow import (_A, _C, _E, _ERR_EXPONENT, _MAX_FACTOR, _MIN_FACTOR, _P, _SAFETY,
                      FlowSegment, IntegratorConfig, Stepper, _build_segment, _dense)
from sie.hybrid import simulate
from sie.iss import _N_BOOT, _bootstrap_median_diff
from sie.orbit import Chords, _chord_sq_distances, nearest_chords
from sie.poincare import _Variational
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
# the stepper kernel against the former one


class _ReferenceStepper(Stepper):
    """The stepper with the former `_stages` and `step`, verbatim but for
    their comments: every product through `@` on fresh temporaries, the
    record's y_left copied."""

    def _stages(self, h: float, f) -> tuple[np.ndarray, np.ndarray]:
        t, y, ufn, shape = self.t, self.y, self.ufn, self.y.shape
        K = np.empty((7, y.size))
        K[0] = self._k1
        for i in range(1, 7):
            yi = y + h * (_A[i] @ K[:i])
            out = f(yi, ufn(t + _C[i] * h))
            if out.__class__ is not np.ndarray or out.shape != shape:
                out = np.asarray(out, dtype=float)
                if out.shape != shape:
                    raise ValueError(f"stage {i} returned shape {out.shape}")
            K[i] = out
        return K, yi

    def step(self) -> tuple[float, float, np.ndarray, np.ndarray, np.ndarray]:
        if self.done:
            raise PreconditionError("stepper already reached the end of its span")
        n_sqrt = math.sqrt(self.y.size)
        while True:
            if self.n_accepted + self.n_rejected >= self.cfg.max_steps:
                raise StepLimitExceeded(self.cfg.max_steps, self.t)
            h = min(self._h, self.cfg.max_step, self.t_end - self.t)
            tiny = 10.0 * abs(math.nextafter(self.t, math.inf) - self.t)
            if h < tiny:
                h = tiny
            try:
                K, y_new = self._stages(h, self.sys.f)
                ok = np.isfinite(K).all()
            except Exception:  # noqa: BLE001 - the checked pass names the failure
                ok = False
            if not ok:
                K, y_new = self._stages(h, self.sys.eval_f)
            scale = self.cfg.atol + self.cfg.rtol * np.maximum(np.abs(self.y), np.abs(y_new))
            e = (h * (_E @ K)) / scale
            err = math.sqrt(float(e @ e)) / n_sqrt
            if err <= 1.0:
                t_left = self.t
                Q = K.T @ _P
                self.t = self.t_end if (self.t + h) >= self.t_end - tiny else self.t + h
                record = (t_left, h, self.y.copy(), y_new, Q)
                self.records.append(record)
                self.y = y_new
                self._k1 = K[6]
                self.n_accepted += 1
                factor = _MAX_FACTOR if err == 0.0 else min(_MAX_FACTOR, _SAFETY * err**_ERR_EXPONENT)
                self._h = h * factor
                if not (np.abs(y_new) <= self.cfg.blowup).all():
                    raise Blowup(self.t, float(np.max(np.abs(y_new))), _build_segment(
                        self.records, self.records[0][0], self.t, self.n_accepted, self.n_rejected))
                return record
            self.n_rejected += 1
            self._h = h * max(_MIN_FACTOR, _SAFETY * err**_ERR_EXPONENT)


def _run(stepper_cls, sysd, x0, u, span, cfg):
    """`integrate` with the given stepper: ("done", segment), or what the
    error it raised carries."""
    t0, t1 = span
    stepper = stepper_cls(sysd, np.array(x0, dtype=float), u, t0, t1, cfg)
    try:
        while not stepper.done:
            stepper.step()
    except Blowup as exc:
        return "blowup", exc.t, exc.norm, exc.segment
    except StepLimitExceeded as exc:
        return "step-limit", exc.max_steps, exc.t
    return "done", _build_segment(stepper.records, t0, t1, stepper.n_accepted, stepper.n_rejected)


def _assert_same_run(sysd, x0, u, span, cfg):
    """The stepper and the reference agree bit for bit; returns the
    reference's outcome."""
    want = _run(_ReferenceStepper, sysd, x0, u, span, cfg)
    got = _run(Stepper, sysd, x0, u, span, cfg)
    assert len(got) == len(want) and got[0] == want[0]
    for a, b in zip(got[1:], want[1:]):
        if isinstance(b, FlowSegment):
            assert (a.t0, a.t1, a.n_accepted, a.n_rejected) == (b.t0, b.t1, b.n_accepted, b.n_rejected)
            for name in ("ts", "hs", "ys", "qs"):
                assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True), name
        else:
            assert a == b
    return want


# a start, a span and an input dimension per catalog model
STARTS = {
    "linear-reset": ([0.0, 0.3], (0.0, 1.5)),
    "rimless-wheel": ([0.08 - math.pi / 8.0, 1.1], (0.0, 0.5)),
    "vdp-adapter": ([2.0, 0.0], (0.0, 6.3)),
    "bouncing-ball": ([1.0, 0.0], (0.0, 0.4)),
}
INPUTS = {
    "zero": lambda p: ContinuousSignal.zero(p),
    "sinusoid": lambda p: ContinuousSignal.sinusoid([0.05] * p, 4.0, 0.3),
    "tabulated": lambda p: ContinuousSignal.tabulated(
        [0.0, 0.2, 0.7, 3.0], [[0.0] * p, [0.08] * p, [-0.05] * p, [0.02] * p]),
}
MAP_CFG = IntegratorConfig(rtol=1e-12, atol=1e-14)


def _variational_start(x0):
    n = len(x0)
    return np.concatenate((x0, np.eye(n).ravel()))


def test_catalog_covers_every_model():
    assert sorted(STARTS) == sorted(models.catalog())


@pytest.mark.parametrize("cfg", [CFG, MAP_CFG], ids=["default", "map-tolerance"])
@pytest.mark.parametrize("signal", sorted(INPUTS))
@pytest.mark.parametrize("name", sorted(STARTS))
def test_kernel_steps_as_the_reference(name, signal, cfg):
    sysd = models.model(name)
    x0, span = STARTS[name]
    u = INPUTS[signal](sysd.p)
    assert _assert_same_run(sysd, x0, u, span, cfg)[0] == "done"
    var = _Variational.of(sysd)
    assert _assert_same_run(var, _variational_start(x0), u, span, cfg)[0] == "done"


def test_kernel_with_a_finite_max_step():
    sysd = models.model("rimless-wheel")
    x0, span = STARTS["rimless-wheel"]
    cfg = IntegratorConfig(max_step=0.013)
    _, seg = _assert_same_run(sysd, x0, INPUTS["sinusoid"](1), span, cfg)
    assert seg.hs.max() == 0.013


def test_kernel_at_a_span_end_that_snaps():
    # a span end one ulp above a step end: that step lands within rounding
    # of it and snaps, its record keeping the step size it used
    sysd = models.model("vdp-adapter")
    x0 = STARTS["vdp-adapter"][0]
    _, free = _run(_ReferenceStepper, sysd, x0, U0, (0.0, 6.3), CFG)
    t_end = math.nextafter(free.ts[5] + free.hs[5], math.inf)
    _, seg = _assert_same_run(sysd, x0, U0, (0.0, t_end), CFG)
    assert seg.t1 == t_end and seg.n_accepted == 6
    assert seg.ts[-1] + seg.hs[-1] != t_end


def test_kernel_through_rejected_steps():
    sysd = models.model("vdp-adapter")
    x0, span = STARTS["vdp-adapter"]
    _, seg = _assert_same_run(sysd, x0, U0, span, CFG)
    assert seg.n_rejected > 0
    _, seg = _assert_same_run(_Variational.of(sysd), _variational_start(x0), U0, span, CFG)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(STARTS)), variational=st.booleans(),
       shift=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)))
def test_kernel_from_drawn_starts(name, variational, shift):
    sysd = models.model(name)
    x0, span = STARTS[name]
    x0 = np.array(x0) + np.array(shift)
    if variational:
        sysd, x0 = _Variational.of(sysd), _variational_start(x0)
    _assert_same_run(sysd, x0, INPUTS["sinusoid"](sysd.p), span, CFG)


def _explosive(f):
    return HybridSystemDef(n=1, p=1, q=1, f=f, delta=lambda x, v: x, surface=([1.0], 10.0))


def test_kernel_blows_up_as_the_reference():
    # x' = x^2 from 1 leaves every bound before t = 1
    sysd = _explosive(lambda x, u: x * x)
    out = _assert_same_run(sysd, [1.0], U0, (0.0, 2.0), IntegratorConfig(blowup=1e3))
    assert out[0] == "blowup" and out[3].n_accepted > 1


@pytest.mark.parametrize("max_steps", [1, 7, 40])
def test_kernel_runs_out_of_steps_as_the_reference(max_steps):
    sysd = models.model("vdp-adapter")
    x0, span = STARTS["vdp-adapter"]
    out = _assert_same_run(sysd, x0, U0, span, replace(MAP_CFG, max_steps=max_steps))
    assert out[:2] == ("step-limit", max_steps)


def test_kernel_on_finite_slopes_whose_sum_overflows():
    # every slope is 1e308: the sum of K overflows, so the step goes through
    # the checked pass, which returns the same K (the dense matrix overflows
    # too, on both sides)
    sysd = _explosive(lambda x, u: np.array([1e308]))
    with np.errstate(over="ignore", invalid="ignore"):
        out = _assert_same_run(sysd, [0.0], U0, (0.0, 1.0), IntegratorConfig(max_steps=30))
    assert out[0] in ("blowup", "step-limit")


def _magnitudes(rng, shape):
    """Entries whose pairwise products range from 1e-300 to 1e300."""
    return rng.normal(size=shape) * 10.0 ** rng.uniform(-150.0, 150.0, size=shape)


@pytest.mark.parametrize("n", range(1, 21))
def test_dot_is_matmul_on_the_kernel_products(n):
    # the tableau's own coefficients, then random ones, against a fresh
    # (7, n) K as the stepper makes it
    rng = np.random.default_rng(n)
    for draw in range(60):
        K = np.empty((7, n))
        K[:] = _magnitudes(rng, (7, n))
        a, p = (_magnitudes(rng, 7), _magnitudes(rng, (7, 4))) if draw % 2 else (None, _P)
        pairs = [(f"stage row ({i},) . ({i}, {n})", _A[i] if a is None else a[:i], K[:i])
                 for i in range(1, 7)]
        pairs += [(f"error row (7,) . (7, {n})", _E if a is None else a, K),
                  (f"dense matrix ({n}, 7) . (7, 4)", K.T, p),
                  (f"ddot ({n},) . ({n},)", K[1], K[2])]
        for name, x, y in pairs:
            with np.errstate(all="ignore"):
                got, want = x.dot(y), x @ y
            if not np.array_equal(got, want, equal_nan=True):
                pytest.fail(f"{name}: .dot and @ differ in draw {draw}: {got!r} vs {want!r}")


@pytest.mark.parametrize("n", range(1, 10))
def test_dot_is_matmul_on_the_variational_product(n):
    # Df (n, n) times Psi, the (n, n) view of the state's tail
    rng = np.random.default_rng(100 + n)
    for draw in range(200):
        jac = _magnitudes(rng, (n, n))
        X = _magnitudes(rng, n + n * n)
        psi = X[n:].reshape(n, n)
        with np.errstate(all="ignore"):
            got, want = jac.dot(psi), jac @ psi
        if not np.array_equal(got, want, equal_nan=True):
            pytest.fail(f"variational ({n}, {n}) . ({n}, {n}): .dot and @ differ in draw {draw}")


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
    y_right = _dense(t_left, h, [y_left], [Q.T], t_left + h)[0] + y_end_jitter * gg
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
    record = (2.0, h, y_left, _dense(2.0, h, [y_left], [Q.T], 2.0 + h)[0], Q)
    outcomes = []
    for drift in (np.array([-1.0, 0.0]), np.array([1.0, 0.0])):
        declared, plain = _affine_pair(g, c, drift)
        want = _scan_outcome(plain, record, 0.0)
        assert _same(_scan_outcome(declared, record, 0.0), want)
        outcomes.append(want)
    # under the downward flow the dip holds a crossing, unless H starts
    # below the surface
    assert (outcomes[0] is None) == (dip == 0)


def _clear_terms_over_every_coordinate(surface, record) -> tuple[float, float]:
    """The former clear's least Bernstein coefficient and margin size, from
    every coordinate's term, zero g_j included."""
    g, c = surface
    _t_left, h, y_left, y_right, Q = record
    a0 = a_right = c
    a1 = a2 = a3 = a4 = 0.0
    size = 1.0 + abs(c)
    for gj, yl, yr, (q1, q2, q3, q4) in zip(g.tolist(), y_left.tolist(), y_right.tolist(),
                                           Q.tolist()):
        a0 += gj * yl
        a_right += gj * yr
        a1 += gj * q1
        a2 += gj * q2
        a3 += gj * q3
        a4 += gj * q4
        size += abs(gj) * (abs(yl) + abs(h) * (abs(q1) + abs(q2) + abs(q3) + abs(q4)))
    a1, a2, a3, a4 = h * a1, h * a2, h * a3, h * a4
    lowest = min(a0, a_right, a0 + a1 / 4, a0 + a1 / 2 + a2 / 6,
                 a0 + 3 * a1 / 4 + a2 / 2 + a3 / 4, a0 + a1 + a2 + a3 + a4)
    return lowest, size


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 12), h=st.floats(1e-9, 10.0),
       factor=st.sampled_from([0.5, 0.99, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.01, 1.5, 3.0]))
def test_clear_over_nonzero_terms_is_the_full_sum(data, n, h, factor):
    # g with zero entries, as a variational system pads it, and c set so
    # that the least Bernstein coefficient sits at factor times the margin,
    # where a changed sum or margin flips the outcome
    coords = st.floats(-10.0, 10.0)
    g = np.array(data.draw(st.lists(st.one_of(st.just(0.0), st.just(-0.0), coords),
                                    min_size=n, max_size=n)))
    y_left = np.array(data.draw(st.lists(coords, min_size=n, max_size=n)))
    Q = np.array(data.draw(st.lists(coords, min_size=4 * n, max_size=4 * n))).reshape(n, 4) / h
    record = (0.0, h, y_left, _dense(0.0, h, [y_left], [Q.T], h)[0], Q)
    lowest, size = _clear_terms_over_every_coordinate((g, 0.0), record)
    c = factor * _CLEAR_REL * size - lowest
    declared = HybridSystemDef(n=n, p=1, q=1, f=lambda x, u: x, delta=lambda x, v: x,
                               surface=(g, c))
    lowest, size = _clear_terms_over_every_coordinate(declared.surface, record)
    assert _clears_surface(declared._surface_terms, record) == (lowest > _CLEAR_REL * size)


def test_end_state_guards_the_clear():
    # H = 1 + 1e-6 - th along the dense output, so every Bernstein
    # coefficient clears the surface, but the step's end state, from which
    # the next step starts, lies 1e-6 below it: the samples see a crossing
    g, c, h = np.array([1.0, 0.0]), 0.5, 0.2
    y_left = np.array([1.0 + 1e-6 - c, 0.3])
    Q = np.array([[-1.0 / h, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    y_right = _dense(2.0, h, [y_left], [Q.T], 2.0 + h)[0] - 2e-6 * g
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
# the chord pass in row blocks


def test_plain_chord_pass_on_rows_without_finite_distances():
    # NaN and infinite rows, and finite rows whose squared distances
    # overflow, get what the full pass gives them
    pts = np.random.default_rng(7).normal(size=(150, 2))
    xs = np.array([[math.nan, 0.0], [math.inf, 0.0], [-math.inf, math.inf], [1e200, 1e200],
                   [0.1, 0.2], [1e150, -3.0]])
    chords = Chords.of(np.arange(150.0), pts)
    with np.errstate(over="ignore", invalid="ignore"):
        idx, dist = nearest_chords(chords, xs)
        full = _chord_sq_distances(chords, xs)
    assert np.array_equal(idx, np.argmin(full, axis=1))
    assert np.array_equal(dist, np.sqrt(np.min(full, axis=1)), equal_nan=True)


def test_plain_chord_pass_on_a_forced_trajectory(rimless_orbit, rimless_sys):
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
