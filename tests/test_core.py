import math
from dataclasses import replace

import numpy as np
import pytest

from sie import _rng
from sie.core import (ContinuousSignal, DiscreteSequence, HybridSystemDef,
                      central_difference, euclidean, validate_system)
from sie.errors import EvaluatorFailure, PreconditionError
from sie import models
from sie.orbit import Chords, nearest_chords
from sie.poincare import _Variational


def test_splitmix64_reference_vectors():
    # published outputs of the splitmix64 stream seeded with 0
    assert _rng.splitmix64(0, 0) == 0xE220A8397B1DCDAF
    assert _rng.splitmix64(0, 1) == 0x6E789E6AA1B965F4
    assert _rng.splitmix64(0, 2) == 0x06C45D188009454F


def test_uniform01_range():
    vals = [_rng.uniform01(1234, i) for i in range(1000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert 0.4 < np.mean(vals) < 0.6


class TestSignals:
    def test_zero(self):
        u = ContinuousSignal.zero(2)
        assert u.sup_norm() == 0.0
        assert np.array_equal(u.compile()(3.7), np.zeros(2))

    def test_sinusoid_matches_forcing_template(self):
        # amplitude (5, 0) at angular frequency 4 has sup norm 5
        u = ContinuousSignal.sinusoid([5.0, 0.0], omega=4.0)
        assert u.sup_norm() == pytest.approx(5.0, abs=0.0)
        fn = u.compile()
        assert fn(0.0)[0] == 0.0
        assert fn(math.pi / 8.0)[0] == pytest.approx(5.0, abs=1e-12)

    def test_constant_norm(self):
        assert ContinuousSignal.constant([3.0, 4.0]).sup_norm() == pytest.approx(5.0)

    def test_tabulated_interpolates_linearly(self):
        u = ContinuousSignal.tabulated([0.0, 1.0, 2.0], [[0.0], [2.0], [0.0]])
        fn = u.compile()
        assert fn(0.5)[0] == pytest.approx(1.0)
        assert fn(1.5)[0] == pytest.approx(1.0)
        assert fn(5.0)[0] == pytest.approx(0.0)  # held beyond the last sample
        assert u.sup_norm() == pytest.approx(2.0)

    def test_composite_bound_is_sum(self):
        u = ContinuousSignal.composite([
            ContinuousSignal.constant([1.0]),
            ContinuousSignal.sinusoid([0.5], omega=2.0),
        ])
        assert u.sup_norm() == pytest.approx(1.5)
        assert u.compile()(0.0)[0] == pytest.approx(1.0)

    def test_scaled_and_shifted(self):
        u = ContinuousSignal.sinusoid([2.0], omega=3.0).scaled(0.5)
        assert u.sup_norm() == pytest.approx(1.0)
        shifted = u.shifted(1.25)
        assert shifted.compile()(0.5)[0] == pytest.approx(u.compile()(1.75)[0])

    @pytest.mark.parametrize("u", [
        ContinuousSignal.zero(1),
        ContinuousSignal.constant([3.0, 4.0]),
        ContinuousSignal.sinusoid([5.0, 0.0], omega=4.0, phase=0.3),
        ContinuousSignal.tabulated([0.0, 0.3, 2.0], [[1.0, 0.0], [-2.0, 0.5], [0.3, 0.3]]),
        ContinuousSignal.composite([ContinuousSignal.constant([1.0, 0.0]),
                                    ContinuousSignal.sinusoid([0.0, 2.0], omega=1.7)]),
    ])
    def test_sampled_max_below_sup_norm(self, u):
        fn = u.compile()
        ts = np.linspace(0.0, 50.0, 100_000)
        bound = u.sup_norm()
        worst = max(euclidean(fn(t)) for t in ts[::97])  # coarse pre-check
        assert worst <= bound + 1e-9
        sampled = np.array([euclidean(fn(t)) for t in ts])
        assert float(sampled.max()) <= bound + 1e-9

    def test_tabulated_validation(self):
        with pytest.raises(PreconditionError):
            ContinuousSignal.tabulated([0.0, 0.0], [[1.0], [2.0]])
        with pytest.raises(PreconditionError):
            ContinuousSignal.tabulated([0.0], [[1.0]])


class TestDiscreteSequence:
    def test_seed_replays_identically(self):
        a = DiscreteSequence.iid_uniform(0.3, seed=99, dim=2)
        b = DiscreteSequence.iid_uniform(0.3, seed=99, dim=2)
        for k in (0, 1, 5, 1000):
            assert np.array_equal(a[k], b[k])

    def test_iid_bound_and_sup_norm(self):
        seq = DiscreteSequence.iid_uniform([0.2, 0.1], seed=5)
        assert seq.sup_norm() == pytest.approx(math.hypot(0.2, 0.1))
        for k in range(200):
            v = seq[k]
            assert abs(v[0]) <= 0.2 and abs(v[1]) <= 0.1

    def test_constant_and_explicit(self):
        c = DiscreteSequence.constant([1.0, -2.0])
        assert np.array_equal(c[7], np.array([1.0, -2.0]))
        assert c.sup_norm() == pytest.approx(math.sqrt(5.0))
        e = DiscreteSequence.explicit([[1.0], [2.0], [3.0]])
        assert e[1][0] == 2.0
        assert e[10][0] == 3.0  # held at the last entry
        assert e.sup_norm() == pytest.approx(3.0)

    @pytest.mark.parametrize("bound", [-0.1, math.nan, [0.1, math.nan]])
    def test_negative_or_nan_bound_rejected(self, bound):
        with pytest.raises(PreconditionError):
            DiscreteSequence.iid_uniform(bound, seed=1)

    def test_scaled(self):
        seq = DiscreteSequence.iid_uniform(1.0, seed=3).scaled(0.25)
        assert seq.sup_norm() == pytest.approx(0.25)
        assert abs(seq[0][0]) <= 0.25


class TestDistance:
    """Distance to a random polyline, the point set every orbit-distance
    query reduces to; its vertices lie on it."""

    def test_point_set_distance_upper_bounds_all_members(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(50, 3))
        x = rng.normal(size=3)
        d = nearest_chords(Chords.of(pts), x[None, :])[1][0]
        assert all(d <= np.linalg.norm(x - y) + 1e-15 for y in pts)

    def test_point_set_distance_is_1_lipschitz(self):
        rng = np.random.default_rng(1)
        chords = Chords.of(rng.normal(size=(40, 2)))
        for _ in range(200):
            x, xp = rng.normal(size=2), rng.normal(size=2)
            d, dp = nearest_chords(chords, np.stack([x, xp]))[1]
            assert abs(d - dp) <= np.linalg.norm(x - xp) + 1e-12


def test_central_difference_matches_column_loop():
    def loop(fn, x, rel_step):
        # the per-column loop the gradient, Newton and linearize estimates used
        cols = []
        for i in range(x.size):
            step = rel_step * max(1.0, abs(x[i]))
            xp, xm = x.copy(), x.copy()
            xp[i] += step
            xm[i] -= step
            cols.append((fn(xp) - fn(xm)) / (2.0 * step))
        return np.array(cols).T

    x = np.array([0.3, -2.5, 7.0])
    vec = lambda y: np.array([np.sin(y[0]) * y[1], y[2] ** 3 - y[0]])
    scal = lambda y: float(np.exp(y[0]) + y[1] * y[2])
    J = central_difference(vec, x, 1e-5)
    g = central_difference(scal, x, 1e-6)
    assert J.shape == (2, 3) and g.shape == (3,)
    assert np.array_equal(J, loop(vec, x, 1e-5))
    assert np.array_equal(g, loop(scal, x, 1e-6))
    assert central_difference(vec, np.empty(0), 1e-5).shape == (0, 0)


class TestValidateSystem:
    def test_linear_reset_probes_pass(self, linear_sys):
        probes = [np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.5, 2.0])]
        rep = validate_system(linear_sys, probes)
        assert not rep.degenerate_gradient_flagged

    def test_rimless_probes_pass(self, rimless_sys):
        theta_s = 0.08 + math.pi / 8.0
        rep = validate_system(rimless_sys, [np.array([theta_s, 1.5]), np.array([theta_s, 1.0])])
        assert all(p.on_surface for p in rep.probes)
        assert not rep.degenerate_gradient_flagged

    def test_constant_h_flags_degenerate_gradient(self):
        sys = HybridSystemDef(n=1, p=1, q=1,
                              f=lambda x, u: np.array([1.0]),
                              delta=lambda x, v: x,
                              h=lambda x: 0.0)
        rep = validate_system(sys, [np.array([0.3]), np.array([-2.0])])
        assert rep.degenerate_gradient_flagged

    def test_evaluator_failure_carries_probe_index(self):
        def bad_f(x, u):
            raise ValueError("boom")

        sys = HybridSystemDef(n=1, p=1, q=1, f=bad_f,
                              delta=lambda x, v: x, h=lambda x: float(x[0]))
        with pytest.raises(EvaluatorFailure) as exc:
            validate_system(sys, [np.array([1.0])])
        assert "probe 0" in exc.value.detail

    def test_nan_output_is_structured_failure(self):
        sys = HybridSystemDef(n=1, p=1, q=1,
                              f=lambda x, u: np.array([math.nan]),
                              delta=lambda x, v: x, h=lambda x: float(x[0]))
        with pytest.raises(EvaluatorFailure):
            sys.eval_f(np.array([0.0]), np.zeros(1))

    def test_empty_probes_rejected(self, linear_sys):
        with pytest.raises(PreconditionError):
            validate_system(linear_sys, [])

    @pytest.mark.parametrize("name", sorted(models.catalog()))
    def test_probe_of_wrong_dimension_rejected(self, name):
        # an affine H would otherwise fail in a raw matmul
        sys = models.model(name)
        for probe in ([1.0, 2.0, 3.0], [1.0], [[1.0, 2.0]]):
            with pytest.raises(PreconditionError, match="shape"):
                validate_system(sys, [np.zeros(sys.n), probe])

    def test_grad_fd_agreement_invariant(self):
        # every catalog model with an analytic gradient matches central
        # differences to 1e-5 relative at random states
        rng = np.random.default_rng(4)
        for name, entry in models.catalog().items():
            sys = entry.factory(**entry.defaults)
            if sys.grad_h is None:
                continue
            undeclared = replace(sys, grad_h=None)
            for _ in range(20):
                x = rng.normal(size=sys.n)
                analytic = sys.surface_gradient(x)
                fd = undeclared.surface_gradient(x)
                assert euclidean(analytic - fd) <= 1e-5 * max(1.0, euclidean(fd))

    def test_affine_surface_is_the_former_closed_form(self):
        # the H and grad H derived from surface = (g, c) equal, bit for bit,
        # the h and grad_h each affine model stated before, on the model and
        # on its variational system, whose g is padded with zeros
        rng = np.random.default_rng(7)
        for name, closed_form, gradient in (
                ("linear-reset", lambda x: 1.0 - x[0], (-1.0, 0.0)),
                ("rimless-wheel", lambda x: (0.08 + math.pi / 8.0) - x[0], (-1.0, 0.0)),
                ("bouncing-ball", lambda x: x[0], (1.0, 0.0))):
            sys = models.model(name)
            xs = rng.normal(size=(10_000, sys.n)) * 10.0 ** rng.uniform(-12.0, 12.0, (10_000, 1))
            want = np.array([closed_form(x) for x in xs])
            psis = rng.normal(size=(10_000, sys.n * sys.n))
            for sysd, states in ((sys, xs), (_Variational.of(sys), np.hstack((xs, psis)))):
                got = np.array([sysd.eval_h(x) for x in states])
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), name
                grad = np.concatenate((gradient, np.zeros(sysd.n - sys.n)))
                assert all(np.array_equal(sysd.surface_gradient(x), grad) for x in states), name

    def test_surface_declared_with_h_or_grad_h_is_refused(self):
        # the surface is H and its gradient: a second declaration that could
        # disagree with it is not built
        for twice in ({"h": lambda x: 1.0 - x[0]}, {"grad_h": lambda x: np.array([-1.0, 0.0])},
                      {"h": lambda x: 1.0 - x[0], "grad_h": lambda x: np.array([-1.0, 0.0])}):
            with pytest.raises(PreconditionError, match="declare them twice"):
                HybridSystemDef(n=2, p=1, q=1, f=lambda x, u: x, delta=lambda x, v: x,
                                surface=((-1.0, 0.0), 1.0), **twice)

    def test_undeclared_h_is_refused(self, linear_sys):
        with pytest.raises(PreconditionError, match="H is undeclared"):
            HybridSystemDef(n=2, p=1, q=1, f=lambda x, u: x, delta=lambda x, v: x)
        with pytest.raises(PreconditionError, match="H is undeclared"):
            replace(linear_sys, surface=None)

    @pytest.mark.parametrize("surface", [((1.0,), 0.0), ((1.0, math.nan), 0.0),
                                         ((1.0, 0.0), math.inf)])
    def test_malformed_surface_is_refused(self, surface):
        with pytest.raises(PreconditionError, match="surface must be"):
            HybridSystemDef(n=2, p=1, q=1, f=lambda x, u: x, delta=lambda x, v: x,
                            surface=surface)


def test_types_are_immutable(linear_sys):
    u = ContinuousSignal.zero(1)
    with pytest.raises(Exception):
        u.kind = "constant"
    with pytest.raises(Exception):
        linear_sys.n = 3
