import math

import numpy as np
import pytest

from sie.core import ContinuousSignal, HybridSystemDef
from sie.errors import (ChartSingular, InfiniteTimeToImpact, NewtonDiverged,
                        PreconditionError, SieError)
from sie.poincare import (SurfaceChart, _map_cfg, _Variational, find_fixed_point,
                          linearize, poincare_map, zero_inputs)
from sie import models
from tests.conftest import (RIMLESS_EIG, RIMLESS_OMEGA_STAR,
                            RIMLESS_T_STAR, RIMLESS_THETA_IMPACT)

U0 = ContinuousSignal.zero(1)


def rotated_linear_reset(angle: float) -> HybridSystemDef:
    """The linear-reset model conjugated by a rotation, so the surface is not
    axis-aligned and both chart coordinates are viable."""
    base = models.model("linear-reset")
    c, s = math.cos(angle), math.sin(angle)
    R = np.array([[c, -s], [s, c]])

    return HybridSystemDef(
        n=2, p=1, q=1,
        f=lambda x, u: R @ base.f(R.T @ x, u),
        delta=lambda x, v: R @ base.delta(R.T @ x, v),
        h=lambda x: base.eval_h(R.T @ x),
        grad_h=lambda x: R @ base.surface_gradient(R.T @ x),
        name="linear-reset-rotated",
    )


class TestPoincareMap:
    def test_linear_reset_closed_form(self, linear_sys):
        for x2 in (0.0, 0.4, -0.9):
            out = poincare_map(linear_sys, np.array([1.0, x2]), U0, np.zeros(1), t_cap=5.0).state
            assert out[1] == pytest.approx(0.5 * x2, abs=1e-9)

    def test_fixed_point_identity(self, linear_sys, rimless_sys, rimless_report):
        out = poincare_map(linear_sys, np.array([1.0, 0.0]), U0, np.zeros(1), t_cap=5.0).state
        assert np.allclose(out, [1.0, 0.0], atol=1e-8)
        out = poincare_map(rimless_sys, rimless_report.x_star, U0, np.zeros(1), t_cap=5.0).state
        assert np.allclose(out, rimless_report.x_star, atol=1e-8)

    def test_discrete_input(self, linear_sys):
        out = poincare_map(linear_sys, np.array([1.0, 0.0]), U0, np.array([0.2]), t_cap=5.0).state
        assert out[1] == pytest.approx(0.1, abs=1e-9)


class TestFindFixedPoint:
    def test_linear_reset(self, linear_report):
        assert np.allclose(linear_report.x_star, [1.0, 0.0], atol=1e-8)
        assert linear_report.t_star == pytest.approx(1.0, abs=1e-8)

    def test_rimless_matches_energy_balance(self, rimless_report):
        assert rimless_report.x_star[1] == pytest.approx(RIMLESS_OMEGA_STAR, rel=1e-7)
        assert rimless_report.t_star == pytest.approx(RIMLESS_T_STAR, abs=1e-8)

    def test_below_capture_guess_surfaces_error(self, rimless_sys):
        with pytest.raises((NewtonDiverged, InfiniteTimeToImpact, SieError)):
            find_fixed_point(rimless_sys, np.array([RIMLESS_THETA_IMPACT, 1.2]), t_cap=8.0)

    def test_newton_contraction_on_rimless(self, rimless_report):
        res = rimless_report.newton_residuals
        assert res[-1] <= 1e-10 * max(1.0, float(np.linalg.norm(rimless_report.x_star)))
        # locally quadratic: each residual in the clean range is bounded by
        # a fixed multiple of the square of its predecessor
        for r_prev, r_next in zip(res[:-1], res[1:]):
            if 1e-7 < r_prev < 1e-2:
                assert r_next <= 10.0 * r_prev ** 2

    @pytest.mark.parametrize("sys_name,report_name,t_cap", [
        ("linear_sys", "linear_report", 10.0), ("rimless_sys", "rimless_report", 10.0),
        ("vdp_sys", "vdp_report", 20.0)])
    def test_t_star_and_segment_come_from_the_converged_map_evaluation(
            self, sys_name, report_name, t_cap, request):
        # the state columns of a separate variational map evaluation from
        # x*, bit for bit
        sysd, rep = request.getfixturevalue(sys_name), request.getfixturevalue(report_name)
        u0, v0 = zero_inputs(sysd)
        n = sysd.n
        x0 = np.concatenate((rep.x_star, np.zeros(n * n)))
        again = poincare_map(_Variational.of(sysd), x0, u0, v0, _map_cfg(None), t_cap)
        assert rep.t_star == again.time
        assert rep.segment.t0 == 0.0 and rep.segment.t1 == rep.t_star
        assert np.array_equal(rep.segment.ys, again.segment.ys[:, :n])
        assert np.array_equal(rep.segment.qs, again.segment.qs[:, :n])

    def test_vdp_mu0_converges_immediately(self):
        sysd = models.model("vdp-adapter", mu=0.0)
        rep = find_fixed_point(sysd, np.array([1.7, 0.0]), t_cap=10.0)
        # conservative oscillator: every section point is already fixed
        assert len(rep.newton_residuals) == 1
        assert rep.t_star == pytest.approx(2.0 * math.pi, abs=1e-9)


class TestLinearize:
    def test_linear_reset_eigenvalue(self, linear_report):
        assert linear_report.jacobian.shape == (1, 1)
        assert linear_report.jacobian[0, 0] == pytest.approx(0.5, abs=1e-6)
        assert linear_report.spectral_radius == pytest.approx(0.5, abs=1e-6)
        assert linear_report.verdict == "LES"

    def test_rimless_eigenvalue(self, rimless_report):
        assert abs(rimless_report.eigenvalues[0]) == pytest.approx(RIMLESS_EIG, abs=1e-5)
        assert rimless_report.verdict == "LES"

    def test_central_difference_matches_variational_jacobian(self, linear_report,
                                                             rimless_report):
        for rep in (linear_report, rimless_report):
            assert rep.fd_consistency == np.max(np.abs(rep.jacobian - rep.variational_jacobian))
            assert rep.fd_consistency <= 1e-8 * max(1.0, rep.spectral_radius)

    def test_vdp_attracting_cycle(self):
        sysd = models.model("vdp-adapter", mu=0.2)
        rep = linearize(sysd, find_fixed_point(sysd, np.array([2.0, 0.0]), t_cap=20.0))
        assert len(rep.eigenvalues) == 1
        assert abs(rep.eigenvalues[0]) < 1.0
        assert rep.verdict == "LES"
        assert rep.fd_consistency <= 1e-4

    def test_vdp_mu0_marginal(self):
        sysd = models.model("vdp-adapter", mu=0.0)
        rep = linearize(sysd, find_fixed_point(sysd, np.array([1.5, 0.0]), t_cap=10.0))
        assert rep.spectral_radius == pytest.approx(1.0, abs=1e-6)
        assert rep.verdict == "LAS-marginal"

    def test_requires_converged_report(self, linear_sys):
        from sie.poincare import StabilityReport

        empty = StabilityReport(x_star=np.array([1.0, 0.0]), t_star=1.0,
                                chart_j=0, newton_residuals=())
        with pytest.raises(PreconditionError):
            linearize(linear_sys, empty)


class TestSurfaceChart:
    def test_round_trips(self, rimless_sys, rimless_report):
        chart = SurfaceChart.build(rimless_sys, rimless_report.x_star)
        rng = np.random.default_rng(2)
        z_star = chart.project(rimless_report.x_star)
        for _ in range(100):
            z = z_star + rng.uniform(-0.3, 0.3, size=z_star.size)
            x = chart.embed(z)
            assert abs(rimless_sys.eval_h(x)) <= 1e-10
            # project(embed(z)) == z exactly: embedding only fills the
            # eliminated coordinate
            assert np.array_equal(chart.project(x), z)
            # embed(project(x)) == x for on-surface x
            assert np.linalg.norm(chart.embed(chart.project(x)) - x) <= 1e-10

    def test_chart_singular_on_flat_gradient(self):
        sysd = HybridSystemDef(n=2, p=1, q=1,
                               f=lambda x, u: np.array([1.0, 0.0]),
                               delta=lambda x, v: x,
                               h=lambda x: 0.0,
                               grad_h=lambda x: np.zeros(2))
        with pytest.raises(ChartSingular):
            SurfaceChart.build(sysd, np.array([0.0, 0.0]))

    @pytest.mark.parametrize("x_near", [[], [1.0], [1.0, 0.0, 0.0]])
    def test_point_of_wrong_dimension_is_a_precondition_error(self, linear_sys, x_near):
        # the linear-reset gradient is constant, so nothing else would notice
        with pytest.raises(PreconditionError):
            SurfaceChart.build(linear_sys, np.array(x_near))

    def test_eigenvalues_invariant_under_chart_choice(self):
        # rotate the model so the eliminated coordinate differs, then check
        # the on-surface eigenvalue is unchanged (similarity invariance)
        eigs = []
        for angle in (0.3, 1.2):
            sysd = rotated_linear_reset(angle)
            c, s = math.cos(angle), math.sin(angle)
            R = np.array([[c, -s], [s, c]])
            guess = R @ np.array([1.0, 0.2])
            rep = linearize(sysd, find_fixed_point(sysd, guess, t_cap=5.0))
            eigs.append(rep.eigenvalues[0])
        grads = [rotated_linear_reset(a).surface_gradient(np.zeros(2)) for a in (0.3, 1.2)]
        assert int(np.argmax(np.abs(grads[0]))) != int(np.argmax(np.abs(grads[1])))
        assert abs(eigs[0] - 0.5) < 1e-6
        assert abs(eigs[0] - eigs[1]) < 1e-8
