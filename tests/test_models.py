import math

import numpy as np
import pytest

from sie.core import ContinuousSignal
from sie.errors import ParamOutOfRange, UnknownModel
from sie.poincare import poincare_map
from sie import models
from tests.conftest import LN2, RIMLESS_EIG, RIMLESS_OMEGA_STAR


def test_catalog_contents():
    names = set(models.catalog())
    assert names == {"linear-reset", "rimless-wheel", "vdp-adapter", "bouncing-ball"}


def test_unknown_model():
    with pytest.raises(UnknownModel):
        models.model("pogo-stick")


def test_param_validation():
    with pytest.raises(ParamOutOfRange):
        models.model("linear-reset", a=-1.0)
    with pytest.raises(ParamOutOfRange):
        models.model("linear-reset", b=2.0)
    with pytest.raises(ParamOutOfRange):
        models.model("bouncing-ball", restitution=1.5)
    with pytest.raises(ParamOutOfRange):
        models.model("rimless-wheel", alpha=2.0)


@pytest.mark.parametrize("value", ["x", None, [0.3]])
def test_non_numeric_param_is_out_of_range(value):
    with pytest.raises(ParamOutOfRange):
        models.model("rimless-wheel", alpha=value)


def test_oracle_fixed_points_reset_inside_and_cross_transversally():
    # every default oracle with a fixed point: the reset of x* lands strictly
    # above the surface and the flow pierces the surface at x*
    with_x_star = []
    for name in models.catalog():
        pack = models.oracle(name)
        if pack is None or pack.x_star is None:
            continue
        with_x_star.append(name)
        sysd, x_star = models.model(name), pack.x_star
        assert sysd.eval_h(sysd.eval_delta(x_star, np.zeros(sysd.q))) > 0.0
        assert np.dot(sysd.surface_gradient(x_star), sysd.eval_f(x_star, np.zeros(sysd.p))) < 0.0
    assert with_x_star == ["linear-reset", "rimless-wheel"]


def test_bouncing_ball_fails_the_reset_side_assumption():
    # the Zeno control's reset lands on the surface, not strictly above it
    sysd = models.model("bouncing-ball")
    assert not sysd.eval_h(sysd.eval_delta(np.array([0.0, -1.0]), np.zeros(sysd.q))) > 0.0


class TestOracles:
    def test_linear_reset_oracle(self):
        pack = models.oracle("linear-reset")
        assert pack.t_star == 1.0
        assert pack.eigenvalues[0] == pytest.approx(0.5)
        assert np.allclose(pack.x_star, [1.0, 0.0])
        # forced fixed point u/a for constant u
        assert pack.forced_fixed_point(u_const=0.1) == pytest.approx(0.1 / LN2)
        # v-only forcing with a = ln 2 has fixed point exactly v
        assert pack.forced_fixed_point(v_const=0.3) == pytest.approx(0.3)
        assert pack.poincare_map(0.4) == pytest.approx(0.2)
        assert pack.poincare_map(0.0, v=0.2) == pytest.approx(0.1)

    def test_rimless_oracle(self):
        pack = models.oracle("rimless-wheel")
        assert pack.x_star[1] == pytest.approx(RIMLESS_OMEGA_STAR, rel=1e-12)
        assert pack.eigenvalues[0] == pytest.approx(RIMLESS_EIG, abs=1e-12)
        # the oracle map has the fixed point it claims
        assert pack.poincare_map(RIMLESS_OMEGA_STAR) == pytest.approx(RIMLESS_OMEGA_STAR)

    def test_rimless_oracle_against_numeric_map(self):
        sysd = models.model("rimless-wheel")
        pack = models.oracle("rimless-wheel")
        u0 = ContinuousSignal.zero(1)
        theta_s = 0.08 + math.pi / 8.0
        for omega in (1.45, 1.6, 1.8):
            out = poincare_map(sysd, np.array([theta_s, omega]), u0, np.zeros(1), t_cap=5.0)
            assert out.state[1] == pytest.approx(pack.poincare_map(omega), abs=1e-8)

    def test_vdp_oracle_bands(self):
        pack = models.oracle("vdp-adapter", mu=0.2)
        lo, hi = pack.period_band
        assert lo < 2 * math.pi * (1 + 0.2 ** 2 / 16) < hi
        pack0 = models.oracle("vdp-adapter", mu=0.0)
        assert pack0.t_star == pytest.approx(2 * math.pi)
        assert pack0.eigenvalues[0] == 1.0

    def test_bouncing_ball_has_no_oracle_pack(self):
        assert models.oracle("bouncing-ball") is None


def test_vdp_mu0_map_is_identity_on_section():
    sysd = models.model("vdp-adapter", mu=0.0)
    u0 = ContinuousSignal.zero(1)
    for r in (0.8, 1.5, 2.3):
        out = poincare_map(sysd, np.array([r, 0.0]), u0, np.zeros(1), t_cap=10.0)
        assert out.time == pytest.approx(2 * math.pi, abs=1e-8)
        assert np.allclose(out.state, [r, 0.0], atol=1e-8)
