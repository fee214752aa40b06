import math
from dataclasses import replace

import numpy as np
import pytest

from sie import models
from sie.flow import IntegratorConfig
from sie.orbit import build_orbit
from sie.poincare import find_fixed_point, linearize

# frozen closed-form oracle values (energy balance / quadrature, computed
# independently of the integrator under test)
RIMLESS_OMEGA_STAR = 1.5492184049054598
RIMLESS_OMEGA_PLUS = 1.0954628396476573
RIMLESS_T_STAR = 1.0345498114232785  # adaptive quadrature of dtheta/omega(theta)
RIMLESS_EIG = 0.5
RIMLESS_THETA_IMPACT = 0.08 + math.pi / 8.0

LN2 = math.log(2.0)


@pytest.fixture(scope="session")
def linear_sys():
    return models.model("linear-reset")


@pytest.fixture(scope="session")
def rimless_sys():
    return models.model("rimless-wheel")


@pytest.fixture(scope="session")
def linear_report(linear_sys):
    rep = find_fixed_point(linear_sys, np.array([1.0, 0.7]), t_cap=10.0)
    return linearize(linear_sys, rep)


@pytest.fixture(scope="session")
def rimless_report(rimless_sys):
    rep = find_fixed_point(rimless_sys, np.array([RIMLESS_THETA_IMPACT, 1.45]), t_cap=10.0)
    return linearize(rimless_sys, rep)


@pytest.fixture(scope="session")
def vdp_sys():
    return models.model("vdp-adapter", mu=0.2)


@pytest.fixture(scope="session")
def vdp_report(vdp_sys):
    return find_fixed_point(vdp_sys, np.array([2.0, 0.0]), t_cap=20.0)


@pytest.fixture(scope="session")
def linear_orbit(linear_sys, linear_report):
    return build_orbit(linear_sys, linear_report)


@pytest.fixture(scope="session")
def rimless_orbit(rimless_sys, rimless_report):
    return build_orbit(rimless_sys, rimless_report)


@pytest.fixture(scope="session")
def sweep_cfg():
    return IntegratorConfig(rtol=1e-8, atol=1e-10)


def scalar_traj_eval(traj, t):
    """Row reference for HybridTrajectory.eval_many: the last segment that
    starts at or before t (the post-reset one at an impact instant),
    evaluated with the scalar FlowSegment.eval."""
    seg = [s for s in traj.segments if s.t0 <= t][-1]
    return seg.eval(min(t, seg.t1))


def plain_twin(sysd):
    """sysd with its affine surface (g, c) restated as a plain h = c + g . x
    and a declared grad_h = g: the event scan samples every step, and the
    gradient is a declaration that can be replaced or checked like any."""
    g, c = sysd.surface
    return replace(sysd, surface=None, h=lambda x: c + float(g @ x), grad_h=lambda x: g.copy())
