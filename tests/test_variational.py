"""The exact chart Jacobian from one variational integration, checked
against values computed without it:

- closed forms: e^{-a} on linear-reset, cos^2(2 alpha) on the rimless
  wheel, e^{A} R on a three-state timer model;
- on Van der Pol, Liouville's formula along the converged orbit segment,
  exp(integral of div f dt) times the reset volume ratio, which is one for
  the identity reset;
- the same model with its derivative declarations left out, where central
  differences stand in for Df and D Delta.

Also the rules around it: every declared derivative (grad_h, jac_f,
jac_delta) is checked by one rule, a failing jac_f or jac_delta is named,
the verdict is never finer than the disagreement of the two Jacobians, and
a Newton trial that never returns halves the step.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sie import cli, models, poincare
from sie.core import HybridSystemDef, validate_system
from sie.errors import EvaluatorFailure, InfiniteTimeToImpact, NewtonDiverged, PreconditionError
from sie.flow import IntegratorConfig
from sie.poincare import _verdict, find_fixed_point, linearize
from tests.conftest import RIMLESS_OMEGA_STAR, plain_twin

ORACLE_TOL = 1e-9
GAUSS_NODES, GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(6)


@settings(max_examples=12, deadline=None)
@given(a=st.floats(0.2, 3.0))
def test_linear_reset_matches_exp_minus_a(a):
    sysd = models.model("linear-reset", a=a)
    rep = find_fixed_point(sysd, np.array([1.0, 0.3]), t_cap=10.0)
    assert rep.variational_jacobian.shape == (1, 1)
    assert abs(rep.variational_jacobian[0, 0] - math.exp(-a)) <= ORACLE_TOL


@settings(max_examples=8, deadline=None)
@given(gamma=st.floats(0.07, 0.12))
def test_rimless_matches_cos_squared(gamma):
    # below gamma = 0.0685 the reset speed of the energy-balance fixed
    # point no longer clears the apex (2 sin(alpha) sin(gamma) < 1 -
    # cos(alpha - gamma)), so at alpha = pi/8 there is no orbit to linearize
    sysd = models.model("rimless-wheel", gamma=gamma)
    pack = models.oracle("rimless-wheel", gamma=gamma)
    guess = pack.x_star * np.array([1.0, 1.02])
    rep = find_fixed_point(sysd, guess, t_cap=10.0)
    assert abs(rep.variational_jacobian[0, 0] - pack.eigenvalues[0]) <= ORACLE_TOL


def _liouville_multiplier(mu: float, seg) -> float:
    """exp of the integral of div f = mu (1 - x1^2) over the segment, by
    6-point Gauss-Legendre on each step of its dense output (exact for
    the quartic's square); the identity reset adds no volume factor."""
    lo = seg.ts
    hi = np.append(seg.ts[1:], seg.t1)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    x1 = seg.eval_many((mid[:, None] + half[:, None] * GAUSS_NODES).ravel())[:, 0]
    div = mu * (1.0 - x1 * x1)
    return math.exp(float(np.sum(half[:, None] * GAUSS_WEIGHTS * div.reshape(len(lo), -1))))


@settings(max_examples=6, deadline=None)
@given(mu=st.floats(0.05, 2.0))
def test_vdp_matches_liouville(mu):
    sysd = models.model("vdp-adapter", mu=mu)
    rep = find_fixed_point(sysd, np.array([2.0, 0.0]), t_cap=30.0)
    liouville = _liouville_multiplier(mu, rep.segment)
    assert abs(rep.variational_jacobian[0, 0] - liouville) <= ORACLE_TOL


# ---------------------------------------------------------------------------
# n = 3: a timer and two decoupled damped states, mixed by the reset

DECAY = np.array([0.5, 1.5])
MIX = np.array([[0.6, 0.3], [-0.2, 0.5]])
CLOSED_FORM = np.diag(np.exp(-DECAY)) @ MIX  # the chart map z -> e^A R z


def timer_model(Q: np.ndarray = np.eye(3)) -> HybridSystemDef:
    """x1' = 1, (x2, x3)' = -diag(DECAY) (x2, x3), H = 1 - x1, reset
    (x1, x2, x3) -> (0, MIX (x2, x3)); in the coordinates Q y of the
    orthogonal Q, so the surface can tilt."""
    A = np.diag([0.0, -DECAY[0], -DECAY[1]])
    R = np.zeros((3, 3))
    R[1:, 1:] = MIX

    def f0(y):
        return A @ y + np.array([1.0, 0.0, 0.0])

    return HybridSystemDef(
        n=3, p=1, q=1,
        f=lambda x, u: Q @ f0(Q.T @ x),
        delta=lambda x, v: Q @ (R @ (Q.T @ x)),
        h=lambda x: 1.0 - (Q.T @ x)[0],
        grad_h=lambda x: -Q[:, 0],
        jac_f=lambda x, u: Q @ A @ Q.T,
        jac_delta=lambda x, v: Q @ R @ Q.T,
        name="timer-3")


def rotation(axis: int, angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    i, j = [k for k in range(3) if k != axis]
    Q = np.eye(3)
    Q[i, i], Q[i, j], Q[j, i], Q[j, j] = c, -s, s, c
    return Q


def test_three_state_chart_jacobian_is_e_A_R():
    sysd = timer_model()
    rep = linearize(sysd, find_fixed_point(sysd, np.array([1.0, 0.2, -0.1]), t_cap=5.0))
    assert rep.chart_j == 0
    assert np.max(np.abs(rep.variational_jacobian - CLOSED_FORM)) <= ORACLE_TOL
    assert rep.fd_consistency <= 1e-7
    assert rep.verdict == "LES"


def test_three_state_eigenvalues_invariant_under_chart_choice():
    # tilt the surface two ways so that a different coordinate is dropped;
    # the multipliers are those of e^A R either way (similarity invariance)
    want = np.sort_complex(np.linalg.eigvals(CLOSED_FORM))
    dropped = []
    for Q in (rotation(2, 0.3), rotation(1, 1.2)):
        sysd = timer_model(Q)
        rep = linearize(sysd, find_fixed_point(sysd, Q @ np.array([1.0, 0.2, -0.1]), t_cap=5.0))
        dropped.append(rep.chart_j)
        got = np.sort_complex(np.linalg.eigvals(rep.variational_jacobian))
        assert np.max(np.abs(got - want)) <= ORACLE_TOL
        assert np.max(np.abs(np.sort_complex(np.array(rep.eigenvalues)) - want)) <= 1e-7
    assert dropped[0] != dropped[1]


# ---------------------------------------------------------------------------
# the declarations

PROBES = [np.array([0.3, -1.2]), np.array([1.1, 0.4])]


DECLARATIONS = ["grad_h", "jac_f", "jac_delta"]


def _declaring(sysd: HybridSystemDef, which: str) -> HybridSystemDef:
    """sysd, or its plain twin where an affine surface stands in for the
    grad_h declaration that `which` names."""
    return plain_twin(sysd) if which == "grad_h" and sysd.surface is not None else sysd


def _perturbed(sysd: HybridSystemDef, which: str, entry: int, rel: float) -> HybridSystemDef:
    """sysd with rel * max(1, |e|) added to the entry e (flat index) of the
    declared derivative `which`, wherever it is read."""
    right = getattr(sysd, which)

    def wrong(x, *w):
        out = np.array(right(x, *w), dtype=float)
        out.flat[entry] += rel * max(1.0, abs(out.flat[entry]))
        return out

    return replace(sysd, **{which: wrong})


@pytest.mark.parametrize("which", DECLARATIONS)
def test_validate_rejects_a_wrong_declaration(which):
    sysd = _declaring(models.model("rimless-wheel"), which)
    wrong = _perturbed(sysd, which, 1 if which == "grad_h" else 2, 1e-3)
    validate_system(sysd, PROBES)
    with pytest.raises(PreconditionError, match=f"probe 0: declared {which}"):
        validate_system(wrong, PROBES)


def test_sign_flipped_grad_h_is_refused():
    # a sign-flipped gradient hides the crossings from the event scan:
    # simulate from (0, 0.3) on [0, 5] would log none of the five impacts
    sysd = plain_twin(models.model("linear-reset"))
    right = sysd.grad_h
    wrong = replace(sysd, grad_h=lambda x: -right(x))
    with pytest.raises(PreconditionError,
                       match="probe 0: declared grad_h misses central differences by 2"):
        validate_system(wrong, [np.array([0.0, 0.3])])


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(models.catalog())), which=st.sampled_from(DECLARATIONS),
       entry=st.integers(0, 3),
       probes=st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
                       min_size=1, max_size=4))
def test_one_rule_for_every_declared_derivative(name, which, entry, probes):
    # a miss of 1e-4 relative in any one entry of any declared derivative is
    # refused under that derivative's name; the catalog model itself passes
    sysd = _declaring(models.model(name), which)
    probes = [np.array(p) for p in probes]
    validate_system(sysd, probes)
    entry %= sysd.n if which == "grad_h" else sysd.n * sysd.n
    with pytest.raises(PreconditionError, match=f"probe 0: declared {which} misses"):
        validate_system(_perturbed(sysd, which, entry, 1e-4), probes)


def test_catalog_declarations_pass_validation():
    rng = np.random.default_rng(11)
    for entry in models.catalog().values():
        sysd = entry.factory(**entry.defaults)
        assert sysd.jac_f is not None and sysd.jac_delta is not None
        validate_system(sysd, list(rng.normal(scale=3.0, size=(20, sysd.n))))


@pytest.mark.parametrize("name,guess,t_cap", [
    ("linear-reset", [1.0, 0.4], 10.0),
    ("rimless-wheel", [0.4727, 1.45], 10.0),
    ("vdp-adapter", [2.0, 0.0], 20.0),
])
def test_undeclared_model_gives_the_same_results(name, guess, t_cap):
    # central differences stand in for Df and D Delta on the same code path
    declared = models.model(name)
    bare = replace(declared, jac_f=None, jac_delta=None)
    want = find_fixed_point(declared, np.array(guess), t_cap=t_cap)
    got = find_fixed_point(bare, np.array(guess), t_cap=t_cap)
    assert np.max(np.abs(got.x_star - want.x_star)) <= 1e-10
    assert np.max(np.abs(got.variational_jacobian - want.variational_jacobian)) <= 1e-8


def test_raising_jac_f_is_a_named_evaluator_failure():
    def broken(x, u):
        raise ValueError("no derivative here")

    sysd = replace(models.model("linear-reset"), jac_f=broken)
    with pytest.raises(EvaluatorFailure) as caught:
        find_fixed_point(sysd, np.array([1.0, 0.4]), t_cap=10.0)
    assert caught.value.which == "jac_f"
    with pytest.raises(EvaluatorFailure) as caught:
        validate_system(sysd, PROBES)
    assert caught.value.which == "jac_f"


def test_raising_jac_delta_is_a_named_evaluator_failure():
    # the variational reset calls the checked reset_jacobian inside the
    # checked reset, which passes the jac_delta failure through unchanged
    def broken(x, v):
        raise ValueError("no derivative here")

    sysd = replace(models.model("linear-reset"), jac_delta=broken)
    with pytest.raises(EvaluatorFailure) as caught:
        find_fixed_point(sysd, np.array([1.0, 0.4]), t_cap=10.0)
    assert caught.value.which == "jac_delta"
    assert "no derivative here" in caught.value.detail


def test_non_finite_jac_delta_is_a_named_evaluator_failure():
    sysd = replace(models.model("linear-reset"), jac_delta=lambda x, v: np.full((2, 2), math.nan))
    with pytest.raises(EvaluatorFailure) as caught:
        find_fixed_point(sysd, np.array([1.0, 0.4]), t_cap=10.0)
    assert caught.value.which == "jac_delta"


# ---------------------------------------------------------------------------
# verdicts no finer than the two Jacobians' disagreement

BAND = poincare._MARGINAL_BAND


def test_verdict_is_inconclusive_when_the_radii_straddle_the_band():
    below = np.array([[1.0 - 2.0 * BAND]])     # LES
    inside = np.array([[1.0 - 0.5 * BAND]])    # LAS-marginal
    above = np.array([[1.0 + 2.0 * BAND]])     # unstable
    assert _verdict(below, below) == "LES"
    assert _verdict(inside, inside) == "LAS-marginal"
    assert _verdict(above, above) == "unstable"
    assert _verdict(below, inside) == "inconclusive"
    assert _verdict(inside, below) == "inconclusive"
    assert _verdict(inside, above) == "inconclusive"
    # a complex pair: the radius is the modulus, not a real part
    rot = (1.0 - 0.5 * BAND) * np.array([[0.0, -1.0], [1.0, 0.0]])
    assert _verdict(rot, 0.5 * rot) == "inconclusive"


def test_inconclusive_orbit_exits_zero(tmp_path, monkeypatch):
    # a second opinion on the other side of the band: the report says so
    # and the command still succeeds, as for every verdict
    real = poincare.find_fixed_point

    def skewed(*args, **kwargs):
        rep = real(*args, **kwargs)
        return replace(rep, variational_jacobian=np.array([[1.0]]))

    monkeypatch.setattr(cli, "find_fixed_point", skewed)
    config = tmp_path / "config.json"
    config.write_text('{"model": {"name": "linear-reset", "params": {}}, '
                      '"orbit": {"guess": [1.0, 0.5]}}')
    out = tmp_path / "out"
    assert cli.main(["orbit", "--config", str(config), "--out", str(out)]) == 0
    assert '"verdict": "inconclusive"' in (out / "orbit_report.json").read_text()


# ---------------------------------------------------------------------------
# a line-search trial that never returns to the surface halves the step

def test_trial_that_never_returns_halves_the_step():
    # the full first step tries omega = 1.352, whose reset speed 0.956 is
    # below the apex capture speed 0.976: that trial never returns
    sysd = models.model("rimless-wheel")
    rep = find_fixed_point(sysd, np.array([0.4727, 3.0]),
                           IntegratorConfig(rtol=1e-9, atol=1e-11), t_cap=10.0)
    assert abs(rep.x_star[1] - RIMLESS_OMEGA_STAR) <= 1e-8


def test_every_trial_failing_is_newton_divergence(tmp_path, monkeypatch):
    real = poincare.poincare_map
    calls = []

    def first_only(*args, **kwargs):
        calls.append(1)
        if len(calls) > 1:
            raise InfiniteTimeToImpact(10.0)
        return real(*args, **kwargs)

    monkeypatch.setattr(poincare, "poincare_map", first_only)
    with pytest.raises(NewtonDiverged) as caught:
        find_fixed_point(models.model("linear-reset"), np.array([1.0, 0.5]), t_cap=10.0)
    assert len(caught.value.iterates) == 1
    assert len(calls) == 1 + poincare._LINESEARCH_MAX_HALVINGS

    calls.clear()
    config = tmp_path / "config.json"
    config.write_text('{"model": {"name": "linear-reset", "params": {}}, '
                      '"orbit": {"guess": [1.0, 0.5]}}')
    out = tmp_path / "out"
    assert cli.main(["orbit", "--config", str(config), "--out", str(out)]) == 3
    assert (out / "newton_trace.json").exists()
