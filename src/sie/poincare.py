"""The forced section-return map as a first-class operation, plus Newton
fixed-point solving and eigenvalue classification of the on-surface
linearization.

The surface is charted by eliminating the coordinate with the largest
gradient component (implicit-function style), so the Newton iteration and
the Jacobian live in n-1 coordinates where the map has no trivial flow
direction.

Newton's map evaluations carry the variational matrix along the flow, which
gives the exact chart Jacobian with each evaluation: the saltation-corrected
DP = (I - f grad H^T / (grad H . f)) Phi(T) D Delta (Leine & Nijmeijer,
Dynamics and Bifurcations of Non-Smooth Mechanical Systems, 2004; Grizzle,
Abba & Plestan, IEEE TAC 2001).  `linearize` checks it against a central
difference of the plain map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import ContinuousSignal, HybridSystemDef, central_difference, surface_tol
from .errors import ChartSingular, InfiniteTimeToImpact, NewtonDiverged, PreconditionError
from .events import TimeToImpact, check_reset_side, first_crossing
from .flow import FlowSegment, IntegratorConfig

# Map evaluations behind Newton and the Jacobian columns run at least this
# tight regardless of the caller's trajectory tolerances; the convergence
# floor and the finite-difference noise floor both scale with it.
_MAP_RTOL = 1e-12
_MAP_ATOL = 1e-14

_NEWTON_TOL_REL = 1e-10
_NEWTON_MAX_ITER = 50
_LINESEARCH_MAX_HALVINGS = 20
_FD_STEP = float(np.finfo(float).eps ** (1.0 / 3.0))
_MARGINAL_BAND = 1e-6  # |rho - 1| within this is LAS-marginal
_CHART_MIN_GRAD = 1e-12


@dataclass(frozen=True)
class SurfaceChart:
    """Coordinates on S near a reference point: drop coordinate j, recover it
    by a scalar Newton solve of H along that coordinate."""

    sys: HybridSystemDef
    j: int
    x_ref: np.ndarray

    @staticmethod
    def build(sys: HybridSystemDef, x_near: np.ndarray, j: int | None = None) -> "SurfaceChart":
        """The chart near x_near that drops coordinate j, by default the one
        with the largest gradient component there."""
        x_near = np.asarray(x_near, dtype=float)
        if x_near.shape != (sys.n,):
            raise PreconditionError(f"chart point has shape {x_near.shape}, not ({sys.n},)")
        grad = sys.surface_gradient(x_near)
        if j is None:
            j = int(np.argmax(np.abs(grad)))
        if abs(grad[j]) < _CHART_MIN_GRAD:
            raise ChartSingular(f"surface gradient vanishes near {x_near!r}")
        chart = SurfaceChart(sys=sys, j=j, x_ref=x_near.copy())
        x_on = chart.embed(chart.project(x_near))
        return SurfaceChart(sys=sys, j=j, x_ref=x_on)

    def project(self, x: np.ndarray) -> np.ndarray:
        return np.delete(np.asarray(x, dtype=float), self.j)

    def embed(self, z: np.ndarray) -> np.ndarray:
        """Insert the eliminated coordinate and solve H = 0 for it."""
        z = np.asarray(z, dtype=float)
        if z.shape != (self.sys.n - 1,):
            raise PreconditionError("chart coordinate has the wrong dimension")
        x = np.empty(self.sys.n)
        x[:self.j] = z[:self.j]
        x[self.j] = self.x_ref[self.j]
        x[self.j + 1:] = z[self.j:]
        tol = 1e-13 * max(1.0, float(np.max(np.abs(x))))
        for _ in range(60):
            hv = self.sys.eval_h(x)
            if abs(hv) <= tol:
                return x
            gj = self.sys.surface_gradient(x)[self.j]
            if abs(gj) < _CHART_MIN_GRAD:
                raise ChartSingular(f"gradient component {self.j} vanished while embedding {z!r}")
            x[self.j] -= hv / gj
        raise ChartSingular(f"embedding did not converge for chart coordinate {z!r}")

    def tangent(self, x: np.ndarray) -> np.ndarray:
        """The derivative of `embed` at the on-surface point x, n x (n-1):
        the column of chart coordinate k (state index i) is
        e_i - (dH/dx_i / dH/dx_j) e_j."""
        grad = self.sys.surface_gradient(x)
        E = np.delete(np.eye(self.sys.n), self.j, axis=1)
        E[self.j] = -np.delete(grad, self.j) / grad[self.j]
        return E


@dataclass(frozen=True)
class StabilityReport:
    """A fixed point x* of the zero-input section map, its period T* and
    segment, the flow of Newton's converged map evaluation from the reset
    image of x* to the crossing at T*: the orbit that `build_orbit` refines.
    That evaluation also gives variational_jacobian, the exact chart
    Jacobian at x*; `linearize` fills jacobian, its central-difference
    counterpart, and the rest."""

    x_star: np.ndarray
    t_star: float
    chart_j: int
    newton_residuals: tuple[float, ...]
    jacobian: np.ndarray | None = None
    variational_jacobian: np.ndarray | None = None
    fd_consistency: float = 0.0  # max |jacobian - variational_jacobian|
    eigenvalues: tuple[complex, ...] = ()
    spectral_radius: float = math.nan
    verdict: str = ""  # LES | LAS-marginal | unstable | inconclusive
    segment: FlowSegment | None = None


def zero_inputs(sys: HybridSystemDef) -> tuple[ContinuousSignal, np.ndarray]:
    return ContinuousSignal.zero(sys.p), np.zeros(sys.q)


def poincare_map(sys: HybridSystemDef, x: np.ndarray, u: ContinuousSignal,
                 v: np.ndarray, cfg: IntegratorConfig | None = None,
                 t_cap: float = 100.0) -> TimeToImpact:
    """P(x, u, v) = phi(T_I(Delta(x, v)), Delta(x, v)): the crossing after
    resetting x with v and flowing under u.  Its state is P(x), the pre-impact
    state of the next downward crossing, its time the return time and its
    segment the flow between.

    x must lie on the surface (PreconditionError otherwise) and the reset
    must land on its allowed side (`check_reset_side`).  Raises
    InfiniteTimeToImpact when the flow never returns before t_cap."""
    x = np.asarray(x, dtype=float)
    h = sys.eval_h(x)
    if abs(h) > surface_tol(x):
        raise PreconditionError(f"state is not on the surface: H={h:.3g}")
    x_plus = sys.eval_delta(x, np.asarray(v, dtype=float))
    check_reset_side(sys, x_plus)
    crossing = first_crossing(sys, x_plus, u, 0.0, t_cap, cfg or IntegratorConfig())
    if not crossing.finite:
        raise InfiniteTimeToImpact(t_cap)
    return crossing


def _map_cfg(cfg: IntegratorConfig | None) -> IntegratorConfig:
    cfg = cfg or IntegratorConfig()
    return replace(cfg, rtol=min(cfg.rtol, _MAP_RTOL), atol=min(cfg.atol, _MAP_ATOL))


@dataclass(frozen=True)
class _Variational(HybridSystemDef):
    """A system carried with its variational matrix: the state X = (x, Psi),
    Psi an n x n matrix stored row by row, with Psi' = Df(x, u) Psi along the
    flow and Psi <- D Delta(x, v) at the reset.  H and its gradient read x
    only (an affine surface is padded with zeros), so crossings are those of
    the base system, while the step control covers Psi as well.  The raw f
    feeds the stepper's stages and the checked eval_f names the base
    evaluator that failed; the reset is built on the base's checked
    eval_delta and reset_jacobian, whose failures pass through unchanged."""

    base: HybridSystemDef | None = field(default=None, compare=False)

    @staticmethod
    def of(sys: HybridSystemDef) -> "_Variational":
        n, f, h = sys.n, sys.f, sys.h
        jac = sys.jac_f or sys.flow_jacobian
        pad = np.zeros(n * n)

        def f_var(X, u):
            x = X[:n]
            return np.concatenate((f(x, u), jac(x, u).dot(X[n:].reshape(n, n)).ravel()))

        def delta_var(X, v):
            x = X[:n]
            return np.concatenate((sys.eval_delta(x, v), sys.reset_jacobian(x, v).ravel()))

        if sys.surface is not None:
            g, c = sys.surface
            declared = {"surface": (np.concatenate((g, pad)), c)}
        else:
            declared = {"h": lambda X: h(X[:n]),
                        "grad_h": lambda X: np.concatenate((sys.surface_gradient(X[:n]), pad))}
        return _Variational(
            n=n + n * n, p=sys.p, q=sys.q, f=f_var, delta=delta_var,
            surface_reset_ok=sys.surface_reset_ok, name=sys.name, base=sys, **declared)

    def eval_f(self, X: np.ndarray, u_value: np.ndarray) -> np.ndarray:
        base, n = self.base, self.base.n
        x = X[:n]
        return np.concatenate((base.eval_f(x, u_value),
                               (base.flow_jacobian(x, u_value) @ X[n:].reshape(n, n)).ravel()))


def _variational_map(var: _Variational, chart: SurfaceChart, z: np.ndarray,
                     cfg: IntegratorConfig,
                     t_cap: float) -> tuple[np.ndarray, np.ndarray, TimeToImpact]:
    """The zero-input chart map at z, its exact Jacobian and the crossing,
    from one map evaluation of the variational system.  The Jacobian is
    Pi_j (I - f grad H^T / (grad H . f)) Psi(T) E(z): the flow's variational
    matrix after the reset, the saltation projection onto the surface at the
    crossing and the chart's tangent E on either side."""
    sys, n = var.base, var.base.n
    x = chart.embed(z)
    u0, v0 = zero_inputs(sys)
    crossing = poincare_map(var, np.concatenate((x, np.zeros(n * n))), u0, v0, cfg, t_cap)
    x_hit, psi = crossing.state[:n], crossing.state[n:].reshape(n, n)
    fv = sys.eval_f(x_hit, np.zeros(sys.p))
    gv = sys.surface_gradient(x_hit)
    dp = psi - np.outer(fv, gv @ psi) / (gv @ fv)
    return chart.project(x_hit), np.delete(dp @ chart.tangent(x), chart.j, axis=0), crossing


def _state_columns(seg: FlowSegment, n: int) -> FlowSegment:
    """The flow of x alone from a segment of the variational system."""
    return replace(seg, ys=np.ascontiguousarray(seg.ys[:, :n]),
                   qs=np.ascontiguousarray(seg.qs[:, :n]))


def find_fixed_point(sys: HybridSystemDef, x_guess: np.ndarray,
                     cfg: IntegratorConfig | None = None,
                     t_cap: float = 100.0) -> StabilityReport:
    """Newton iteration on the zero-input section map in chart coordinates.

    Each map evaluation integrates the variational matrix too, so it gives
    the exact chart Jacobian for the next step.  Converges when the chart
    residual drops below 1e-10 * max(1, |z|); a plain halving line search
    guards each step, counting a trial that never returns to the surface as
    failed, and the iterate history is attached to both the report and any
    divergence error.  The converged map evaluation supplies T*, the orbit
    segment and the variational Jacobian.
    """
    mcfg = _map_cfg(cfg)
    chart = SurfaceChart.build(sys, np.asarray(x_guess, dtype=float))
    var = _Variational.of(sys)
    eye = np.eye(sys.n - 1)

    def residual(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, TimeToImpact]:
        pz, jac, crossing = _variational_map(var, chart, z, mcfg, t_cap)
        return pz - z, jac, crossing

    z = chart.project(chart.x_ref)
    iterates = [z.copy()]
    fz, jac, crossing = residual(z)
    res = float(np.linalg.norm(fz))
    residuals = [res]

    for _ in range(_NEWTON_MAX_ITER):
        if res <= _NEWTON_TOL_REL * max(1.0, float(np.linalg.norm(z))):
            return StabilityReport(x_star=chart.embed(z), t_star=crossing.time, chart_j=chart.j,
                                   newton_residuals=tuple(residuals), variational_jacobian=jac,
                                   segment=_state_columns(crossing.segment, sys.n))
        try:
            dz = np.linalg.solve(jac - eye, -fz)
        except np.linalg.LinAlgError as exc:
            raise NewtonDiverged(f"singular chart Jacobian: {exc}", iterates, residuals) from exc
        scale_step = 1.0
        for _ in range(_LINESEARCH_MAX_HALVINGS):
            z_try = z + scale_step * dz
            scale_step *= 0.5
            try:
                f_try, j_try, c_try = residual(z_try)
            except InfiniteTimeToImpact:
                # a trial that never returns fails, like one that does not
                # reduce the residual: the solve halves and goes on
                continue
            r_try = float(np.linalg.norm(f_try))
            if r_try < res:
                z, fz, jac, res, crossing = z_try, f_try, j_try, r_try, c_try
                iterates.append(z.copy())
                residuals.append(res)
                break
        else:
            raise NewtonDiverged("line search failed to reduce the residual",
                                 iterates, residuals)
    raise NewtonDiverged(f"no convergence in {_NEWTON_MAX_ITER} iterations",
                         iterates, residuals)


def _classify(jacobian: np.ndarray) -> tuple[np.ndarray, float, str]:
    """Eigenvalues, spectral radius rho and its label: LES below the
    marginal band around one, LAS-marginal inside it, unstable above."""
    eigs = np.linalg.eigvals(jacobian) if jacobian.size else np.array([])
    rho = float(np.max(np.abs(eigs))) if eigs.size else 0.0
    if rho < 1.0 - _MARGINAL_BAND:
        return eigs, rho, "LES"
    if rho <= 1.0 + _MARGINAL_BAND:
        return eigs, rho, "LAS-marginal"
    return eigs, rho, "unstable"


def _verdict(jacobian: np.ndarray, variational_jacobian: np.ndarray) -> str:
    """The label both Jacobians give, or inconclusive when they differ: a
    verdict is never finer than the disagreement of its two derivatives."""
    label = _classify(jacobian)[2]
    return label if _classify(variational_jacobian)[2] == label else "inconclusive"


def linearize(sys: HybridSystemDef, report: StabilityReport,
              cfg: IntegratorConfig | None = None) -> StabilityReport:
    """Fill the on-surface Jacobian (central differences, column by column,
    each map evaluation capped at 10 T*), its eigenvalues and the verdict.

    The report's variational Jacobian, in the same chart, is the second
    opinion: fd_consistency is the largest entry of their difference, and
    the verdict is inconclusive when the two classify differently.  A
    spectral radius within _MARGINAL_BAND of one is reported as
    LAS-marginal, never silently rounded to stable.
    """
    if (report.x_star is None or not report.newton_residuals
            or report.variational_jacobian is None):
        raise PreconditionError("linearize needs a converged fixed-point report")
    mcfg = _map_cfg(cfg)
    chart = SurfaceChart.build(sys, report.x_star, report.chart_j)
    z_star = chart.project(report.x_star)
    u0, v0 = zero_inputs(sys)

    def chart_map(z: np.ndarray) -> np.ndarray:
        return chart.project(poincare_map(sys, chart.embed(z), u0, v0, mcfg, 10.0 * report.t_star).state)

    J = central_difference(chart_map, z_star, _FD_STEP)
    J_var = report.variational_jacobian
    consistency = float(np.max(np.abs(J - J_var))) if J.size else 0.0
    eigs, rho, _ = _classify(J)
    return replace(report, jacobian=J, fd_consistency=consistency,
                   eigenvalues=tuple(complex(e) for e in eigs),
                   spectral_radius=rho, verdict=_verdict(J, J_var))
