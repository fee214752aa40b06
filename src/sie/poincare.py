"""The forced section-return map as a first-class operation, plus Newton
fixed-point solving and eigenvalue classification of the on-surface
linearization.

The surface is charted by eliminating the coordinate with the largest
gradient component (implicit-function style), so the Newton iteration and
the Jacobian live in n-1 coordinates where the map has no trivial flow
direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import ContinuousSignal, HybridSystemDef, central_difference
from .errors import ChartSingular, InfiniteTimeToImpact, NewtonDiverged, PreconditionError
from .events import TimeToImpact, time_to_impact
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
    def build(sys: HybridSystemDef, x_near: np.ndarray) -> "SurfaceChart":
        x_near = np.asarray(x_near, dtype=float)
        if x_near.shape != (sys.n,):
            raise PreconditionError(f"chart point has shape {x_near.shape}, not ({sys.n},)")
        grad = sys.surface_gradient(x_near)
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
        x = np.insert(z, self.j, self.x_ref[self.j])
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


@dataclass(frozen=True)
class StabilityReport:
    """A fixed point x* of the zero-input section map, its period T* and
    segment, the flow of Newton's converged map evaluation from the reset
    image of x* to the crossing at T*: the orbit that `build_orbit` refines."""

    x_star: np.ndarray
    t_star: float
    chart_j: int
    newton_residuals: tuple[float, ...]
    jacobian: np.ndarray | None = None
    fd_consistency: float = 0.0
    eigenvalues: tuple[complex, ...] = ()
    spectral_radius: float = math.nan
    verdict: str = ""  # LES | LAS-marginal | unstable
    segment: FlowSegment | None = None


def zero_inputs(sys: HybridSystemDef) -> tuple[ContinuousSignal, np.ndarray]:
    return ContinuousSignal.zero(sys.p), np.zeros(sys.q)


def poincare_map(sys: HybridSystemDef, x: np.ndarray, u: ContinuousSignal,
                 v: np.ndarray, cfg: IntegratorConfig | None = None,
                 t_cap: float = 100.0) -> TimeToImpact:
    """P(x, u, v) = phi(T_I(Delta(x, v)), Delta(x, v)): the crossing after
    resetting x with v and flowing under u.  Its state is P(x), the pre-impact
    state of the next downward crossing, its time the return time and its
    segment the flow between.  Raises InfiniteTimeToImpact when the flow
    never returns before t_cap."""
    crossing = time_to_impact(sys, x, u, v, cfg, t_cap)
    if not crossing.finite:
        raise InfiniteTimeToImpact(t_cap)
    return crossing


def _map_cfg(cfg: IntegratorConfig | None) -> IntegratorConfig:
    cfg = cfg or IntegratorConfig()
    return replace(cfg, rtol=min(cfg.rtol, _MAP_RTOL), atol=min(cfg.atol, _MAP_ATOL))


def find_fixed_point(sys: HybridSystemDef, x_guess: np.ndarray,
                     cfg: IntegratorConfig | None = None,
                     t_cap: float = 100.0) -> StabilityReport:
    """Newton iteration on the zero-input section map in chart coordinates.

    Converges when the chart residual drops below 1e-10 * max(1, |z|); a
    plain halving line search guards each step and the iterate history is
    attached to both the report and any divergence error.  The converged
    residual's map evaluation supplies T* and the orbit segment.
    """
    mcfg = _map_cfg(cfg)
    chart = SurfaceChart.build(sys, np.asarray(x_guess, dtype=float))
    u0, v0 = zero_inputs(sys)

    def residual(z: np.ndarray) -> tuple[np.ndarray, TimeToImpact]:
        crossing = poincare_map(sys, chart.embed(z), u0, v0, mcfg, t_cap)
        return chart.project(crossing.state) - z, crossing

    z = chart.project(chart.x_ref)
    iterates = [z.copy()]
    fz, crossing = residual(z)
    res = float(np.linalg.norm(fz))
    residuals = [res]

    for _ in range(_NEWTON_MAX_ITER):
        if res <= _NEWTON_TOL_REL * max(1.0, float(np.linalg.norm(z))):
            return StabilityReport(x_star=chart.embed(z), t_star=crossing.time, chart_j=chart.j,
                                   newton_residuals=tuple(residuals), segment=crossing.segment)
        J = central_difference(lambda z: residual(z)[0], z, _FD_STEP)
        try:
            dz = np.linalg.solve(J, -fz)
        except np.linalg.LinAlgError as exc:
            raise NewtonDiverged(f"singular chart Jacobian: {exc}", iterates, residuals) from exc
        scale_step = 1.0
        for _ in range(_LINESEARCH_MAX_HALVINGS):
            z_try = z + scale_step * dz
            f_try, c_try = residual(z_try)
            r_try = float(np.linalg.norm(f_try))
            if r_try < res:
                z, fz, res, crossing = z_try, f_try, r_try, c_try
                iterates.append(z.copy())
                residuals.append(res)
                break
            scale_step *= 0.5
        else:
            raise NewtonDiverged("line search failed to reduce the residual",
                                 iterates, residuals)
    raise NewtonDiverged(f"no convergence in {_NEWTON_MAX_ITER} iterations",
                         iterates, residuals)


def linearize(sys: HybridSystemDef, report: StabilityReport,
              cfg: IntegratorConfig | None = None) -> StabilityReport:
    """Fill the on-surface Jacobian (central differences, column by column,
    each map evaluation capped at 10 T*), its eigenvalues and the verdict.

    The Jacobian is recomputed at half the step as a consistency check; a
    spectral radius within _MARGINAL_BAND of one is reported as
    LAS-marginal, never silently rounded to stable.
    """
    if report.x_star is None or not report.newton_residuals:
        raise PreconditionError("linearize needs a converged fixed-point report")
    mcfg = _map_cfg(cfg)
    chart = SurfaceChart.build(sys, report.x_star)
    z_star = chart.project(report.x_star)
    u0, v0 = zero_inputs(sys)

    def chart_map(z: np.ndarray) -> np.ndarray:
        return chart.project(poincare_map(sys, chart.embed(z), u0, v0, mcfg, 10.0 * report.t_star).state)

    J = central_difference(chart_map, z_star, _FD_STEP)
    J_half = central_difference(chart_map, z_star, _FD_STEP / 2.0)
    consistency = float(np.max(np.abs(J - J_half))) if J.size else 0.0
    eigs = np.linalg.eigvals(J) if J.size else np.array([])
    rho = float(np.max(np.abs(eigs))) if eigs.size else 0.0
    if rho < 1.0 - _MARGINAL_BAND:
        verdict = "LES"
    elif rho <= 1.0 + _MARGINAL_BAND:
        verdict = "LAS-marginal"
    else:
        verdict = "unstable"
    return replace(report, jacobian=J, fd_consistency=consistency,
                   eigenvalues=tuple(complex(e) for e in eigs),
                   spectral_radius=rho, verdict=verdict)
