"""Built-in systems with closed-form oracle packs.

The comment above each model states which of the smoothness/geometry
assumptions it satisfies; the bouncing ball is the deliberate negative
control (Zeno by design, with no oracle pack).  No multi-body robot is shipped:
the substitute models reproduce the same mathematical structure those
applications have (smooth forced flow, codimension-1 section, impulsive
reset disturbance) while keeping exact oracles available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import HybridSystemDef
from .errors import ParamOutOfRange, UnknownModel


@dataclass(frozen=True)
class OraclePack:
    """Closed-form ground truth used to test the numerical pipeline."""

    x_star: np.ndarray | None = None
    t_star: float | None = None
    eigenvalues: tuple[float, ...] = ()
    poincare_map: Callable | None = None
    forced_fixed_point: Callable | None = None
    period_band: tuple[float, float] | None = None


@dataclass(frozen=True)
class ModelCatalogEntry:
    name: str
    factory: Callable[..., HybridSystemDef]
    defaults: dict
    ranges: dict
    oracle_factory: Callable[..., OraclePack | None] = lambda **_: None


# ---------------------------------------------------------------------------
# linear timer-reset model: x1 is a unit-rate timer, x2 a damped scalar.
#   x1' = 1, x2' = -a x2 + u,  H = 1 - x1,  reset (x1, x2) -> (0, x2 + v).
# Everything about it is solvable in closed form, which makes it the primary
# oracle: T* = 1, x* = (1, 0), section map  x2 -> e^{-a} (x2 + v) + (u/a)(1 - e^{-a})
# for constant u, hence eigenvalue e^{-a} and forced fixed point u/a + v e^{-a}/(1-e^{-a}).
# Smooth everywhere; the reset lands strictly above the surface; transversal.


def _linear_reset(a: float) -> HybridSystemDef:
    def f(x, u):
        return np.array([1.0, -a * x[1] + u[0]])

    def delta(x, v):
        return np.array([0.0, x[1] + v[0]])

    return HybridSystemDef(
        n=2, p=1, q=1, f=f, delta=delta,
        surface=((-1.0, 0.0), 1.0),
        jac_f=lambda x, u: np.array([[0.0, 0.0], [0.0, -a]]),
        jac_delta=lambda x, v: np.array([[0.0, 0.0], [0.0, 1.0]]),
        name="linear-reset",
    )


def _linear_reset_oracle(a: float) -> OraclePack:
    decay = math.exp(-a)

    def pmap(x2: float, u_const: float = 0.0, v: float = 0.0) -> float:
        return decay * (x2 + v) + (u_const / a) * (1.0 - decay)

    def forced_fp(u_const: float = 0.0, v_const: float = 0.0) -> float:
        return u_const / a + decay * v_const / (1.0 - decay)

    return OraclePack(
        x_star=np.array([1.0, 0.0]),
        t_star=1.0,
        eigenvalues=(decay,),
        poincare_map=pmap,
        forced_fixed_point=forced_fp,
    )


# ---------------------------------------------------------------------------
# rimless wheel: inverted-pendulum stance with an instantaneous spoke swap.
#   th'' = (g/l) sin th + u,  H = (gamma + alpha) - th,
#   reset (th, om) -> (gamma - alpha, cos(2 alpha) om + v).
# Energy 0.5 om^2 + (g/l) cos th is conserved along the unforced stance, so
# the section map in z = om^2 is affine:
#   z_{k+1} = cos^2(2a) z_k + 2 (g/l)(cos(g-a) - cos(g+a)),
# giving om*^2 = 4 (g/l) sin a sin g / sin^2(2a) and eigenvalue cos^2(2a).
# Smooth; the reset lands strictly above the surface; finite capture basin.


def _rimless_wheel(alpha: float, gamma: float, g_over_l: float) -> HybridSystemDef:
    c2a = math.cos(2.0 * alpha)

    def f(x, u):
        return np.array([x[1], g_over_l * math.sin(x[0]) + u[0]])

    def delta(x, v):
        return np.array([gamma - alpha, c2a * x[1] + v[0]])

    return HybridSystemDef(
        n=2, p=1, q=1, f=f, delta=delta,
        surface=((-1.0, 0.0), gamma + alpha),
        jac_f=lambda x, u: np.array([[0.0, 1.0], [g_over_l * math.cos(x[0]), 0.0]]),
        jac_delta=lambda x, v: np.array([[0.0, 0.0], [0.0, c2a]]),
        name="rimless-wheel",
    )


def _rimless_oracle(alpha: float, gamma: float, g_over_l: float) -> OraclePack:
    c2a = math.cos(2.0 * alpha)
    gain = 2.0 * g_over_l * (math.cos(gamma - alpha) - math.cos(gamma + alpha))
    omega_star = math.sqrt(gain / (1.0 - c2a * c2a))

    def pmap(omega: float, v: float = 0.0) -> float:
        return math.sqrt((c2a * omega + v) ** 2 + gain)

    return OraclePack(
        x_star=np.array([gamma + alpha, omega_star]),
        t_star=None,  # finite; fixed by quadrature in tests, not needed here
        eigenvalues=(c2a * c2a,),
        poincare_map=pmap,
    )


# ---------------------------------------------------------------------------
# Van der Pol section adapter: a continuous-time limit cycle studied through
# the same machinery, with the identity reset (v ignored).  The section
# x2 = 0 is gated to the half plane x1 > 0 by adding a cubic hinge so only
# the downward crossing on the right branch is a zero of H:
#   H(x) = x2 + gate * max(0, -x1)^3.
# The hinge is C^2 and vanishes wherever x1 >= 0.  The identity reset lands
# on the section by construction.


def _vdp_adapter(mu: float, gate: float) -> HybridSystemDef:
    def f(x, u):
        return np.array([x[1], mu * (1.0 - x[0] * x[0]) * x[1] - x[0] + u[0]])

    def jac_f(x, u):
        return np.array([[0.0, 1.0], [-2.0 * mu * x[0] * x[1] - 1.0, mu * (1.0 - x[0] * x[0])]])

    def h(x):
        neg = -x[0]
        return x[1] + (gate * neg * neg * neg if neg > 0.0 else 0.0)

    def grad_h(x):
        neg = -x[0]
        g1 = -3.0 * gate * neg * neg if neg > 0.0 else 0.0
        return np.array([g1, 1.0])

    return HybridSystemDef(
        n=2, p=1, q=1, f=f,
        delta=lambda x, v: np.asarray(x, dtype=float).copy(),
        h=h, grad_h=grad_h,
        surface_reset_ok=True,
        jac_f=jac_f,
        jac_delta=lambda x, v: np.eye(2),
        name="vdp-adapter",
    )


def _vdp_oracle(mu: float, gate: float) -> OraclePack:
    if mu == 0.0:
        # conservative: every section point is fixed
        return OraclePack(t_star=2.0 * math.pi, eigenvalues=(1.0,))
    # small-mu asymptotic period as a consistency band
    t_approx = 2.0 * math.pi * (1.0 + mu * mu / 16.0)
    return OraclePack(period_band=(t_approx * 0.995, t_approx * 1.005))


# ---------------------------------------------------------------------------
# bouncing ball: the Zeno negative control.  Restitution < 1 makes impact
# times accumulate geometrically, and the reset lands on the surface.


def _bouncing_ball(g: float, restitution: float) -> HybridSystemDef:
    def f(x, u):
        return np.array([x[1], -g])

    def delta(x, v):
        return np.array([0.0, -restitution * x[1]])

    return HybridSystemDef(
        n=2, p=1, q=1, f=f, delta=delta,
        surface=((1.0, 0.0), 0.0),
        surface_reset_ok=True,
        jac_f=lambda x, u: np.array([[0.0, 1.0], [0.0, 0.0]]),
        jac_delta=lambda x, v: np.array([[0.0, 0.0], [0.0, -restitution]]),
        name="bouncing-ball",
    )


_CATALOG: dict[str, ModelCatalogEntry] = {entry.name: entry for entry in (
    ModelCatalogEntry(
        name="linear-reset", factory=_linear_reset, oracle_factory=_linear_reset_oracle,
        defaults={"a": math.log(2.0)}, ranges={"a": (0.0, math.inf)}),
    ModelCatalogEntry(
        name="rimless-wheel", factory=_rimless_wheel, oracle_factory=_rimless_oracle,
        defaults={"alpha": math.pi / 8.0, "gamma": 0.08, "g_over_l": 9.81},
        ranges={"alpha": (0.0, math.pi / 2.0), "gamma": (0.0, math.pi / 2.0),
                "g_over_l": (0.0, math.inf)}),
    ModelCatalogEntry(
        name="vdp-adapter", factory=_vdp_adapter, oracle_factory=_vdp_oracle,
        defaults={"mu": 0.2, "gate": 0.05},
        ranges={"mu": (-1e-12, math.inf), "gate": (0.0, math.inf)}),
    ModelCatalogEntry(
        name="bouncing-ball", factory=_bouncing_ball,
        defaults={"g": 9.81, "restitution": 0.5},
        ranges={"g": (0.0, math.inf), "restitution": (0.0, 1.0)}),
)}


def catalog() -> dict[str, ModelCatalogEntry]:
    return dict(_CATALOG)


def _lookup(name: str, params: dict) -> tuple[ModelCatalogEntry, dict]:
    """The catalog entry of a model and its defaults overridden by params,
    each checked to be a number inside the parameter's range."""
    if name not in _CATALOG:
        raise UnknownModel(f"unknown model {name!r}; available: {sorted(_CATALOG)}")
    entry = _CATALOG[name]
    merged = dict(entry.defaults)
    for key, val in params.items():
        if key not in entry.defaults:
            raise ParamOutOfRange(f"model {name!r} has no parameter {key!r}")
        try:
            merged[key] = float(val)
        except (TypeError, ValueError, OverflowError):
            raise ParamOutOfRange(f"{name}: {key}={val!r:.60} is not a number") from None
    for key, (lo, hi) in entry.ranges.items():
        v = merged[key]
        if not (lo < v < hi) or not math.isfinite(v):
            raise ParamOutOfRange(f"{name}: {key}={v!r} outside ({lo}, {hi})")
    return entry, merged


def model(name: str, **params) -> HybridSystemDef:
    entry, merged = _lookup(name, params)
    return entry.factory(**merged)


def oracle(name: str, **params) -> OraclePack | None:
    entry, merged = _lookup(name, params)
    return entry.oracle_factory(**merged)
