"""Structured error types shared across the package.

Model evaluators, the integrator, event location and the fixed-point solver
all fail through these classes so callers can attribute a failure to a model,
to the numerics, or to a violated precondition instead of chasing NaNs.
"""

from __future__ import annotations


class SieError(Exception):
    """Base class for all structured failures raised by this package."""


class EvaluatorFailure(SieError):
    """A user-supplied evaluator (f, delta, h or grad_h) raised or returned
    a non-finite value, or, for grad_h, gave a flow derivative of H that is
    not negative across a sign change of H from well above the event
    tolerance to well below it."""

    def __init__(self, which: str, argument, detail: str = ""):
        self.which = which
        self.argument = argument
        self.detail = detail
        msg = f"evaluator '{which}' failed at {argument!r}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class PreconditionError(SieError):
    """An operation was called outside its documented domain."""


class StepLimitExceeded(SieError):
    def __init__(self, max_steps: int, t: float):
        self.max_steps = max_steps
        self.t = t
        super().__init__(f"integrator exceeded {max_steps} steps at t={t:.6g}")


class Blowup(SieError):
    """State norm exceeded the blowup bound; carries the partial segment."""

    def __init__(self, t: float, norm: float, segment=None):
        self.t = t
        self.norm = norm
        self.segment = segment
        super().__init__(f"state norm {norm:.3g} exceeded blowup bound at t={t:.6g}")


class GrazeDetected(SieError):
    """Tangential contact with the switching surface; excluded by assumption,
    surfaced loudly rather than resolved."""

    def __init__(self, t: float, lfh: float):
        self.t = t
        self.lfh = lfh
        super().__init__(f"tangential surface contact at t={t:.6g} (directional derivative {lfh:.3g})")


class ResetNotInSPlus(SieError):
    """The reset map produced a state on or below the switching surface."""

    def __init__(self, h_value: float):
        self.h_value = h_value
        super().__init__(f"reset landed at H={h_value:.3g}, not strictly above the surface")


class InfiniteTimeToImpact(SieError):
    """No surface crossing occurred before the configured horizon cap."""

    def __init__(self, t_cap: float):
        self.t_cap = t_cap
        super().__init__(f"no surface crossing before horizon cap {t_cap:.6g}")


class ChartSingular(SieError):
    """The eliminated surface coordinate has a vanishing gradient component."""


class NewtonDiverged(SieError):
    """Fixed-point iteration failed; carries the iterate history."""

    def __init__(self, message: str, iterates, residuals):
        self.iterates = list(iterates)
        self.residuals = list(residuals)
        super().__init__(message)


class ClosureError(SieError):
    """The integrated orbit failed to return to its fixed point."""


class FitDegenerate(SieError):
    """Too few usable points above the numerical floor for a decay fit;
    re-run with a larger initial offset."""


class UnknownModel(SieError):
    pass


class ParamOutOfRange(SieError):
    pass


class ConfigError(SieError):
    """Invalid or unknown content in a run-configuration document."""
