"""Simulation and empirical stability certification for forced systems with
impulse effects: event-driven integration, section-return maps, hybrid
periodic orbits and input-to-state stability sweeps."""

from .core import (ContinuousSignal, DiscreteSequence, HybridSystemDef,
                   ValidationReport, validate_system)
from .errors import SieError
from .events import ImpactEvent, TimeToImpact
from .flow import FlowSegment, IntegratorConfig, integrate
from .hybrid import GuardConfig, HybridTrajectory, Impact, simulate
from .iss import (DecayFit, EquivalenceVerdict, GainFit, IssSweepReport,
                  SweepConfig, check_equivalence, fit_decay, fit_gain,
                  run_sweep)
from .models import catalog, model, oracle
from .orbit import (PeriodicOrbit, Prop1Report, build_orbit, certify_prop1,
                    dist_to_orbit)
from .poincare import (StabilityReport, SurfaceChart, find_fixed_point,
                       linearize, poincare_map)

__all__ = [
    "ContinuousSignal", "DiscreteSequence", "HybridSystemDef",
    "ValidationReport", "validate_system",
    "SieError", "ImpactEvent", "TimeToImpact",
    "FlowSegment", "IntegratorConfig", "integrate",
    "GuardConfig", "HybridTrajectory", "Impact", "simulate",
    "DecayFit", "EquivalenceVerdict", "GainFit", "IssSweepReport",
    "SweepConfig", "check_equivalence", "fit_decay", "fit_gain", "run_sweep", "catalog",
    "model", "oracle", "PeriodicOrbit", "Prop1Report",
    "build_orbit", "certify_prop1", "dist_to_orbit", "StabilityReport",
    "SurfaceChart", "find_fixed_point", "linearize", "poincare_map",
]

__version__ = "0.1.0"
