import sie

PUBLIC_NAMES = {
    "ContinuousSignal", "DiscreteSequence", "HybridSystemDef", "ValidationReport",
    "validate_system", "SieError", "ImpactEvent", "TimeToImpact", "FlowSegment",
    "IntegratorConfig", "integrate", "GuardConfig", "HybridTrajectory", "Impact",
    "simulate", "DecayFit", "EquivalenceVerdict", "GainFit", "IssSweepReport",
    "SweepConfig", "check_equivalence", "fit_decay", "fit_gain", "run_sweep", "catalog",
    "model", "oracle", "PeriodicOrbit", "Prop1Report", "build_orbit", "certify_prop1",
    "dist_to_orbit", "StabilityReport", "SurfaceChart", "find_fixed_point", "linearize",
    "poincare_map",
}


def test_public_api_is_pinned():
    # a name added to or dropped from sie.__all__ must be edited here too
    assert len(sie.__all__) == len(PUBLIC_NAMES) == 37
    assert set(sie.__all__) == PUBLIC_NAMES
    assert all(hasattr(sie, name) for name in PUBLIC_NAMES)
