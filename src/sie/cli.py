"""Command-line front end.

Subcommands: simulate | orbit | certify-prop1 | iss-sweep | validate.
Configuration is a strict JSON document (unknown keys are errors), outputs
are CSV files with a fixed 17-significant-digit format plus a JSON report;
identical config and seed reproduce byte-identical CSVs.  The only
timestamp lives in the meta report.

Exit codes: 0 ok, 1 usage/config error, 2 guard termination,
3 solver failure, 4 certification failure.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys as _sys
from pathlib import Path

import numpy as np

from . import _rng
from .core import ContinuousSignal, DiscreteSequence
from .errors import (ChartSingular, ConfigError, InfiniteTimeToImpact,
                     NewtonDiverged, SieError)
from .flow import IntegratorConfig
from .hybrid import GuardConfig, simulate
from .iss import SweepConfig, check_equivalence, fit_gain, run_sweep
from .models import model
from .orbit import Chords, UpperBoundViolation, build_orbit, certify_prop1, nearest_chords
from .poincare import find_fixed_point, linearize
from .core import validate_system

_EXIT_OK = 0
_EXIT_CONFIG = 1
_EXIT_GUARD = 2
_EXIT_SOLVER = 3
_EXIT_CERTIFY = 4


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _require_keys(block: dict, allowed: set[str], required: set[str], where: str) -> None:
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = required - set(block)
    if missing:
        raise ConfigError(f"missing keys in {where}: {sorted(missing)}")


def _signal_from_spec(spec: dict, dim: int, where: str) -> ContinuousSignal:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"{where} must be an object with a 'kind'")
    kind = spec["kind"]
    if kind == "zero":
        _require_keys(spec, {"kind"}, {"kind"}, where)
        return ContinuousSignal.zero(dim)
    if kind == "constant":
        _require_keys(spec, {"kind", "value", "scale"}, {"kind", "value"}, where)
        sig = ContinuousSignal.constant(spec["value"])
    elif kind == "sinusoid":
        _require_keys(spec, {"kind", "amplitude", "omega", "phase", "scale"},
                      {"kind", "amplitude", "omega"}, where)
        sig = ContinuousSignal.sinusoid(spec["amplitude"], spec["omega"], spec.get("phase", 0.0))
    elif kind == "tabulated":
        _require_keys(spec, {"kind", "times", "values", "scale"}, {"kind", "times", "values"}, where)
        sig = ContinuousSignal.tabulated(spec["times"], spec["values"])
    elif kind == "composite":
        _require_keys(spec, {"kind", "parts", "scale"}, {"kind", "parts"}, where)
        sig = ContinuousSignal.composite(
            [_signal_from_spec(p, dim, f"{where}.parts[{i}]") for i, p in enumerate(spec["parts"])])
    else:
        raise ConfigError(f"{where}: unknown signal kind {kind!r}")
    if sig.dim != dim:
        raise ConfigError(f"{where}: dimension {sig.dim} does not match the model input dimension {dim}")
    return sig.scaled(spec.get("scale", 1.0))


def _sequence_from_spec(spec: dict, dim: int, seed: int, where: str) -> DiscreteSequence:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"{where} must be an object with a 'kind'")
    kind = spec["kind"]
    if kind == "zero":
        _require_keys(spec, {"kind"}, {"kind"}, where)
        return DiscreteSequence.zero(dim)
    if kind == "constant":
        _require_keys(spec, {"kind", "value", "scale"}, {"kind", "value"}, where)
        seq = DiscreteSequence.constant(spec["value"])
    elif kind == "iid-uniform":
        _require_keys(spec, {"kind", "bound", "seed", "scale"}, {"kind", "bound"}, where)
        seq = DiscreteSequence.iid_uniform(spec["bound"], seed=spec.get("seed", _rng.derive_seed(seed, 1)), dim=dim)
    elif kind == "explicit":
        _require_keys(spec, {"kind", "entries", "scale"}, {"kind", "entries"}, where)
        seq = DiscreteSequence.explicit(spec["entries"])
    else:
        raise ConfigError(f"{where}: unknown sequence kind {kind!r}")
    if seq.dim != dim:
        raise ConfigError(f"{where}: dimension {seq.dim} does not match the model impulse dimension {dim}")
    return seq.scaled(spec.get("scale", 1.0))


def _integrator_from_config(cfg: dict) -> IntegratorConfig:
    block = cfg.get("integrator", {})
    _require_keys(block, {"rtol", "atol", "max_step", "max_steps", "blowup"}, set(), "integrator")
    return IntegratorConfig(
        rtol=block.get("rtol", 1e-9),
        atol=block.get("atol", 1e-11),
        max_step=block.get("max_step", math.inf),
        max_steps=int(block.get("max_steps", 1_000_000)),
        blowup=block.get("blowup", 1e8),
    )


def _guards_from_config(cfg: dict) -> GuardConfig:
    block = cfg.get("guards", {})
    _require_keys(block, {"k_max", "min_dwell"}, set(), "guards")
    return GuardConfig(k_max=int(block.get("k_max", 10_000)),
                       min_dwell=block.get("min_dwell"))


_TOP_KEYS = {"model", "seed", "integrator", "guards",
             "simulate", "orbit", "certify_prop1", "iss_sweep", "validate"}


def _load_config(path: str, seed_override: int | None) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    _require_keys(cfg, _TOP_KEYS, {"model"}, "config")
    _require_keys(cfg["model"], {"name", "params"}, {"name"}, "model")
    if seed_override is not None:
        cfg["seed"] = seed_override
    cfg.setdefault("seed", 0)
    return cfg


def _build_model(cfg: dict):
    block = cfg["model"]
    return model(block["name"], **block.get("params", {}))


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, (int, float, np.floating)) else str(v)
                              for v in row) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"not serializable: {type(obj)}")


def _load_orbit_samples(path: str) -> np.ndarray:
    data = np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1))
    if len(data) < 2:
        raise ConfigError(f"{path}: orbit_samples needs at least two samples")
    return data[:, 1:]


def _cmd_simulate(cfg: dict, out: Path) -> int:
    sysdef = _build_model(cfg)
    block = cfg.get("simulate")
    if block is None:
        raise ConfigError("config needs a 'simulate' block")
    _require_keys(block, {"x0", "t_final", "input", "impulses", "sample_dt", "orbit_samples"},
                  {"x0", "t_final"}, "simulate")
    x0 = np.asarray(block["x0"], dtype=float)
    t_final = float(block["t_final"])
    u = _signal_from_spec(block.get("input", {"kind": "zero"}), sysdef.p, "simulate.input")
    vbar = _sequence_from_spec(block.get("impulses", {"kind": "zero"}), sysdef.q,
                               cfg["seed"], "simulate.impulses")
    icfg = _integrator_from_config(cfg)
    guards = _guards_from_config(cfg)
    traj = simulate(sysdef, x0, u, vbar, t_final, guards, icfg)

    chords = None
    if "orbit_samples" in block:
        chords = Chords.of(_load_orbit_samples(block["orbit_samples"]))

    sample_dt = float(block.get("sample_dt", t_final / 1000.0))
    header = ["t"] + [f"x_{i + 1}" for i in range(sysdef.n)]
    if chords is not None:
        header.append("dist_to_orbit")
    header.append("segment_index")
    rows = []
    for si, seg in enumerate(traj.segments):
        ts = np.arange(seg.t0, seg.t1, sample_dt)
        ts = np.concatenate([ts, [seg.t1]])
        xs = np.array([seg.eval(min(t, seg.t1)) for t in ts])
        dists = nearest_chords(chords, xs)[1] if chords is not None else None
        for j, (t, x) in enumerate(zip(ts, xs)):
            row = [t, *x]
            if dists is not None:
                row.append(dists[j])
            row.append(si)
            rows.append(row)
    _write_csv(out / "trajectory.csv", header, rows)

    iheader = (["k", "t_k"] + [f"x_minus_{i + 1}" for i in range(sysdef.n)]
               + [f"v_{i + 1}" for i in range(sysdef.q)]
               + [f"x_plus_{i + 1}" for i in range(sysdef.n)] + ["T_I_k"])
    irows = []
    prev_t = 0.0
    for imp in traj.impacts:
        irows.append([imp.k, imp.t, *imp.x_minus, *imp.v, *imp.x_plus, imp.t - prev_t])
        prev_t = imp.t
    _write_csv(out / "impacts.csv", iheader, irows)

    _write_json(out / "meta.json", {
        "termination": traj.termination,
        "error": traj.error,
        "t_final": traj.t_final,
        "impacts": len(traj.impacts),
        "seed": cfg["seed"],
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    })
    if traj.termination == "horizon-reached":
        return _EXIT_OK
    if traj.termination in ("zeno-guard", "beating-guard", "escape"):
        return _EXIT_GUARD
    return _EXIT_CONFIG


def _cmd_orbit(cfg: dict, out: Path) -> int:
    sysdef = _build_model(cfg)
    block = cfg.get("orbit")
    if block is None:
        raise ConfigError("config needs an 'orbit' block")
    _require_keys(block, {"guess", "t_cap"}, {"guess"}, "orbit")
    icfg = _integrator_from_config(cfg)
    t_cap = float(block.get("t_cap", 100.0))
    try:
        report = find_fixed_point(sysdef, np.asarray(block["guess"], dtype=float), icfg, t_cap)
    except NewtonDiverged as exc:
        _write_json(out / "newton_trace.json", {
            "message": str(exc),
            "iterates": [list(map(float, z)) for z in exc.iterates],
            "residuals": [float(r) for r in exc.residuals],
        })
        print(f"fixed-point solve failed: {exc}", file=_sys.stderr)
        return _EXIT_SOLVER
    report = linearize(sysdef, report, icfg)
    orb = build_orbit(sysdef, report, icfg)

    _write_json(out / "orbit_report.json", {
        "x_star": report.x_star,
        "t_star": report.t_star,
        "chart_dropped_coordinate": report.chart_j,
        "newton_residuals": list(report.newton_residuals),
        "jacobian": report.jacobian,
        "fd_consistency": report.fd_consistency,
        "eigenvalues": list(report.eigenvalues),
        "spectral_radius": report.spectral_radius,
        "verdict": report.verdict,
        "orbit_diameter": orb.diameter,
        "orbit_samples": len(orb.taus),
        "seed": cfg["seed"],
    })
    header = ["tau"] + [f"x_{i + 1}" for i in range(sysdef.n)]
    rows = [[tau, *pt] for tau, pt in zip(orb.taus, orb.points)]
    _write_csv(out / "orbit_samples.csv", header, rows)
    print(f"{report.verdict}: spectral_radius={_fmt(report.spectral_radius)}")
    return _EXIT_OK


def _cmd_certify_prop1(cfg: dict, out: Path) -> int:
    sysdef = _build_model(cfg)
    block = cfg.get("certify_prop1")
    if block is None:
        raise ConfigError("config needs a 'certify_prop1' block")
    _require_keys(block, {"guess", "t_cap", "samples", "radii", "far_field"},
                  {"guess", "samples"}, "certify_prop1")
    icfg = _integrator_from_config(cfg)
    t_cap = float(block.get("t_cap", 100.0))
    report = find_fixed_point(sysdef, np.asarray(block["guess"], dtype=float), icfg, t_cap)
    orb = build_orbit(sysdef, report, icfg)
    radii = tuple(block["radii"]) if "radii" in block else None
    code = _EXIT_OK
    try:
        p1 = certify_prop1(orb, sysdef, int(block["samples"]), radii=radii,
                           seed=cfg["seed"], far_field=bool(block.get("far_field", True)))
    except UpperBoundViolation as exc:
        p1 = exc.report
        code = _EXIT_CERTIFY
    _write_json(out / "prop1_report.json", {
        "ratio_min": p1.ratio_min,
        "violations": p1.violations,
        "upper_margin": p1.upper_margin,
        "n_samples": p1.n_samples,
        "radii": list(p1.radii),
        "per_radius_ratio_min": list(p1.per_radius_ratio_min),
        "excluded": p1.excluded,
        "seed": p1.seed,
    })
    print(f"ratio_min={_fmt(p1.ratio_min)} violations={p1.violations}")
    return code


def _cmd_iss_sweep(cfg: dict, out: Path) -> int:
    sysdef = _build_model(cfg)
    block = cfg.get("iss_sweep")
    if block is None:
        raise ConfigError("config needs an 'iss_sweep' block")
    _require_keys(block, {"guess", "t_cap", "offsets", "u_amps", "v_amps", "trials",
                          "horizon_periods", "transient_cutoff", "u_template",
                          "samples_per_step", "pair_uv"},
                  {"guess", "offsets", "u_amps", "v_amps"}, "iss_sweep")
    icfg = _integrator_from_config(cfg)
    t_cap = float(block.get("t_cap", 100.0))
    report = find_fixed_point(sysdef, np.asarray(block["guess"], dtype=float), icfg, t_cap)
    orb = build_orbit(sysdef, report, icfg)
    template = None
    if "u_template" in block:
        template = _signal_from_spec(block["u_template"], sysdef.p, "iss_sweep.u_template")
    sweep = SweepConfig(
        offsets=tuple(block["offsets"]),
        u_amps=tuple(block["u_amps"]),
        v_amps=tuple(block["v_amps"]),
        trials=int(block.get("trials", 20)),
        horizon_periods=float(block.get("horizon_periods", 30.0)),
        transient_cutoff=float(block.get("transient_cutoff", 0.5)),
        seed=cfg["seed"],
        u_template=template,
        samples_per_step=int(block.get("samples_per_step", 24)),
        pair_uv=bool(block.get("pair_uv", False)),
    )
    sw = run_sweep(sysdef, orb, report, sweep, icfg)
    verdict = check_equivalence(sw)
    header = ["offset", "u_amp", "v_amp", "trials", "ultimate_orbital",
              "ultimate_discrete", "peak", "zeno_guard", "beating_guard",
              "escape", "error", "no_post_transient"]
    tally_keys = ("zeno-guard", "beating-guard", "escape", "error", "no-post-transient")
    rows = [[c.offset, c.u_amp, c.v_amp, len(c.per_trial_orbital),
             c.ultimate_orbital, c.ultimate_discrete, c.peak,
             *(c.guard_tallies.get(k, 0) for k in tally_keys)]
            for c in sw.cells]
    _write_csv(out / "cells.csv", header, rows)
    gains = {}
    for stat in ("discrete", "orbital"):
        for axis in ("u", "v"):
            try:
                g = fit_gain(sw, statistic=stat, axis=axis)
                gains[f"{stat}_{axis}"] = {"slope": g.slope, "residual": g.residual}
            except SieError:
                pass
    _write_json(out / "sweep_summary.json", {
        "seed": sw.seed,
        "trials": sw.trials,
        "horizon_periods": sw.horizon_periods,
        "transient_cutoff": sw.transient_cutoff,
        "t_star": sw.t_star,
        "equivalence": {
            "monotone_ok": verdict.monotone_ok,
            "factor_ok": verdict.factor_ok,
            "zero_floor_ok": verdict.zero_floor_ok,
            "factor": verdict.factor,
            "floor": verdict.floor,
        },
        "gain_fits": gains,
    })
    print(f"cells={len(sw.cells)} factor={_fmt(verdict.factor)} "
          f"monotone={verdict.monotone_ok} zero_floor={verdict.zero_floor_ok}")
    return _EXIT_OK


def _cmd_validate(cfg: dict, out: Path) -> int:
    sysdef = _build_model(cfg)
    block = cfg.get("validate", {})
    _require_keys(block, {"probes"}, set(), "validate")
    probes = [np.asarray(p, dtype=float) for p in block.get("probes", [])]
    if not probes:
        rng = np.random.default_rng(cfg["seed"])
        probes = [rng.normal(size=sysdef.n) for _ in range(8)]
    report = validate_system(sysdef, probes)
    _write_json(out / "validation.json", {
        "probes": [{
            "index": p.index,
            "f_finite": p.f_finite,
            "delta_finite": p.delta_finite,
            "h_finite": p.h_finite,
            "grad_mismatch": p.grad_mismatch,
            "on_surface": p.on_surface,
            "degenerate_gradient": p.degenerate_gradient,
        } for p in report.probes],
        "max_grad_mismatch": report.max_grad_mismatch,
        "degenerate_gradient_flagged": report.degenerate_gradient_flagged,
    })
    print(f"probes={len(report.probes)} max_grad_mismatch={_fmt(report.max_grad_mismatch)} "
          f"degenerate={report.degenerate_gradient_flagged}")
    return _EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "orbit": _cmd_orbit,
    "certify-prop1": _cmd_certify_prop1,
    "iss-sweep": _cmd_iss_sweep,
    "validate": _cmd_validate,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sie",
        description="Simulate forced systems with impulse effects and certify "
                    "their periodic-orbit stability properties empirically.")
    parser.add_argument("command", choices=sorted(_COMMANDS),
                        help="what to run")
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--out", default=".", help="output directory (created if missing)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker count for sweeps; results are schedule-independent")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which is the guard-termination
        # code here; --help exits 0
        return _EXIT_CONFIG if exc.code else _EXIT_OK

    # the cells run sequentially with per-trial seeding, so results never
    # depend on --threads; only its range is checked
    if args.threads is not None and args.threads < 1:
        print("config error: --threads must be at least 1", file=_sys.stderr)
        return _EXIT_CONFIG

    try:
        cfg = _load_config(args.config, args.seed)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return _EXIT_CONFIG
    except (NewtonDiverged, InfiniteTimeToImpact, ChartSingular) as exc:
        print(f"solver failure: {exc}", file=_sys.stderr)
        return _EXIT_SOLVER
    except UpperBoundViolation as exc:
        print(f"certification failure: {exc}", file=_sys.stderr)
        return _EXIT_CERTIFY
    except SieError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return _EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
