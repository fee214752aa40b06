"""Command-line front end.

Subcommands: simulate | orbit | certify-prop1 | iss-sweep | validate.
Configuration is strict JSON read through one table, `_BLOCKS`: unknown,
missing and malformed values (NaN included) are ConfigErrors, and an absent
key takes the default of whatever receives the block.  Outputs are CSV files
with a fixed 17-significant-digit format plus strict JSON reports (non-finite
floats are null); identical config and seed reproduce byte-identical CSVs.
The only timestamp lives in the meta report.

Exit codes: 0 ok, 1 usage/config error, 2 guard termination,
3 solver failure, 4 certification failure.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys as _sys
from dataclasses import asdict, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import _rng
from .core import ContinuousSignal, DiscreteSequence, validate_system
from .errors import (ChartSingular, ConfigError, InfiniteTimeToImpact,
                     NewtonDiverged, SieError)
from .flow import IntegratorConfig
from .hybrid import GuardConfig, simulate
from .iss import TALLIED_OUTCOMES, SweepConfig, check_equivalence, fit_gain, run_sweep
from .models import model
from .orbit import Chords, UpperBoundViolation, build_orbit, certify_prop1, nearest_chords
from .poincare import find_fixed_point, linearize

_EXIT_OK = 0
_EXIT_CONFIG = 1
_EXIT_GUARD = 2
_EXIT_SOLVER = 3
_EXIT_CERTIFY = 4


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _sample_times(t0: float, t1: float, dt: float) -> np.ndarray:
    """The grid t0, t0 + dt, .. and t1, without grid samples within 1e-9 dt
    of t1, so the row count does not follow the last bit of an impact time."""
    ts = np.arange(t0, t1, dt)
    return np.append(ts[ts < t1 - 1e-9 * dt], t1)


# ---------------------------------------------------------------------------
# config reading: one table of blocks and keys, one reader


def _coerce(step: str, fn, value):
    """fn(value); a failure becomes a ConfigError at `step`, a key or index."""
    try:
        return fn(value)
    except ConfigError as exc:
        raise ConfigError(f"{step}{exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{step}: {exc}") from None


def _fields(block, table) -> dict:
    keys, required = table
    if not isinstance(block, dict):
        raise TypeError(f"expected an object, got {block!r:.60}")
    unknown, missing = set(block) - set(keys), set(required) - set(block)
    if unknown or missing:
        raise ConfigError(f": {'unknown' if unknown else 'missing'} keys {sorted(unknown or missing)}")
    return {key: _coerce(f".{key}", keys[key], value) for key, value in block.items()}


def _real(v, finite: bool = True, positive: bool = False) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError(f"expected a number, got {v!r:.60}")
    if math.isnan(v) or finite and math.isinf(v) or positive and v <= 0:
        raise ValueError(f"expected a {'positive' if positive else 'finite'} number, got {v!r}")
    return float(v)


def _int(v, low: int | None = None) -> int:
    if isinstance(v, float) and v.is_integer():
        v = int(v)
    if isinstance(v, bool) or not isinstance(v, int):
        raise TypeError(f"expected an integer, got {v!r:.60}")
    if low is not None and v < low:
        raise ValueError(f"expected an integer of at least {low}, got {v}")
    return v


_seed = partial(_int, low=0)


def _typed(cls, what: str):
    def coerce(v):
        if not isinstance(v, cls):
            raise TypeError(f"expected {what}, got {v!r:.60}")
        return v
    return coerce


def _reals(v) -> tuple:
    """A list of finite numbers, kept as given: reports echo radii verbatim."""
    for x in _typed(list, "a list of numbers")(v):
        _real(x)
    return tuple(v)


def _point(v) -> np.ndarray:
    return np.array(_reals(v), dtype=float)


def _rows(v) -> tuple:
    """Equal-length lists of finite numbers; a flat list is one row."""
    flat = isinstance(v, list) and v and not isinstance(v[0], list)
    rows = tuple(_reals(r) for r in _typed(list, "a list of rows")([v] if flat else v))
    if len(set(map(len, rows))) > 1:
        raise ValueError("rows differ in length")
    return rows


def _params(v) -> dict:
    return {key: _coerce(f".{key}", _real, x) for key, x in _typed(dict, "an object")(v).items()}


def _orbit_samples(path) -> np.ndarray:
    """The points of an `orbit_samples.csv` written by `orbit`."""
    try:
        data = np.atleast_2d(np.loadtxt(_typed(str, "a path")(path), delimiter=",", skiprows=1))
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    if len(data) < 2 or not np.isfinite(data).all():
        raise ValueError(f"{path}: orbit_samples needs at least two finite samples")
    return data[:, 1:]


def _spec(kinds: dict):
    """Coerce {"kind": k, ...} into (k, coerced arguments of kind k)."""
    def spec(v):
        kind = v.get("kind") if isinstance(v, dict) else None
        if not (isinstance(kind, str) and kind in kinds):
            raise ValueError(f"expected an object with a 'kind' among {sorted(kinds)}, "
                             f"got {v!r:.60}")
        return kind, _fields({k: x for k, x in v.items() if k != "kind"}, kinds[kind])
    return spec


def _parts(v) -> list:
    return [_coerce(f"[{i}]", _spec(_SIGNALS), p) for i, p in enumerate(_typed(list, "a list")(v))]


# block or kind -> ({key: coercion}, required keys); each default is left to
# the dataclass or function that receives the coerced block
_SCALE = {"scale": _real}
_SIGNALS = {
    "zero": ({}, ()),
    "constant": ({"value": _reals, **_SCALE}, {"value"}),
    "sinusoid": ({"amplitude": _reals, "omega": _real, "phase": _real, **_SCALE},
                 {"amplitude", "omega"}),
    "tabulated": ({"times": _reals, "values": _rows, **_SCALE}, {"times", "values"}),
    "composite": ({"parts": _parts, **_SCALE}, {"parts"}),
}
_SEQUENCES = {
    "zero": ({}, ()),
    "constant": ({"value": _reals, **_SCALE}, {"value"}),
    "iid-uniform": ({"bound": lambda v: _reals(v) if isinstance(v, list) else _real(v),
                     "seed": _seed, **_SCALE}, {"bound"}),
    "explicit": ({"entries": _rows, **_SCALE}, {"entries"}),
}
_SOLVE = {"guess": _point, "t_cap": _real}
_BLOCKS = {
    "model": ({"name": _typed(str, "a string"), "params": _params}, {"name"}),
    "integrator": ({"rtol": _real, "atol": _real, "max_step": lambda v: _real(v, finite=False),
                    "max_steps": _int, "blowup": lambda v: _real(v, finite=False)}, ()),
    "guards": ({"k_max": _int, "min_dwell": lambda v: None if v is None else _real(v)}, ()),
    "simulate": ({"x0": _point, "t_final": _real, "input": _spec(_SIGNALS),
                  "impulses": _spec(_SEQUENCES), "sample_dt": lambda v: _real(v, positive=True),
                  "orbit_samples": _orbit_samples}, {"x0", "t_final"}),
    "orbit": (_SOLVE, {"guess"}),
    "certify_prop1": ({**_SOLVE, "samples": _int, "radii": _reals,
                       "far_field": _typed(bool, "true or false")}, {"guess", "samples"}),
    "iss_sweep": ({**_SOLVE, "offsets": _reals, "u_amps": _reals, "v_amps": _reals,
                   "trials": _int, "horizon_periods": _real, "transient_cutoff": _real,
                   "u_template": _spec(_SIGNALS), "samples_per_step": _int,
                   "pair_uv": _typed(bool, "true or false")},
                  {"guess", "offsets", "u_amps", "v_amps"}),
    "validate": ({"probes": _rows}, ()),
}
# blocks are read when a command uses them
_TOP = ({**dict.fromkeys(_BLOCKS, lambda v: v), "seed": _seed}, {"model"})


def _block(cfg: dict, name: str) -> dict:
    return _coerce(name, lambda block: _fields(block, _BLOCKS[name]), cfg.get(name, {}))


def _make(cls, spec: tuple, dim: int, seed: int, where: str):
    """The ContinuousSignal or DiscreteSequence that a coerced spec names."""
    kind, args = spec
    scale = args.pop("scale", None)
    if kind == "zero":
        args["dim"] = dim
    elif kind == "composite":
        args["parts"] = [_make(cls, p, dim, seed, f"{where}.parts[{i}]")
                         for i, p in enumerate(args["parts"])]
    elif kind == "iid-uniform":
        args.update(dim=dim, seed=args.get("seed", _rng.derive_seed(seed, 1)))
    obj = getattr(cls, kind.replace("-", "_"))(**args)
    if obj.dim != dim:
        raise ConfigError(f"{where}: dimension {obj.dim} does not match the model's {dim}")
    return obj if scale is None else obj.scaled(scale)


def _load_config(path: str, seed_override: int | None) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if seed_override is not None and isinstance(cfg, dict):
        cfg["seed"] = seed_override
    cfg = _coerce("config", lambda root: _fields(root, _TOP), cfg)
    cfg.setdefault("seed", 0)
    return cfg


def _build_model(cfg: dict):
    block = _block(cfg, "model")
    return model(block["name"], **block.get("params", {}))


def _solve(sysdef, block: dict, icfg: IntegratorConfig):
    """find_fixed_point from the block's guess and t_cap, taken out of it."""
    t_cap = {"t_cap": block.pop("t_cap")} if "t_cap" in block else {}
    return find_fixed_point(sysdef, block.pop("guess"), icfg, **t_cap)


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Rows of numbers, one per header column, each written as `_fmt`
    writes it: an integral value as an integer, whether int or float."""
    line = ",".join(["{:.17g}"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line.format(*row) for row in rows)


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_plain(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _plain(obj):
    """A strict-JSON copy: arrays and tuples become lists, complex numbers
    {re, im}, NumPy scalars floats and non-finite floats null."""
    if isinstance(obj, dict):
        return {key: _plain(v) for key, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_plain(v) for v in obj]
    if isinstance(obj, complex):
        return {"re": _plain(obj.real), "im": _plain(obj.imag)}
    if isinstance(obj, (float, np.floating, np.integer)):
        return float(obj) if math.isfinite(obj) else None
    return obj


def _cmd_simulate(cfg: dict, out: Path) -> int:
    sysdef = _build_model(cfg)
    block = _block(cfg, "simulate")
    u = _make(ContinuousSignal, block.get("input", ("zero", {})), sysdef.p, cfg["seed"],
              "simulate.input")
    vbar = _make(DiscreteSequence, block.get("impulses", ("zero", {})), sysdef.q, cfg["seed"],
                 "simulate.impulses")
    samples = block.get("orbit_samples")
    if samples is not None and samples.shape[1] != sysdef.n:
        raise ConfigError(f"simulate.orbit_samples: points of dimension {samples.shape[1]}")
    traj = simulate(sysdef, block["x0"], u, vbar, block["t_final"], GuardConfig(**_block(cfg, "guards")),
                    IntegratorConfig(**_block(cfg, "integrator")))
    chords = Chords.of(samples) if samples is not None else None

    sample_dt = block.get("sample_dt", block["t_final"] / 1000.0)
    header = (["t"] + [f"x_{i + 1}" for i in range(sysdef.n)]
              + (["dist_to_orbit"] if chords is not None else []) + ["segment_index"])
    rows = []
    for si, seg in enumerate(traj.segments):
        ts = _sample_times(seg.t0, seg.t1, sample_dt)
        xs = seg.eval_many(ts)
        dists = [nearest_chords(chords, xs)[1]] if chords is not None else []
        rows += np.column_stack([ts, xs, *dists, np.full(len(ts), si)]).tolist()
    _write_csv(out / "trajectory.csv", header, rows)

    iheader = (["k", "t_k"] + [f"x_minus_{i + 1}" for i in range(sysdef.n)]
               + [f"v_{i + 1}" for i in range(sysdef.q)]
               + [f"x_plus_{i + 1}" for i in range(sysdef.n)] + ["T_I_k"])
    starts = [0.0] + [imp.t for imp in traj.impacts]
    irows = [[imp.k, imp.t, *imp.x_minus, *imp.v, *imp.x_plus, imp.t - t0]
             for imp, t0 in zip(traj.impacts, starts)]
    _write_csv(out / "impacts.csv", iheader, irows)

    _write_json(out / "meta.json", {
        "termination": traj.termination, "error": traj.error, "t_final": traj.t_final,
        "impacts": len(traj.impacts), "seed": cfg["seed"],
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat()})
    if traj.termination == "horizon-reached":
        return _EXIT_OK
    if traj.termination in ("zeno-guard", "beating-guard", "escape"):
        return _EXIT_GUARD
    print(f"error: {traj.error}", file=_sys.stderr)
    return _EXIT_CONFIG


def _cmd_orbit(cfg: dict, out: Path) -> int:
    sysdef = _build_model(cfg)
    block = _block(cfg, "orbit")
    icfg = IntegratorConfig(**_block(cfg, "integrator"))
    try:
        report = _solve(sysdef, block, icfg)
    except NewtonDiverged as exc:
        _write_json(out / "newton_trace.json", {
            "message": str(exc), "iterates": exc.iterates, "residuals": exc.residuals})
        print(f"fixed-point solve failed: {exc}", file=_sys.stderr)
        return _EXIT_SOLVER
    report = linearize(sysdef, report, icfg)
    orb = build_orbit(sysdef, report)

    fields = asdict(replace(report, segment=None))
    del fields["segment"]
    fields["chart_dropped_coordinate"] = fields.pop("chart_j")
    _write_json(out / "orbit_report.json", {**fields, "orbit_diameter": orb.diameter,
                                             "orbit_samples": len(orb.taus), "seed": cfg["seed"]})
    header = ["tau"] + [f"x_{i + 1}" for i in range(sysdef.n)]
    _write_csv(out / "orbit_samples.csv", header, np.column_stack([orb.taus, orb.points]).tolist())
    print(f"{report.verdict}: spectral_radius={_fmt(report.spectral_radius)}")
    return _EXIT_OK


def _cmd_certify_prop1(cfg: dict, out: Path) -> int:
    sysdef = _build_model(cfg)
    block = _block(cfg, "certify_prop1")
    icfg = IntegratorConfig(**_block(cfg, "integrator"))
    orb = build_orbit(sysdef, _solve(sysdef, block, icfg))
    code = _EXIT_OK
    try:
        p1 = certify_prop1(orb, sysdef, block.pop("samples"), seed=cfg["seed"], **block)
    except UpperBoundViolation as exc:
        p1, code = exc.report, _EXIT_CERTIFY
    _write_json(out / "prop1_report.json", asdict(p1))
    print(f"ratio_min={_fmt(p1.ratio_min)} violations={p1.violations}")
    return code


def _cmd_iss_sweep(cfg: dict, out: Path) -> int:
    sysdef = _build_model(cfg)
    block = _block(cfg, "iss_sweep")
    icfg = IntegratorConfig(**_block(cfg, "integrator"))
    guards = GuardConfig(**_block(cfg, "guards"))
    # the whole config is checked before the fixed-point solve
    solve = {key: block.pop(key) for key in _SOLVE if key in block}
    if "u_template" in block:
        block["u_template"] = _make(ContinuousSignal, block["u_template"], sysdef.p, cfg["seed"],
                                    "iss_sweep.u_template")
    sweep = SweepConfig(**block, seed=cfg["seed"])
    report = _solve(sysdef, solve, icfg)
    sw = run_sweep(sysdef, build_orbit(sysdef, report), report, sweep, icfg, guards)
    verdict = check_equivalence(sw)
    header = ["offset", "u_amp", "v_amp", "trials", "ultimate_orbital",
              "ultimate_discrete", "peak", *(k.replace("-", "_") for k in TALLIED_OUTCOMES)]
    rows = [[c.offset, c.u_amp, c.v_amp, len(c.per_trial_orbital),
             c.ultimate_orbital, c.ultimate_discrete, c.peak,
             *(c.guard_tallies.get(k, 0) for k in TALLIED_OUTCOMES)]
            for c in sw.cells]
    _write_csv(out / "cells.csv", header, rows)
    gains = {}
    for stat in ("discrete", "orbital"):
        for axis in ("u", "v"):
            try:
                gains[f"{stat}_{axis}"] = asdict(fit_gain(sw, statistic=stat, axis=axis))
            except SieError:
                pass
    equivalence = asdict(verdict)
    del equivalence["pair_checks"]
    _write_json(out / "sweep_summary.json", {
        **{key: getattr(sw, key) for key in ("seed", "trials", "horizon_periods",
                                             "transient_cutoff", "t_star")},
        "equivalence": equivalence, "gain_fits": gains})
    print(f"cells={len(sw.cells)} factor={_fmt(verdict.factor)} "
          f"monotone={verdict.monotone_ok} zero_floor={verdict.zero_floor_ok}")
    return _EXIT_OK


def _cmd_validate(cfg: dict, out: Path) -> int:
    sysdef = _build_model(cfg)
    probes = _block(cfg, "validate").get("probes")
    if probes is None:  # an empty list is passed on, and refused
        rng = np.random.default_rng(cfg["seed"])
        probes = [rng.normal(size=sysdef.n) for _ in range(8)]
    report = validate_system(sysdef, probes)
    _write_json(out / "validation.json", {
        **asdict(report), "degenerate_gradient_flagged": report.degenerate_gradient_flagged})
    print(f"probes={len(report.probes)} degenerate={report.degenerate_gradient_flagged}")
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
