"""The three benchmark workloads: seeded CLI configs and their oracle gates.

A workload is a sequence of rounds.  A round is a short list of CLI
invocations (subcommand, JSON config, extra argv) whose inputs depend only
on (workload, seed, round index).  Each invocation carries a gate that reads
the files the CLI wrote and checks them against closed forms computed here,
independently of `sie.models`.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# README rimless-wheel configuration
ALPHA = math.pi / 8.0
G_OVER_L = 9.81
README_GAMMA = 0.08
README_GUESS = [0.4727, 1.45]
README_INTEGRATOR = {"rtol": 1e-9, "atol": 1e-11}

# per-invocation sizes: small rounds, so a run holds enough of them for a
# median that shrugs off bursts of load from other tenants of the machine
SWEEP_TRIALS = 1           # per cell; three paired cells per invocation
SWEEP_PERIODS = 44.0
CERTIFY_SAMPLES = 2000     # per invocation, spread over the seven far-field radii
ZERO_FLOOR = 1e-6
SPECTRAL_TOL = 1e-8


@dataclass(frozen=True)
class Gate:
    """Outcome of checking one invocation: failed items and the reasons."""

    failed: int
    problems: tuple[str, ...] = ()


@dataclass(frozen=True)
class Invocation:
    command: str
    config: dict
    items: int
    check: Callable[[int, Path], Gate]
    argv: tuple[str, ...] = ()


def _rng(workload: str, seed: int, index: int | str) -> random.Random:
    # string seeding hashes with SHA-512, so streams repeat across Python versions
    return random.Random(f"{workload}/{seed}/{index}")


def _read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _rimless_model(gamma: float) -> dict:
    return {"name": "rimless-wheel",
            "params": {"alpha": ALPHA, "gamma": gamma, "g_over_l": G_OVER_L}}


def rimless_omega_star(gamma: float) -> float:
    """Pre-impact speed of the period-one gait (energy balance)."""
    return math.sqrt(4.0 * G_OVER_L * math.sin(ALPHA) * math.sin(gamma)
                     / math.sin(2.0 * ALPHA) ** 2)


def rimless_capture_speed(gamma: float) -> float:
    """Smallest post-reset speed that carries the wheel over the apex."""
    return math.sqrt(2.0 * G_OVER_L * (1.0 - math.cos(gamma - ALPHA)))


# ---------------------------------------------------------------------------
# sweep-rimless: iss-sweep on the README config


def _check_sweep(rc: int, out: Path) -> Gate:
    attempted = 3 * SWEEP_TRIALS
    if rc != 0:
        return Gate(attempted, (f"iss-sweep exit code {rc}",))
    with open(out / "cells.csv", encoding="utf-8") as fh:
        cells = list(csv.DictReader(fh))
    summary = _read_json(out / "sweep_summary.json")["equivalence"]
    problems = []
    kept = sum(int(float(c["trials"])) for c in cells)
    guards = sum(int(float(c[k])) for c in cells
                 for k in ("zeno_guard", "beating_guard", "escape", "error"))
    if len(cells) != 3:
        problems.append(f"expected 3 cells, got {len(cells)}")
    if kept != attempted:
        problems.append(f"{attempted - kept} trials excluded (guards {guards})")
    zero = [c for c in cells if float(c["u_amp"]) == 0.0 and float(c["v_amp"]) == 0.0]
    if len(zero) != 1 or not all(float(zero[0][k]) <= ZERO_FLOOR
                                 for k in ("ultimate_orbital", "ultimate_discrete")):
        problems.append(f"zero cell above {ZERO_FLOOR}: {zero}")
    if not summary["monotone_ok"]:
        problems.append("monotone_ok is false")
    if not summary["zero_floor_ok"]:
        problems.append("zero_floor_ok is false")
    return Gate(max(0, attempted - kept), tuple(problems))


def _sweep_config(seed: int, cells: dict, trials: int, periods: float) -> dict:
    return {
        "model": _rimless_model(README_GAMMA),
        "seed": seed,
        "integrator": dict(README_INTEGRATOR),
        "iss_sweep": {
            "guess": list(README_GUESS),
            "offsets": [0.02],
            **cells,
            "trials": trials,
            "horizon_periods": periods,
            "pair_uv": True,
            "u_template": {"kind": "sinusoid", "amplitude": [1.0], "omega": 4.0},
        },
    }


def sweep_round(seed: int, r: int) -> list[Invocation]:
    cfg_seed = _rng("sweep-rimless", seed, r).getrandbits(63)
    cells = {"u_amps": [0.0, 0.05, 0.1], "v_amps": [0.0, 0.01, 0.02]}
    cfg = _sweep_config(cfg_seed, cells, SWEEP_TRIALS, SWEEP_PERIODS)
    return [Invocation("iss-sweep", cfg, 3 * SWEEP_TRIALS, _check_sweep, ("--threads", "2"))]


def sweep_warmup(seed: int) -> list[Invocation]:
    cfg_seed = _rng("sweep-rimless", seed, "warmup").getrandbits(63)
    cfg = _sweep_config(cfg_seed, {"u_amps": [0.0], "v_amps": [0.0]}, 1, 4.0)
    return [Invocation("iss-sweep", cfg, 1, lambda rc, out: Gate(0 if rc == 0 else 1),
                       ("--threads", "2"))]


# ---------------------------------------------------------------------------
# certify-rimless: certify-prop1 with the default far-field radii


def _check_certify(samples: int) -> Callable[[int, Path], Gate]:
    def check(rc: int, out: Path) -> Gate:
        if rc != 0:
            return Gate(samples, (f"certify-prop1 exit code {rc}",))
        rep = _read_json(out / "prop1_report.json")
        problems = []
        if rep["violations"] != 0:
            problems.append(f"{rep['violations']} upper-bound violations")
        if not (0.0 < rep["ratio_min"] <= 1.0):
            problems.append(f"ratio_min {rep['ratio_min']} outside (0, 1]")
        if rep["n_samples"] != samples:
            problems.append(f"{rep['n_samples']} of {samples} samples evaluated")
        return Gate(min(samples, rep["violations"] + samples - rep["n_samples"]), tuple(problems))
    return check


def _certify_config(seed: int, samples: int) -> dict:
    return {
        "model": _rimless_model(README_GAMMA),
        "seed": seed,
        "integrator": dict(README_INTEGRATOR),
        "certify_prop1": {"guess": list(README_GUESS), "samples": samples, "far_field": True},
    }


def certify_round(seed: int, r: int) -> list[Invocation]:
    cfg_seed = _rng("certify-rimless", seed, r).getrandbits(63)
    return [Invocation("certify-prop1", _certify_config(cfg_seed, CERTIFY_SAMPLES),
                       CERTIFY_SAMPLES, _check_certify(CERTIFY_SAMPLES))]


def certify_warmup(seed: int) -> list[Invocation]:
    cfg_seed = _rng("certify-rimless", seed, "warmup").getrandbits(63)
    return [Invocation("certify-prop1", _certify_config(cfg_seed, 7), 7, _check_certify(7))]


# ---------------------------------------------------------------------------
# stability-catalog: one orbit solve per catalog model per round


def _check_orbit(expect: Callable[[dict], list[str]]) -> Callable[[int, Path], Gate]:
    def check(rc: int, out: Path) -> Gate:
        if rc != 0:
            return Gate(1, (f"orbit exit code {rc}",))
        rep = _read_json(out / "orbit_report.json")
        problems = expect(rep)
        if rep["verdict"] != "LES":
            problems.append(f"verdict {rep['verdict']}")
        return Gate(1 if problems else 0, tuple(problems))
    return check


def _linear_reset(a: float, x2_guess: float) -> Invocation:
    def expect(rep: dict) -> list[str]:
        rho = rep["spectral_radius"]
        return [] if abs(rho - math.exp(-a)) <= SPECTRAL_TOL else [
            f"linear-reset a={a}: spectral radius {rho} vs e^-a {math.exp(-a)}"]
    cfg = {"model": {"name": "linear-reset", "params": {"a": a}},
           "orbit": {"guess": [1.0, x2_guess], "t_cap": 10.0}}
    return Invocation("orbit", cfg, 1, _check_orbit(expect))


def _rimless(gamma: float, omega_guess: float) -> Invocation:
    oracle = math.cos(2.0 * ALPHA) ** 2

    def expect(rep: dict) -> list[str]:
        rho = rep["spectral_radius"]
        return [] if abs(rho - oracle) <= SPECTRAL_TOL else [
            f"rimless gamma={gamma}: spectral radius {rho} vs cos^2(2 alpha) {oracle}"]
    cfg = {"model": _rimless_model(gamma),
           "integrator": dict(README_INTEGRATOR),
           "orbit": {"guess": [gamma + ALPHA, omega_guess], "t_cap": 10.0}}
    return Invocation("orbit", cfg, 1, _check_orbit(expect))


def _vdp(mu: float, x1_guess: float) -> Invocation:
    period = 2.0 * math.pi * (1.0 + mu * mu / 16.0)
    band = (0.995 * period, 1.005 * period)

    def expect(rep: dict) -> list[str]:
        t = rep["t_star"]
        return [] if band[0] <= t <= band[1] else [f"vdp mu={mu}: period {t} outside {band}"]
    cfg = {"model": {"name": "vdp-adapter", "params": {"mu": mu}},
           "orbit": {"guess": [x1_guess, 0.0], "t_cap": 20.0}}
    return Invocation("orbit", cfg, 1, _check_orbit(expect))


def _rimless_guess(gamma: float, jitter: float) -> float:
    omega = rimless_omega_star(gamma) * jitter
    # the guess's reset speed must clear the apex, or the first map
    # evaluation never returns to the surface (InfiniteTimeToImpact); on
    # gamma in [0.08, 0.12] with 3% jitter it clears by more than 5%
    if math.cos(2.0 * ALPHA) * omega <= 1.05 * rimless_capture_speed(gamma):
        raise ValueError(f"rimless guess {omega} at gamma={gamma} does not clear the apex")
    return omega


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _grid(offset: float, r: int, lo: float, hi: float) -> float:
    """Round r's point of a seeded rank-1 lattice on [lo, hi]: any run of
    consecutive rounds covers the range evenly, so the per-round cost mix
    hardly depends on the seed."""
    return lo + (hi - lo) * ((offset + r * _GOLDEN) % 1.0)


def stability_round(seed: int, r: int) -> list[Invocation]:
    grid = _rng("stability-catalog", seed, "grid")
    off_a, off_gamma, off_mu = grid.random(), grid.random(), grid.random()
    rng = _rng("stability-catalog", seed, r)
    a = _grid(off_a, r, 0.4, 1.6)
    gamma = _grid(off_gamma, r, 0.08, 0.12)
    mu = _grid(off_mu, r, 0.1, 0.3)
    return [_linear_reset(a, rng.uniform(-0.5, 0.5)),
            _rimless(gamma, _rimless_guess(gamma, rng.uniform(0.97, 1.03))),
            _vdp(mu, rng.uniform(1.9, 2.1))]


def stability_warmup(seed: int) -> list[Invocation]:
    rng = _rng("stability-catalog", seed, "warmup")
    return [_linear_reset(rng.uniform(0.4, 1.6), rng.uniform(-0.5, 0.5))]


@dataclass(frozen=True)
class Workload:
    name: str
    round: Callable[[int, int], list[Invocation]]
    warmup: Callable[[int], list[Invocation]]
    trace_rounds: int   # fixed number of rounds replayed under tracing


WORKLOADS = {
    "sweep-rimless": Workload("sweep-rimless", sweep_round, sweep_warmup, 2),
    "certify-rimless": Workload("certify-rimless", certify_round, certify_warmup, 3),
    "stability-catalog": Workload("stability-catalog", stability_round, stability_warmup, 3),
}
