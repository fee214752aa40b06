"""The CLI's failure contract: every malformed config ends in one of the
documented exit codes with a one-line message, never in a traceback.

The property test takes a small valid config per subcommand and mutates it
once: one key's value replaced by a JSON value of the wrong kind or a
degenerate number, one required key dropped, or one unknown key added.  The
values hold no large magnitudes, so no example asks for unbounded work.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sie import cli
from sie.cli import main

NAN = float("nan")
VALUES = [None, True, "x", [], {}, [[]], -1, 0, NAN, [NAN]]
LINEAR = {"name": "linear-reset", "params": {"a": 0.7}}
INTEGRATOR = {"rtol": 1e-8, "atol": 1e-10, "max_step": 0.5, "max_steps": 20000, "blowup": 1e6}
SINUSOID = {"kind": "sinusoid", "amplitude": [1.0], "omega": 4.0, "phase": 0.1, "scale": 0.5}

BASES = {
    "simulate": {
        "model": LINEAR, "seed": 3, "integrator": INTEGRATOR,
        "guards": {"k_max": 50, "min_dwell": 1e-6},
        "simulate": {
            "x0": [0.0, 0.3], "t_final": 2.5, "sample_dt": 0.25,
            "input": {"kind": "composite", "parts": [
                {"kind": "constant", "value": [0.01]},
                {"kind": "tabulated", "times": [0.0, 1.0], "values": [[0.0], [0.02]], "scale": 2.0}]},
            "impulses": {"kind": "iid-uniform", "bound": [0.01], "seed": 5, "scale": 1.0},
        },
    },
    "orbit": {"model": LINEAR, "integrator": INTEGRATOR,
              "orbit": {"guess": [1.0, 0.6], "t_cap": 5.0}},
    "certify-prop1": {
        "model": LINEAR, "seed": 2, "integrator": INTEGRATOR,
        "certify_prop1": {"guess": [1.0, 0.6], "t_cap": 5.0, "samples": 6,
                          "radii": [0.01, 0.1], "far_field": False},
    },
    "iss-sweep": {
        "model": LINEAR, "seed": 4, "integrator": INTEGRATOR,
        "iss_sweep": {"guess": [1.0, 0.6], "t_cap": 5.0, "offsets": [0.05],
                      "u_amps": [0.0, 0.05], "v_amps": [0.0, 0.01], "trials": 1,
                      "horizon_periods": 3.0, "transient_cutoff": 0.5, "samples_per_step": 4,
                      "pair_uv": True, "u_template": SINUSOID},
    },
    "validate": {"model": LINEAR, "seed": 1, "validate": {"probes": [[0.0, 0.0], [1.0, 0.0]]}},
}
REQUIRED = {"model", "name", "simulate", "x0", "t_final", "orbit", "certify_prop1", "samples",
            "iss_sweep", "guess", "offsets", "u_amps", "v_amps", "kind", "value", "amplitude",
            "omega", "times", "values", "parts", "bound", "entries"}


def _key_paths(node, prefix=()):
    """The path of every dict key, in dicts nested in dicts and lists."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        if isinstance(node, dict):
            yield prefix + (key,)
        yield from _key_paths(child, prefix + (key,))


def _get(node, path):
    for key in path:
        node = node[key]
    return node


def mutations(base):
    keys = list(_key_paths(base))
    return ([("set", path, value) for path in keys for value in VALUES]
            + [("drop", path) for path in keys if path[-1] in REQUIRED]
            + [("add", path) for path in [(), *keys] if isinstance(_get(base, path), dict)])


def apply(base, mutation):
    cfg = copy.deepcopy(base)
    kind, path = mutation[:2]
    if kind == "add":
        _get(cfg, path)["no_such_key"] = 1
    elif kind == "drop":
        del _get(cfg, path[:-1])[path[-1]]
    else:
        _get(cfg, path[:-1])[path[-1]] = mutation[2]
    return cfg


def run(command, cfg, *argv):
    """main's exit code and stderr; any exception propagates."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(path), "--out", str(Path(tmp) / "out"), *argv])
    return code, err.getvalue()


CASES = [(command, mutation) for command, base in BASES.items() for mutation in mutations(base)]


@pytest.mark.parametrize("command", sorted(BASES))
def test_base_configs_run(command):
    assert run(command, BASES[command]) == (0, "")


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from(CASES))
def test_one_mutation_exits_with_a_documented_code(case):
    command, mutation = case
    code, err = run(command, apply(BASES[command], mutation))
    assert type(code) is int and code in (0, 1, 2, 3, 4)
    if code == 1:
        assert len(err.strip().splitlines()) == 1


def _set(command, path, value):
    return apply(BASES[command], ("set", path, value))


# configs that each ended in a raw traceback before the config table
PROBES = {
    "max_steps-infinity": ("simulate", _set("simulate", ("integrator", "max_steps"), float("inf"))),
    "max_steps-string": ("simulate", _set("simulate", ("integrator", "max_steps"), "x")),
    "max_steps-zero": ("simulate", _set("simulate", ("integrator", "max_steps"), 0)),
    "blowup-negative": ("simulate", _set("simulate", ("integrator", "blowup"), -1)),
    "rtol-string": ("simulate", _set("simulate", ("integrator", "rtol"), "x")),
    "integrator-list": ("simulate", _set("simulate", ("integrator",), [])),
    "k_max-list": ("simulate", _set("simulate", ("guards", "k_max"), [])),
    "min_dwell-string": ("simulate", _set("simulate", ("guards", "min_dwell"), "x")),
    "k_max-negative": ("simulate", _set("simulate", ("guards", "k_max"), -1)),
    "min_dwell-negative": ("simulate", _set("simulate", ("guards", "min_dwell"), -1e-6)),
    "sweep-guards-unknown-key": ("iss-sweep", BASES["iss-sweep"]
                                 | {"guards": {"k_max": 0, "bogus": 1}}),
    "t_final-string": ("simulate", _set("simulate", ("simulate", "t_final"), "x")),
    "sample_dt-zero": ("simulate", _set("simulate", ("simulate", "sample_dt"), 0)),
    "orbit_samples-missing": ("simulate", _set("simulate", ("simulate", "orbit_samples"),
                                               "no-such-orbit-samples.csv")),
    "constant-scalar-value": ("simulate", _set("simulate", ("simulate", "input"),
                                               {"kind": "constant", "value": 1.0})),
    "composite-parts-int": ("simulate", _set("simulate", ("simulate", "input", "parts"), 3)),
    "impulse-seed-string": ("simulate", _set("simulate", ("simulate", "impulses", "seed"), "x")),
    "simulate-int": ("simulate", _set("simulate", ("simulate",), 5)),
    "seed-fraction": ("simulate", _set("simulate", ("simulate", "impulses"),
                                       {"kind": "iid-uniform", "bound": 0.01}) | {"seed": 1.5}),
    "param-string": ("simulate", _set("simulate", ("model", "params", "a"), "x")),
    "model-name-list": ("simulate", _set("simulate", ("model", "name"), [])),
    "radii-empty": ("certify-prop1", _set("certify-prop1", ("certify_prop1", "radii"), [])),
    "validate-list": ("validate", _set("validate", ("validate",), [])),
    "validate-probes-empty": ("validate", _set("validate", ("validate", "probes"), [])),
    "validate-probe-dimension": ("validate", _set("validate", ("validate", "probes"),
                                                  [[1.0, 2.0, 3.0]])),
}


@pytest.mark.parametrize("name", sorted(PROBES))
def test_probe_config_exits_one_with_a_message(name):
    command, cfg = PROBES[name]
    code, err = run(command, cfg)
    assert code == 1
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(("config error: ", "error: "))


@pytest.mark.parametrize("name,message", [
    ("max_steps-zero", "error: max_steps must be at least 1"),
    ("blowup-negative", "error: max_step and blowup must be positive"),
    ("validate-probes-empty", "error: validate_system needs at least one probe state"),
])
def test_config_mistake_is_named_not_run(name, message):
    assert run(*PROBES[name]) == (1, message + "\n")


@pytest.mark.parametrize("command", ["simulate", "certify-prop1"])
def test_negative_seed_flag_is_a_config_error(command):
    code, err = run(command, BASES[command], "--seed", "-1")
    assert code == 1 and err.startswith("config error: config.seed")


@pytest.mark.parametrize("command,path", [
    ("orbit", ("integrator", "max_step")),
    ("orbit", ("orbit", "t_cap")),
    ("simulate", ("simulate", "t_final")),
    ("simulate", ("guards", "min_dwell")),
    ("certify-prop1", ("certify_prop1", "radii")),
])
def test_nan_is_a_config_error(command, path):
    value = [NAN] if path[-1] == "radii" else NAN
    code, err = run(command, _set(command, path, value))
    assert code == 1 and err.startswith(f"config error: {'.'.join(path)}")


@pytest.mark.parametrize("sample_dt", [0, -1])
def test_nonpositive_sample_dt_is_a_config_error(sample_dt):
    code, err = run("simulate", _set("simulate", ("simulate", "sample_dt"), sample_dt))
    assert code == 1 and err.startswith("config error: simulate.sample_dt")


def test_string_seed_is_a_config_error_for_orbit():
    code, err = run("orbit", BASES["orbit"] | {"seed": "x"})
    assert code == 1 and err.startswith("config error: config.seed")


def _raise_on_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_reports_are_strict_json_with_null_for_non_finite(tmp_path):
    # every sample lies within 1e-12 of x*, so no ratio is finite
    cfg = _set("certify-prop1", ("certify_prop1", "radii"), [1e-14])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["certify-prop1", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "prop1_report.json").read_text(), parse_constant=_raise_on_constant)
    assert report["excluded"] == report["n_samples"] == 6
    assert report["ratio_min"] is None
    assert report["per_radius_ratio_min"] == [None]


def test_sweep_reads_the_guards_block(tmp_path):
    # k_max 0 ends every trial at its first impact
    cfg = BASES["iss-sweep"] | {"guards": {"k_max": 0}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["iss-sweep", "--config", str(path), "--out", str(out)]) == 0
    header, *rows = (out / "cells.csv").read_text().splitlines()
    columns = header.split(",")
    cells = [dict(zip(columns, row.split(","))) for row in rows]
    assert len(cells) == 2
    assert all(c["zeno_guard"] == "1" and c["trials"] == "0" for c in cells)


@pytest.mark.parametrize("name,cfg", [
    ("descending-offsets", _set("iss-sweep", ("iss_sweep", "offsets"), [0.1, 0.05])),
    ("template-dimension", _set("iss-sweep", ("iss_sweep", "u_template"),
                                {"kind": "constant", "value": [1.0, 2.0]})),
    ("negative-k_max", BASES["iss-sweep"] | {"guards": {"k_max": -1}}),
])
def test_malformed_sweep_exits_before_the_fixed_point_solve(name, cfg, monkeypatch):
    def solve(*args, **kwargs):
        raise AssertionError("find_fixed_point ran on a malformed config")
    monkeypatch.setattr(cli, "find_fixed_point", solve)
    code, err = run("iss-sweep", cfg)
    assert code == 1 and len(err.strip().splitlines()) == 1
