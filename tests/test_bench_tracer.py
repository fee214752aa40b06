"""The benchmark's tracer wraps `sie` bindings by name and raises when one is
missing, so a deletion that breaks the benchmark fails here in seconds."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import sie.poincare
from sie import cli

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's string annotations through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_install_and_restore_bindings(tracer_module):
    original = sie.poincare.poincare_map
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        assert sie.poincare.poincare_map is not original
    finally:
        tracer.restore()
    assert sie.poincare.poincare_map is original


def test_traced_orbit_run_counts_map_evaluations(tracer_module, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "model": {"name": "linear-reset", "params": {}},
        "orbit": {"guess": [1.0, 0.6], "t_cap": 10.0},
    }))
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        rc = cli.main(["orbit", "--config", str(config), "--out", str(tmp_path / "out")])
    finally:
        tracer.restore()
    assert rc == 0
    assert tracer.counts()["poincare.map_evals"] > 0
    assert tracer.mismatches == []


def test_traced_certify_calls_dist_to_orbit_once_per_sample(tracer_module, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "model": {"name": "linear-reset", "params": {}},
        "certify_prop1": {"guess": [1.0, 0.6], "t_cap": 10.0, "samples": 30},
    }))
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        rc = cli.main(["certify-prop1", "--config", str(config), "--out", str(tmp_path / "out")])
    finally:
        tracer.restore()
    assert rc == 0
    assert tracer.spans["orbit.dist_to_orbit"].calls == 30
    assert tracer.counts()["orbit.queries"] == 30
    assert tracer.mismatches == []
