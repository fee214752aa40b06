"""Behaviour lock: every subcommand on the small linear-reset and
rimless-wheel configs under tests/golden/ must reproduce the committed
outputs.

Exit codes, labels and integer counts compare exactly.  Floats compare at
1e-9 relative, with an absolute floor of 1e-10 for the rounding residue
near zero (final Newton residuals, the upper margin, off-orbit components of
x*), whose low digits carry no result.  CSV cells are compared as numbers at
the float tolerance, which is exact for their integer columns (indices,
trial counts and tallies); headers compare exactly.  The `timestamp` of
`meta.json` is ignored.

The outputs are the files that
`sie <command> --config tests/golden/<model>/config.json --out <dir>` writes.
Replace them only for a change argued as a behaviour change.
"""

import json
import math
from pathlib import Path

import pytest

from sie import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
REL_TOL = 1e-9
ABS_FLOOR = 1e-10

OUTPUTS = {
    "simulate": ("trajectory.csv", "impacts.csv", "meta.json"),
    "orbit": ("orbit_report.json",),
    "certify-prop1": ("prop1_report.json",),
    "iss-sweep": ("cells.csv", "sweep_summary.json"),
    "validate": ("validation.json",),
}

CASES = [(model, command, report)
         for model in ("linear-reset", "rimless-wheel")
         for command, reports in OUTPUTS.items() for report in reports]


def _assert_same(want, got, where):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _assert_same(want[key], got[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (w, g) in enumerate(zip(want, got)):
            _assert_same(w, g, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float), where
        assert math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_FLOOR), \
            f"{where}: {got!r} != {want!r}"
    else:  # int, bool, str, None: exact, type included
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return text


def _load(path: Path):
    if path.suffix == ".csv":
        header, *rows = path.read_text().splitlines()
        return {"header": header, "rows": [[_cell(c) for c in row.split(",")] for row in rows]}
    data = json.loads(path.read_text())
    if path.name == "meta.json":
        data.pop("timestamp", None)
    return data


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Each (model, command) runs once; its exit code and output directory
    are shared by the per-file cases."""
    done = {}

    def run(model, command):
        if (model, command) not in done:
            out = tmp_path_factory.mktemp(f"{model}-{command}")
            config = GOLDEN / model / "config.json"
            done[model, command] = (cli.main([command, "--config", str(config),
                                              "--out", str(out)]), out)
        return done[model, command]
    return run


@pytest.mark.parametrize("model,command,report", CASES)
def test_report_matches_golden(model, command, report, runs):
    code, out = runs(model, command)
    assert code == 0
    _assert_same(_load(GOLDEN / model / report), _load(out / report), f"{model}/{report}")
