"""Behaviour lock: `orbit` and `certify-prop1` on the small linear-reset and
rimless-wheel configs under tests/golden/ must reproduce the committed
reports.

Exit codes, labels and integer counts compare exactly.  Floats compare at
1e-9 relative, with an absolute floor of 1e-10 for the rounding residue
near zero (final Newton residuals, the upper margin, off-orbit components of
x*), whose low digits carry no result.

The reports are the `orbit_report.json` and `prop1_report.json` that
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

CASES = [(model, command, report)
         for model in ("linear-reset", "rimless-wheel")
         for command, report in (("orbit", "orbit_report.json"),
                                 ("certify-prop1", "prop1_report.json"))]


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


@pytest.mark.parametrize("model,command,report", CASES)
def test_report_matches_golden(model, command, report, tmp_path):
    config = GOLDEN / model / "config.json"
    assert cli.main([command, "--config", str(config), "--out", str(tmp_path)]) == 0
    want = json.loads((GOLDEN / model / report).read_text())
    got = json.loads((tmp_path / report).read_text())
    _assert_same(want, got, f"{model}/{report}")
