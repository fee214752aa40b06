import json
import math

import numpy as np
import pytest

from sie.cli import _sample_times, main
from tests.conftest import RIMLESS_THETA_IMPACT


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def linear_simulate_config(**sim):
    block = {"x0": [0.0, 0.3], "t_final": 5.0}
    block.update(sim)
    return {
        "model": {"name": "linear-reset", "params": {"a": math.log(2.0)}},
        "seed": 7,
        "simulate": block,
    }


class TestSimulateCommand:
    def test_five_periods_five_rows(self, tmp_path):
        cfg = write_config(tmp_path, linear_simulate_config())
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "impacts.csv").read_text().strip().splitlines()
        assert len(lines) == 6  # header + 5 impacts
        header = lines[0].split(",")
        assert header[:2] == ["k", "t_k"]
        assert header[-1] == "T_I_k"
        for row in lines[1:]:
            assert float(row.split(",")[-1]) == pytest.approx(1.0, abs=1e-9)
        traj_header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert traj_header == "t,x_1,x_2,segment_index"
        meta = json.loads((out / "meta.json").read_text())
        assert meta["termination"] == "horizon-reached"

    @pytest.mark.parametrize("t0", [2.0, np.nextafter(2.0, 0.0)])
    def test_sample_grid_ignores_the_last_bit_of_a_segment_start(self, t0):
        # np.arange(nextafter(2, 0), 3, 0.05) keeps a sample 4e-16 before 3;
        # the grid leaves it out, so both starts give 20 samples and the end
        ts = _sample_times(t0, 3.0, 0.05)
        assert len(ts) == 21 and ts[0] == t0 and ts[-1] == 3.0
        assert np.all(np.diff(ts) > 0.04)

    def test_unknown_model_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "model": {"name": "no-such"},
            "simulate": {"x0": [0.0, 0.0], "t_final": 1.0},
        })
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "unknown model" in capsys.readouterr().err

    def test_bouncing_ball_guard_exit(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": {"name": "bouncing-ball", "params": {}},
            "seed": 1,
            "simulate": {"x0": [1.0, 0.0], "t_final": 10.0},
        })
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        meta = json.loads((out / "meta.json").read_text())
        assert meta["termination"] == "zeno-guard"

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        payload = linear_simulate_config()
        payload["simulate"]["typo_key"] = 1
        cfg = write_config(tmp_path, payload)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "typo_key" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        payload = linear_simulate_config(
            input={"kind": "sinusoid", "amplitude": [0.05], "omega": 4.0},
            impulses={"kind": "iid-uniform", "bound": 0.01},
        )
        cfg = write_config(tmp_path, payload)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out_b)]) == 0
        assert (out_a / "trajectory.csv").read_bytes() == (out_b / "trajectory.csv").read_bytes()
        assert (out_a / "impacts.csv").read_bytes() == (out_b / "impacts.csv").read_bytes()

    def test_seed_override_changes_impulses(self, tmp_path):
        payload = linear_simulate_config(impulses={"kind": "iid-uniform", "bound": 0.05})
        cfg = write_config(tmp_path, payload)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(out_a), "--seed", "1"]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out_b), "--seed", "2"]) == 0
        assert (out_a / "impacts.csv").read_bytes() != (out_b / "impacts.csv").read_bytes()


class TestUsageErrors:
    """Usage errors exit 1, the config-error code, never argparse's 2, which
    is the guard-termination code here."""

    def test_missing_config_exits_one(self, capsys):
        assert main(["orbit"]) == 1
        assert "--config" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["abc", "0"])
    def test_bad_threads_exit_one(self, tmp_path, threads):
        cfg = write_config(tmp_path, linear_simulate_config())
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--threads", threads]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "--threads" in capsys.readouterr().out

    def test_sie_threads_environment_is_ignored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SIE_THREADS", "abc")
        cfg = write_config(tmp_path, linear_simulate_config())
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


class TestOrbitCommand:
    def test_rimless_verdict_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "model": {"name": "rimless-wheel", "params": {}},
            "orbit": {"guess": [RIMLESS_THETA_IMPACT, 1.45], "t_cap": 10.0},
        })
        out = tmp_path / "out"
        assert main(["orbit", "--config", cfg, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert printed.startswith("LES: spectral_radius=0.5")
        report = json.loads((out / "orbit_report.json").read_text())
        assert report["verdict"] == "LES"
        assert report["spectral_radius"] == pytest.approx(0.5, abs=1e-4)
        samples = (out / "orbit_samples.csv").read_text().splitlines()
        assert samples[0] == "tau,x_1,x_2"
        assert len(samples) > 100

    def test_linear_radius_exact(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": {"name": "linear-reset", "params": {}},
            "orbit": {"guess": [1.0, 0.6], "t_cap": 10.0},
        })
        out = tmp_path / "out"
        assert main(["orbit", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "orbit_report.json").read_text())
        assert report["spectral_radius"] == pytest.approx(0.5, abs=1e-8)

    def test_vdp_marginal(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "model": {"name": "vdp-adapter", "params": {"mu": 0.0}},
            "orbit": {"guess": [1.5, 0.0], "t_cap": 10.0},
        })
        assert main(["orbit", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().out.startswith("LAS-marginal")

    def test_below_capture_guess_exits_three(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": {"name": "rimless-wheel", "params": {}},
            "orbit": {"guess": [RIMLESS_THETA_IMPACT, 1.2], "t_cap": 6.0},
        })
        out = tmp_path / "out"
        assert main(["orbit", "--config", cfg, "--out", str(out)]) == 3

    def test_newton_divergence_writes_trace(self, tmp_path, monkeypatch):
        from sie import cli as cli_mod
        from sie.errors import NewtonDiverged

        def diverge(*args, **kwargs):
            raise NewtonDiverged("no convergence", [np.array([0.5])], [0.3])

        monkeypatch.setattr(cli_mod, "find_fixed_point", diverge)
        cfg = write_config(tmp_path, {
            "model": {"name": "linear-reset", "params": {}},
            "orbit": {"guess": [1.0, 0.5]},
        })
        out = tmp_path / "out"
        assert main(["orbit", "--config", cfg, "--out", str(out)]) == 3
        trace = json.loads((out / "newton_trace.json").read_text())
        assert trace["residuals"] == [0.3]


class TestCertifyCommand:
    def test_certify_linear(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "model": {"name": "linear-reset", "params": {}},
            "seed": 5,
            "certify_prop1": {"guess": [1.0, 0.5], "samples": 400},
        })
        out = tmp_path / "out"
        assert main(["certify-prop1", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "prop1_report.json").read_text())
        assert report["violations"] == 0
        assert report["ratio_min"] == pytest.approx(1.0, abs=1e-6)
        assert report["excluded"] == 0


class TestSweepCommand:
    def test_small_sweep(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": {"name": "linear-reset", "params": {}},
            "seed": 9,
            "integrator": {"rtol": 1e-8, "atol": 1e-10},
            "iss_sweep": {
                "guess": [1.0, 0.5],
                "offsets": [0.05],
                "u_amps": [0.0, 0.01, 0.1],
                "v_amps": [0.0],
                "trials": 3,
                "horizon_periods": 44.0,
                "u_template": {"kind": "constant", "value": [1.0]},
            },
        })
        out = tmp_path / "out"
        assert main(["iss-sweep", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "cells.csv").read_text().strip().splitlines()
        assert len(lines) == 4
        cols = {name: i for i, name in enumerate(lines[0].split(","))}
        rows = [line.split(",") for line in lines[1:]]
        # forced discrete ultimate bound tracks u / ln 2
        by_amp = {float(r[cols["u_amp"]]): float(r[cols["ultimate_discrete"]]) for r in rows}
        assert by_amp[0.01] == pytest.approx(0.01 / math.log(2.0), rel=0.02)
        assert by_amp[0.1] == pytest.approx(0.1 / math.log(2.0), rel=0.02)
        assert by_amp[0.0] <= 1e-6
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert summary["equivalence"]["monotone_ok"]
        assert summary["equivalence"]["zero_floor_ok"]

    def test_sweep_byte_identical(self, tmp_path):
        payload = {
            "model": {"name": "linear-reset", "params": {}},
            "seed": 4,
            "integrator": {"rtol": 1e-8, "atol": 1e-10},
            "iss_sweep": {
                "guess": [1.0, 0.5],
                "offsets": [0.05],
                "u_amps": [0.0, 0.05],
                "v_amps": [0.0],
                "trials": 2,
                "horizon_periods": 24.0,
            },
        }
        cfg = write_config(tmp_path, payload)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["iss-sweep", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["iss-sweep", "--config", cfg, "--out", str(out_b)]) == 0
        assert (out_a / "cells.csv").read_bytes() == (out_b / "cells.csv").read_bytes()

    def test_threads_value_does_not_change_cells(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": {"name": "linear-reset", "params": {}},
            "seed": 5,
            "integrator": {"rtol": 1e-8, "atol": 1e-10},
            "iss_sweep": {
                "guess": [1.0, 0.5],
                "offsets": [0.05],
                "u_amps": [0.0, 0.05],
                "v_amps": [0.0, 0.01],
                "trials": 2,
                "horizon_periods": 12.0,
            },
        })
        outs = [tmp_path / "t1", tmp_path / "t2"]
        for threads, out in zip(("1", "2"), outs):
            assert main(["iss-sweep", "--config", cfg, "--out", str(out),
                         "--threads", threads]) == 0
        assert outs[0].joinpath("cells.csv").read_bytes() == outs[1].joinpath("cells.csv").read_bytes()


    def test_trials_plus_tallies_equal_configured_trials(self, tmp_path):
        # a horizon just past the transient cutoff leaves most trials with
        # no crossing after it; each such trial is tallied, not dropped
        cfg = write_config(tmp_path, {
            "model": {"name": "linear-reset", "params": {}},
            "seed": 2,
            "integrator": {"rtol": 1e-8, "atol": 1e-10},
            "iss_sweep": {
                "guess": [1.0, 0.5],
                "offsets": [0.05],
                "u_amps": [0.0, 0.05],
                "v_amps": [0.0],
                "trials": 6,
                "horizon_periods": 1.5,
                "transient_cutoff": 0.9,
            },
        })
        out = tmp_path / "out"
        assert main(["iss-sweep", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "cells.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        tallies = ["zeno_guard", "beating_guard", "escape", "error", "no_post_transient"]
        assert header[-5:] == tallies
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert len(rows) == 2
        for row in rows:
            assert int(row["trials"]) + sum(int(row[k]) for k in tallies) == 6
        assert sum(int(row["no_post_transient"]) for row in rows) > 0


class TestValidateCommand:
    def test_validate_linear(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "model": {"name": "linear-reset", "params": {}},
            "validate": {"probes": [[0.0, 0.0], [1.0, 0.0], [0.5, 2.0]]},
        })
        out = tmp_path / "out"
        assert main(["validate", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "validation.json").read_text())
        assert not report["degenerate_gradient_flagged"]

    def test_validate_prints_probe_count_and_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "model": {"name": "linear-reset", "params": {}},
            "validate": {"probes": [[0.0, 0.0], [1.0, 0.0]]},
        })
        assert main(["validate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out.strip() == "probes=2 degenerate=False"


def test_formatting_is_17_significant_digits(tmp_path):
    cfg = write_config(tmp_path, linear_simulate_config())
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    row = (out / "impacts.csv").read_text().splitlines()[2]
    x2 = row.split(",")[3]
    # 0.075 region value printed with full precision
    assert len(x2.replace("-", "").replace(".", "").lstrip("0")) >= 15
