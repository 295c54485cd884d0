"""Unit and end-to-end tests for the scenario runner."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from xbstab import cli
from xbstab.cli import (CHECK_NAMES, CSV_COLUMNS, HSchedule, _parse_sweep,
                        _resolve_checks, _sanitize, build_scenario,
                        emit_plot_data, g_converges_to_zero, load_config,
                        main, parse_h_schedule, run_scenario)
from xbstab.model import HScheduleKind

from conftest import SCENARIO_PATH
from test_analysis import make_traj


class TestParseHSchedule:
    def test_named_and_parametrized_forms(self):
        assert parse_h_schedule("paper_v").kind is HScheduleKind.PAPER_V
        c = parse_h_schedule("constant:0.5")
        assert c.h(1) == 0.5 and c.h(9) == 0.5
        p = parse_h_schedule("power:4")
        assert p.h(2) == pytest.approx(1.0 / (1.0 + 4.0 ** -2))
        e = parse_h_schedule([0.3, 0.6])
        assert e.h(1) == 0.3 and e.h(5) == 0.6

    @pytest.mark.parametrize("bad", ["paperv", "constant", "power:",
                                     3.5, {"kind": "paper_v"}])
    def test_rejects_unknown_specs(self, bad):
        with pytest.raises(ValueError):
            parse_h_schedule(bad)


class TestGConvergence:
    def test_decaying_schedules_converge(self):
        assert g_converges_to_zero(HSchedule.paper_v())
        assert g_converges_to_zero(HSchedule.constant(0.5))

    def test_power_schedule_flagged(self):
        # g(i) for h = 1/(1+4^-i) tends to a positive limit (~0.75)
        assert not g_converges_to_zero(HSchedule.power(4.0))


class TestConfigLoading:
    def test_bundled_scenario_loads(self):
        raw = load_config(SCENARIO_PATH)
        assert raw["schema"] == 1
        scn = build_scenario(raw)
        assert scn.k == 500.0
        assert scn.cfg.z_star_init == 75.0
        assert scn.gains.k1_minus == 8.0

    def test_wrong_schema_rejected(self, tmp_path, scenario_dict):
        cfg = json.loads(json.dumps(scenario_dict))
        cfg["schema"] = 99
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cfg))
        with pytest.raises(ValueError, match="schema"):
            load_config(p)

    @pytest.mark.parametrize("section", ["plant", "observer", "controller",
                                         "initial"])
    def test_missing_section_rejected(self, tmp_path, scenario_dict,
                                      section):
        cfg = json.loads(json.dumps(scenario_dict))
        del cfg[section]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cfg))
        with pytest.raises(ValueError, match=section):
            load_config(p)

    def test_gain_derived_when_k_absent(self, scenario_dict):
        cfg = json.loads(json.dumps(scenario_dict))
        del cfg["controller"]["k"]
        scn = build_scenario(cfg)
        # the constructive gain dominates every sufficiency bound and is
        # far above the hand-tuned scenario value
        assert scn.k > 500.0

    def test_nonpositive_k_rejected(self, scenario_dict):
        cfg = json.loads(json.dumps(scenario_dict))
        cfg["controller"]["k"] = -1.0
        with pytest.raises(ValueError, match="positive"):
            build_scenario(cfg)


class TestCheckSelection:
    def test_all_none_and_lists(self):
        assert _resolve_checks("all") == CHECK_NAMES
        assert _resolve_checks("none") == ()
        assert _resolve_checks("vobs, zeno") == ("vobs", "zeno")

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown check"):
            _resolve_checks("vobs,bogus")


class TestSweepParsing:
    def test_param_and_values(self):
        param, values = _parse_sweep("controller.k=400,500.5")
        assert param == "controller.k"
        assert values == [400, 500.5]

    @pytest.mark.parametrize("bad", ["controller.k", "controller.k="])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            _parse_sweep(bad)


class TestSanitize:
    def test_numpy_and_nonfinite_values(self):
        out = _sanitize({"a": np.bool_(True), "b": np.int64(3),
                         "c": np.float64(0.5), "d": float("inf"),
                         "e": [np.float64(float("nan"))]})
        assert out == {"a": True, "b": 3, "c": 0.5, "d": "inf",
                       "e": ["nan"]}
        json.dumps(out, allow_nan=False)


class TestPlotData:
    def test_single_sample_trajectory(self, tmp_path):
        traj = make_traj([0.0], [1.5])
        phase, ts = emit_plot_data(traj, tmp_path)
        assert phase.read_text().splitlines() == ["z1,z2", "1.5,0"]
        assert len(ts.read_text().splitlines()) == 2

    def test_empty_trajectory_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_plot_data(make_traj([], np.empty(0)), tmp_path)


class TestEndToEnd:
    def test_short_run_passes_all_checks(self, short_scenario, tmp_path):
        out = tmp_path / "out"
        rc = main(["run", str(short_scenario), "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["all_checks_passed"]
        assert set(report["checks"]["results"]) == set(CHECK_NAMES)
        assert all(report["checks"]["results"].values())
        assert report["control_gain_k"] == 500.0
        assert report["initial_cycle"] == 0
        assert report["g_converges_to_zero"] and not report["warnings"]
        # CSV row count (minus header) must equal the reported samples
        csv_lines = (out / "trajectory.csv").read_text().splitlines()
        assert csv_lines[0] == ",".join(CSV_COLUMNS)
        assert len(csv_lines) - 1 == report["samples"]
        assert len(report["jumps"]) > 0
        assert (out / "phase.csv").exists()
        assert (out / "timeseries.csv").exists()

    def test_invalid_gains_produce_error_artifact(self, tmp_path,
                                                  scenario_dict, capsys):
        cfg = json.loads(json.dumps(scenario_dict))
        cfg["observer"]["k1_plus"] = 20.0      # violates k1+ > c
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        rc = run_scenario(p, out_dir=out)
        assert rc == 1
        err = json.loads((out / "error.json").read_text())
        assert err["error"]["type"] == "InvalidGains"
        assert "k1_plus" in err["error"]["message"]
        assert not err["all_checks_passed"]
        assert "InvalidGains" in capsys.readouterr().err

    def test_epsilon_at_or_above_d_over_c_rejected(self, tmp_path,
                                                   scenario_dict):
        """epsilon >= d/c leaves no dwell band; the run is refused before
        any integration, with an error artifact instead of a traceback."""
        cfg = json.loads(json.dumps(scenario_dict))
        cfg["controller"]["epsilon"] = 0.6     # d/c = 12.5/24 = 0.521
        cfg["solver"]["t_end"] = 0.05
        p = tmp_path / "eps.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["run", str(p), "--out", str(out)]) == 1
        err = json.loads((out / "error.json").read_text())
        assert err["error"]["type"] == "ValueError"
        assert "d/c" in err["error"]["message"]
        assert not err["all_checks_passed"]
        assert not (out / "trajectory.csv").exists()

    def test_unknown_solver_key_writes_error_json(self, tmp_path,
                                                  scenario_dict):
        """A misspelt solver field is refused by name, with an error
        artifact instead of a traceback."""
        cfg = json.loads(json.dumps(scenario_dict))
        cfg["solver"]["max_stpe"] = 1e-4
        p = tmp_path / "typo.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["run", str(p), "--out", str(out)]) == 1
        err = json.loads((out / "error.json").read_text())
        assert err["error"]["type"] == "ValueError"
        assert "max_stpe" in err["error"]["message"]
        assert "max_step" in err["error"]["message"]
        assert not (out / "trajectory.csv").exists()

    def test_non_numeric_solver_value_rejected(self, scenario_dict):
        cfg = json.loads(json.dumps(scenario_dict))
        cfg["solver"]["rel_tol"] = [1e-9]
        with pytest.raises(ValueError, match="rel_tol"):
            build_scenario(cfg)

    def test_nonconvergent_schedule_warned_not_failed(self, tmp_path,
                                                      scenario_dict):
        cfg = json.loads(json.dumps(scenario_dict))
        cfg["controller"]["h_schedule"] = "power:4"
        cfg["solver"]["t_end"] = 0.02
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run_scenario(p, out_dir=out) == 0
        report = json.loads((out / "report.json").read_text())
        assert not report["g_converges_to_zero"]
        assert any("does not converge" in w for w in report["warnings"])

    def test_sweep_fans_out_directories(self, short_scenario, tmp_path):
        out = tmp_path / "out"
        rc = run_scenario(short_scenario, out_dir=out,
                          checks="vobs,phi,zeno",
                          sweep="controller.k=400,500")
        assert rc == 0
        for k in (400, 500):
            rep = json.loads(
                (out / f"sweep_controller_k={k}" / "report.json")
                .read_text())
            assert rep["config"]["controller"]["k"] == k
            assert rep["checks"]["enabled"] == ["vobs", "phi", "zeno"]

    def test_sweep_variant_value_error_writes_its_error_json(
            self, short_scenario, tmp_path, monkeypatch):
        """A ValueError raised while one variant runs ends in that
        variant's error.json; the other variant still runs."""
        simulate = cli.simulate

        def failing_for_k400(scn_params, *args, k=None, **kw):
            if k == 400:
                raise ValueError("variant-specific failure")
            return simulate(scn_params, *args, k=k, **kw)

        monkeypatch.setattr(cli, "simulate", failing_for_k400)
        out = tmp_path / "out"
        rc = run_scenario(short_scenario, out_dir=out, checks="vobs",
                          sweep="controller.k=400,500")
        assert rc == 1
        err = json.loads((out / "sweep_controller_k=400" / "error.json")
                         .read_text())
        assert err["error"] == {"type": "ValueError",
                                "message": "variant-specific failure"}
        assert not (out / "sweep_controller_k=400" / "report.json").exists()
        assert (out / "sweep_controller_k=500" / "report.json").exists()

    def test_checks_none_always_passes(self, short_scenario, tmp_path):
        out = tmp_path / "out"
        assert run_scenario(short_scenario, out_dir=out, checks="none") == 0
        report = json.loads((out / "report.json").read_text())
        assert report["checks"]["enabled"] == []


def test_cli_import_does_not_load_scipy():
    """scipy is needed only by check_overshoot_bound, which the CLI never
    runs; importing the CLI must not pay for it."""
    code = ("import sys, xbstab.cli; "
            "sys.exit(1 if 'scipy' in sys.modules else 0)")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr or "scipy was imported"
