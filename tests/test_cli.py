"""Unit and end-to-end tests for the scenario runner."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from xbstab import cli, csvwriter
from xbstab.cli import (CHECK_NAMES, CSV_COLUMNS, HSchedule, _parse_sweep,
                        _resolve_checks, _sanitize, build_scenario,
                        emit_plot_data, g_converges_to_zero, load_config,
                        main, parse_h_schedule, run_scenario)
from xbstab.model import HScheduleKind, HybridTrajectory, PlantParams

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


def _savetxt_reference(scn, traj, out):
    """The CSV files as np.savetxt wrote them, one file at a time: the
    byte-for-byte reference for the one-pass writer."""
    out.mkdir(parents=True, exist_ok=True)
    cols = np.column_stack([
        traj.t, traj.j.astype(float), traj.cycle.astype(float), traj.tau,
        traj.z1, traj.z2, traj.z1_hat, traj.z2_hat,
        traj.z_tilde1, traj.z_tilde2, traj.z_star,
        traj.control(scn.params, scn.k),
    ])
    fmt = ["%.17g"] * len(CSV_COLUMNS)
    fmt[1] = fmt[2] = "%d"
    np.savetxt(out / scn.outputs["trajectory_csv"], cols, fmt=fmt,
               delimiter=",", header=",".join(CSV_COLUMNS), comments="",
               encoding="utf-8")
    np.savetxt(out / scn.outputs["phase_csv"],
               np.column_stack([traj.z1, traj.z2]),
               fmt="%.17g", delimiter=",", header="z1,z2", comments="",
               encoding="utf-8")
    np.savetxt(out / scn.outputs["timeseries_csv"],
               np.column_stack([traj.t, traj.z1, traj.z2,
                                traj.z1_hat, traj.z2_hat, traj.z_star]),
               fmt="%.17g", delimiter=",",
               header="t,z1,z2,z1_hat,z2_hat,z_star", comments="",
               encoding="utf-8")


def _assert_csvs_match_reference(scn, traj, out):
    ref = out.parent / (out.name + "_reference")
    _savetxt_reference(scn, traj, ref)
    for key in ("trajectory_csv", "phase_csv", "timeseries_csv"):
        name = scn.outputs[key]
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name


def _edge_trajectory(n: int) -> HybridTrajectory:
    """n samples whose values exercise %.17g: signed zero, the smallest
    subnormal, huge and inexact values, negatives, and counters up to
    10**6."""
    rng = np.random.default_rng(n)
    special = np.array([-0.0, 5e-324, 1e300, 0.1, -1e300, -5e-324,
                        -0.1, 1.0, -2.5, 123456789.123456789])
    cols = rng.standard_normal((9, n)) * 10.0 ** rng.integers(-20, 20,
                                                              (9, n))
    for row, col in enumerate(cols):
        k = min(n, len(special))
        col[:k] = np.roll(special, row)[:k]
    j = np.sort(rng.integers(0, 10 ** 6, n))
    j[-1] = 10 ** 6
    cycle = np.sort(rng.integers(0, 10 ** 6, n))
    cycle[-1] = 10 ** 6
    return HybridTrajectory(
        t=cols[0], j=j, cycle=cycle, tau=cols[1], z1=cols[2],
        z2=cols[3], z_tilde1=cols[4], z_tilde2=cols[5], z_star=cols[6],
        phi=np.zeros((n, 4)))


# what write_trajectory_csv reads of a Scenario
_EDGE_SCENARIO = SimpleNamespace(params=PlantParams(a=375.0, c=24.0, d=12.5),
                                 k=500.0, outputs=dict(cli._DEFAULT_OUTPUTS))


class TestOnePassWriter:
    """The one-pass CSV writer reproduces np.savetxt's bytes. The edge
    trajectories overflow u to inf and nan, which both write alike."""

    @pytest.mark.parametrize("offset", [None, -1, 0, 1])
    def test_block_edges_and_extreme_values(self, tmp_path, offset):
        n = 1 if offset is None else csvwriter._BLOCK_ROWS + offset
        traj = _edge_trajectory(n)
        scn = _EDGE_SCENARIO
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            cli.write_trajectory_csv(scn, traj, out)
            _assert_csvs_match_reference(scn, traj, out)
        text = (out / "trajectory.csv").read_text()
        assert len(text.splitlines()) == n + 1
        if n > 1:
            assert "-0," in text and "4.9406564584124654e-324" in text
        assert ",1000000,1000000," in text.splitlines()[-1]

    def test_emit_plot_data_matches_reference(self, tmp_path):
        traj = _edge_trajectory(csvwriter._BLOCK_ROWS + 1)
        scn = _EDGE_SCENARIO
        ref = tmp_path / "ref"
        with np.errstate(over="ignore", invalid="ignore"):
            _savetxt_reference(scn, traj, ref)
        phase, ts = emit_plot_data(traj, tmp_path / "out")
        assert phase.read_bytes() == (ref / "phase.csv").read_bytes()
        assert ts.read_bytes() == (ref / "timeseries.csv").read_bytes()

    def test_short_run_matches_reference(self, short_scenario, tmp_path,
                                         monkeypatch):
        runs = []
        simulate = cli.simulate

        def recording(*args, **kwargs):
            runs.append(simulate(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(cli, "simulate", recording)
        out = tmp_path / "out"
        assert main(["run", str(short_scenario), "--out", str(out)]) == 0
        scn = build_scenario(load_config(short_scenario))
        assert len(runs) == 1 and len(runs[0]) > csvwriter._BLOCK_ROWS
        _assert_csvs_match_reference(scn, runs[0], out)



@pytest.fixture()
def three_shares(monkeypatch):
    """The split writer with three usable CPUs and 300-row shares; the
    returned list collects the pid of every child it forks."""
    monkeypatch.setattr(csvwriter, "_MIN_SHARE_ROWS", 300)
    monkeypatch.setattr(csvwriter, "_usable_cpus", lambda: 3)
    fork, children = os.fork, []

    def counting_fork():
        pid = fork()
        if pid:
            children.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return children


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSplitWriter:
    """Rows formatted in forked shares give the bytes of np.savetxt."""

    @pytest.mark.parametrize("n, forks", [(599, 0), (600, 1), (601, 1),
                                          (902, 2)])
    def test_shares_match_reference(self, tmp_path, three_shares, n,
                                    forks):
        # 599 rows make one share, 600 two equal ones, 601 and 902 uneven
        # ones (300 + 301 and 300 + 301 + 301 rows); shares straddle the
        # 256-row blocks
        traj = _edge_trajectory(n)
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            cli.write_trajectory_csv(_EDGE_SCENARIO, traj, out)
            _assert_csvs_match_reference(_EDGE_SCENARIO, traj, out)
        assert len(three_shares) == forks
        _assert_no_child_left()

    def test_forked_write_with_warnings_as_errors(self, tmp_path,
                                                  three_shares):
        """One forked write with every warning an error. Python 3.12 and
        later warn from os.fork when the process has threads, as numpy's
        BLAS pool may start; a run under -W error would then fail here."""
        traj = _edge_trajectory(600)
        out = tmp_path / "out"
        with warnings.catch_warnings(), \
                np.errstate(over="ignore", invalid="ignore"):
            warnings.simplefilter("error")
            cli.write_trajectory_csv(_EDGE_SCENARIO, traj, out)
            _assert_csvs_match_reference(_EDGE_SCENARIO, traj, out)
        assert len(three_shares) == 1
        _assert_no_child_left()

    def test_one_cpu_writes_in_process(self, tmp_path, monkeypatch):
        monkeypatch.setattr(csvwriter, "_MIN_SHARE_ROWS", 300)
        monkeypatch.setattr(csvwriter, "_usable_cpus", lambda: 1)

        def no_fork():
            raise AssertionError("forked with one usable CPU")

        monkeypatch.setattr(os, "fork", no_fork)
        traj = _edge_trajectory(902)
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            cli.write_trajectory_csv(_EDGE_SCENARIO, traj, out)
            _assert_csvs_match_reference(_EDGE_SCENARIO, traj, out)

    def test_run_leaves_no_child_and_four_artifacts(
            self, short_scenario, tmp_path, three_shares):
        out = tmp_path / "out"
        assert main(["run", str(short_scenario), "--out", str(out)]) == 0
        assert len(three_shares) == 2
        _assert_no_child_left()
        assert sorted(f.name for f in out.iterdir()) == [
            "phase.csv", "report.json", "timeseries.csv", "trajectory.csv"]

    def test_failed_share_ends_in_error_json(self, short_scenario, tmp_path,
                                             three_shares, monkeypatch):
        """A child whose share fails ends its variant in error.json with
        no CSV file, partial or temporary, left; the other variant runs."""
        parent = os.getpid()
        failing_variant = []
        write = cli.write_trajectory_csv
        format_rows = csvwriter._format_rows

        def marking(scn, traj, path):
            failing_variant[:] = [scn.k == 400]
            return write(scn, traj, path)

        def failing_in_child(*args):
            if failing_variant[0] and os.getpid() != parent:
                raise RuntimeError("share failure")
            return format_rows(*args)

        monkeypatch.setattr(cli, "write_trajectory_csv", marking)
        monkeypatch.setattr(csvwriter, "_format_rows", failing_in_child)
        out = tmp_path / "out"
        rc = run_scenario(short_scenario, out_dir=out, checks="vobs",
                          sweep="controller.k=400,500")
        assert rc == 1
        assert len(three_shares) == 4
        _assert_no_child_left()
        bad = out / "sweep_controller_k=400"
        err = json.loads((bad / "error.json").read_text())
        assert err["error"]["type"] == "OSError"
        assert "exit code 1" in err["error"]["message"]
        assert sorted(f.name for f in bad.iterdir()) == ["error.json"]
        good = out / "sweep_controller_k=500"
        assert json.loads((good / "report.json").read_text())[
            "all_checks_passed"]
        assert len(list(good.iterdir())) == 4


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

    def test_duplicate_output_names_rejected(self, tmp_path, scenario_dict,
                                             monkeypatch):
        """Two outputs naming one file are refused, naming both keys,
        before anything is integrated."""
        cfg = json.loads(json.dumps(scenario_dict))
        cfg["outputs"] = {"phase_csv": "trajectory.csv"}
        with pytest.raises(ValueError,
                           match="trajectory_csv and outputs.phase_csv"):
            build_scenario(cfg)

        def never(*args, **kwargs):
            raise AssertionError("simulate called")

        monkeypatch.setattr(cli, "simulate", never)
        p = tmp_path / "dup.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["run", str(p), "--out", str(out)]) == 1
        err = json.loads((out / "error.json").read_text())
        assert err["error"]["type"] == "ValueError"
        assert "phase_csv" in err["error"]["message"]
        assert "trajectory_csv" in err["error"]["message"]
        assert sorted(f.name for f in out.iterdir()) == ["error.json"]

    @pytest.mark.parametrize("section, field, value, named", [
        ("plant", "a", None, "plant.a"),
        ("controller", "k", None, "controller.k"),
        ("controller", "max_cycles", "many", "controller.max_cycles"),
        ("controller", "h_schedule", [0.5, None], "controller.h_schedule"),
        ("initial", "z0", None, "initial.z0"),
        (None, "solver", [1], "solver"),
        (None, "outputs", None, "outputs"),
        ("outputs", "phase_csv", 3, "outputs.phase_csv"),
    ])
    def test_malformed_value_writes_error_json(self, tmp_path,
                                               scenario_dict, section,
                                               field, value, named):
        cfg = json.loads(json.dumps(scenario_dict))
        (cfg if section is None else cfg[section])[field] = value
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["run", str(p), "--out", str(out)]) == 1
        err = json.loads((out / "error.json").read_text())
        assert err["error"]["type"] == "ValueError"
        assert named in err["error"]["message"]
        assert not (out / "trajectory.csv").exists()

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

    def test_sweep_variant_config_error_writes_its_error_json(
            self, short_scenario, tmp_path):
        """A value that fails validation in one variant ends that variant
        in its own error.json; the valid variant still runs."""
        out = tmp_path / "out"
        rc = run_scenario(short_scenario, out_dir=out, checks="vobs",
                          sweep="controller.k=500,-1")
        assert rc == 1
        assert not (out / "error.json").exists()
        good = out / "sweep_controller_k=500"
        assert json.loads((good / "report.json").read_text())[
            "all_checks_passed"]
        bad = out / "sweep_controller_k=-1"
        err = json.loads((bad / "error.json").read_text())
        assert err["error"]["type"] == "ValueError"
        assert "positive" in err["error"]["message"]
        assert sorted(f.name for f in bad.iterdir()) == ["error.json"]

    def test_checks_none_always_passes(self, short_scenario, tmp_path):
        out = tmp_path / "out"
        assert run_scenario(short_scenario, out_dir=out, checks="none") == 0
        report = json.loads((out / "report.json").read_text())
        assert report["checks"]["enabled"] == []


def _modules_loaded_by_cli_import(names) -> list:
    """Which of `names` a fresh interpreter has loaded after importing
    xbstab.cli."""
    code = ("import sys, xbstab.cli; "
            f"print(','.join(m for m in {list(names)!r} "
            "if m in sys.modules))")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    return [m for m in proc.stdout.strip().split(",") if m]


def test_cli_import_does_not_load_scipy():
    """scipy is needed only by check_overshoot_bound, which the CLI never
    runs; importing the CLI must not pay for it."""
    assert _modules_loaded_by_cli_import(["scipy"]) == []


def test_cli_import_does_not_load_multiprocessing():
    """The split CSV writer forks with os.fork; importing the CLI must not
    pay for multiprocessing or concurrent.futures."""
    assert _modules_loaded_by_cli_import(
        ["multiprocessing", "concurrent.futures"]) == []
