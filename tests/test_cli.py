"""Unit and end-to-end tests for the scenario runner."""

import ast
import errno
import importlib.util
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from xbstab import (analysis, cli, csvwriter, emission, engine, fastpath,
                    lanes, model)
from xbstab.cli import (CHECK_NAMES, CSV_COLUMNS, HSchedule, _parse_sweep,
                        _resolve_checks, _sanitize, build_scenario,
                        emit_plot_data, g_converges_to_zero, load_config,
                        main, parse_h_schedule, run_scenario)
from xbstab.lyapunov import decay_certificate, dwell_certificate
from xbstab.model import HybridTrajectory, PlantParams

from arcs import arc
from conftest import SCENARIO_PATH
from test_analysis import make_traj


class TestParseHSchedule:
    def test_named_and_parametrized_forms(self):
        assert parse_h_schedule("paper_v") == HSchedule.paper_v()
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

    def test_list_close_to_one_converges(self):
        """g(i) = 0.999999**i tends to zero, past any finite probe."""
        assert g_converges_to_zero(parse_h_schedule([0.999999]))

    def test_slow_power_law_flagged(self):
        """For base 1.01, g(i) falls below 1e-12 within 400 cycles, but
        sum 1.01**-i is finite, so g(i) tends to a positive limit."""
        assert not g_converges_to_zero(parse_h_schedule("power:1.01"))

    @pytest.mark.parametrize("spec", ["power:4", "power:1e16", "power:1e300"])
    def test_power_schedule_below_one_still_flagged(self, spec):
        """Where 1/(1 + b^-i) rounds to 1 (base 4 from cycle 27 on, base
        1e16 and above from cycle 1), h(i) is the largest double below 1,
        and g(i) still does not tend to 0."""
        sched = parse_h_schedule(spec)
        assert max(sched.h(i) for i in range(1, 400)) < 1.0
        assert not g_converges_to_zero(sched)


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
    z1, z2, z_star = (np.asarray(c) for c in (traj.z1, traj.z2, traj.z_star))
    z1_hat = z1 + np.asarray(traj.z_tilde1)
    z2_hat = z2 + np.asarray(traj.z_tilde2)
    u = scn.params.a * z1 * z2_hat - scn.k * (z1 - z_star)
    cols = np.column_stack([
        traj.t, np.asarray(traj.j).astype(float),
        np.asarray(traj.cycle).astype(float), traj.tau,
        z1, z2, z1_hat, z2_hat, traj.z_tilde1, traj.z_tilde2, z_star, u,
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
               np.column_stack([traj.t, z1, z2, z1_hat, z2_hat, z_star]),
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
    return arc(
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
        n = 1 if offset is None else model._BLOCK_ROWS + offset
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
        traj = _edge_trajectory(model._BLOCK_ROWS + 1)
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
        assert len(runs) == 1 and len(runs[0]) > model._BLOCK_ROWS
        _assert_csvs_match_reference(scn, runs[0], out)



@pytest.fixture()
def three_shares(monkeypatch, tmp_path):
    """The split writer with three usable CPUs, 300-row shares and
    256-row blocks. The returned function lists the pid of every share
    child forked so far, by this process or by a forked sweep lane: each
    appends its children's pids to one file."""
    monkeypatch.setattr(csvwriter, "_MIN_SHARE_ROWS", 300)
    monkeypatch.setattr(model, "_BLOCK_ROWS", 256)
    monkeypatch.setattr(csvwriter, "_usable_cpus", lambda: 3)
    fork_share, log = csvwriter._fork_share, tmp_path / "share_pids"
    log.touch()

    def logging_fork_share(*args):
        pid = fork_share(*args)
        with open(log, "a", encoding="ascii") as fh:
            fh.write(f"{pid}\n")
        return pid

    monkeypatch.setattr(csvwriter, "_fork_share", logging_fork_share)
    return lambda: log.read_text(encoding="ascii").split()


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSplitWriter:
    """Rows formatted in forked shares give the bytes of np.savetxt."""

    @pytest.mark.parametrize("n, splits", [(599, 0), (600, 1), (601, 1),
                                           (902, 2)])
    def test_shares_match_reference(self, tmp_path, three_shares, n,
                                    splits):
        # 599 rows make one share, 600 two equal ones, 601 and 902 uneven
        # ones (300 + 301 and 300 + 301 + 301 rows), split at `splits`
        # rows; every share is a child, and shares straddle the 256-row
        # blocks
        traj = _edge_trajectory(n)
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            cli.write_trajectory_csv(_EDGE_SCENARIO, traj, out)
            _assert_csvs_match_reference(_EDGE_SCENARIO, traj, out)
        assert len(three_shares()) == splits + 1
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
        assert len(three_shares()) == 2
        _assert_no_child_left()

    def test_one_cpu_forks_one_child(self, tmp_path, three_shares,
                                     monkeypatch):
        monkeypatch.setattr(csvwriter, "_usable_cpus", lambda: 1)
        traj = _edge_trajectory(902)
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            cli.write_trajectory_csv(_EDGE_SCENARIO, traj, out)
            _assert_csvs_match_reference(_EDGE_SCENARIO, traj, out)
        assert len(three_shares()) == 1
        _assert_no_child_left()

    def test_no_fork_writes_in_process(self, tmp_path, monkeypatch):
        monkeypatch.setattr(csvwriter, "_MIN_SHARE_ROWS", 300)
        monkeypatch.setattr(csvwriter, "_usable_cpus", lambda: 3)
        monkeypatch.delattr(os, "fork")
        traj = _edge_trajectory(902)
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            cli.write_trajectory_csv(_EDGE_SCENARIO, traj, out)
            _assert_csvs_match_reference(_EDGE_SCENARIO, traj, out)

    @pytest.mark.parametrize("copy", ["kernel", "failing", "absent"])
    def test_shares_appended_with_same_bytes(self, tmp_path, three_shares,
                                             monkeypatch, copy):
        """The parent appends each share with os.copy_file_range where os
        has it; where it fails or is missing, shutil.copyfileobj appends
        the same bytes."""
        calls = []
        copy_file_range = getattr(os, "copy_file_range", None)
        if copy == "kernel":
            if copy_file_range is None:
                pytest.skip("os.copy_file_range is not available")

            def counting(*args):
                calls.append(args)
                return copy_file_range(*args)

            monkeypatch.setattr(os, "copy_file_range", counting)
        elif copy == "failing":
            def failing(*args):
                calls.append(args)
                raise OSError(errno.EXDEV, "cross-device copy")

            monkeypatch.setattr(os, "copy_file_range", failing,
                                raising=False)
        else:
            monkeypatch.delattr(os, "copy_file_range", raising=False)
        traj = _edge_trajectory(902)
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            cli.write_trajectory_csv(_EDGE_SCENARIO, traj, out)
            _assert_csvs_match_reference(_EDGE_SCENARIO, traj, out)
        # three files of three shares: each share tried at least once
        assert len(calls) >= (0 if copy == "absent" else 9)
        _assert_no_child_left()

    def test_run_leaves_no_child_and_four_artifacts(
            self, short_scenario, tmp_path, three_shares):
        out = tmp_path / "out"
        assert main(["run", str(short_scenario), "--out", str(out)]) == 0
        assert len(three_shares()) == 3
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
        # three shares per variant, whichever lane ran it
        assert len(three_shares()) == 6
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


@pytest.fixture(scope="module")
def bundled_run():
    """The bundled scenario as shipped and its simulated arc: 51,072 rows,
    23 jumps, cycles 0-2."""
    scn = build_scenario(load_config(SCENARIO_PATH))
    traj = engine.simulate(scn.params, scn.gains, scn.cert, scn.cfg,
                           scn.solver, scn.z0, scn.z_hat0, k=scn.k)
    return scn, traj


def _artifacts(out: Path) -> dict:
    return {name: (out / name).read_bytes() for name in (
        "report.json", "trajectory.csv", "phase.csv", "timeseries.csv")}


class TestBlockedPasses:
    """The passes after simulate read the arc in blocks of
    model._BLOCK_ROWS rows."""

    def test_artifacts_do_not_depend_on_the_block(self, bundled_run,
                                                  tmp_path, monkeypatch):
        """report.json and the CSV files are the same bytes with the
        default block, with 997 rows (block edges inside excitation
        intervals), with edges at the post-jump row of a within-cycle
        jump and at the first row of cycle 1 (both split a jump's
        duplicated rows), and with one block for the whole arc."""
        scn, traj = bundled_run
        monkeypatch.setattr(cli, "simulate", lambda *a, **kw: traj)
        n, t = len(traj), traj.t
        jump_rows = (np.flatnonzero(t[1:] == t[:-1]) + 1).tolist()
        cycle_1 = analysis.cycle_slice(traj, 1).start
        within = next(r for r in jump_rows if 1 < r < cycle_1)
        assert cycle_1 in jump_rows
        sizes = [model._BLOCK_ROWS, 997, within, cycle_1, n]
        runs = []
        for rows in sizes:
            monkeypatch.setattr(model, "_BLOCK_ROWS", rows)
            cli.execute(scn, tmp_path / str(rows))
            runs.append(_artifacts(tmp_path / str(rows)))
        assert all(run == runs[0] for run in runs[1:])
        dwell = json.loads(runs[0]["report.json"])["dwell_report"]
        assert any(a < t[k] < b for a, b in dwell["intervals"]
                   for k in range(997, n, 997))

    def test_scratch_after_simulate_is_bounded(self, bundled_run, tmp_path,
                                               monkeypatch):
        """From the return of simulate to the end of execute, the traced
        peak stays within 16 blocks of floats, however long the arc: no
        pass holds a full-length column (10.7 blocks measured, 11.5 on a
        run four times as long); the CSV writer's children are other
        processes. Before the passes were blocked, extract_dwell alone
        took 7.7 columns, and before its sliding windows read the integral
        of |z1| through cursors, execute held that one column."""
        scn, traj = bundled_run
        rows = 4096
        monkeypatch.setattr(model, "_BLOCK_ROWS", rows)
        assert len(traj) >= 8 * rows

        def simulated(*a, **kw):
            tracemalloc.start()
            return traj

        monkeypatch.setattr(cli, "simulate", simulated)
        try:
            cli.execute(scn, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 8 * rows, peak

    def test_closed_columns_are_evaluated_once(self, bundled_run, tmp_path,
                                               monkeypatch):
        """With a counter on the evaluator of z2, z_tilde and phi
        (emission.ClosedForm), extract_dwell and the per-cycle dwell
        reports evaluate no row, and execute evaluates each row once in
        this process in blocks, verify_bounds reading them all in one
        pass, and besides at most 4 single rows (the envelope's first row
        and the final state); the CSV writer's children evaluate their own
        shares."""
        scn, traj = bundled_run
        ranges = []
        call = emission.ClosedForm.__call__

        def counted(self, lo, hi):
            ranges.append((lo, hi))
            return call(self, lo, hi)

        monkeypatch.setattr(emission.ClosedForm, "__call__", counted)
        analysis.extract_dwell(traj)
        cli._dwell_reports_per_cycle(traj, analysis.cycle_slices(traj))
        assert ranges == []
        monkeypatch.setattr(cli, "simulate", lambda *a, **kw: traj)
        cli.execute(scn, tmp_path)
        edges = np.zeros(len(traj) + 1, np.int64)
        lo, hi = np.array(ranges).T
        blocks = hi - lo > 1
        np.add.at(edges, lo[blocks], 1)
        np.add.at(edges, hi[blocks], -1)
        assert np.all(np.cumsum(edges[:-1]) == 1)
        assert np.count_nonzero(~blocks) <= 4


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

    @pytest.mark.parametrize("section, values", [
        ("initial", {"z_hat0": [0.0, 0.3]}),        # z_hat0 = z0
        ("observer", {"k1_plus": 100.0, "k2_plus": -8.0})])
    def test_run_stalled_at_domain_floor_fails(self, tmp_path, scenario_dict,
                                               section, values):
        """Two runs that stall in cycle 0 with z2 one ulp above -d/c: an
        exact initial estimate, and observer gains with real eigenvalues.
        Each takes one jump in 2 s, and progress fails it. That one
        interval covers a tau-length of 74.9, where the decay factor rho
        underflows to 0: its log keeps kappa2 finite."""
        cfg = json.loads(json.dumps(scenario_dict))
        cfg[section].update(values)
        cfg["solver"].update(t_end=2.0, record_interval=0.01)
        path = tmp_path / "stall.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        assert report["checks"]["results"]["progress"] is False
        assert not report["all_checks_passed"]
        assert len(report["jumps"]) == 1 and report["cycles_reached"] == [0]
        decay = report["certificates"]["decay"]
        assert decay["rho"] == 0.0
        assert 0.0 < decay["kappa2"] < math.inf

    def test_failed_report_write_leaves_error_json_only(
            self, short_scenario, tmp_path, monkeypatch):
        """An OSError part-way through writing report.json ends the run in
        error.json and leaves no report.json, whole or partial, and no
        temporary file."""
        dump = json.dump

        def failing_report(obj, fh, **kwargs):
            if "error" in obj:
                return dump(obj, fh, **kwargs)
            fh.write(json.dumps(obj, **kwargs)[:100])
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(json, "dump", failing_report)
        out = tmp_path / "out"
        assert run_scenario(short_scenario, out_dir=out) == 1
        err = json.loads((out / "error.json").read_text())
        assert err["error"]["type"] == "OSError"
        assert sorted(f.name for f in out.iterdir()) == [
            "error.json", "phase.csv", "timeseries.csv", "trajectory.csv"]

    @pytest.mark.parametrize("max_step", [0.1, 0.5, 1.0])
    def test_oversized_first_trial_is_rejected(self, tmp_path, scenario_dict,
                                               max_step):
        """From z1 = 0, where dz1/dt = -37,500, the first trial step
        (max_step/10) drives the closed form's exponential out of range:
        math.exp overflows at tau - tau_a of about -115 for max_step 0.1.
        The kernel rejects that trial and shrinks the step, so the run
        completes."""
        cfg = json.loads(json.dumps(scenario_dict))
        cfg["solver"].update(max_step=max_step, t_end=0.05)
        p = tmp_path / "big_step.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        run_scenario(p, out_dir=out, checks="none")
        assert (out / "report.json").is_file()
        assert not (out / "error.json").exists()

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

    def test_missing_epsilon_writes_error_json(self, tmp_path,
                                               scenario_dict):
        """controller.epsilon has no default: a config without it is
        refused by name, before anything is integrated."""
        cfg = json.loads(json.dumps(scenario_dict))
        del cfg["controller"]["epsilon"]
        p = tmp_path / "no_eps.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["run", str(p), "--out", str(out)]) == 1
        err = json.loads((out / "error.json").read_text())
        assert err["error"]["type"] == "ValueError"
        assert err["error"]["message"] == \
            "missing required field 'epsilon' in 'controller'"
        assert sorted(f.name for f in out.iterdir()) == ["error.json"]

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

    @pytest.mark.parametrize("section, key", [
        ("plant", "b"), ("observer", "k1_minus"), ("controller", "kp"),
        ("initial", "z1"), (None, "solvr")])
    def test_unknown_key_writes_error_json(self, tmp_path, monkeypatch,
                                           scenario_dict, section, key):
        """An unknown key of a section or of the top level is refused by
        name, before anything is integrated: a section misspelt "solvr"
        used to run at the solver defaults."""
        cfg = json.loads(json.dumps(scenario_dict))
        (cfg if section is None else cfg[section])[key] = {"t_end": 0.01}

        def never(*args, **kwargs):
            raise AssertionError("simulate called")

        monkeypatch.setattr(cli, "simulate", never)
        p = tmp_path / "typo.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["run", str(p), "--out", str(out)]) == 1
        err = json.loads((out / "error.json").read_text())
        assert err["error"]["type"] == "ValueError"
        assert f"'{key}'" in err["error"]["message"]
        assert sorted(f.name for f in out.iterdir()) == ["error.json"]

    def test_misspelt_sweep_section_fails_every_variant(self, tmp_path):
        """--sweep controler.k=400,500 adds an unknown top-level section to
        each variant; each ends in an error.json naming it, where both used
        to run the shipped k = 500."""
        out = tmp_path / "out"
        assert main(["run", str(SCENARIO_PATH), "--out", str(out),
                     "--sweep", "controler.k=400,500"]) == 1
        for k in (400, 500):
            dest = out / f"sweep_controler_k={k}"
            err = json.loads((dest / "error.json").read_text())
            assert "'controler'" in err["error"]["message"]
            assert sorted(f.name for f in dest.iterdir()) == ["error.json"]

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
        # strings and booleans are not numbers, the two integer fields take
        # no fraction, and an integer too large for a float is not finite
        ("plant", "a", "375", "plant.a"),
        ("controller", "k", True, "controller.k"),
        ("controller", "max_cycles", True, "controller.max_cycles"),
        ("controller", "max_cycles", 3.7, "controller.max_cycles"),
        ("solver", "zeno_max_jumps", 4000.9, "solver.zeno_max_jumps"),
        ("solver", "t_end", "0.02", "solver.t_end"),
        ("initial", "z0", ["0", 0.3], "initial.z0"),
        ("initial", "z_hat0", [False, 0.7], "initial.z_hat0"),
        ("controller", "h_schedule", [0.5, "0.5"], "controller.h_schedule"),
        ("initial", "z0", [10 ** 400, 0.3], "initial.z0"),
        ("controller", "h_schedule", [10 ** 400], "controller.h_schedule"),
        # nor is a spec's value: power:inf would make every h(i) 1.0
        ("controller", "h_schedule", "power:inf", "controller.h_schedule"),
        ("controller", "h_schedule", "power:Infinity",
         "controller.h_schedule"),
        ("controller", "h_schedule", "constant:inf", "controller.h_schedule"),
        # a passing run must not leave its report where a failure goes
        ("outputs", "report_json", "error.json", "outputs.report_json"),
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

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("section, field", [
        ("plant", "a"), ("plant", "c"), ("plant", "d"),
        ("observer", "k1_plus"), ("observer", "k2_plus"),
        ("controller", "k"), ("controller", "z_star_init"),
        ("controller", "k_prime"), ("controller", "epsilon"),
        ("controller", "R"), ("controller", "R_tilde"),
        ("controller", "max_cycles"),
        ("solver", "rel_tol"), ("solver", "abs_tol"), ("solver", "event_tol"),
        ("solver", "max_step"), ("solver", "t_end"), ("solver", "zeno_window"),
        ("solver", "zeno_max_jumps"), ("solver", "record_interval"),
        ("solver", "tau_budget_rel"),
        ("initial", "z0"), ("initial", "z_hat0"),
    ])
    def test_non_finite_value_writes_error_json(self, tmp_path, monkeypatch,
                                                scenario_dict, section,
                                                field, value):
        """json.load takes NaN and Infinity; each numeric field refuses
        them by name before anything is integrated (a NaN t_end or
        max_step never finished, a NaN tau_budget_rel wrote gigabytes)."""
        cfg = json.loads(json.dumps(scenario_dict))
        cfg[section][field] = [0.0, value] if section == "initial" else value

        def never(*args, **kwargs):
            raise AssertionError("simulate called")

        monkeypatch.setattr(cli, "simulate", never)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["run", str(p), "--out", str(out)]) == 1
        err = json.loads((out / "error.json").read_text())
        assert err["error"]["type"] == "ValueError"
        assert f"{section}.{field}=" in err["error"]["message"]
        assert sorted(f.name for f in out.iterdir()) == ["error.json"]

    def test_integral_float_is_an_integer(self, scenario_dict):
        """An integer field takes an integral float as that integer."""
        cfg = json.loads(json.dumps(scenario_dict))
        cfg["controller"]["max_cycles"] = 4.0
        assert build_scenario(cfg).cfg.max_cycles == 4

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

    def test_sweep_variant_overflow_writes_its_error_json(
            self, short_scenario, tmp_path, monkeypatch):
        """An OverflowError, as math.exp raises it while the samples of
        one variant are filled, ends that variant in its own error.json
        instead of a traceback; the other variant still runs."""
        simulate = cli.simulate
        fill_spans = emission.fill_spans
        running = []

        def tracking(*args, k=None, **kw):
            running[:] = [k]
            return simulate(*args, k=k, **kw)

        def overflowing_for_k400(buf, spans, count):
            if running == [400] and count:
                raise OverflowError("math range error")
            return fill_spans(buf, spans, count)

        monkeypatch.setattr(cli, "simulate", tracking)
        monkeypatch.setattr(emission, "fill_spans", overflowing_for_k400)
        out = tmp_path / "out"
        rc = run_scenario(short_scenario, out_dir=out, checks="vobs",
                          sweep="controller.k=400,500")
        assert rc == 1
        bad = out / "sweep_controller_k=400"
        err = json.loads((bad / "error.json").read_text())
        assert err["error"] == {"type": "OverflowError",
                                "message": "math range error"}
        assert not list(bad.glob("*.csv"))
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

    def test_sweep_values_sharing_a_directory_rejected(
            self, short_scenario, tmp_path, monkeypatch):
        """Two values that name one variant directory are refused before
        anything runs, so no two runs write the same files."""
        def never(*args, **kwargs):
            raise AssertionError("simulate called")

        monkeypatch.setattr(cli, "simulate", never)
        out = tmp_path / "out"
        assert run_scenario(short_scenario, out_dir=out,
                            sweep="controller.k=400,500,500") == 1
        err = json.loads((out / "error.json").read_text())
        assert err["error"]["type"] == "ValueError"
        assert "sweep_controller_k=500" in err["error"]["message"]
        assert sorted(f.name for f in out.iterdir()) == ["error.json"]

    def _run_solver(self, tmp_path, scenario_dict, **solver):
        """main's exit code and output directory for the shipped scenario
        with the given solver fields."""
        cfg = json.loads(json.dumps(scenario_dict))
        cfg["solver"].update(solver)
        path = tmp_path / "solver.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / "out"
        return main(["run", str(path), "--out", str(out)]), out

    def test_no_excitation_falls_back_to_the_analytic_dwell(
            self, tmp_path, scenario_dict):
        """A 0.1 ms run has no interval with |z1| >= |z*|/2: excitation
        fails, both dwell reports carry the error, and the decay
        certificate takes the dwell data of dwell_certificate at cycle
        max(2, i0)."""
        rc, out = self._run_solver(tmp_path, scenario_dict, t_end=1e-4)
        assert rc == 1
        report = json.loads((out / "report.json").read_text())
        results = report["checks"]["results"]
        assert results.pop("excitation") is False
        assert all(results.values())
        error = {"error": "no interval with |z1| >= 0.5 |z*|"}
        assert report["dwell_report"] == error
        assert report["dwell_report_per_cycle"] == {"0": error}
        scn = build_scenario(scenario_dict)
        dc = dwell_certificate(scn.params, scn.cfg,
                               max(2, report["initial_cycle"]))
        decay = decay_certificate(scn.gains, scn.cert,
                                  (dc.tau_di, dc.tau_si, dc.z_underbar_i))
        assert report["certificates"]["decay"]["mu"] == decay.mu

    def test_step_size_underflow_writes_error_json(self, tmp_path,
                                                   scenario_dict):
        """Tolerances of 1e-30 shrink the first step below the smallest
        one the kernel takes: StepFailure, in error.json alone."""
        rc, out = self._run_solver(tmp_path, scenario_dict, rel_tol=1e-30,
                                   abs_tol=1e-30)
        assert rc == 1
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == {"type": "StepFailure",
                                "message": "step size underflow at t=0.0"}
        assert sorted(f.name for f in out.iterdir()) == ["error.json"]

    def test_converged_run_stops_before_t_end(self, tmp_path, scenario_dict,
                                              monkeypatch):
        """With abs_tol 10, |z| + |z_tilde| < abs_tol soon holds: the
        kernel returns CODE_CONVERGED, and the run ends there with a
        report."""
        codes = []
        flow = fastpath.flow_segment

        def recording_flow(y, t_start, sc, buf, n0, ret, spans, anchors):
            flow(y, t_start, sc, buf, n0, ret, spans, anchors)
            codes.append(int(ret[0]))

        monkeypatch.setattr(fastpath, "flow_segment", recording_flow)
        _, out = self._run_solver(tmp_path, scenario_dict, abs_tol=10.0)
        assert codes[-1] == fastpath.CODE_CONVERGED
        report = json.loads((out / "report.json").read_text())
        assert 0.0 < report["t_final"] < scenario_dict["solver"]["t_end"]

    def test_negative_zero_error_is_written_as_stored(self, tmp_path,
                                                      scenario_dict):
        """z_hat0 = (-0.0, 0.3001) against z0 = (0, 0.3) starts with
        z_tilde1 = -0.0, and R_tilde = 1e-4 skips to cycle 9 with z* < 0,
        so the start row's anchor is in the mode of z1 < 0, in which the
        closed form at dt = 0, X + 0 (N X), gives +0.0. The row the
        engine wrote keeps its -0 in trajectory.csv."""
        cfg = json.loads(json.dumps(scenario_dict))
        cfg["initial"]["z_hat0"] = [-0.0, 0.3001]
        cfg["controller"]["R_tilde"] = 1e-4
        cfg["solver"]["t_end"] = 0.002
        path = tmp_path / "negzero.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        with open(out / "trajectory.csv", encoding="ascii") as fh:
            head, row = fh.readline(), fh.readline()
        row = dict(zip(head.strip().split(","), row.strip().split(",")))
        assert row["z1"] == "0" and float(row["z_star"]) < 0.0
        assert row["z_tilde1"] == "-0"

    def test_checks_none_always_passes(self, short_scenario, tmp_path):
        out = tmp_path / "out"
        assert run_scenario(short_scenario, out_dir=out, checks="none") == 0
        report = json.loads((out / "report.json").read_text())
        assert report["checks"]["enabled"] == []


# a sweep forks lanes only where os.sched_setaffinity exists and with two
# usable CPUs
_LANES = (hasattr(os, "sched_setaffinity")
          and len(os.sched_getaffinity(0)) >= 2)
_TWO_CPUS = pytest.mark.skipif(not _LANES, reason="no sweep lanes here")


class _Stop(BaseException):
    """Raised from cli.simulate as benchmark/child.py raises its
    BaseException in setup mode."""


def _proc_ended(pid: int, timeout: float = 20.0) -> bool:
    """Whether process `pid` is gone or a zombie within `timeout` s: a
    grandchild whose parent was killed is reaped by another process, if
    at all."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            stat = Path(f"/proc/{pid}/stat").read_text(encoding="ascii")
        except FileNotFoundError:
            return True
        if stat.rsplit(")", 1)[1].split()[0] in "ZX":
            return True
        time.sleep(0.01)
    return False


class TestSweepLanes:
    """Sweep variants run in forked lanes, one per share of the usable
    CPUs, with the calling process as lane 0."""

    def test_lanes_write_the_bytes_of_variants_run_alone(
            self, short_scenario, tmp_path, monkeypatch):
        """Variant i runs in lane i % P, P = min(3, usable CPUs): on two
        CPUs, this process runs variants 0 and 2 and a forked lane variant
        1. Every artifact equals that of the variant run on its own."""
        caller, log = os.getpid(), tmp_path / "pids"
        execute = cli.execute

        def logging_execute(scn, out_dir, checks="all"):
            with open(log, "a", encoding="ascii") as fh:
                fh.write(f"{scn.k:g} {os.getpid()}\n")
            return execute(scn, out_dir, checks=checks)

        monkeypatch.setattr(cli, "execute", logging_execute)
        swept = tmp_path / "swept"
        assert run_scenario(short_scenario, out_dir=swept,
                            sweep="controller.k=400,450,500") == 0
        _assert_no_child_left()
        ran_in = dict(line.split() for line in log.read_text().splitlines())
        pids = [ran_in[k] for k in ("400", "450", "500")]
        lanes = min(3, len(os.sched_getaffinity(0))) if _LANES else 1
        assert len(set(pids)) == lanes
        assert [pid == str(caller) for pid in pids] == [
            i % lanes == 0 for i in range(3)]
        alone = tmp_path / "alone"
        for k in (400, 450, 500):
            assert run_scenario(short_scenario, out_dir=alone,
                                sweep=f"controller.k={k}") == 0
        files = sorted(f.relative_to(swept) for f in swept.rglob("*")
                       if f.is_file())
        assert len(files) == 12
        assert files == sorted(f.relative_to(alone) for f in alone.rglob("*")
                               if f.is_file())
        for rel in files:
            assert (swept / rel).read_bytes() == (alone / rel).read_bytes(), \
                rel

    def test_forked_sweep_with_warnings_as_errors(self, short_scenario,
                                                  tmp_path):
        """One forked sweep with every warning an error, as
        test_forked_write_with_warnings_as_errors for the CSV writer:
        Python 3.12 and later warn from os.fork in a threaded process."""
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run_scenario(short_scenario, out_dir=out, checks="vobs",
                              sweep="controller.k=400,500")
        assert rc == 0
        assert len(list(out.glob("*/report.json"))) == 2
        _assert_no_child_left()

    @_TWO_CPUS
    def test_crashed_lane_ends_its_variant_in_error_json(
            self, short_scenario, tmp_path, monkeypatch):
        """An exception no variant handles ends a forked lane; its variant
        gets an error.json naming LaneCrashed, the other one its report."""
        caller = os.getpid()
        execute = cli.execute

        def failing_in_lane(*args, **kwargs):
            if os.getpid() != caller:
                raise RuntimeError("lane failure")
            return execute(*args, **kwargs)

        monkeypatch.setattr(cli, "execute", failing_in_lane)
        out = tmp_path / "out"
        rc = run_scenario(short_scenario, out_dir=out, checks="vobs",
                          sweep="controller.k=400,500")
        assert rc == 1
        _assert_no_child_left()
        bad = out / "sweep_controller_k=500"
        err = json.loads((bad / "error.json").read_text())
        assert err["error"]["type"] == "LaneCrashed"
        assert "exit code 2" in err["error"]["message"]
        assert sorted(f.name for f in bad.iterdir()) == ["error.json"]
        good = out / "sweep_controller_k=400"
        assert json.loads((good / "report.json").read_text())[
            "all_checks_passed"]

    @_TWO_CPUS
    def test_lane_killed_mid_report_ends_its_variant_in_error_json(
            self, short_scenario, tmp_path, monkeypatch):
        """A forked lane SIGKILLed inside json.dump, after it wrote part of
        its report, leaves no report.json that would mark its variant
        finished: the variant gets an error.json naming LaneCrashed, and
        its partial temporary report is removed."""
        caller, dump = os.getpid(), json.dump

        def killed_in_lane(obj, fh, **kwargs):
            if os.getpid() == caller:
                return dump(obj, fh, **kwargs)
            fh.write(json.dumps(obj, **kwargs)[:100])
            fh.flush()
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(json, "dump", killed_in_lane)
        out = tmp_path / "out"
        rc = run_scenario(short_scenario, out_dir=out, checks="vobs",
                          sweep="controller.k=400,500")
        assert rc == 1
        _assert_no_child_left()
        bad = out / "sweep_controller_k=500"
        assert not (bad / "report.json").exists()
        assert sorted(f.name for f in bad.iterdir()) == [
            "error.json", "phase.csv", "timeseries.csv", "trajectory.csv"]
        err = json.loads((bad / "error.json").read_text())
        assert err["error"]["type"] == "LaneCrashed"
        good = out / "sweep_controller_k=400"
        assert json.loads((good / "report.json").read_text())[
            "all_checks_passed"]

    @_TWO_CPUS
    def test_failed_fork_ends_unfinished_variants_in_error_json(
            self, short_scenario, tmp_path, monkeypatch):
        """Three lanes, the second fork refused with the OSError a process
        limit raises (stood in for, so that no limit is approached): the
        lane already forked is killed and reaped, the caller's affinity
        is restored, the run returns 1 and every variant without a report
        gets an error.json naming the error."""
        usable = sorted(os.sched_getaffinity(0))
        monkeypatch.setattr(lanes, "lane_cpus", lambda variants: [usable] * 3)
        fork, forked = lanes._fork_lane, []

        def refusing_fork(cpus, run):
            if forked:
                raise BlockingIOError(errno.EAGAIN, "fork refused")
            forked.append(fork(cpus, run))
            return forked[-1]

        monkeypatch.setattr(lanes, "_fork_lane", refusing_fork)
        affinity = os.sched_getaffinity(0)
        out = tmp_path / "out"
        rc = run_scenario(short_scenario, out_dir=out, checks="vobs",
                          sweep="controller.k=400,450,500")
        assert rc == 1
        assert os.sched_getaffinity(0) == affinity
        _assert_no_child_left()
        assert len(forked) == 1
        # lane 0's variants never ran; the forked lane's may have finished
        for k in (400, 450, 500):
            dest = out / f"sweep_controller_k={k}"
            if k == 450 and (dest / "report.json").exists():
                continue
            err = json.loads((dest / "error.json").read_text())
            assert err["error"]["type"] == "BlockingIOError"
            assert "fork refused" in err["error"]["message"]

    @_TWO_CPUS
    def test_base_exception_in_lane_zero_ends_every_lane(
            self, short_scenario, tmp_path, monkeypatch):
        """A BaseException from cli.simulate in the calling process leaves
        run_scenario once the forked lane and the CSV writer's child it
        forked are killed, with the caller's affinity restored."""
        caller, started = os.getpid(), tmp_path / "share_started"
        simulate = cli.simulate

        def stalled_share(*args):      # only lane 1 gets to write
            (tmp_path / "pid").write_text(str(os.getpid()))
            os.replace(tmp_path / "pid", started)
            time.sleep(60)

        def stopping(*args, **kwargs):
            if os.getpid() != caller:
                return simulate(*args, **kwargs)
            deadline = time.monotonic() + 30
            while not started.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            raise _Stop

        monkeypatch.setattr(cli, "simulate", stopping)
        monkeypatch.setattr(csvwriter, "_format_rows", stalled_share)
        affinity = os.sched_getaffinity(0)
        t0 = time.monotonic()
        with pytest.raises(_Stop):
            run_scenario(short_scenario, out_dir=tmp_path / "out",
                         checks="vobs", sweep="controller.k=400,500")
        assert time.monotonic() - t0 < 40
        assert os.sched_getaffinity(0) == affinity
        _assert_no_child_left()
        assert started.exists()
        assert _proc_ended(int(started.read_text()))


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
    """scipy is a test-only dependency, and importing it would add about
    0.6 s to every CLI start: importing the CLI must not load it."""
    assert _modules_loaded_by_cli_import(["scipy"]) == []


def test_no_package_module_imports_scipy():
    """scipy is in the ``test`` extra only, so no module of the package may
    import it, lazily or at module level."""
    found = []
    for path in sorted(Path(cli.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == []


def test_readme_python_example_runs():
    """The README's Python example runs as written, so it cannot drift
    from the names the package exports."""
    readme = Path(cli.__file__).resolve().parents[2] / "README.md"
    blocks = re.findall(r"```python\n(.*?)```",
                        readme.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(readme), "exec"), namespace)
    assert namespace["traj"].jumps


def test_run_does_not_load_numpy_ma(short_scenario, tmp_path):
    """A plain np.unique calls np.ma.is_masked, which imports numpy.ma
    (15-17 ms and 1.3 MB of resident memory on a 2-CPU x86 host): a whole
    `xbstab run` must never load it. Nor may a run of one variant load
    xbstab.lanes: compiling it raised the peak RSS of a run by 0.3-0.5 MB
    where no bytecode cache is written."""
    code = ("import sys; from xbstab import cli; "
            f"rc = cli.main(['run', {str(short_scenario)!r}, "
            f"'--out', {str(tmp_path / 'out')!r}]); "
            "print(rc, 'numpy.ma' in sys.modules, "
            "'xbstab.lanes' in sys.modules)")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "report.json").exists()
    assert proc.stdout.split() == ["0", "False", "False"]


class _LapackCalled(Exception):
    """Raised by the stand-ins for numpy.linalg's LAPACK routines."""


def test_run_calls_no_lapack(monkeypatch, short_scenario, tmp_path):
    """Certifying takes closed forms, so a run loads no LAPACK (whose
    first calls keep about 1.4 MB of OpenBLAS resident): with solve,
    eigvalsh, eigvals, eig, svd and inv raising, where both numpy.linalg
    and the norm inside it (norm(., 2) calls svd) find them, the 20 ms
    run still passes every check."""
    try:
        from numpy.linalg import _linalg as impl
    except ImportError:         # numpy < 2
        from numpy.linalg import linalg as impl
    calls = []

    def refuse(name):
        def lapack(*args, **kwargs):
            calls.append(name)
            raise _LapackCalled(name)
        return lapack

    for name in ("solve", "eigvalsh", "eigvals", "eig", "svd", "inv"):
        monkeypatch.setattr(impl, name, refuse(name))
        monkeypatch.setattr(np.linalg, name, refuse(name))
    assert run_scenario(short_scenario, out_dir=tmp_path / "out") == 0
    assert calls == []
    report = json.loads((tmp_path / "out" / "report.json").read_text(
        encoding="utf-8"))
    assert report["all_checks_passed"]


def test_cli_import_does_not_load_multiprocessing():
    """The split CSV writer forks with os.fork, and its formatter builds
    exact powers of ten from ints; importing the CLI must not pay for
    multiprocessing, concurrent.futures, fractions or decimal."""
    assert _modules_loaded_by_cli_import(
        ["multiprocessing", "concurrent.futures", "fractions",
         "decimal"]) == []


def test_benchmark_tracer_installs_and_restores(short_scenario, tmp_path):
    """benchmark/spans.py's Tracer replaces functions of cli, engine and
    fastpath by name, so a rename there breaks every traced benchmark run:
    it installs on this package, times a run through each layer and, once
    restored, leaves every function of the three modules as it was."""
    path = Path(cli.__file__).resolve().parents[2] / "benchmark" / "spans.py"
    spec = importlib.util.spec_from_file_location("benchmark_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    modules = (cli, engine, fastpath)

    def functions():
        return {(m.__name__, name): value for m in modules
                for name, value in vars(m).items() if callable(value)}

    before = functions()
    tracer = spans.Tracer()
    saved = tracer.install(*modules)
    try:
        assert run_scenario(short_scenario, out_dir=tmp_path / "out") == 0
    finally:
        spans.Tracer.restore(saved)
    after = functions()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
    called = set(tracer.summary()["spans"])
    assert {"cli.execute", "engine.simulate", "fastpath.flow_segment",
            "dynamics.jump_map", "cli._write_json"} <= called


def test_benchmark_timed_child_runs_a_scenario(short_scenario, tmp_path):
    """benchmark/child.py --mode timed reads fastpath.HAVE_NUMBA, replaces
    cli.simulate and calls cli.run_scenario with checks= and sweep=, so a
    rename of any of them breaks every timed benchmark run: on the 20 ms
    scenario it writes the report and its result with the timed keys."""
    root = Path(cli.__file__).resolve().parents[2]
    out, result = tmp_path / "out", tmp_path / "result.json"
    subprocess.run([sys.executable, str(root / "benchmark" / "child.py"),
                    "--root", str(root), "--config", str(short_scenario),
                    "--out", str(out), "--mode", "timed", "--result",
                    str(result), "--spawned",
                    repr(time.clock_gettime(time.CLOCK_MONOTONIC))],
                   check=True, timeout=120)
    got = json.loads(result.read_text())
    assert sorted(got) == ["backend", "cpu_s", "peak_rss_kb", "setup_s",
                           "wall_s"]
    assert got["backend"] == ("numba" if fastpath.HAVE_NUMBA else "python")
    assert got["wall_s"] > 0.0 and got["peak_rss_kb"] > 0
    assert json.loads((out / "report.json").read_text())["all_checks_passed"]
