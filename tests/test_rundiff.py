"""tests/rundiff.py: the diff record of two output directories."""

import json
import subprocess
import sys
from pathlib import Path

from xbstab.cli import main

import rundiff
import workload_outputs


def _run(tmp_path, scenario_dict, name, rel_tol):
    cfg = json.loads(json.dumps(scenario_dict))
    cfg["solver"].update(t_end=0.05, rel_tol=rel_tol)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / name
    assert main(["run", str(path), "--out", str(out)]) == 0
    return out


def test_tolerance_change_moves_jumps_not_verdicts(tmp_path, scenario_dict):
    """A 50 ms run at rel_tol 1e-9 against 1e-10: the same verdicts and
    jump kinds, both within the oracle, and jump times that move."""
    parent = _run(tmp_path, scenario_dict, "parent", 1e-9)
    change = _run(tmp_path, scenario_dict, "change", 1e-10)
    record = rundiff.diff_dirs(parent, change)
    assert list(record) == ["."]
    sides, moved = record["."]["sides"], record["."]["moved"]
    assert sides["parent"]["checks"] == sides["change"]["checks"]
    assert all(sides["change"]["checks"].values())
    assert "verdicts" not in moved and "jump_kinds" not in moved
    assert moved["max_jump_shift_s"] > 0.0
    for side in sides.values():
        assert side["oracle_failures"] == []
        assert 0.0 < side["oracle_jump_err_s"] <= 1e-6
    assert "config.solver.rel_tol" in moved["report_leaves"]
    assert any(leaf.startswith("jumps[") for leaf in moved["report_leaves"])
    assert set(moved["csv"]) == {"trajectory.csv", "phase.csv",
                                 "timeseries.csv"}

    # the script prints the same record, and a run against itself moves
    # nothing
    script = Path(rundiff.__file__)
    out = subprocess.run([sys.executable, str(script), str(parent),
                          str(parent)], capture_output=True, text=True,
                         check=True).stdout
    assert json.loads(out)["."]["moved"] == {}


def test_workload_outputs_layout(tmp_path):
    """tests/workload_outputs.py runs a checkout's xbstab run on a
    benchmark workload's input, written beside the run's directory."""
    root = Path(workload_outputs.__file__).resolve().parents[1]
    out = tmp_path / "out"
    assert workload_outputs.main([str(root), str(out), "--workload",
                                  "bundled_dense", "--seed", "1"]) == 0
    config = json.loads((out / "bundled_dense-seed1.json").read_text(
        encoding="utf-8"))
    assert config == workload_outputs._workloads().scenario(
        root, "bundled_dense", 1)
    assert sorted(p.name for p in (out / "bundled_dense-seed1").iterdir()) \
        == ["phase.csv", "report.json", "timeseries.csv", "trajectory.csv"]
