#!/usr/bin/env python3
"""Diff record of two xbstab output directories, a parent's and a change's,
for a change that moves numbers on purpose (README, "Accepting a change
that moves numbers").

    python3 tests/rundiff.py PARENT_DIR CHANGE_DIR

Every report.json under either directory is matched by its path relative
to it. Per match, the record holds two parts:

- "sides": for each side, its check verdicts and its largest jump-time
  error against benchmark/oracle.py's DOP853 re-integration of the
  reported config (benchmark/checks.py's jump_errors, with its failures);
- "moved": what differs, and nothing else. "verdicts" lists the checks
  whose verdict differs, "jump_kinds" the jump counts when the kind
  sequences differ, "max_jump_shift_s" the largest |t change| between
  matched jumps, "csv" per CSV file beside the report the largest change
  of each column relative to the parent column's max |value|, and
  "report_leaves" the report.json leaves that differ.

A directory diffed against itself has an empty "moved" in every record.
Per-cell relative change is not used: where a column crosses zero, as z1
does at its roots, a move of 1e-16 reads 0.5-2. The record is printed as
JSON.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

_BENCH = Path(__file__).resolve().parents[1] / "benchmark"
_MISSING = object()


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, _BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module          # checks.py imports oracle by name
    spec.loader.exec_module(module)
    return module


oracle = _load("oracle")
checks = _load("checks")


def _leaves(node, path=""):
    """(path, value) of every leaf of a JSON document."""
    if isinstance(node, dict):
        for key, val in node.items():
            yield from _leaves(val, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for m, val in enumerate(node):
            yield from _leaves(val, f"{path}[{m}]")
    else:
        yield path, node


def _oracle_side(report: dict, cache: dict) -> dict:
    """The verdicts of one report and its jump errors against the oracle;
    cache holds the oracle's jumps per config."""
    key = json.dumps(report["config"], sort_keys=True)
    if key not in cache:
        try:
            cache[key] = oracle.jump_sequence(report["config"])
        except RuntimeError as exc:     # the oracle cannot place a jump
            cache[key] = str(exc)
    side = {"checks": report["checks"]["results"],
            "all_checks_passed": report["all_checks_passed"]}
    if isinstance(cache[key], str):
        side["oracle_failures"] = [cache[key]]
        return side
    t_end = oracle.ClosedLoop(report["config"]).t_end
    fails, worst = checks.jump_errors(report, cache[key], t_end)
    side["oracle_jump_err_s"] = worst
    side["oracle_failures"] = fails
    return side


def _read_csv(path: Path) -> tuple:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, data


def _csv_moves(dir_a: Path, dir_b: Path) -> dict:
    """{file: {column: max |b - a| / max |a|}} over the CSV files beside
    both reports, for the columns that changed; a file whose shape or
    header differs maps to a description instead."""
    moved = {}
    for path_a in sorted(dir_a.glob("*.csv")):
        path_b = dir_b / path_a.name
        if not path_b.exists():
            moved[path_a.name] = "missing on the change side"
            continue
        (head_a, a), (head_b, b) = _read_csv(path_a), _read_csv(path_b)
        if head_a != head_b or a.shape != b.shape:
            moved[path_a.name] = (f"{head_a} {a.shape} against "
                                  f"{head_b} {b.shape}")
            continue
        cols = {}
        for m, name in enumerate(head_a):
            if np.array_equal(a[:, m], b[:, m], equal_nan=True):
                continue
            diff = float(np.max(np.abs(b[:, m] - a[:, m])))
            scale = float(np.max(np.abs(a[:, m])))
            cols[name] = diff / scale if scale > 0.0 else float("inf")
        if cols:
            moved[path_a.name] = cols
    return moved


def diff_run(dir_a: Path, dir_b: Path, cache: dict) -> dict:
    """The record of one matched pair of report.json directories."""
    reps = []
    for d in (dir_a, dir_b):
        with open(d / "report.json", encoding="utf-8") as fh:
            reps.append(json.load(fh))
    rep_a, rep_b = reps
    sides = {"parent": _oracle_side(rep_a, cache),
             "change": _oracle_side(rep_b, cache)}
    moved = {}
    verdicts = [name for name in sorted(set(rep_a["checks"]["results"])
                                        | set(rep_b["checks"]["results"]))
                if rep_a["checks"]["results"].get(name)
                != rep_b["checks"]["results"].get(name)]
    if rep_a["all_checks_passed"] != rep_b["all_checks_passed"]:
        verdicts.append("all_checks_passed")
    if verdicts:
        moved["verdicts"] = verdicts
    jumps_a, jumps_b = rep_a["jumps"], rep_b["jumps"]
    if [j["kind"] for j in jumps_a] != [j["kind"] for j in jumps_b]:
        moved["jump_kinds"] = {"parent": len(jumps_a),
                               "change": len(jumps_b)}
    shift = max((abs(jb["t"] - ja["t"]) for ja, jb in zip(jumps_a, jumps_b)),
                default=0.0)
    if shift != 0.0:
        moved["max_jump_shift_s"] = shift
    csv = _csv_moves(dir_a, dir_b)
    if csv:
        moved["csv"] = csv
    leaves_a, leaves_b = dict(_leaves(rep_a)), dict(_leaves(rep_b))
    leaves = sorted(k for k in leaves_a.keys() | leaves_b.keys()
                    if leaves_a.get(k, _MISSING) != leaves_b.get(k, _MISSING))
    if leaves:
        moved["report_leaves"] = leaves
    return {"sides": sides, "moved": moved}


def diff_dirs(parent, change) -> dict:
    """{relative directory of a report.json: its record} over both
    trees; a report on one side only records where it is missing."""
    parent, change = Path(parent), Path(change)
    found = {p.parent.relative_to(root).as_posix()
             for root in (parent, change) for p in root.rglob("report.json")}
    cache = {}
    record = {}
    for rel in sorted(found):
        dir_a, dir_b = parent / rel, change / rel
        missing = [side for side, d in (("parent", dir_a), ("change", dir_b))
                   if not (d / "report.json").exists()]
        record[rel] = ({"moved": {"report": f"missing on the {missing[0]} "
                                            f"side"}} if missing
                       else diff_run(dir_a, dir_b, cache))
    return record


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    print(json.dumps(diff_dirs(*args), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
