#!/usr/bin/env python3
"""Benchmark of xbstab through its CLI entry point ``cli.run_scenario``.

    python3 benchmark/run.py --workload bundled_dense --seed 1 \\
        --seconds 10 --trace 0
    python3 benchmark/run.py          # every workload, seed 0, as a table

Run from the root of a source checkout; xbstab is imported from its
``src/``. One invocation makes the workload's inputs from the seed,
re-integrates them with the independent oracle once, then executes the
scenario in fresh processes until --seconds of executions have been
measured, checking every execution's artifacts outside the timed region.
With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics, with --trace 1 one with the per-layer metrics of one
extra traced execution. See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import oracle
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
RESULTS = HERE / "results"
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 150.0


class Invocation:
    """One workload and seed: its input file, output area and oracle."""

    def __init__(self, name: str, seed: int):
        self.name = name
        scn = workloads.scenario(ROOT, name, seed)
        self.dir = OUT / f"{name}-seed{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = self.dir / "input.json"
        self.config.write_text(json.dumps(scn, indent=2), encoding="utf-8")
        self.sweep = workloads.sweep_arg(name)
        self.variants = workloads.variants(name, scn)
        self.oracle = {sub: oracle.jump_sequence(v)
                       for sub, v in self.variants}
        self.tau_check = workloads.tau_check(name)
        self.spans_file = RESULTS / f"{name}-seed{seed}.spans.jsonl"

    def child(self, mode: str, out: Path) -> dict:
        """Run child.py once; its result dict, or None if it crashed."""
        result = self.dir / "child.json"
        result.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "child.py"), "--root", str(ROOT),
               "--config", str(self.config), "--out", str(out),
               "--mode", mode, "--result", str(result)]
        if self.sweep:
            cmd += ["--sweep", self.sweep]
        if mode == "traced":
            RESULTS.mkdir(exist_ok=True)
            cmd += ["--spans", str(self.spans_file)]
        cmd += ["--spawned", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
        proc = subprocess.run(cmd, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0 or not result.exists():
            print(f"{self.name}: {mode} process exited with "
                  f"{proc.returncode}", file=sys.stderr)
            return None
        return json.loads(result.read_text(encoding="utf-8"))

    def execute(self, mode: str) -> dict:
        """One checked execution of every variant; artifacts removed."""
        out = self.dir / "artifacts"
        shutil.rmtree(out, ignore_errors=True)
        res = self.child(mode, out)
        op = {"result": res, "failed": 0, "fails": [], "jump_err": 0.0,
              "bytes": sum(f.stat().st_size for f in out.rglob("*")
                           if f.is_file()) if out.exists() else 0}
        for sub, _ in self.variants:
            dest = out / sub
            if res is None or not (dest / "report.json").exists():
                op["failed"] += 1
                continue
            try:
                fails, jump_err = checks.check_execution(
                    dest, self.oracle[sub], self.tau_check)
            except (OSError, ValueError, KeyError) as exc:
                fails, jump_err = [f"unreadable artifacts: {exc!r}"], 0.0
            op["fails"] += [f"{sub or 'run'}: {msg}" for msg in fails]
            op["jump_err"] = max(op["jump_err"], jump_err)
        shutil.rmtree(out, ignore_errors=True)
        return op


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    inv = Invocation(name, seed)
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            res = inv.child("setup", inv.dir / "setup")
            if res is not None:
                setups.append(res["setup_s"])
    ops, measured = [], 0.0
    while measured < seconds:
        op = inv.execute("timed")
        ops.append(op)
        if op["result"] is None:
            break
        measured += op["result"]["setup_s"] + op["result"]["wall_s"]
    traced = inv.execute("traced") if trace else None
    shutil.rmtree(inv.dir, ignore_errors=True)

    done = [op for op in ops + [traced] if op and op["result"]]
    attempted = len(inv.variants) * (len(ops) + (1 if trace else 0))
    failed = sum(op["failed"] for op in ops + [traced] if op)
    fails = [msg for op in ops + [traced] if op for msg in op["fails"]]
    for msg in fails:
        print(f"{name}: CHECK FAILED: {msg}", file=sys.stderr)
    timed = [op["result"] for op in ops if op["result"]]
    out = {"correct": not fails and bool(timed), "attempted": attempted,
           "failed": failed,
           "backend": done[0]["result"]["backend"] if done else None}
    if not timed:
        out["metrics"] = {}
        return out
    wall = statistics.median(r["wall_s"] for r in timed)
    if trace:
        if traced["result"] is None:
            out["metrics"] = {}
            return out
        res = traced["result"]
        metrics = spans.layer_metrics(
            res["summary"], res["wall_s"], res["cpu_s"], traced["bytes"],
            traced["jump_err"], wall)
        sim_s, flow_s = (metrics["engine.simulate_s"]["value"],
                         metrics["fastpath.flow_s"]["value"])
        if not flow_s <= sim_s <= res["wall_s"]:
            print(f"{name}: span nesting broken: flow {flow_s} s, "
                  f"simulate {sim_s} s, wall {res['wall_s']} s",
                  file=sys.stderr)
            out["correct"] = False
    else:
        setups += [r["setup_s"] for r in timed]
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                r["peak_rss_kb"] * 1024 / 1e6 for r in timed), "unit": "MB"},
            "artifact_mb": {"value": statistics.median(
                op["bytes"] / 1e6 for op in ops if op["result"]),
                "unit": "MB"},
        }
    out["metrics"] = metrics
    return out


def report_lines(name: str, res: dict) -> list:
    lines = [f"[{name}] backend {res['backend']}, attempted "
             f"{res['attempted']}, failed {res['failed']}, correct "
             f"{res['correct']}"]
    for metric, entry in res["metrics"].items():
        lines.append(f"  {metric:28s} {entry['value']:.6g} {entry['unit']}")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                    default=None, help="default: every workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "xbstab" / "cli.py").is_file():
        print(f"no xbstab source under {ROOT / 'src'}; run from the root "
              f"of a source checkout", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds,
                                     bool(args.trace))
        print("\n".join(report_lines(name, results[name])), flush=True)
    if args.workload:
        final = {key: results[args.workload][key]
                 for key in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{metric}": entry
                             for name, r in results.items()
                             for metric, entry in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
