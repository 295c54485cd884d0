#!/usr/bin/env python3
"""The outputs of one checkout's ``xbstab run`` on the benchmark workloads,
for tests/rundiff.py (README, "Accepting a change that moves numbers").

    python3 tests/workload_outputs.py CHECKOUT OUT_DIR \\
        [--workload NAME] [--seed K]

For each workload of benchmark/workloads.py and each seed 0-2 (or the one
workload and seed asked for), writes the workload's input to
OUT_DIR/<workload>-seed<k>.json and runs CHECKOUT's ``xbstab run`` on it,
imported from CHECKOUT/src, with the workload's ``--sweep`` where it has
one, into OUT_DIR/<workload>-seed<k>/. workloads.py is this repository's
copy, loaded by path and left unchanged, and it makes the inputs from this
repository's shipped scenario, so two checkouts run the same inputs. With
one OUT_DIR per checkout,

    python3 tests/rundiff.py PARENT_OUT CHANGE_OUT

gives the 12 records the acceptance rule asks for: one per report, and
sweep_k writes two. Prints one line per run with its exit code, and exits
1 if any run exited nonzero (every run is made).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
SEEDS = (0, 1, 2)


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "workloads", _ROOT / "benchmark" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_outputs(checkout, out_dir, names, seeds) -> dict:
    """{run directory name: exit code of CHECKOUT's ``xbstab run``} for
    each workload in `names` at each seed in `seeds`."""
    workloads = _workloads()
    src = Path(checkout).resolve() / "src"
    if not (src / "xbstab" / "cli.py").is_file():
        raise FileNotFoundError(f"no xbstab source under {src}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    codes = {}
    for name in names:
        for seed in seeds:
            run = f"{name}-seed{seed}"
            config = out_dir / f"{run}.json"
            config.write_text(json.dumps(workloads.scenario(_ROOT, name,
                                                            seed), indent=2),
                              encoding="utf-8")
            cmd = [sys.executable, "-m", "xbstab.cli", "run", str(config),
                   "--out", str(out_dir / run)]
            sweep = workloads.sweep_arg(name)
            if sweep:
                cmd += ["--sweep", sweep]
            codes[run] = subprocess.run(cmd, env=env).returncode
            print(f"{run}: exit {codes[run]}", flush=True)
    return codes


def main(argv=None) -> int:
    names = list(_workloads().WORKLOADS)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkout", help="root of the source checkout to run")
    ap.add_argument("out_dir")
    ap.add_argument("--workload", choices=names, default=None,
                    help="default: every workload")
    ap.add_argument("--seed", type=int, choices=SEEDS, default=None,
                    help="default: seeds 0-2")
    args = ap.parse_args(argv)
    codes = write_outputs(
        args.checkout, args.out_dir,
        [args.workload] if args.workload else names,
        [args.seed] if args.seed is not None else SEEDS)
    return 0 if not any(codes.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
