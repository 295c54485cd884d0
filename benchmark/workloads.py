"""The benchmark's workloads and the inputs each one makes from a seed.

Every workload starts from the bundled scenario
``src/xbstab/scenarios/abs_dry_road.json``. Seed 0 keeps its initial
estimate; any other seed draws z_hat0 uniformly in the disc of radius
SEED_RADIUS around it. The program receives only the generated JSON.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import numpy as np

SCENARIO = Path("src") / "xbstab" / "scenarios" / "abs_dry_road.json"
# Across the whole R_tilde = 0.5 ball the recorded sample count follows
# zhat2(0) and ranges over +-12 %, which would make seed choice the main
# source of spread; within 0.05 every draw stays in that ball (the shipped
# |z_hat0 - z0| is 0.4) and still gives its own arc and step sequence.
SEED_RADIUS = 0.05

# name -> (solver overrides, sweep or None, tau/trapezoid check applies)
WORKLOADS = {
    # the bundled scenario as shipped: t_end 0.12 s, every accepted step
    # recorded under the default tau budget
    "bundled_dense": ({}, None, True),
    # criterion 8's thinned recording; cycle 3 starts near 1.41 s
    "long_thinned": ({"t_end": 2.0, "record_interval": 1e-3,
                      "tau_budget_rel": 1e9}, None, False),
    # the CLI's fan-out over two control gains; at the shipped horizon the
    # k = 500 variant is bundled_dense's input
    "sweep_k": ({}, ("controller.k", (400, 500)), True),
}


def scenario(root: Path, name: str, seed: int) -> dict:
    """The scenario JSON of workload `name` for `seed`."""
    with open(root / SCENARIO, encoding="utf-8") as fh:
        scn = json.load(fh)
    overrides, _, _ = WORKLOADS[name]
    scn["solver"].update(overrides)
    if seed != 0:
        rng = np.random.default_rng(seed)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        radius = SEED_RADIUS * math.sqrt(rng.uniform())
        z1, z2 = scn["initial"]["z_hat0"]
        scn["initial"]["z_hat0"] = [z1 + radius * math.cos(angle),
                                    z2 + radius * math.sin(angle)]
    return scn


def sweep_arg(name: str):
    """The ``--sweep`` argument of workload `name`, or None."""
    sweep = WORKLOADS[name][1]
    if sweep is None:
        return None
    param, values = sweep
    return f"{param}=" + ",".join(str(v) for v in values)


def variants(name: str, scn: dict) -> list:
    """[(output subdirectory, executed scenario)] of one invocation,
    following the naming of ``xbstab run --sweep``."""
    sweep = WORKLOADS[name][1]
    if sweep is None:
        return [("", scn)]
    param, values = sweep
    out = []
    for value in values:
        variant = copy.deepcopy(scn)
        node = variant
        *path, leaf = param.split(".")
        for part in path:
            node = node[part]
        node[leaf] = value
        out.append((f"sweep_{param.replace('.', '_')}={value}", variant))
    return out


def tau_check(name: str) -> bool:
    """Whether the default tau budget is on, so criterion 5 applies."""
    return WORKLOADS[name][2]
