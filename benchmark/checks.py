"""Output checks on the artifacts of one scenario execution, read back
from disk.

Every check is computed apart from the program: nothing here imports
xbstab, and no check compares against a stored copy of earlier output.
Each function returns a list of failure messages (empty when it passes).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from oracle import NEW, WITHIN, ClosedLoop

COLUMNS = ("t", "j", "i", "tau", "z1", "z2", "z1_hat", "z2_hat",
           "z_tilde1", "z_tilde2", "z_star", "u")

# jumps out of cycles 0-2 must match the oracle within this (criterion 8's
# oracle test); later ones within LATE_JUMP_TOL_S, see README.md
EARLY_JUMP_TOL_S = 1e-6
EARLY_CYCLES = 2
LATE_JUMP_TOL_S = 1e-5
# a jump this close to t_end may fall on either side of the horizon
HORIZON_SLACK_S = 1e-5
VOBS_REL_SLACK = 1e-6           # criterion 3
TAU_REL, TAU_ABS = 1e-6, 1e-9   # criterion 5
REL = 1e-12                     # derived columns, rounding only


def load_artifacts(out_dir: Path) -> tuple:
    """(columns dict, report dict) of one execution's output directory."""
    with open(out_dir / "report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    with open(out_dir / "trajectory.csv", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if tuple(header) != COLUMNS:
        raise ValueError(f"unexpected trajectory.csv header {header}")
    return {name: data[:, m] for m, name in enumerate(COLUMNS)}, report


def jump_errors(report: dict, oracle_jumps: list, t_end: float) -> tuple:
    """(failures, largest |t - t_oracle|) of the reported jump sequence."""
    got = [(jr["t"], jr["kind"]) for jr in report["jumps"]]
    n = min(len(got), len(oracle_jumps))
    fails = []
    tail = got[n:] + [(t, kind) for t, kind, _ in oracle_jumps[n:]]
    if any(t < t_end - HORIZON_SLACK_S for t, _ in tail):
        fails.append(f"{len(got)} jumps reported, oracle finds "
                     f"{len(oracle_jumps)}")
    worst, off = 0.0, []
    for m in range(n):
        t, kind = got[m]
        t_ref, kind_ref, cycle = oracle_jumps[m]
        if kind != kind_ref:
            fails.append(f"jump {m} at t={t:.9f} is {kind}, oracle has "
                         f"{kind_ref} at t={t_ref:.9f}")
            break
        err = abs(t - t_ref)
        worst = max(worst, err)
        tol = EARLY_JUMP_TOL_S if cycle <= EARLY_CYCLES else LATE_JUMP_TOL_S
        if err > tol:
            off.append(f"jump {m} ({kind}, cycle {cycle}) at t={t:.9f} is "
                        f"{err:.2e} s from the oracle (tolerance {tol:.0e})")
    if off:
        fails.append(f"{len(off)} of {n} jumps off the oracle; first: "
                     f"{off[0]}")
    return fails, worst


def vobs_monotone(cols: dict, loop: ClosedLoop) -> list:
    """V_obs = z~' P z~ never increases beyond criterion 3's slack."""
    P = loop.P
    e1, e2 = cols["z_tilde1"], cols["z_tilde2"]
    v = P[0, 0] * e1 * e1 + 2.0 * P[0, 1] * e1 * e2 + P[1, 1] * e2 * e2
    rel = np.diff(v) / np.maximum(v[:-1], 1e-300)
    if rel.size and rel.max() > VOBS_REL_SLACK:
        return [f"V_obs rises by {rel.max():.3e} (relative)"]
    return []


def jump_map(cols: dict, report: dict, loop: ClosedLoop) -> list:
    """Every duplicated row applies the jump map of its reported jump."""
    fails = []
    j, cyc, zs = cols["j"], cols["i"], cols["z_star"]
    dj = np.diff(j)
    if np.any((dj != 0) & (dj != 1)):
        fails.append("jump counter does not advance by 0 or 1 per row")
    rows = np.flatnonzero(dj == 1)
    kinds = [jr["kind"] for jr in report["jumps"]]
    if len(rows) != len(kinds):
        return fails + [f"{len(rows)} jump rows for {len(kinds)} jumps"]
    for name in ("t", "z1", "z2", "z_tilde1", "z_tilde2"):
        x = cols[name]
        if np.any(x[rows + 1] != x[rows]):
            fails.append(f"{name} changes across a jump")
    within = np.array([k == WITHIN for k in kinds], dtype=bool)
    new = np.array([k == NEW for k in kinds], dtype=bool)
    pre, post = rows[within], rows[within] + 1
    if np.any(zs[post] != -zs[pre]) or np.any(cyc[post] != cyc[pre]):
        fails.append("a WithinCycle jump does not flip z* within its cycle")
    pre, post = rows[new], rows[new] + 1
    if np.any(zs[post] != zs[pre] / 2.0) or np.any(cyc[post] != cyc[pre] + 1):
        fails.append("a NewCycle jump does not halve z* and advance i")
    if np.any(np.abs(zs) != loop.z_star_init / 2.0 ** cyc):
        fails.append("|z*| differs from z*_in / 2^i on some row")
    return fails


def dnc_certificate(cols: dict, report: dict, loop: ClosedLoop) -> list:
    """At each NewCycle, |z~| <= h(i) |z~ at the start of cycle i|."""
    cyc = cols["i"]
    zt = np.hypot(cols["z_tilde1"], cols["z_tilde2"])
    rows = np.flatnonzero(np.diff(cols["j"]) == 1)
    fails = []
    for row, jr in zip(rows, report["jumps"]):
        if jr["kind"] != NEW:
            continue
        i = int(cyc[row])
        start = int(np.argmax(cyc == i))
        if zt[row] > loop.h(i) * zt[start]:
            fails.append(f"cycle {i} ends with |z~| {zt[row]:.3e} above "
                         f"h({i}) x {zt[start]:.3e}")
    return fails


def tau_trapezoid(cols: dict) -> list:
    """Per cycle, tau matches the trapezoid of |z1| (criterion 5)."""
    t, tau, cyc = cols["t"], cols["tau"], cols["i"]
    a = np.abs(cols["z1"])
    fails = []
    for i in np.unique(cyc):
        idx = np.flatnonzero(cyc == i)
        sl = slice(idx[0], idx[-1] + 1)
        inc = 0.5 * (a[sl][:-1] + a[sl][1:]) * np.diff(t[sl])
        expected = tau[sl.start] + np.concatenate([[0.0], np.cumsum(inc)])
        share = np.abs(tau[sl] - expected) / (TAU_REL * np.abs(expected)
                                              + TAU_ABS)
        if share.max() > 1.0:
            fails.append(f"cycle {int(i)}: tau drifts {share.max():.2f}x "
                         f"its bound from the trapezoid of |z1|")
    return fails


def columns_and_report(cols: dict, report: dict, loop: ClosedLoop) -> list:
    """Derived columns, row count, horizon and the report's verdict."""
    fails = []
    for m in (1, 2):
        z, zt = cols[f"z{m}"], cols[f"z_tilde{m}"]
        if np.any(np.abs(cols[f"z{m}_hat"] - (z + zt))
                  > REL * (np.abs(z) + np.abs(zt))):
            fails.append(f"z{m}_hat differs from z{m} + z_tilde{m}")
    track = loop.k * (cols["z1"] - cols["z_star"])
    ce = loop.a * cols["z1"] * cols["z2_hat"]
    if np.any(np.abs(cols["u"] - (ce - track))
              > REL * (np.abs(ce) + np.abs(track))):
        fails.append("u differs from a z1 zhat2 - k (z1 - z*)")
    if len(cols["t"]) != report["samples"]:
        fails.append(f"{len(cols['t'])} CSV rows, report says "
                     f"{report['samples']}")
    if not math.isclose(cols["t"][-1], loop.t_end, rel_tol=1e-12):
        fails.append(f"last t {cols['t'][-1]!r} is not t_end {loop.t_end!r}")
    if report.get("all_checks_passed") is not True:
        fails.append("report.json: all_checks_passed is not true")
    return fails


def check_execution(out_dir: Path, oracle_jumps: list,
                    tau_check: bool) -> tuple:
    """Every check on one execution: (failures, largest jump-time gap to
    the oracle)."""
    cols, report = load_artifacts(out_dir)
    loop = ClosedLoop(report["config"])
    fails, jump_err = jump_errors(report, oracle_jumps, loop.t_end)
    fails += vobs_monotone(cols, loop)
    fails += jump_map(cols, report, loop)
    fails += dnc_certificate(cols, report, loop)
    if tau_check:
        fails += tau_trapezoid(cols)
    fails += columns_and_report(cols, report, loop)
    return fails, jump_err
