"""Test-only oracles of the report layer: the per-cycle index, the
within-cycle jump pairing and the report serializers as they were written
before the cycles were indexed in one pass and the reports serialized
through model.as_dict. The bodies are kept as they were; the tests check
the package against them."""

from __future__ import annotations

import math

import numpy as np

from xbstab.errors import CycleNotFound
from xbstab.lyapunov import dwell_time_lower_bound
from xbstab.model import (ControllerConfig, HybridTrajectory, JumpKind,
                          PlantParams, g_of)


def cycle_slice(traj: HybridTrajectory, i: int) -> slice:
    """Index range of the samples belonging to cycle i."""
    idx = np.flatnonzero(traj.cycle == i)
    if idx.size == 0:
        raise CycleNotFound(f"cycle {i} has no samples")
    return slice(int(idx[0]), int(idx[-1]) + 1)


def _within_cycle_period(traj: HybridTrajectory) -> float:
    """Largest spacing between consecutive within-cycle jumps of one cycle;
    the natural excitation period for the sliding mu window."""
    dc_times = [(jr.t, jr.j) for jr in traj.jumps
                if jr.kind is JumpKind.WITHIN_CYCLE]
    best = 0.0
    # spacing between jumps j and j+1 only when no cycle jump lies between
    kinds = {jr.j: jr.kind for jr in traj.jumps}
    times = {jr.j: jr.t for jr in traj.jumps}
    for t_j, j in dc_times:
        nxt = j + 1
        if kinds.get(nxt) is JumpKind.WITHIN_CYCLE:
            best = max(best, times[nxt] - t_j)
    return best


def check_dwell_lower_bound(traj: HybridTrajectory, params: PlantParams,
                            cfg: ControllerConfig) -> tuple[bool, float]:
    """Within-cycle flow intervals vs. the closed-form dwell lower bound.

    For each cycle i >= 1, intervals between consecutive within-cycle jumps
    are checked against T_li once the trajectory has entered the per-cycle
    invariant set |z1| <= (z*_in / 2^(i-1))(1 + g(i-1)). Returns
    (ok, minimal interval/bound ratio).
    """
    min_ratio = math.inf
    by_j = {jr.j: jr for jr in traj.jumps}
    for i in np.unique(traj.cycle):
        i = int(i)
        if i < 1:
            continue
        try:
            sl = cycle_slice(traj, i)
        except CycleNotFound:       # pragma: no cover
            continue
        z_bar_i = (cfg.z_star_init / 2.0 ** (i - 1)) * (1.0 + g_of(cfg, i - 1))
        inside = np.abs(traj.z1[sl]) <= z_bar_i
        if not inside.any():
            continue
        t_entered = traj.t[sl][inside.argmax()]
        _, t_li, _ = dwell_time_lower_bound(params, cfg, i)
        jumps_i = sorted(jr.j for jr in traj.jumps
                         if jr.kind is JumpKind.WITHIN_CYCLE
                         and traj.t[sl.start] <= jr.t <= traj.t[sl.stop - 1])
        for ja, jb in zip(jumps_i, jumps_i[1:]):
            if jb != ja + 1:
                continue
            ta, tb = by_j[ja].t, by_j[jb].t
            if ta < t_entered:
                continue
            min_ratio = min(min_ratio, (tb - ta) / t_li)
    return (min_ratio >= 1.0 - 1e-9 if math.isfinite(min_ratio) else True,
            min_ratio)


def dwell_report_to_dict(self) -> dict:
    """analysis.DwellReport.to_dict."""
    return {
        "intervals": self.intervals.tolist(),
        "tau_d": self.tau_d,
        "tau_s": self.tau_s,
        "z_under": self.z_under,
        "z_bar": self.z_bar,
        "mu": self.mu,
        "window": self.window,
        "assumption_holds": self.assumption_holds,
    }


def bound_report_to_dict(self) -> dict:
    """analysis.BoundReport.to_dict."""
    return {k: getattr(self, k) for k in (
        "vobs_monotone", "vobs_worst_violation", "envelope_ok",
        "envelope_T", "envelope_margin", "phi_oracle_max_err",
        "dwell_ok", "dwell_min_ratio", "zeno_ok", "zeno_max_jumps",
        "z2_floor_margin")}


def lyapunov_certificate_to_dict(self) -> dict:
    """lyapunov.LyapunovCertificate.to_dict."""
    return {
        "P": self.P.tolist(),
        "lambda_min": self.lambda_min,
        "lambda_max": self.lambda_max,
        "gamma": self.gamma,
        "residual_1": self.residual_1,
        "residual_2": self.residual_2,
    }


def dwell_time_certificate_to_dict(self) -> dict:
    """lyapunov.DwellTimeCertificate.to_dict."""
    return {k: getattr(self, k) for k in (
        "cycle", "sigma_i", "T_li_lower", "T_lmin", "tau_di", "tau_si",
        "z_bar_i", "z_underbar_i")}


def decay_certificate_to_dict(self) -> dict:
    """lyapunov.DecayCertificate.to_dict."""
    return {
        "decay_rate": self.decay_rate,
        "c_bar": self.c_bar,
        "log_c_bar": self.log_c_bar,
        "K1": self.K1.tolist(),
        "K2": self.K2.tolist(),
        "rho": self.rho,
        "log_one_minus_rho": self.log_one_minus_rho,
        "L": self.L,
        "kappa1": self.kappa1,
        "kappa2": self.kappa2,
        "mu": self.mu,
    }
