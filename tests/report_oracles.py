"""Test-only oracles of the report layer: the per-cycle index, the
within-cycle jump pairing and the report serializers as they were written
before the cycles were indexed in one pass and the reports serialized
through model.as_dict, and the excitation report and the per-sample bound
checks as they were written over whole columns, before they read the arc
in blocks of rows, and the overshoot comparison as it selected its rows
with boolean masks over the whole of t. The bodies are kept as they were;
the tests check the package against them."""

from __future__ import annotations

import math

import numpy as np

from xbstab.analysis import _EXCITATION_FLOOR, _TINY, DwellReport
from xbstab.errors import CycleNotFound, NoExcitation
from xbstab.lyapunov import (DecayCertificate, LyapunovCertificate,
                             dwell_time_lower_bound)
from xbstab.model import (ControllerConfig, HybridTrajectory, JumpKind,
                          PlantParams, g_of)


def cycle_slice(traj: HybridTrajectory, i: int) -> slice:
    """Index range of the samples belonging to cycle i."""
    idx = np.flatnonzero(np.asarray(traj.cycle) == i)
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


def _abs_z1_cumulative(traj: HybridTrajectory) -> np.ndarray:
    """Trapezoidal cumulative integral of |z1(t)| over the whole arc."""
    dt = np.diff(traj.t)
    a = np.abs(traj.z1)
    inc = 0.5 * (a[:-1] + a[1:]) * dt
    return np.concatenate([[0.0], np.cumsum(inc)])


def extract_dwell(traj: HybridTrajectory) -> DwellReport:
    """analysis.extract_dwell."""
    if len(traj) < 2:
        raise NoExcitation("trajectory too short to classify")
    t = traj.t
    a = np.abs(traj.z1)
    thr = _EXCITATION_FLOOR * np.abs(traj.z_star)
    mask = a >= thr

    # maximal runs of True
    edges = np.diff(mask.astype(np.int8))
    starts = list(np.flatnonzero(edges == 1) + 1)
    ends = list(np.flatnonzero(edges == -1) + 1)
    if mask[0]:
        starts.insert(0, 0)
    if mask[-1]:
        ends.append(len(mask) - 1)
    intervals = np.array([[t[s], t[e]] for s, e in zip(starts, ends)
                          if t[e] > t[s]])
    if intervals.size == 0:
        raise NoExcitation(f"no interval with |z1| >= "
                           f"{_EXCITATION_FLOOR} |z*|")

    lengths = intervals[:, 1] - intervals[:, 0]
    gaps = intervals[1:, 0] - intervals[:-1, 1]
    tau_s = float(gaps.max()) if gaps.size else 0.0

    window = _within_cycle_period(traj)
    if window <= 0.0:
        window = float(t[-1] - t[0])
    cum = _abs_z1_cumulative(traj)
    t_lo = t[t <= t[-1] - window]
    if t_lo.size == 0:
        t_lo = t[:1]
        window = float(t[-1] - t[0])
    lo = np.interp(t_lo, t, cum)
    hi = np.interp(t_lo + window, t, cum)
    mu = float(((hi - lo) / window).min()) if window > 0 else 0.0

    return DwellReport(
        intervals=intervals,
        tau_d=float(lengths.min()),
        tau_s=tau_s,
        z_under=float(thr.min()),
        z_bar=float(a.max()),
        mu=mu,
        window=window,
        assumption_holds=bool(mu > 0.0 and lengths.min() > 0.0),
    )


def check_vobs_monotone(traj: HybridTrajectory,
                        cert: LyapunovCertificate) -> tuple[bool, float]:
    """analysis.check_vobs_monotone."""
    p11, p12, p22 = cert.P[0, 0], cert.P[0, 1], cert.P[1, 1]
    zt1, zt2 = np.asarray(traj.z_tilde1), np.asarray(traj.z_tilde2)
    v = p11 * zt1 ** 2 + 2.0 * p12 * zt1 * zt2 + p22 * zt2 ** 2
    dv = np.diff(v)
    rel = dv / np.maximum(v[:-1], _TINY)
    worst = float(rel.max()) if rel.size else 0.0
    return worst <= 1e-6, worst


def check_phi_oracle(traj: HybridTrajectory) -> float:
    """analysis.check_phi_oracle."""
    worst = 0.0
    for i in np.unique(traj.cycle):
        sl = cycle_slice(traj, int(i))
        zt0 = np.array([traj.z_tilde1[sl.start], traj.z_tilde2[sl.start]])
        n0 = np.linalg.norm(zt0)
        if n0 == 0.0:
            continue
        phi = traj.phi[sl]
        pred1 = phi[:, 0] * zt0[0] + phi[:, 1] * zt0[1]
        pred2 = phi[:, 2] * zt0[0] + phi[:, 3] * zt0[1]
        err = np.hypot(traj.z_tilde1[sl] - pred1, traj.z_tilde2[sl] - pred2)
        worst = max(worst, float(err.max()) / n0)
    return worst


def check_envelope(traj: HybridTrajectory, decay: DecayCertificate,
                   from_cycle: int) -> dict:
    """analysis.check_envelope."""
    sl = cycle_slice(traj, from_cycle)
    t0 = traj.t[sl.start]
    zt0 = math.hypot(traj.z_tilde1[sl.start], traj.z_tilde2[sl.start])
    t = traj.t[sl.start:]
    mag = np.hypot(traj.z_tilde1[sl.start:], traj.z_tilde2[sl.start:])
    if zt0 == 0.0:
        ok = bool(np.all(mag == 0.0))
        return {"envelope_ok": ok, "T": 0.0,
                "margin": math.inf if ok else -math.inf}
    log_bound = (math.log(decay.kappa1) + math.log(zt0)
                 - decay.kappa2 * decay.mu * (t - t0))
    with np.errstate(divide="ignore"):
        log_mag = np.log(mag)
    holds = log_mag <= log_bound
    if not holds[-1]:
        return {"envelope_ok": False, "T": math.inf, "margin": -math.inf}
    # first index from which the bound holds forever after
    fail = np.flatnonzero(~holds)
    start = int(fail[-1]) + 1 if fail.size else 0
    T = float(t[start] - t0)
    margin = float((log_bound[start:] - log_mag[start:]).min())
    return {"envelope_ok": True, "T": T, "margin": margin}


def overshoot_comparison(traj: HybridTrajectory, params: PlantParams,
                         cfg: ControllerConfig, i_star: int):
    """analysis.overshoot_comparison."""
    if i_star < 1:
        raise CycleNotFound("comparison bound applies to cycles i >= 1")
    sl = cycle_slice(traj, i_star)
    t_c = traj.t[sl.start]
    c, d = params.c, params.d
    M = float(np.abs(traj.z1[sl]).max())
    _, _, t_lmin = dwell_time_lower_bound(params, cfg, i_star)
    z2_0 = (d / c + cfg.epsilon) / 2.0 ** (i_star - 1)

    sel = (traj.t >= t_c) & (traj.t <= t_c + t_lmin)
    sel[:sl.start] = False
    ts = traj.t[sel] - t_c
    bound = z2_0 + (z2_0 + d / c) * np.expm1(M * c * np.clip(ts, 0.0, t_lmin))
    return ts, traj.z2[sel], bound


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
        "rho": self.rho,
        "log_one_minus_rho": self.log_one_minus_rho,
        "kappa1": self.kappa1,
        "kappa2": self.kappa2,
        "mu": self.mu,
    }
