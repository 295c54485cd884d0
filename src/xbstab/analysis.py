"""Post-processing checks: every assumption and bound the construction
relies on is re-verified numerically on a simulated trajectory.

All functions are read-only over HybridTrajectory instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CycleNotFound, NoExcitation
from .lyapunov import (DecayCertificate, LyapunovCertificate,
                       dwell_time_lower_bound)
from .model import (ControllerConfig, HybridTrajectory, JumpKind,
                    PlantParams, g_of)

_TINY = 1e-300


@dataclass
class DwellReport:
    """Empirical excitation structure of |z1| over a trajectory."""

    intervals: np.ndarray       # (m, 2) rows [t_a, t_b]
    tau_d: float                # minimal interval length
    tau_s: float                # maximal gap between intervals
    z_under: float              # excitation floor used for classification
    z_bar: float                # max |z1| over the trajectory
    mu: float                   # min over sliding windows of int |z1| / T
    window: float               # sliding-window length used for mu
    assumption_holds: bool

    def to_dict(self) -> dict:
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


@dataclass
class BoundReport:
    """Aggregate verdicts of the per-trajectory bound checks."""

    vobs_monotone: bool
    vobs_worst_violation: float
    envelope_ok: bool
    envelope_T: float
    envelope_margin: float
    phi_oracle_max_err: float
    dwell_ok: bool
    dwell_min_ratio: float
    zeno_ok: bool
    zeno_max_jumps: int

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in (
            "vobs_monotone", "vobs_worst_violation", "envelope_ok",
            "envelope_T", "envelope_margin", "phi_oracle_max_err",
            "dwell_ok", "dwell_min_ratio", "zeno_ok", "zeno_max_jumps")}

    @property
    def all_ok(self) -> bool:
        return (self.vobs_monotone and self.envelope_ok
                and self.phi_oracle_max_err <= 1e-5
                and self.dwell_ok and self.zeno_ok)


def cycle_slice(traj: HybridTrajectory, i: int) -> slice:
    """Index range of the samples belonging to cycle i."""
    idx = np.flatnonzero(traj.cycle == i)
    if idx.size == 0:
        raise CycleNotFound(f"cycle {i} has no samples")
    return slice(int(idx[0]), int(idx[-1]) + 1)


def _abs_z1_cumulative(traj: HybridTrajectory) -> np.ndarray:
    """Trapezoidal cumulative integral of |z1(t)| over the whole arc."""
    dt = np.diff(traj.t)
    a = np.abs(traj.z1)
    inc = 0.5 * (a[:-1] + a[1:]) * dt
    return np.concatenate([[0.0], np.cumsum(inc)])


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


def extract_dwell(traj: HybridTrajectory, cfg: ControllerConfig,
                  threshold_fraction: float = 0.5) -> DwellReport:
    """Excitation intervals I_d = {t : |z1(t)| >= threshold_fraction |z*|}.

    The threshold follows the per-sample reference magnitude, so the report
    is meaningful across cycle transitions. mu is the minimum over sliding
    windows of the average of |z1|; the window is one within-cycle period
    (or the full horizon if the trajectory contains no switching).
    """
    if not 0.0 < threshold_fraction < 1.0:
        raise ValueError("threshold_fraction must lie in (0, 1)")
    if len(traj) < 2:
        raise NoExcitation("trajectory too short to classify")
    t = traj.t
    a = np.abs(traj.z1)
    thr = threshold_fraction * np.abs(traj.z_star)
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
                           f"{threshold_fraction} |z*|")

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
                        cert: LyapunovCertificate,
                        rel_slack: float = 1e-6) -> tuple[bool, float]:
    """V_obs = z_tilde' P z_tilde non-increasing at every sample pair.

    Returns (ok, worst relative violation); jumps leave z_tilde unchanged,
    so the check applies uniformly across the whole sample sequence.
    """
    p11, p12, p22 = cert.P[0, 0], cert.P[0, 1], cert.P[1, 1]
    zt1, zt2 = traj.z_tilde1, traj.z_tilde2
    v = p11 * zt1 ** 2 + 2.0 * p12 * zt1 * zt2 + p22 * zt2 ** 2
    dv = np.diff(v)
    rel = dv / np.maximum(v[:-1], _TINY)
    worst = float(rel.max()) if rel.size else 0.0
    return worst <= rel_slack, worst


def check_phi_oracle(traj: HybridTrajectory) -> float:
    """Max over completed cycles of ||z_tilde - Phi z_tilde0|| relative to
    ||z_tilde0|| at the cycle start (the transition-matrix contract)."""
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
    """Exponential envelope |z_tilde(t)| <= k1 |z_tilde(t0)| e^{-k2 mu (t-t0)}.

    t0 is the start of from_cycle. T is reported empirically as the first
    sample time offset from which the bound holds at every later sample;
    the margin is the minimal log-space slack past t0 + T.
    """
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


def check_overshoot_bound(traj: HybridTrajectory, params: PlantParams,
                          cfg: ControllerConfig, i_star: int,
                          rel_tol: float = 1e-9) -> bool:
    """Comparison-system bound on the z2 overshoot at the start of a cycle.

    Integrates dz2/dt = M (c z2 + d), M = max |z1| over cycle i_star, from
    z2(0) = (d/c + eps)/2^(i*-1), and checks the simulated z2 stays below
    this bound over the matched initial phase [t_c, t_c + T_lmin].
    """
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
    if ts.size == 0:
        return True
    # imported here, not at module level: the CLI never runs this check,
    # and importing scipy adds about 0.6 s to every CLI start
    from scipy.integrate import solve_ivp
    sol = solve_ivp(lambda _, z: [M * (c * z[0] + d)], (0.0, t_lmin),
                    [z2_0], t_eval=np.clip(ts, 0.0, t_lmin),
                    rtol=1e-12, atol=1e-14, method="DOP853")
    bound = sol.y[0]
    z2 = traj.z2[sel]
    return bool(np.all(z2 <= bound * (1.0 + rel_tol) + 1e-12))


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


def check_zeno(traj: HybridTrajectory, t_lmin: float,
               window: float = 1.0) -> tuple[bool, int]:
    """No window of the given length contains more than 2 ceil(1/T_lmin)+1
    jumps. Returns (ok, max jumps observed in any window)."""
    times = np.array(sorted(jr.t for jr in traj.jumps))
    if times.size == 0:
        return True, 0
    limit = 2 * math.ceil(1.0 / t_lmin) + 1
    hi = np.searchsorted(times, times + window, side="right")
    worst = int((hi - np.arange(times.size)).max())
    return worst <= limit, worst


def verify_bounds(traj: HybridTrajectory, params: PlantParams,
                  cfg: ControllerConfig, cert: LyapunovCertificate,
                  decay: DecayCertificate, from_cycle: int) -> BoundReport:
    """All per-trajectory bound checks combined into one report."""
    mono, worst = check_vobs_monotone(traj, cert)
    env = check_envelope(traj, decay, from_cycle)
    phi_err = check_phi_oracle(traj)
    dwell_ok, ratio = check_dwell_lower_bound(traj, params, cfg)
    _, _, t_lmin = dwell_time_lower_bound(params, cfg, 1)
    zeno_ok, zeno_worst = check_zeno(traj, t_lmin)
    return BoundReport(
        vobs_monotone=mono, vobs_worst_violation=worst,
        envelope_ok=env["envelope_ok"], envelope_T=env["T"],
        envelope_margin=env["margin"], phi_oracle_max_err=phi_err,
        dwell_ok=dwell_ok, dwell_min_ratio=ratio,
        zeno_ok=zeno_ok, zeno_max_jumps=zeno_worst)
