"""Post-processing checks: every assumption and bound the construction
relies on is re-verified numerically on a simulated trajectory.

All functions are read-only over HybridTrajectory instances, and read
its rows through HybridTrajectory.block only. Each check is one function,
which finds the cycles it needs itself (cycle_slices). Every pass over the
rows reads them in blocks of model._BLOCK_ROWS rows and carries from one
block to the next only what its result needs: a min or max, a first or
last index, the block's last row where it takes differences of
neighbouring rows, or a running sum. Min, max and index results do not
depend on the blocks, and a running sum is carried in the order of the
whole-array sum, so every result is that of one pass over whole columns,
bit for bit. A pass's scratch is a few blocks however long the arc: t and
z1 are views of the arc's flow store, cycle_slices reads the marks, not
the rows, and the sliding windows of extract_dwell read the cumulative
integral of |z1| through two forward cursors, each of which carries its
own running sum.

The arc evaluates z2, z_tilde and Phi of a block only when they are read.
So the checks that read them, V_obs, the envelope, the Phi oracle and
verify_bounds' progress floor, are passes (_Vobs, _Envelope, _PhiOracle,
_Floor) that verify_bounds runs together on each block, evaluating it
once; extract_dwell and check_dwell_lower_bound read only t, z1 and the
marked columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CycleNotFound, NoExcitation
from .lyapunov import (DecayCertificate, LyapunovCertificate,
                       dwell_time_lower_bound)
from . import model
from .model import (ControllerConfig, HybridTrajectory, JumpKind,
                    PlantParams, as_dict, g_of)

_TINY = 1e-300
# the excitation floor |z1| >= |z*|/2: the z_underbar_i = z*_in/2^(i+1) of
# lyapunov.dwell_certificate, whose |z*| in cycle i is z*_in/2^i
_EXCITATION_FLOOR = 0.5
# the progress floor on min(z2 + d/c)/(d/c): stalled runs read 2.1e-16,
# one ulp of d/c, healthy ones 2.3e-8 to 3.0e-8 (benchmark workloads,
# seeds 0-10), 4.7e3x above and 2.3e4x below the floor
_PROGRESS_FLOOR = 1e-12


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

    to_dict = as_dict


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
    z2_floor_margin: float      # min(z2 + d/c)/(d/c) over the run

    to_dict = as_dict

    @property
    def verdicts(self) -> dict:
        """The verdict of each bound check, by its name in cli.CHECK_NAMES."""
        return {"vobs": self.vobs_monotone, "envelope": self.envelope_ok,
                "phi": self.phi_oracle_max_err <= 1e-5,
                "dwell": self.dwell_ok, "zeno": self.zeno_ok,
                "progress": self.z2_floor_margin > _PROGRESS_FLOOR}


def _blocks(rows: slice, overlap: int = 0):
    """Slices of at most model._BLOCK_ROWS rows that cover `rows` in
    order, each extended by `overlap` rows into the next one; with overlap
    1 every pair of neighbouring rows lies in exactly one block."""
    size = model._BLOCK_ROWS
    for lo in range(rows.start, rows.stop - overlap, size):
        yield slice(lo, min(lo + size + overlap, rows.stop))


def cycle_slices(traj: HybridTrajectory) -> dict:
    """{i: index range of cycle i's samples, first to last}, in ascending
    cycle order, from the marks where the cycle changes."""
    rows, _, cyc, _ = traj.marks
    if len(cyc) == 0:
        return {}
    runs = np.flatnonzero(np.concatenate(([True], cyc[1:] != cyc[:-1])))
    lo = rows[runs].tolist()
    hi = lo[1:] + [len(traj)]
    first, stop = {}, {}
    for i, a, b in zip(cyc[runs].tolist(), lo, hi):
        first.setdefault(i, a)
        stop[i] = b
    return {i: slice(first[i], stop[i]) for i in sorted(first)}


def cycle_slice(traj: HybridTrajectory, i: int) -> slice:
    """Index range of the samples belonging to cycle i."""
    try:
        return cycle_slices(traj)[i]
    except KeyError:
        raise CycleNotFound(f"cycle {i} has no samples") from None


def _excitation_pass(traj: HybridTrajectory, rows: slice) -> tuple:
    """One pass over rows of a trajectory, at least two: (first and last
    rows of the excitation runs, counted from rows.start, the smallest
    excitation floor, the largest |z1|).

    A run of rows with |z1| >= _EXCITATION_FLOOR |z*| starts where that
    test turns true, or at the first row, and ends at the row where it
    turns false, or at the last row."""
    rise, fall, floors, peaks = [], [], [], []
    for b in _blocks(rows, 1):
        c = traj.block(b.start, b.stop)
        a = np.abs(c["z1"])
        thr = _EXCITATION_FLOOR * np.abs(c["z_star"])
        mask = a >= thr
        if b.start == rows.start:
            rise.append(np.flatnonzero(mask[:1]))
        edges = np.diff(mask.astype(np.int8))
        rise.append(np.flatnonzero(edges == 1) + (b.start - rows.start + 1))
        fall.append(np.flatnonzero(edges == -1) + (b.start - rows.start + 1))
        floors.append(thr.min())
        peaks.append(a.max())
    fall.append(np.flatnonzero(mask[-1:]) + (rows.stop - rows.start - 1))
    return (np.concatenate(rise), np.concatenate(fall), np.min(floors),
            np.max(peaks))


class _Integral:
    """A forward cursor over the trapezoidal cumulative integral of
    |z1(t)|, with the values of np.cumsum over the whole arc, bit for bit.

    Rows a:b, with a no smaller than the previous slice's first row, are
    summed by np.cumsum from the value at row a, which the previous slice
    holds or a walk on from its last row reaches a block at a time. Only
    the last slice is kept."""

    def __init__(self, c: dict):
        self._t, self._z1 = c["t"], c["z1"]
        self._lo, self._cum = 0, np.zeros(1)    # rows lo:lo + len(cum)

    def _sum(self, lo: int, hi: int, start: float) -> np.ndarray:
        """Rows lo:hi of the integral, from its value `start` at row lo."""
        a, t = np.abs(self._z1[lo:hi]), self._t[lo:hi]
        c = np.empty(hi - lo)
        c[0] = start
        c[1:] = 0.5 * (a[:-1] + a[1:]) * (t[1:] - t[:-1])
        return np.cumsum(c, out=c)

    def __getitem__(self, rows: slice) -> np.ndarray:
        while rows.start >= self._lo + len(self._cum):
            end = self._lo + len(self._cum) - 1
            self._cum = self._sum(end, min(end + model._BLOCK_ROWS + 1,
                                           rows.start + 1), self._cum[-1])
            self._lo = end
        self._cum = self._sum(rows.start, rows.stop,
                              self._cum[rows.start - self._lo])
        self._lo = rows.start
        return self._cum


def _interp_sorted(x: np.ndarray, t: np.ndarray, f: np.ndarray,
                   start: int) -> tuple:
    """np.interp(x, t, f), bit for bit, for sorted t and sorted x with
    x[0] >= t[start], reading t and f a block of rows at a time from
    `start` on (so f may be a forward cursor, _Integral). Returns the
    values and the row from which a next x, no smaller than x[-1], may
    start.

    Each x is interpolated between the same two rows of t as in the
    whole-array call: the rows start:stop bracket every x below
    t[stop - 1], and every x when stop is past the last row. One call of
    np.interp over the whole arc would copy all of t, a strided column of
    the arc's rows, into a contiguous array."""
    out = np.empty(len(x))
    n, k = len(t), 0
    while True:
        stop = min(start + model._BLOCK_ROWS + 1, n)
        cnt = (len(x) - k if stop == n
               else int(np.searchsorted(x[k:], t[stop - 1])))
        if cnt:
            out[k:k + cnt] = np.interp(x[k:k + cnt], t[start:stop],
                                       f[start:stop])
            k += cnt
        if k == len(x):
            return out, start
        start = stop - 1


def _within_cycle_pairs(jumps: list) -> list:
    """Successive WithinCycle jump records (j, j + 1) of a jump log sorted
    by j, so that no cycle jump lies between the two."""
    return [(a, b) for a, b in zip(jumps, jumps[1:])
            if b.j == a.j + 1 and a.kind is JumpKind.WITHIN_CYCLE
            and b.kind is JumpKind.WITHIN_CYCLE]


def _within_cycle_period(jumps: list) -> float:
    """Largest spacing between consecutive within-cycle jumps of one cycle
    in a jump log; the natural excitation period for the sliding mu
    window."""
    return max([0.0] + [b.t - a.t for a, b in _within_cycle_pairs(jumps)])


def extract_dwell(traj: HybridTrajectory, rows: slice = None) -> DwellReport:
    """Excitation intervals I_d = {t : |z1(t)| >= |z*|/2} over rows (step
    1) of traj, all of them by default.

    The threshold follows the per-sample reference magnitude, so the report
    is meaningful across cycle transitions. mu is the minimum over sliding
    windows of the average of |z1|; the window is one within-cycle period
    (or the full horizon if the trajectory contains no switching). Over
    part of the arc, the period is that of the jumps between its first and
    its last row.
    """
    if rows is None:
        rows = slice(0, len(traj))
    if rows.stop - rows.start < 2:
        raise NoExcitation("trajectory too short to classify")
    jumps = traj.jumps
    if rows != slice(0, len(traj)):
        j_lo, j_hi = (int(traj.block(r, r + 1)["j"][0])
                      for r in (rows.start, rows.stop - 1))
        jumps = [jr for jr in jumps if j_lo <= jr.j < j_hi]
    c = traj.block(rows.start, rows.stop)
    t = c["t"]
    starts, ends, z_under, z_bar = _excitation_pass(traj, rows)
    keep = t[ends] > t[starts]
    intervals = np.column_stack([t[starts[keep]], t[ends[keep]]])
    if intervals.size == 0:
        raise NoExcitation(f"no interval with |z1| >= "
                           f"{_EXCITATION_FLOOR} |z*|")

    lengths = intervals[:, 1] - intervals[:, 0]
    gaps = intervals[1:, 0] - intervals[:-1, 1]
    tau_s = float(gaps.max()) if gaps.size else 0.0

    window = _within_cycle_period(jumps)
    if window <= 0.0:
        window = float(t[-1] - t[0])
    # the windows start at the samples t <= t[-1] - window: a prefix of
    # the rows, since t does not decrease
    m = sum(int(np.count_nonzero(t[b] <= t[-1] - window))
            for b in _blocks(slice(0, len(t))))
    if m == 0:
        m = 1
        window = float(t[-1] - t[0])
    mu = 0.0
    if window > 0:
        # a window starts on a sample, where np.interp would return the
        # integral's own value (a t repeated at a jump has an equal one)
        means, hi_row = [], 0
        lo_cum, hi_cum = _Integral(c), _Integral(c)
        for b in _blocks(slice(0, m)):
            lo = lo_cum[b]
            hi, hi_row = _interp_sorted(t[b] + window, t, hi_cum, hi_row)
            means.append(((hi - lo) / window).min())
        mu = float(np.min(means))

    return DwellReport(
        intervals=intervals,
        tau_d=float(lengths.min()),
        tau_s=tau_s,
        z_under=float(z_under),
        z_bar=float(z_bar),
        mu=mu,
        window=window,
        assumption_holds=bool(mu > 0.0 and lengths.min() > 0.0),
    )


class _Vobs:
    """check_vobs_monotone's pass: the largest relative rise of V_obs
    between neighbouring rows, carrying the last row's V across blocks."""

    def __init__(self, cert: LyapunovCertificate):
        self._p = cert.P[0, 0], cert.P[0, 1], cert.P[1, 1]
        self._last, self._rises = None, []

    def feed(self, b: slice, c: dict):
        p11, p12, p22 = self._p
        zt1, zt2 = c["z_tilde1"], c["z_tilde2"]
        v = p11 * zt1 ** 2 + 2.0 * p12 * zt1 * zt2 + p22 * zt2 ** 2
        if self._last is not None:
            v = np.concatenate(([self._last], v))
        if v.size > 1:
            self._rises.append(
                (np.diff(v) / np.maximum(v[:-1], _TINY)).max())
        self._last = v[-1]

    def result(self) -> tuple[bool, float]:
        worst = float(np.max(self._rises)) if self._rises else 0.0
        return worst <= 1e-6, worst


class _PhiOracle:
    """check_phi_oracle's pass: per cycle, the largest |z_tilde - Phi
    z_tilde0| over its rows, with z_tilde0 read at the cycle's first
    row."""

    def __init__(self, traj: HybridTrajectory):
        self._cycles = list(cycle_slices(traj).values())
        self._start = {}                # index in _cycles -> (zt0, |zt0|)
        self._errs = {}

    def feed(self, b: slice, c: dict):
        zt1, zt2, phi = c["z_tilde1"], c["z_tilde2"], c["phi"]
        for k, sl in enumerate(self._cycles):
            lo, hi = max(sl.start, b.start), min(sl.stop, b.stop)
            if lo >= hi:
                continue
            if lo == sl.start:
                zt0 = np.array([zt1[lo - b.start], zt2[lo - b.start]])
                self._start[k] = zt0, np.linalg.norm(zt0)
            zt0, n0 = self._start[k]
            if n0 == 0.0:
                continue
            r = slice(lo - b.start, hi - b.start)
            pred1 = phi[r, 0] * zt0[0] + phi[r, 1] * zt0[1]
            pred2 = phi[r, 2] * zt0[0] + phi[r, 3] * zt0[1]
            self._errs.setdefault(k, []).append(
                np.hypot(zt1[r] - pred1, zt2[r] - pred2).max())

    def result(self) -> float:
        return max([0.0] + [float(np.max(errs)) / float(self._start[k][1])
                            for k, errs in sorted(self._errs.items())])


class _Envelope:
    """check_envelope's pass from the first row of from_cycle on: the last
    row where the bound fails and the margin since."""

    def __init__(self, traj: HybridTrajectory, decay: DecayCertificate,
                 from_cycle: int):
        self._t = traj.block(0, len(traj))["t"]
        self._first = first = cycle_slice(traj, from_cycle).start
        self._t0 = self._t[first]
        c = traj.block(first, first + 1)
        self._zt0 = math.hypot(c["z_tilde1"][0], c["z_tilde2"][0])
        self._decay = decay
        self._start, self._margin, self._zero = first, math.inf, True
        self._n = len(traj)

    def feed(self, b: slice, c: dict):
        lo = max(b.start, self._first)
        if lo >= b.stop:
            return
        zt1 = c["z_tilde1"][lo - b.start:]
        zt2 = c["z_tilde2"][lo - b.start:]
        if self._zt0 == 0.0:
            self._zero &= bool(np.all(np.hypot(zt1, zt2) == 0.0))
            return
        decay = self._decay
        log_bound = (math.log(decay.kappa1) + math.log(self._zt0)
                     - decay.kappa2 * decay.mu
                     * (self._t[lo:b.stop] - self._t0))
        with np.errstate(divide="ignore"):
            log_mag = np.log(np.hypot(zt1, zt2))
        fail = np.flatnonzero(~(log_mag <= log_bound))
        if fail.size:
            # the bound holds at every row after the block's last failure
            k = int(fail[-1]) + 1
            self._start, self._margin = lo + k, math.inf
            log_bound, log_mag = log_bound[k:], log_mag[k:]
        if log_bound.size:
            self._margin = min(self._margin,
                               float((log_bound - log_mag).min()))

    def result(self) -> dict:
        if self._zt0 == 0.0:
            ok = self._zero
            return {"envelope_ok": ok, "T": 0.0,
                    "margin": math.inf if ok else -math.inf}
        if self._start == self._n:
            return {"envelope_ok": False, "T": math.inf,
                    "margin": -math.inf}
        return {"envelope_ok": True,
                "T": float(self._t[self._start] - self._t0),
                "margin": self._margin}


class _Floor:
    """verify_bounds' progress pass: the smallest z2 + d/c."""

    def __init__(self, params: PlantParams):
        self._floor, self._gaps = params.z2_floor, []

    def feed(self, b: slice, c: dict):
        self._gaps.append((c["z2"] - self._floor).min())

    def result(self) -> float:
        return np.min(self._gaps)


def _closed_pass(traj: HybridTrajectory, checks: tuple,
                 start: int = 0) -> list:
    """Feed rows start: to each of `checks` a block at a time, with the
    block's columns read once for all of them, so its closed-form columns
    are evaluated once; returns their results."""
    for b in _blocks(slice(start, len(traj))):
        c = traj.block(b.start, b.stop)
        for check in checks:
            check.feed(b, c)
    return [check.result() for check in checks]


def check_vobs_monotone(traj: HybridTrajectory,
                        cert: LyapunovCertificate) -> tuple[bool, float]:
    """V_obs = z_tilde' P z_tilde non-increasing at every sample pair, to
    1e-6 relative.

    Returns (ok, worst relative violation); jumps leave z_tilde unchanged,
    so the check applies uniformly across the whole sample sequence.
    """
    return _closed_pass(traj, (_Vobs(cert),))[0]


def check_phi_oracle(traj: HybridTrajectory) -> float:
    """Max over completed cycles of ||z_tilde - Phi z_tilde0|| relative to
    ||z_tilde0|| at the cycle start (the transition-matrix contract), as a
    Python float."""
    return _closed_pass(traj, (_PhiOracle(traj),))[0]


def check_envelope(traj: HybridTrajectory, decay: DecayCertificate,
                   from_cycle: int) -> dict:
    """Exponential envelope |z_tilde(t)| <= k1 |z_tilde(t0)| e^{-k2 mu (t-t0)}.

    t0 is the start of from_cycle. T is reported empirically as the first
    sample time offset from which the bound holds at every later sample;
    the margin is the minimal log-space slack past t0 + T. One pass
    carries the last row where the bound fails and the margin since.
    """
    env = _Envelope(traj, decay, from_cycle)
    return _closed_pass(traj, (env,), env._first)[0]


def overshoot_comparison(traj: HybridTrajectory, params: PlantParams,
                         cfg: ControllerConfig, i_star: int):
    """Simulated z2 and its comparison bound over the initial phase of a
    cycle, as (ts, z2, bound) with ts the time since the cycle started.

    The comparison system dz2/dt = M (c z2 + d), M = max |z1| over cycle
    i_star, from z2(0) = (d/c + eps)/2^(i*-1), has the closed form
    z2(t) = (z2(0) + d/c) e^(M c t) - d/c; it is evaluated over the
    matched initial phase [t_c, t_c + T_lmin]: the rows from the cycle's
    first on with t <= t_c + T_lmin, past the cycle's end when the cycle
    is shorter. t never decreases, so they end where a search of t, a
    block at a time, first finds a later t.
    """
    if i_star < 1:
        raise CycleNotFound("comparison bound applies to cycles i >= 1")
    sl = cycle_slice(traj, i_star)
    arc = traj.block(0, len(traj))
    t = arc["t"]
    t_c = t[sl.start]
    c, d = params.c, params.d
    M = float(np.abs(arc["z1"][sl]).max())
    _, _, t_lmin = dwell_time_lower_bound(params, cfg, i_star)
    z2_0 = (d / c + cfg.epsilon) / 2.0 ** (i_star - 1)

    for b in _blocks(slice(sl.start, len(traj))):
        stop = b.start + int(np.searchsorted(t[b], t_c + t_lmin,
                                             side="right"))
        if stop < b.stop:
            break
    sel = slice(sl.start, stop)
    ts = t[sel] - t_c
    bound = z2_0 + (z2_0 + d / c) * np.expm1(M * c * np.clip(ts, 0.0, t_lmin))
    z2 = [traj.block(b.start, b.stop)["z2"] for b in _blocks(sel)]
    return ts, np.concatenate(z2), bound


def check_overshoot_bound(traj: HybridTrajectory, params: PlantParams,
                          cfg: ControllerConfig, i_star: int) -> bool:
    """Comparison-system bound on the z2 overshoot at the start of a cycle:
    the simulated z2 stays below the bound of overshoot_comparison."""
    _, z2, bound = overshoot_comparison(traj, params, cfg, i_star)
    return bool(np.all(z2 <= bound * (1.0 + 1e-9) + 1e-12))


def check_dwell_lower_bound(traj: HybridTrajectory, params: PlantParams,
                            cfg: ControllerConfig) -> tuple[bool, float]:
    """Within-cycle flow intervals vs. the closed-form dwell lower bound.

    For each cycle i >= 1, intervals between consecutive within-cycle jumps
    are checked against T_li once the trajectory has entered the per-cycle
    invariant set |z1| <= (z*_in / 2^(i-1))(1 + g(i-1)). Returns
    (ok, minimal interval/bound ratio).
    """
    min_ratio = math.inf
    pairs = _within_cycle_pairs(traj.jumps)
    arc = traj.block(0, len(traj))
    t, z1 = arc["t"], arc["z1"]
    for i, sl in cycle_slices(traj).items():
        if i < 1:
            continue
        z_bar_i = (cfg.z_star_init / 2.0 ** (i - 1)) * (1.0 + g_of(cfg, i - 1))
        for rows in _blocks(sl):
            inside = np.abs(z1[rows]) <= z_bar_i
            if inside.any():
                break
        else:
            continue
        t_entered = t[rows.start + int(inside.argmax())]
        t_first, t_last = t[sl.start], t[sl.stop - 1]
        _, t_li, _ = dwell_time_lower_bound(params, cfg, i)
        for a, b in pairs:
            if t_entered <= a.t <= t_last and t_first <= b.t <= t_last:
                min_ratio = min(min_ratio, (b.t - a.t) / t_li)
    return (min_ratio >= 1.0 - 1e-9 if math.isfinite(min_ratio) else True,
            min_ratio)


def check_zeno(traj: HybridTrajectory, t_lmin: float) -> tuple[bool, int]:
    """No window of one time unit contains more than 2 ceil(1/T_lmin)+1
    jumps. Returns (ok, max jumps observed in any window).

    The ceiling counts jumps per unit time (T_lmin is the floor of the
    within-cycle dwell), so the window is one time unit: a window of
    another length would be held to the wrong ceiling."""
    times = np.array(sorted(jr.t for jr in traj.jumps))
    if times.size == 0:
        return True, 0
    limit = 2 * math.ceil(1.0 / t_lmin) + 1
    hi = np.searchsorted(times, times + 1.0, side="right")
    worst = int((hi - np.arange(times.size)).max())
    return worst <= limit, worst


def verify_bounds(traj: HybridTrajectory, params: PlantParams,
                  cfg: ControllerConfig, cert: LyapunovCertificate,
                  decay: DecayCertificate, from_cycle: int) -> BoundReport:
    """All per-trajectory bound checks combined into one report. The
    checks that read z2, z_tilde or Phi (V_obs, the envelope, the Phi
    oracle and the progress floor) share one pass, which evaluates each
    block's closed-form columns once."""
    (mono, worst), env, phi_err, floor_gap = _closed_pass(
        traj, (_Vobs(cert), _Envelope(traj, decay, from_cycle),
               _PhiOracle(traj), _Floor(params)))
    dwell_ok, ratio = check_dwell_lower_bound(traj, params, cfg)
    _, _, t_lmin = dwell_time_lower_bound(params, cfg, 1)
    zeno_ok, zeno_worst = check_zeno(traj, t_lmin)
    return BoundReport(
        vobs_monotone=mono, vobs_worst_violation=worst,
        envelope_ok=env["envelope_ok"], envelope_T=env["T"],
        envelope_margin=env["margin"], phi_oracle_max_err=phi_err,
        dwell_ok=dwell_ok, dwell_min_ratio=ratio,
        zeno_ok=zeno_ok, zeno_max_jumps=zeno_worst,
        z2_floor_margin=float(floor_gap / -params.z2_floor))
