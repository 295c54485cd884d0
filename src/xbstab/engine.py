"""Hybrid execution engine and the jump sets it executes.

Alternates event-detected continuous integration (the compiled segment
kernel in fastpath) with guard-triggered jumps, starting from the
initialization rule of the algorithm, and assembles the result into a
HybridTrajectory ordered lexicographically in hybrid time (t, j).

The jump sets D_c, D_nc and the jump map live here too, with one function
per guard constant that in_Dc, in_Dnc and the kernel's segment record read.

A run keeps its rows (t, y) in one (capacity, 10) array that the kernel
writes into directly, through a window that ends _INIT_BUFFER_ROWS rows
past the recorded ones. Each row is written once: a segment whose window
fills resumes from the last row the kernel recorded, and only a jump
instant has two rows, its pre- and post-jump points. The array starts
with room for the start row and the first window, and grows between
calls by allocate-and-copy, at least doubling, when a window would pass
its end. The row array, each grown copy of it and the kernel's span
table live in anonymous memory mapped in base pages (_Arc._buffer), so
reserved capacity is resident only in the 4 KB pages a run writes. j,
cycle and z_star change only at jumps: the run keeps one (first row,
cycle, z_star) mark per run of rows, whose index is j, and the trajectory
reads j, cycle, z_star and the jump log off those marks; its other
columns, phi included, are views of the rows.
"""

from __future__ import annotations

import mmap

import numpy as np

from . import emission, fastpath
from .errors import (BadInitialBall, IllegalJump, StateOutOfDomain,
                     StepFailure, ZenoSuspected)
from .lyapunov import LyapunovCertificate
from .model import (ControllerConfig, HybridState, HybridTrajectory,
                    JumpKind, JumpRecord, MarkColumn, ObserverGains,
                    PlantParams, SolverConfig, g_of)

_BALL_SLACK = 1.0 + 1e-12
_INIT_BUFFER_ROWS = 1 << 17
# private, so that forked CSV writers see the rows copy-on-write
_MAP_PRIVATE = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") \
    else {}


def initial_cycle(cfg: ControllerConfig, gamma: float) -> int:
    """Initial cycle index i0 = max{0, max{i : R_tilde <= eps g(i-1)/gamma}}.

    An exact initial estimate (R_tilde = 0) satisfies the inequality for
    every i; the result is then capped at max_cycles.
    """
    if cfg.R_tilde == 0.0:
        return cfg.max_cycles
    i0 = 0
    for cand in range(1, cfg.max_cycles + 1):
        if cfg.R_tilde <= cfg.epsilon * g_of(cfg, cand - 1) / gamma:
            i0 = cand
        else:
            break
    return i0


def initialize(params: PlantParams, gains: ObserverGains,
               cert: LyapunovCertificate, cfg: ControllerConfig,
               z0, z_hat0) -> HybridState:
    """Initial hybrid state from a plant state and an estimate.

    Checks the configured balls |z0| <= R and |z_hat0 - z0| <= R_tilde,
    picks the initial cycle index from the contraction schedule, and sets
    the initial reference opposite in sign to the estimate zhat2 (or to
    +z_star_init when no initialization cycle can be skipped, i0 = 0).
    """
    z0 = np.asarray(z0, dtype=float)
    z_hat0 = np.asarray(z_hat0, dtype=float)
    if z0.shape != (2,) or z_hat0.shape != (2,):
        raise BadInitialBall("z0 and z_hat0 must be 2-vectors")
    if np.linalg.norm(z0) > cfg.R * _BALL_SLACK:
        raise BadInitialBall(f"|z0|={np.linalg.norm(z0)} exceeds R={cfg.R}")
    z_tilde0 = z_hat0 - z0
    if np.linalg.norm(z_tilde0) > cfg.R_tilde * _BALL_SLACK:
        raise BadInitialBall(f"|z_hat0 - z0|={np.linalg.norm(z_tilde0)} "
                             f"exceeds R_tilde={cfg.R_tilde}")
    if z0[1] <= params.z2_floor:
        raise BadInitialBall(f"z2(0)={z0[1]} at or below -d/c="
                             f"{params.z2_floor}")
    i0 = initial_cycle(cfg, cert.gamma)
    if i0 == 0:
        z_star = cfg.z_star_init
    else:
        sign = 1.0 if z_hat0[1] < 0.0 else -1.0
        z_star = sign * cfg.z_star_init / 2.0 ** i0
    return HybridState(tau=0.0, cycle=i0, z=z0, z_tilde=z_tilde0,
                       z_star=z_star, phi=np.eye(2))


def _state_to_y(state: HybridState) -> np.ndarray:
    y = np.empty(9)
    y[0] = state.tau
    y[1:3] = state.z
    y[3:5] = state.z_tilde
    y[5:9] = state.phi.ravel()
    return y


def _y_to_state(y: np.ndarray, cycle: int, z_star: float) -> HybridState:
    return HybridState(tau=max(float(y[0]), 0.0), cycle=cycle,
                       z=y[1:3].copy(), z_tilde=y[3:5].copy(),
                       z_star=z_star, phi=y[5:9].reshape(2, 2).copy())


class _Arc:
    """The rows (t, y) of a run and a (first row, cycle, z_star) mark per
    run of rows between jumps: mark j opens the rows of jump counter j.

    The row array, its grown copies and the span table come from _buffer,
    so their reserved capacity costs memory only where the run writes.
    """

    def __init__(self):
        # the start row and the first window
        self.rows = self._buffer(_INIT_BUFFER_ROWS + 1, 10)
        self.n = 0
        self.marks = []
        # a window holds _INIT_BUFFER_ROWS rows, each descriptor at least 2
        self.spans = self._buffer(_INIT_BUFFER_ROWS // 2, fastpath.N_SP)

    @staticmethod
    def _buffer(rows: int, cols: int) -> np.ndarray:
        """A (rows, cols) float array over its own anonymous mapping, which
        the array keeps alive and which is unmapped with it.

        The pages are zero until written and become resident one 4 KB page
        at a time: the mapping is advised against transparent huge pages
        (MADV_NOHUGEPAGE, where mmap has it), which numpy requests for
        every array of 4 MB or more, and which would make a reserved
        window resident in 2 MB steps.
        """
        mem = mmap.mmap(-1, rows * cols * 8, **_MAP_PRIVATE)
        if hasattr(mmap, "MADV_NOHUGEPAGE"):
            mem.madvise(mmap.MADV_NOHUGEPAGE)
        return np.frombuffer(mem, float).reshape(rows, cols)

    def window(self) -> np.ndarray:
        """The rows up to _INIT_BUFFER_ROWS past the recorded ones, after
        growing the array by copying the recorded rows into a new one."""
        end = self.n + _INIT_BUFFER_ROWS
        if end > len(self.rows):
            grown = self._buffer(max(end, 2 * len(self.rows)), 10)
            grown[:self.n] = self.rows[:self.n]
            self.rows = grown
        return self.rows[:end]

    def add_state(self, t: float, state: HybridState):
        self.marks.append((self.n, state.cycle, state.z_star))
        self.window()[self.n] = (t, *_state_to_y(state))
        self.n += 1

    def jump_t(self, k: int) -> float:
        """The time of jump k, the t of mark k + 1's first row."""
        return float(self.rows[self.marks[k + 1][0], 0])

    def trajectory(self) -> HybridTrajectory:
        """The recorded arc: every float column is a view of the rows, and
        j, cycle and z_star are MarkColumns over the marks. Jump k is a
        NewCycle where mark k + 1 starts a new cycle, else a WithinCycle."""
        data = self.rows[:self.n]
        first, cyc, zs = zip(*self.marks)
        first = np.array(first, np.int64)
        jumps = [JumpRecord(t=self.jump_t(k), j=k,
                            kind=JumpKind.NEW_CYCLE if cyc[k + 1] != cyc[k]
                            else JumpKind.WITHIN_CYCLE)
                 for k in range(len(first) - 1)]
        return HybridTrajectory(
            t=data[:, 0], j=MarkColumn(first, np.arange(len(first)), self.n),
            cycle=MarkColumn(first, np.array(cyc, np.int64), self.n),
            tau=data[:, 1], z1=data[:, 2], z2=data[:, 3],
            z_tilde1=data[:, 4], z_tilde2=data[:, 5],
            z_star=MarkColumn(first, np.array(zs, float), self.n),
            phi=data[:, 6:10], jumps=jumps)


def _dc_threshold(params: PlantParams, cfg: ControllerConfig,
                  z_star: float) -> float:
    """The D_c threshold d|z*|/(c z*_in) on |zhat2|."""
    return params.d * abs(z_star) / (params.c * cfg.z_star_init)


def _contraction_bound(cfg: ControllerConfig, cert: LyapunovCertificate,
                       cycle: int) -> float:
    """lambda_min h(i)^2, D_nc's bound on ||Phi' P Phi||_2 in cycle i."""
    h_i = cfg.h_of(cycle, cert.gamma)
    return float(cert.lambda_min * h_i * h_i)


def in_Dc(params: PlantParams, cfg: ControllerConfig,
          state: HybridState) -> bool:
    """Within-cycle jump set: |zhat2| >= d|z*|/(c z*_in) and zhat2 z* >= 0."""
    zhat2 = state.z[1] + state.z_tilde[1]
    thr = _dc_threshold(params, cfg, state.z_star)
    return abs(zhat2) >= thr and zhat2 * state.z_star >= 0.0


def phi_contraction_norm(cert: LyapunovCertificate,
                         phi: np.ndarray) -> float:
    """||Phi' P Phi||_2^(1/2), the verifiable error-contraction measure."""
    return float(np.sqrt(np.linalg.norm(phi.T @ cert.P @ phi, 2)))


def in_Dnc(params: PlantParams, cfg: ControllerConfig,
           cert: LyapunovCertificate, state: HybridState) -> bool:
    """Cycle-transition jump set: |zhat2| <= the D_c threshold, zhat2 z* <= 0
    and certified contraction ||Phi' P Phi||_2 <= lambda_min h(i)^2."""
    zhat2 = state.z[1] + state.z_tilde[1]
    thr = _dc_threshold(params, cfg, state.z_star)
    if abs(zhat2) > thr or zhat2 * state.z_star > 0.0:
        return False
    return phi_contraction_norm(cert, state.phi) ** 2 \
        <= _contraction_bound(cfg, cert, state.cycle)


def jump_map(state: HybridState, which: JumpKind) -> HybridState:
    """Reset map G: sign flip of z* within a cycle, halving at a new cycle.

    z and z_tilde are continuous variables and never change across jumps.
    Guard preconditions are the caller's duty (simulate jumps on the
    kernel's guard verdict); only structural legality is enforced here.
    """
    if which is JumpKind.WITHIN_CYCLE:
        return state.replace(z_star=-state.z_star)
    if which is JumpKind.NEW_CYCLE:
        return state.replace(tau=0.0, cycle=state.cycle + 1,
                             z_star=state.z_star / 2.0, phi=np.eye(2))
    raise IllegalJump(f"unknown jump kind {which!r}")


def _segment_constants(params, cfg, cert, state) -> tuple:
    """The segment part of the kernel's record (fastpath docstring): z*,
    the D_c threshold and the contraction bound for the state's cycle."""
    z_star = float(state.z_star)
    return (z_star, _dc_threshold(params, cfg, z_star),
            _contraction_bound(cfg, cert, state.cycle))


def _run_segment(params, cert, cfg, run, state, t_start, arc):
    """Flow from (t_start, state) until an event or the horizon, with the
    run's constants `run` (fastpath.run_constants).

    Records the samples after the start sample into arc and returns
    (code, t_final, state_final). The kernel writes them
    straight into arc.window() from row arc.n on: the _INIT_BUFFER_ROWS
    rows past arc.n, which must exceed one step's worst case
    (fastpath.MAX_STEP_ROWS). When they fill, the kernel has recorded the
    point it stopped at, and the segment resumes from it in a new window
    without writing a row, so each flow instant is recorded once.
    """
    if _INIT_BUFFER_ROWS <= fastpath.MAX_STEP_ROWS:
        raise ValueError(f"sample buffer of {_INIT_BUFFER_ROWS} rows cannot "
                         f"hold one step ({fastpath.MAX_STEP_ROWS} rows)")
    sc = (run, _segment_constants(params, cfg, cert, state))
    y = _state_to_y(state)
    ret = np.zeros(4)
    t_fin = t_start
    while True:
        buf = arc.window()
        fastpath.flow_segment(y, t_fin, sc, buf, arc.n, ret, arc.spans)
        code, t_fin = int(ret[0]), float(ret[1])
        arc.n = int(ret[2])
        if ret[3] > 0:
            emission.fill_spans(buf, arc.spans, int(ret[3]))
        if code != fastpath.CODE_BUFFER_FULL:
            break
    if code == fastpath.CODE_DOMAIN:
        raise StateOutOfDomain(
            f"z2 reached -d/c={params.z2_floor} at t={t_fin}")
    if code == fastpath.CODE_STEP_FAILURE:
        raise StepFailure(f"step size underflow at t={t_fin}")
    return code, t_fin, _y_to_state(y, state.cycle, state.z_star)


def simulate(params: PlantParams, gains: ObserverGains,
             cert: LyapunovCertificate, cfg: ControllerConfig,
             solver: SolverConfig, z0, z_hat0, k: float) -> HybridTrajectory:
    """Execute the closed loop as a hybrid arc.

    Runs until t_end, convergence (|z| + |z_tilde| < abs_tol), or the cycle
    index reaches max_cycles, whichever comes first, with a sliding-window
    Zeno guard, under the control gain k (cli.build_scenario takes it from
    the config or from model.derive_control_gain).

    Boundary convention: every jump is taken on the kernel's verdict. A
    flow segment ends at the kernel's located event, which lies on the
    guard-true side of the boundary (fastpath._bisect_guard), and the jump
    is taken there. The next segment starts with the kernel's guard test
    of its start point (fastpath._guard_any), so a chained jump is a
    segment that returns a guard code without advancing t; the jump at
    t = 0 from an initial state in D_c is one. A WithinCycle flip leaves
    |zhat2| just above the D_c threshold, outside D_nc, so a NewCycle
    never chains onto it at |zhat2| = thr. More than 4 chained jumps in a
    row raise ZenoSuspected, and a WithinCycle chained onto a WithinCycle
    raises IllegalJump.

    The arc is held once, in the array of the module docstring: the
    returned columns t, tau, z1 to z_tilde2 and phi are views of it, and
    j, cycle, z_star and the jump log are read off one (first row, cycle,
    z_star) mark per jump and one for the start (_Arc.trajectory).
    """
    state = initialize(params, gains, cert, cfg, z0, z_hat0)
    run = fastpath.run_constants(params, gains, k, cert, solver)
    arc = _Arc()
    arc.add_state(0.0, state)

    t = 0.0
    kind = None                 # of the last jump
    chained = 0                 # jumps in a row from segments without flow
    lo = 0                      # the first jump in the Zeno window

    while True:
        t_start = t
        code, t, state = _run_segment(params, cert, cfg, run, state, t, arc)
        if code == fastpath.CODE_HORIZON or code == fastpath.CODE_CONVERGED:
            break
        last = kind
        kind = JumpKind.WITHIN_CYCLE if code == fastpath.CODE_DC \
            else JumpKind.NEW_CYCLE
        if t > t_start:
            chained = 0
        else:
            chained += 1
            if kind is JumpKind.WITHIN_CYCLE and last is kind:
                raise IllegalJump(
                    f"within-cycle guard re-fired without flow at t={t}")
        state = jump_map(state, kind)
        arc.add_state(t, state)
        jumps = len(arc.marks) - 1
        while lo < jumps and arc.jump_t(lo) < t - solver.zeno_window:
            lo += 1
        if jumps - lo > solver.zeno_max_jumps:
            raise ZenoSuspected(
                f"{jumps - lo} jumps within {solver.zeno_window} time units "
                f"around t={t}")
        if kind is JumpKind.NEW_CYCLE and state.cycle >= cfg.max_cycles:
            break
        if chained > 4:
            raise ZenoSuspected(
                f"more than 4 chained jumps without flow at t={t}")

    traj = arc.trajectory()
    traj.validate_domain()
    return traj
