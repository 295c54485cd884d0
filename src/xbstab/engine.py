"""Hybrid execution engine.

Alternates event-detected continuous integration (the compiled segment
kernel in fastpath) with guard-triggered jumps, starting from the
initialization rule of the algorithm, and assembles the result into a
HybridTrajectory ordered lexicographically in hybrid time (t, j).
"""

from __future__ import annotations

import collections
from dataclasses import dataclass

import numpy as np

from . import fastpath
from .dynamics import in_Dc, in_Dnc, jump_map
from .errors import (BadInitialBall, IllegalJump, StateOutOfDomain,
                     StepFailure, ZenoSuspected)
from .lyapunov import LyapunovCertificate
from .model import (ControllerConfig, HybridState, HybridTrajectory,
                    JumpKind, JumpRecord, ObserverGains, PlantParams,
                    SolverConfig, derive_control_gain, g_of)

_BALL_SLACK = 1.0 + 1e-12
_INIT_BUFFER_ROWS = 1 << 17


@dataclass(frozen=True)
class EventRecord:
    """A localized guard activation terminating a flow segment."""

    t: float
    j: int                      # jump counter before the jump
    guard: str                  # "Dc" or "Dnc"
    bracket_width: float


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


def _sample_row(t: float, y: np.ndarray) -> np.ndarray:
    row = np.empty((1, 10))
    row[0, 0] = t
    row[0, 1:] = y
    return row


class _Recorder:
    """Accumulates (samples, j, cycle, z_star) blocks and jump records."""

    def __init__(self):
        self.blocks = []
        self.jumps = []

    def add(self, samples: np.ndarray, j: int, cycle: int, z_star: float):
        if samples.shape[0]:
            self.blocks.append((samples, j, cycle, z_star))

    def add_state(self, t: float, state: HybridState, j: int):
        self.add(_sample_row(t, _state_to_y(state)), j, state.cycle,
                 state.z_star)

    def trajectory(self) -> HybridTrajectory:
        if not self.blocks:
            raise ValueError("empty trajectory")
        data = np.concatenate([b[0] for b in self.blocks])
        j = np.concatenate([np.full(b[0].shape[0], b[1], dtype=np.int64)
                            for b in self.blocks])
        cyc = np.concatenate([np.full(b[0].shape[0], b[2], dtype=np.int64)
                              for b in self.blocks])
        zs = np.concatenate([np.full(b[0].shape[0], b[3])
                             for b in self.blocks])
        return HybridTrajectory(
            t=data[:, 0], j=j, cycle=cyc, tau=data[:, 1],
            z1=data[:, 2], z2=data[:, 3],
            z_tilde1=data[:, 4], z_tilde2=data[:, 5],
            z_star=zs, phi=data[:, 6:10].copy(), jumps=self.jumps)


def _run_segment(params, gains, cert, cfg, solver, k, state, t_start,
                 recorder, j, buf):
    """Flow from (t_start, state) until an event or the horizon.

    Appends all recorded samples (excluding the start sample) to the
    recorder and returns (code, t_final, state_final, bracket_width).
    buf must hold more than one step's worst-case output
    (fastpath.MAX_STEP_ROWS); the segment resumes as often as it fills.
    """
    if buf.shape[0] <= fastpath.MAX_STEP_ROWS:
        raise ValueError(f"sample buffer of {buf.shape[0]} rows cannot hold "
                         f"one step ({fastpath.MAX_STEP_ROWS} rows)")
    sc = fastpath.pack_scalars(
        params, gains, k, state.z_star, cfg.z_star_init,
        cfg.h_of(state.cycle, cert.gamma), cert, solver, solver.t_end)
    y = _state_to_y(state)
    ret = np.empty(4)
    t = t_start
    while True:
        fastpath.flow_segment(y, t, sc, buf, 0, ret)
        code, t_fin, n = int(ret[0]), float(ret[1]), int(ret[2])
        recorder.add(buf[:n].copy(), j, state.cycle, state.z_star)
        if code != fastpath.CODE_BUFFER_FULL:
            break
        # resume from the interrupted point; re-anchor recording there
        t = t_fin
        recorder.add(_sample_row(t, y), j, state.cycle, state.z_star)
    if code == fastpath.CODE_DOMAIN:
        raise StateOutOfDomain(
            f"z2 reached -d/c={params.z2_floor} at t={t_fin}")
    if code == fastpath.CODE_STEP_FAILURE:
        raise StepFailure(f"step size underflow at t={t_fin}")
    return code, t_fin, _y_to_state(y, state.cycle, state.z_star), \
        float(ret[3])


def integrate_flow(params: PlantParams, gains: ObserverGains,
                   cert: LyapunovCertificate, cfg: ControllerConfig,
                   solver: SolverConfig, state: HybridState,
                   t_start: float, j: int, k: float = None):
    """Integrate one flow segment; stop at the first guard activation.

    Returns (segment trajectory, EventRecord or None); None means the
    horizon t_end was reached (or the convergence stop fired) first. The
    segment includes the start sample and, on an event, the pre-jump sample
    at the event instant.
    """
    if k is None:
        k = derive_control_gain(params, cfg, cert.gamma)
    rec = _Recorder()
    rec.add_state(t_start, state, j)
    buf = np.empty((_INIT_BUFFER_ROWS, 10))
    code, t_fin, end_state, width = _run_segment(
        params, gains, cert, cfg, solver, k, state, t_start, rec, j, buf)
    event = None
    if code == fastpath.CODE_DC:
        event = EventRecord(t=t_fin, j=j, guard="Dc", bracket_width=width)
    elif code == fastpath.CODE_DNC:
        event = EventRecord(t=t_fin, j=j, guard="Dnc", bracket_width=width)
    return rec.trajectory(), event


def simulate(params: PlantParams, gains: ObserverGains,
             cert: LyapunovCertificate, cfg: ControllerConfig,
             solver: SolverConfig, z0, z_hat0,
             k: float = None) -> HybridTrajectory:
    """Execute the closed loop as a hybrid arc.

    Runs until t_end, convergence (|z| + |z_tilde| < abs_tol), or the cycle
    index reaches max_cycles, whichever comes first, with a sliding-window
    Zeno guard. The control gain defaults to derive_control_gain; passing k
    overrides it (the nominal scenario uses a hand-tuned fixed gain).

    Boundary convention: a flow segment ends at the kernel's located event,
    which lies on the guard-true side of the boundary
    (fastpath._bisect_guard). The jump is taken there, and the closed sets
    in_Dc/in_Dnc are then tested for chained jumps. A WithinCycle flip
    therefore leaves |zhat2| just above the D_c threshold, outside D_nc,
    and a NewCycle never chains onto it at |zhat2| = thr.
    """
    if k is None:
        k = derive_control_gain(params, cfg, cert.gamma)
    state = initialize(params, gains, cert, cfg, z0, z_hat0)
    rec = _Recorder()
    rec.add_state(0.0, state, 0)

    t, j = 0.0, 0
    buf = np.empty((_INIT_BUFFER_ROWS, 10))
    window = collections.deque()

    def note_jump(tj):
        window.append(tj)
        while window and window[0] < tj - solver.zeno_window:
            window.popleft()
        if len(window) > solver.zeno_max_jumps:
            raise ZenoSuspected(
                f"{len(window)} jumps within {solver.zeno_window} time units "
                f"around t={tj}")

    def do_jump(kind):
        nonlocal state, j
        pre = state
        state = jump_map(state, kind)
        rec.jumps.append(JumpRecord(t=t, j=j, kind=kind))
        j += 1
        rec.add_state(t, state, j)
        note_jump(t)
        if kind is JumpKind.WITHIN_CYCLE and in_Dc(params, cfg, state):
            raise IllegalJump(
                f"within-cycle guard re-fired without flow at t={t} "
                f"(z_star {pre.z_star} -> {state.z_star})")

    while True:
        # drain guard memberships at the current point (chained jumps)
        chained = 0
        hit_cap = False
        while True:
            if in_Dc(params, cfg, state):
                do_jump(JumpKind.WITHIN_CYCLE)
            elif in_Dnc(params, cfg, cert, state):
                do_jump(JumpKind.NEW_CYCLE)
                if state.cycle >= cfg.max_cycles:
                    hit_cap = True
                    break
            else:
                break
            chained += 1
            if chained > 4:
                raise ZenoSuspected(
                    f"more than 4 chained jumps without flow at t={t}")
        if hit_cap or t >= solver.t_end:
            break

        code, t, state, width = _run_segment(
            params, gains, cert, cfg, solver, k, state, t, rec, j, buf)
        if code == fastpath.CODE_HORIZON or code == fastpath.CODE_CONVERGED:
            break
        # guard event: jump on the kernel's verdict at the localized point
        kind = JumpKind.WITHIN_CYCLE if code == fastpath.CODE_DC \
            else JumpKind.NEW_CYCLE
        do_jump(kind)
        if kind is JumpKind.NEW_CYCLE and state.cycle >= cfg.max_cycles:
            break

    traj = rec.trajectory()
    traj.validate_domain()
    return traj
