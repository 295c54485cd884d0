"""Hybrid execution engine and the jump sets it executes.

Alternates event-detected continuous integration (the compiled segment
kernel in fastpath) with guard-triggered jumps, starting from the
initialization rule of the algorithm, and assembles the result into a
HybridTrajectory ordered lexicographically in hybrid time (t, j).

The jump sets D_c, D_nc and the jump map live here too, with one function
per guard constant that in_Dc, in_Dnc and the kernel's segment record read.

The kernel writes t, tau and z1 of each row straight into the arc's flow
store, through a view of _INIT_BUFFER_ROWS rows past the stored ones,
reserves the interior rows of its recorded spans, and leaves an anchor
(fastpath AN_*: first row, mode, state) in the anchor store at each z1
root, where it anchors the closed form anew; from a segment start on it
goes on with the engine's anchor. After each call the engine fills the
reserved rows (emission.fill_spans) and counts the rows and anchors. So a
row costs 24 B, and an anchor 96 B; the engine adds an anchor at each row
it writes itself, which that row holds (AN_HELD). Each row is recorded
once, and only a jump instant has two rows, its pre- and post-jump points.
A call whose view fills pauses at a recorded point, and the next call goes
on from there with the same step size and anchor, so no row depends on the
view's size. Each store starts with room for the start row and the first
call's views and grows before a call by allocate-and-copy, at least
doubling. The stores and the kernel's span table live in anonymous memory
mapped in base pages (_Arc._buffer), so reserved capacity is resident only
in the 4 KB pages a run writes. j, cycle and z_star change only at jumps:
the run keeps one (first row, cycle, z_star) mark per run of rows, whose
index is j, and the trajectory reads j, cycle, z_star and the jump log off
those marks. Its t, tau and z1 are views of the flow store, and z2, z_tilde
and phi ClosedColumns that evaluate each row from its anchor when read
(emission.ClosedForm).
"""

from __future__ import annotations

import mmap

import numpy as np

from . import emission, fastpath
from .errors import (BadInitialBall, IllegalJump, StateOutOfDomain,
                     StepFailure, ZenoSuspected)
from .lyapunov import LyapunovCertificate
from .model import (ClosedColumn, ControllerConfig, HybridState,
                    HybridTrajectory, JumpKind, JumpRecord, MarkColumn,
                    ObserverGains, PlantParams, SolverConfig, g_of)

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
    A non-finite entry of z0 or z_hat0, whose norm no ball test would
    refuse, is refused by name.
    """
    z0 = np.asarray(z0, dtype=float)
    z_hat0 = np.asarray(z_hat0, dtype=float)
    if z0.shape != (2,) or z_hat0.shape != (2,):
        raise BadInitialBall("z0 and z_hat0 must be 2-vectors")
    for name, v in (("z0", z0), ("z_hat0", z_hat0)):
        if not np.isfinite(v).all():
            raise BadInitialBall(f"{name}={v.tolist()} has a non-finite "
                                 f"entry")
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
    """The rows of a run in flow (t, tau and z1 of every row), its anchors
    (fastpath.AN_*) in anchors and a (first row, cycle, z_star) mark per
    run of rows between jumps in marks: mark j opens the rows of jump
    counter j.

    The kernel writes into flow and anchors in place, through views();
    spans is its span table, which each call uses from row 0.
    Every array comes from _buffer, so its reserved capacity costs memory
    only where the run writes.
    """

    def __init__(self):
        # each descriptor comes with at least 2 rows
        self.spans = self._buffer(_INIT_BUFFER_ROWS // 2, fastpath.N_SP)
        # the start row and the first call's views
        self.flow = self._buffer(_INIT_BUFFER_ROWS + 1, 3)
        self.anchors = self._buffer(_INIT_BUFFER_ROWS + 2, fastpath.N_AN)
        self.marks = self._buffer(_INIT_BUFFER_ROWS // 2, 3)
        self.n = self.na = self.nm = 0

    @staticmethod
    def _buffer(rows: int, cols: int) -> np.ndarray:
        """A (rows, cols) float array over its own anonymous mapping, which
        the array keeps alive and which is unmapped with it.

        The pages are zero until written and become resident one 4 KB page
        at a time: the mapping is advised against transparent huge pages
        (MADV_NOHUGEPAGE, where mmap has it), which numpy requests for
        every array of 4 MB or more, and which would make a reserved
        view resident in 2 MB steps.
        """
        mem = mmap.mmap(-1, rows * cols * 8, **_MAP_PRIVATE)
        if hasattr(mmap, "MADV_NOHUGEPAGE"):
            mem.madvise(mmap.MADV_NOHUGEPAGE)
        return np.frombuffer(mem, float).reshape(rows, cols)

    @classmethod
    def _grow(cls, store: np.ndarray, used: int, more: int) -> np.ndarray:
        """store, or a copy of its first `used` rows in a new array of at
        least twice its rows, if `more` rows past them would not fit."""
        if used + more <= len(store):
            return store
        grown = cls._buffer(max(used + more, 2 * len(store)), store.shape[1])
        grown[:used] = store[:used]
        return grown

    def add_state(self, t: float, state: HybridState):
        """Write the row (t, state), a mark, and an anchor at the state in
        the mode the kernel starts from there, whose row holds the state
        (AN_HELD)."""
        self.marks = self._grow(self.marks, self.nm, 1)
        self.marks[self.nm] = (self.n, state.cycle, state.z_star)
        self.nm += 1
        self.flow = self._grow(self.flow, self.n, 1)
        self.anchors = self._grow(self.anchors, self.na, 1)
        y = _state_to_y(state)
        self.flow[self.n] = (t, *y[:2])
        self.na = fastpath._anchor(self.anchors, self.na, self.n,
                                   fastpath._sign(y[1], state.z_star), y, 1.0)
        self.n += 1

    def views(self) -> tuple:
        """A kernel call's views of the stores: flow through
        _INIT_BUFFER_ROWS rows past the stored ones, and anchors from the
        anchor in force on, with room for one more anchor than rows."""
        self.flow = self._grow(self.flow, self.n, _INIT_BUFFER_ROWS)
        self.anchors = self._grow(self.anchors, self.na,
                                  _INIT_BUFFER_ROWS + 1)
        return (self.flow[:self.n + _INIT_BUFFER_ROWS],
                self.anchors[self.na - 1:self.na + _INIT_BUFFER_ROWS + 1])

    def jump_t(self, k: int) -> float:
        """The time of jump k, the t of mark k + 1's first row."""
        return float(self.flow[int(self.marks[k + 1, 0]), 0])

    def trajectory(self, modes) -> HybridTrajectory:
        """The recorded arc under the run's two modes (run_constants): t,
        tau and z1 are views of flow, z2, z_tilde and phi ClosedColumns
        over flow and anchors, and j, cycle and z_star MarkColumns over the
        marks. Jump k is a NewCycle where mark k + 1 starts a new cycle,
        else a WithinCycle."""
        flow = self.flow[:self.n]
        closed = emission.ClosedForm(flow[:, 1], self.anchors[:self.na],
                                     np.array(modes))
        marks = self.marks[:self.nm]
        first, cyc = marks[:, :2].T.astype(np.int64)
        new = (cyc[1:] != cyc[:-1]).tolist()
        jumps = [JumpRecord(t=t, j=k, kind=JumpKind.NEW_CYCLE if new[k]
                            else JumpKind.WITHIN_CYCLE)
                 for k, t in enumerate(flow[first[1:], 0].tolist())]
        return HybridTrajectory(
            t=flow[:, 0], j=MarkColumn(first, np.arange(len(first)), self.n),
            cycle=MarkColumn(first, cyc, self.n), tau=flow[:, 1],
            z1=flow[:, 2], z2=ClosedColumn(closed, 0, self.n),
            z_tilde1=ClosedColumn(closed, 1, self.n),
            z_tilde2=ClosedColumn(closed, 2, self.n),
            z_star=MarkColumn(first, marks[:, 2].copy(), self.n),
            phi=ClosedColumn(closed, slice(3, 7), self.n), jumps=jumps)


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

    Records the samples after the start sample, which arc holds with its
    anchor (_Arc.add_state), into arc and returns (code, t_final,
    state_final). The kernel writes into arc.views(), _INIT_BUFFER_ROWS
    rows past the stored ones, which must exceed one step's worst case
    (fastpath.MAX_STEP_ROWS); a call that fills them pauses, and the next
    goes on bit for bit, so the arc does not depend on the buffer size.
    """
    if _INIT_BUFFER_ROWS <= fastpath.MAX_STEP_ROWS:
        raise ValueError(f"sample buffer of {_INIT_BUFFER_ROWS} rows cannot "
                         f"hold one step ({fastpath.MAX_STEP_ROWS} rows)")
    sc = (run, _segment_constants(params, cfg, cert, state))
    y = _state_to_y(state)
    ret = np.zeros(6)
    t_fin = t_start
    while True:
        flow, anchors = arc.views()
        fastpath.flow_segment(y, t_fin, sc, flow, arc.n, ret, arc.spans,
                              anchors)
        code, t_fin = int(ret[0]), float(ret[1])
        emission.fill_spans(arc.flow, arc.spans, int(ret[3]))
        arc.n, arc.na = int(ret[2]), arc.na + int(ret[4])
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

    The arc is held once, in the stores of the module docstring: the
    returned t, tau and z1 are views of the flow store, z2, z_tilde1,
    z_tilde2 and phi are evaluated from each row's anchor when read, and
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
        jumps = arc.nm - 1
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

    traj = arc.trajectory(run[2])
    traj.validate_domain()
    return traj
