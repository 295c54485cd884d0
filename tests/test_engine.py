"""Unit tests for initialization, flow-segment integration and the hybrid
execution loop, with a scipy reference integration as oracle."""

import dataclasses
import math
import mmap
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from xbstab import (BadInitialBall, HybridState, JumpKind, SolverConfig,
                    StateOutOfDomain, ZenoSuspected, engine, fastpath,
                    initialize, simulate)
from xbstab.analysis import cycle_slice
from xbstab.cli import build_scenario
from xbstab.engine import _Arc, _run_segment, initial_cycle
from xbstab.errors import IllegalJump
from xbstab.model import MarkColumn, g_of

from flow_oracles import flow_map
from test_model import make_cfg


class TestInitialCycle:
    def test_zero_error_caps_at_max_cycles(self, sv_cert):
        cfg = make_cfg(R_tilde=0.0, max_cycles=9)
        assert initial_cycle(cfg, sv_cert.gamma) == 9

    def test_thresholds_follow_contraction_schedule(self, sv_cert):
        gamma = sv_cert.gamma
        for i0 in range(0, 5):
            cfg_probe = make_cfg()
            hi = cfg_probe.epsilon * g_of(cfg_probe, i0 - 1) / gamma \
                if i0 >= 1 else math.inf
            lo = cfg_probe.epsilon * g_of(cfg_probe, i0) / gamma
            r = 0.5 * (lo + hi) if math.isfinite(hi) else 2 * lo
            cfg = make_cfg(R_tilde=r)
            assert initial_cycle(cfg, gamma) == i0, f"R_tilde={r}"


class TestInitialize:
    def test_nominal_start(self, sv_params, sv_gains, sv_cert):
        cfg = make_cfg()
        s = initialize(sv_params, sv_gains, sv_cert, cfg,
                       [0.0, 0.3], [0.0, 0.7])
        assert s.cycle == 0 and s.z_star == 75.0
        assert s.tau == 0.0
        assert np.allclose(s.z_tilde, [0.0, 0.4])
        assert np.array_equal(s.phi, np.eye(2))

    def test_skipped_cycles_set_opposing_reference(self, sv_params,
                                                   sv_gains, sv_cert):
        cfg = make_cfg(R_tilde=1e-4)
        i0 = initial_cycle(cfg, sv_cert.gamma)
        assert i0 >= 1
        up = initialize(sv_params, sv_gains, sv_cert, cfg,
                        [0.0, 0.3], [0.0, 0.3 - 1e-4])   # zhat2 > 0? no: .2999
        assert up.cycle == i0
        assert up.z_star == -75.0 / 2.0 ** i0            # zhat2 positive
        down = initialize(sv_params, sv_gains, sv_cert, cfg,
                          [0.0, -0.3], [0.0, -0.3 + 1e-4])
        assert down.z_star == 75.0 / 2.0 ** i0           # zhat2 negative

    @pytest.mark.parametrize("z0,z_hat0", [
        ([3.0, 0.0], [3.0, 0.1]),          # |z0| > R
        ([0.0, 0.3], [0.0, 1.5]),          # |z_hat0 - z0| > R_tilde
        ([0.0, -0.6], [0.0, -0.2]),        # z2 below -d/c
        ([0.0], [0.0, 0.0]),               # wrong shape
    ])
    def test_rejections(self, sv_params, sv_gains, sv_cert, z0, z_hat0):
        with pytest.raises(BadInitialBall):
            initialize(sv_params, sv_gains, sv_cert, make_cfg(),
                       z0, z_hat0)


def _off_guard_state(sv_params, sv_gains, sv_cert):
    cfg = make_cfg()
    return cfg, initialize(sv_params, sv_gains, sv_cert, cfg,
                           [0.5, 0.3], [0.5, 0.35])


# the references below cross at most one z1 root; the cap stops one that
# creeps forward by rounding-sized steps within seconds
_REFERENCE_MAX_RESTARTS = 100


def _reference_end(sv_params, sv_gains, y0, t_end):
    """State at t_end by scipy DOP853 at rtol 1e-12 (k = 500, z* = 75),
    restarted at each z1 sign change, where |z1| and the error flow have a
    kink.

    After a root the event only watches for a crossing the other way, so
    a restart on the root (z1 within rounding of 0, on either side) steps
    past it instead of stopping there again. A restart that makes no
    progress fails at once, and the number of restarts is capped."""
    def rhs(_, y):
        s = HybridState(tau=max(y[0], 0.0), cycle=0, z=y[1:3],
                        z_tilde=y[3:5], z_star=75.0,
                        phi=y[5:9].reshape(2, 2))
        d = flow_map(sv_params, sv_gains, 500.0, s)
        return [d.d_tau, d.d_z1, d.d_z2, *d.d_z_tilde, *d.d_phi.ravel()]

    def z1_root(_, y):
        return y[1]

    z1_root.terminal = True
    z1_root.direction = 0.0
    t, y = 0.0, list(y0)
    for _ in range(_REFERENCE_MAX_RESTARTS):
        sol = solve_ivp(rhs, (t, t_end), y, rtol=1e-12, atol=1e-14,
                        method="DOP853", events=z1_root)
        assert sol.status >= 0, sol.message
        if sol.status == 0:
            return sol.y[:, -1]
        # a root at the start point is stepped over by this change of
        # direction; a second stop there means the restart cannot proceed
        direction = -np.sign(rhs(sol.t[-1], sol.y[:, -1])[1])
        assert sol.t[-1] > t or direction != z1_root.direction, (
            f"reference restart at t={t} made no progress")
        t, y = sol.t[-1], sol.y[:, -1]
        z1_root.direction = direction
    raise AssertionError(f"reference needed over {_REFERENCE_MAX_RESTARTS} "
                         f"restarts to reach t={t_end}")


def integrate_flow(params, gains, cert, cfg, solver, state, t_start, k):
    """One flow segment through engine._run_segment, as (segment, event).

    The segment includes the start sample; event is None at the horizon,
    else its guard ("Dc" or "Dnc") and time."""
    arc = _Arc()
    arc.add_state(t_start, state)
    code, t_fin, _ = _run_segment(
        params, cert, cfg, fastpath.run_constants(params, gains, k, cert,
                                                  solver),
        state, t_start, arc)
    event = None
    if code in (fastpath.CODE_DC, fastpath.CODE_DNC):
        event = SimpleNamespace(
            t=t_fin, guard="Dc" if code == fastpath.CODE_DC else "Dnc")
    return arc.trajectory(), event


class TestIntegrateFlow:
    def test_matches_reference_integrator(self, sv_params, sv_gains,
                                          sv_cert):
        cfg, state = _off_guard_state(sv_params, sv_gains, sv_cert)
        t_end = 5e-4
        solver = SolverConfig(max_step=5.4e-5, t_end=t_end)
        seg, event = integrate_flow(sv_params, sv_gains, sv_cert, cfg,
                                    solver, state, 0.0, k=500.0)
        assert event is None
        assert seg.t[0] == 0.0 and seg.t[-1] == pytest.approx(t_end)

        y0 = [0.0, 0.5, 0.3, 0.0, 0.05, 1.0, 0.0, 0.0, 1.0]
        ref = _reference_end(sv_params, sv_gains, y0, t_end)
        got = np.array([seg.tau[-1], seg.z1[-1], seg.z2[-1],
                        seg.z_tilde1[-1], seg.z_tilde2[-1], *seg.phi[-1]])
        assert np.allclose(got, ref, rtol=1e-7, atol=1e-10)

    def test_tau_across_z1_sign_change(self, sv_params, sv_gains, sv_cert):
        """A step across a z1 root integrates tau through the kink of |z1|;
        tau must still match the reference restarted at the root."""
        cfg, state = _off_guard_state(sv_params, sv_gains, sv_cert)
        state = dataclasses.replace(state, z=np.array([-0.05, 0.3]))
        t_end = 5e-4
        solver = SolverConfig(max_step=5.4e-5, t_end=t_end)
        seg, event = integrate_flow(sv_params, sv_gains, sv_cert, cfg,
                                    solver, state, 0.0, k=500.0)
        assert event is None
        assert seg.z1[0] < 0.0 < seg.z1[-1]
        assert np.count_nonzero(np.diff(np.sign(seg.z1))) == 1

        y0 = [0.0, -0.05, 0.3, 0.0, 0.05, 1.0, 0.0, 0.0, 1.0]
        ref = _reference_end(sv_params, sv_gains, y0, t_end)
        assert seg.tau[-1] == pytest.approx(ref[0], rel=1e-9)

    def test_segment_starting_on_z1_root(self, sv_params, sv_gains,
                                         sv_cert):
        """z1 = -1e-15 with z* > 0 sits on a root that the flow leaves
        upwards at once: the kernel switches the closed form to z1 > 0 at
        the start instead of stepping to a root 3e-20 s away, and the
        segment still matches the reference started at the same point."""
        cfg, state = _off_guard_state(sv_params, sv_gains, sv_cert)
        state = dataclasses.replace(state, z=np.array([-1e-15, 0.3]))
        t_end = 5e-4
        solver = SolverConfig(max_step=5.4e-5, t_end=t_end)
        seg, event = integrate_flow(sv_params, sv_gains, sv_cert, cfg,
                                    solver, state, 0.0, k=500.0)
        assert event is None
        assert np.all(seg.z1[1:] > 0.0)

        y0 = [0.0, -1e-15, 0.3, 0.0, 0.05, 1.0, 0.0, 0.0, 1.0]
        ref = _reference_end(sv_params, sv_gains, y0, t_end)
        got = np.array([seg.tau[-1], seg.z1[-1], seg.z2[-1],
                        seg.z_tilde1[-1], seg.z_tilde2[-1], *seg.phi[-1]])
        assert np.allclose(got, ref, rtol=1e-7, atol=1e-10)

    def test_event_localization(self, sv_params, sv_gains, sv_cert):
        cfg, state = _off_guard_state(sv_params, sv_gains, sv_cert)
        solver = SolverConfig(max_step=5.4e-5, t_end=0.05, event_tol=1e-9)
        seg, event = integrate_flow(sv_params, sv_gains, sv_cert, cfg,
                                    solver, state, 0.0, k=500.0)
        assert event is not None and event.guard == "Dc"
        assert 0.0 < event.t < 0.05
        # the bisection at event_tol 1e-9 stops on a bracket that holds
        # the one at 1e-13, whose upper end is the finer event
        _, fine = integrate_flow(sv_params, sv_gains, sv_cert, cfg,
                                 dataclasses.replace(solver, event_tol=1e-13),
                                 state, 0.0, k=500.0)
        assert 0.0 <= event.t - fine.t <= 1e-9
        assert seg.t[-1] == pytest.approx(event.t)
        # at the event, the estimate has reached the threshold band
        thr = sv_params.d / sv_params.c
        zhat2 = seg.z2[-1] + seg.z_tilde2[-1]
        assert zhat2 == pytest.approx(thr, abs=1e-5)

    def test_first_window_fits_the_first_array(self, sv_initial, sv_params,
                                               sv_gains, sv_cert):
        """The arc's first array holds the start row and the first window,
        so the first segment's window does not reallocate it; the next
        window grows it."""
        arc = _Arc()
        first = arc.rows
        state = initialize(sv_params, sv_gains, sv_cert, make_cfg(),
                           *sv_initial)
        arc.add_state(0.0, state)
        assert len(arc.window()) == 1 + engine._INIT_BUFFER_ROWS
        assert arc.rows is first
        arc.n += 1
        assert len(arc.window()) == 2 + engine._INIT_BUFFER_ROWS
        assert arc.rows is not first

    def test_buffer_resume_is_seamless(self, monkeypatch, sv_params,
                                       sv_gains, sv_cert):
        """A tiny kernel window forces mid-segment resumes; the recorded
        samples must be identical to a single-pass run."""
        cfg, state = _off_guard_state(sv_params, sv_gains, sv_cert)
        solver = SolverConfig(max_step=5.4e-5, t_end=5e-4)
        run = fastpath.run_constants(sv_params, sv_gains, 500.0, sv_cert,
                                     solver)
        big = _Arc()
        code_a, t_a, end_a = _run_segment(sv_params, sv_cert, cfg, run,
                                          state, 0.0, big)
        monkeypatch.setattr(engine, "_INIT_BUFFER_ROWS",
                            fastpath.MAX_STEP_ROWS + 104)
        small = _Arc()
        code_b, t_b, end_b = _run_segment(sv_params, sv_cert, cfg, run,
                                          state, 0.0, small)
        assert code_a == code_b and t_a == pytest.approx(t_b)
        assert np.allclose(end_a.z, end_b.z, rtol=1e-9)
        assert np.allclose(end_a.z_tilde, end_b.z_tilde,
                           rtol=1e-9, atol=1e-12)
        ta = big.rows[:big.n, 0]
        tb = small.rows[:small.n, 0]
        # the resumed run restarts its step controller, so the sample
        # grids differ; both must still be recordings of the same solution
        # over the same span, and without a jump no instant is recorded
        # twice, at a resume either
        assert np.all(np.diff(ta) > 0) and np.all(np.diff(tb) > 0)
        assert ta[0] == tb[0] and ta[-1] == pytest.approx(tb[-1])
        za = big.rows[:big.n, 2]
        zb = small.rows[:small.n, 2]
        common = np.linspace(0.0, min(ta[-1], tb[-1]), 200)
        assert np.allclose(np.interp(common, ta, za),
                           np.interp(common, tb, zb), rtol=1e-6, atol=1e-9)

    def test_domain_exit_raises(self, sv_params, sv_gains, sv_cert,
                                sv_cfg):
        """A segment started just above z2 = -d/c with z1 < 0 drives z2
        below the floor: the kernel ends it with CODE_DOMAIN and the
        engine raises StateOutOfDomain at the step that crossed."""
        floor = sv_params.z2_floor
        state = HybridState(tau=0.0, cycle=0,
                            z=(-1.0, math.nextafter(floor, 0.0)),
                            z_tilde=(0.0, 0.1), z_star=-75.0, phi=np.eye(2))
        solver = SolverConfig(max_step=5.4e-5, t_end=0.01)
        run = fastpath.run_constants(sv_params, sv_gains, 500.0, sv_cert,
                                     solver)
        with pytest.raises(StateOutOfDomain,
                           match=rf"z2 reached -d/c={floor} at t=0\.00138"):
            _run_segment(sv_params, sv_cert, sv_cfg, run, state, 0.0, _Arc())

    def test_buffer_below_one_step_rejected(self, monkeypatch, sv_params,
                                            sv_gains, sv_cert):
        """A window that cannot hold one step's worst case would return
        CODE_BUFFER_FULL without progress forever."""
        cfg, state = _off_guard_state(sv_params, sv_gains, sv_cert)
        solver = SolverConfig(max_step=5.4e-5, t_end=5e-4)
        monkeypatch.setattr(engine, "_INIT_BUFFER_ROWS",
                            fastpath.MAX_STEP_ROWS)
        with pytest.raises(ValueError, match="cannot hold one step"):
            _run_segment(sv_params, sv_cert, cfg,
                         fastpath.run_constants(sv_params, sv_gains, 500.0,
                                                sv_cert, solver),
                         state, 0.0, _Arc())


def _max_tau_drift(traj):
    """Largest excess of |tau - trapezoid of |z1|| over criterion 5's
    bound 1e-6 |tau| + 1e-9, per cycle (<= 0 when the bound holds)."""
    worst = -np.inf
    for i in np.unique(traj.cycle):
        sl = cycle_slice(traj, int(i))
        a = np.abs(traj.z1[sl])
        inc = 0.5 * (a[:-1] + a[1:]) * np.diff(traj.t[sl])
        expected = traj.tau[sl.start] + np.concatenate([[0.0],
                                                        np.cumsum(inc)])
        excess = (np.abs(traj.tau[sl] - expected)
                  - (1e-6 * np.abs(expected) + 1e-9))
        worst = max(worst, float(excess.max()))
    return worst


def test_small_buffer_run_matches_default(monkeypatch, sv_params, sv_gains,
                                          sv_cert, sv_cfg, sv_initial):
    """The 20 ms bundled run with a buffer barely above one step's worst
    case resumes many times mid-segment and still records the same arc."""
    z0, z_hat0 = sv_initial
    solver = SolverConfig(rel_tol=1e-9, abs_tol=1e-10, event_tol=1e-9,
                          max_step=5.4e-5, t_end=0.02)
    ref = simulate(sv_params, sv_gains, sv_cert, sv_cfg, solver, z0, z_hat0,
                   k=500.0)

    codes = []
    flow = fastpath.flow_segment

    def counting_flow(y, t_start, sc, buf, n0, ret, spans):
        flow(y, t_start, sc, buf, n0, ret, spans)
        codes.append(int(ret[0]))

    monkeypatch.setattr(fastpath, "flow_segment", counting_flow)
    monkeypatch.setattr(engine, "_INIT_BUFFER_ROWS",
                        fastpath.MAX_STEP_ROWS + 200)
    traj = simulate(sv_params, sv_gains, sv_cert, sv_cfg, solver, z0, z_hat0,
                    k=500.0)

    assert codes.count(fastpath.CODE_BUFFER_FULL) >= 5
    assert [jr.kind for jr in traj.jumps] == [jr.kind for jr in ref.jumps]
    assert np.allclose([jr.t for jr in traj.jumps],
                       [jr.t for jr in ref.jumps], rtol=0.0, atol=1e-7)
    assert np.all(np.diff(traj.t) >= 0.0)
    assert traj.t[-1] == ref.t[-1]
    assert _max_tau_drift(traj) <= 0.0
    # no rows lost at a resume: a kernel that drops the rows of a step
    # that overruns its buffer keeps criterion 5 but records about 30 %
    # fewer samples here (a 4196-row buffer with a 4096-row margin).
    # Resumes restart the step controller, so the count may rise by about
    # 1 %.
    assert len(traj) >= 0.98 * len(ref)


@pytest.mark.parametrize("rows", [None, fastpath.MAX_STEP_ROWS + 200])
def test_every_reserved_row_is_filled(monkeypatch, sv_params, sv_gains,
                                      sv_cert, sv_cfg, sv_initial, rows):
    """flow_segment leaves the interior rows of each recorded span to
    emission.fill_spans. With the call's free rows NaN-filled first, no
    NaN reaches the trajectory of the 20 ms bundled run, whose segments
    end on events, at the default buffer and at one that resumes often."""
    z0, z_hat0 = sv_initial
    solver = SolverConfig(rel_tol=1e-9, abs_tol=1e-10, event_tol=1e-9,
                          max_step=5.4e-5, t_end=0.02)
    calls = []
    flow = fastpath.flow_segment

    def nan_flow(y, t_start, sc, buf, n0, ret, spans):
        buf[n0:] = np.nan
        flow(y, t_start, sc, buf, n0, ret, spans)
        ns = int(ret[3])
        # does the call's last span end on its last row?
        last = ns > 0 and spans[ns - 1, fastpath.SP_N] \
            + spans[ns - 1, fastpath.SP_M] == ret[2]
        calls.append((int(ret[0]), ns, last))

    monkeypatch.setattr(fastpath, "flow_segment", nan_flow)
    if rows is not None:
        monkeypatch.setattr(engine, "_INIT_BUFFER_ROWS", rows)
    traj = simulate(sv_params, sv_gains, sv_cert, sv_cfg, solver, z0, z_hat0,
                    k=500.0)

    codes = [c[0] for c in calls]
    if rows is not None:
        assert codes.count(fastpath.CODE_BUFFER_FULL) >= 5
    # a segment ended on an event right after a span with reserved rows
    assert any(code in (fastpath.CODE_DC, fastpath.CODE_DNC) and last
               for code, _, last in calls)
    assert sum(c[1] for c in calls) > 0
    for name in ("t", "tau", "z1", "z2", "z_tilde1", "z_tilde2", "phi"):
        assert not np.isnan(getattr(traj, name)).any(), name


def _bundled_20ms(sv_params, sv_gains, sv_cert, sv_cfg, sv_initial,
                  tau_budget_rel):
    z0, z_hat0 = sv_initial
    solver = SolverConfig(rel_tol=1e-9, abs_tol=1e-10, event_tol=1e-9,
                          max_step=5.4e-5, t_end=0.02,
                          tau_budget_rel=tau_budget_rel)
    return simulate(sv_params, sv_gains, sv_cert, sv_cfg, solver, z0, z_hat0,
                    k=500.0)


@pytest.fixture(scope="module")
def dense_20ms(sv_params, sv_gains, sv_cert, sv_cfg, sv_initial):
    """The 20 ms bundled run under the default recording budget."""
    return _bundled_20ms(sv_params, sv_gains, sv_cert, sv_cfg, sv_initial,
                         2e-7)


def _rows(traj):
    return np.column_stack([traj.t, traj.j, traj.z1, traj.z2, traj.z_tilde1,
                            traj.z_tilde2, traj.tau])


def test_step_sequence_ignores_recording_budget(dense_20ms, sv_params,
                                                sv_gains, sv_cert, sv_cfg,
                                                sv_initial):
    """tau_budget_rel sets how densely each step is recorded, never the
    steps: a budget that asks for no extra samples gives the same jumps,
    bit for bit, and a subset of the same rows."""
    sparse = _bundled_20ms(sv_params, sv_gains, sv_cert, sv_cfg, sv_initial,
                           1e9)
    assert [jr.kind for jr in sparse.jumps] == \
        [jr.kind for jr in dense_20ms.jumps]
    assert [jr.t for jr in sparse.jumps] == [jr.t for jr in dense_20ms.jumps]
    dense_rows = set(map(tuple, _rows(dense_20ms)))
    missing = [r for r in map(tuple, _rows(sparse)) if r not in dense_rows]
    assert not missing, f"{len(missing)} of {len(sparse)} rows, first " \
        f"at t={missing[0][0]}"
    assert len(dense_20ms) > len(sparse)


def test_dense_recording_contract(dense_20ms):
    """Criterion 5's per-cycle bound and a monotone tau hold on the dense
    run, and the recording stays small: steps are set by accuracy alone,
    so a return of step inflation (38,676 samples when the budget shrank
    the steps) fails the sample cap."""
    assert _max_tau_drift(dense_20ms) <= 0.0
    same_cycle = np.diff(dense_20ms.cycle) == 0
    assert np.all(np.diff(dense_20ms.tau)[same_cycle] >= 0.0)
    assert np.all(np.diff(dense_20ms.t) >= 0.0)
    assert len(dense_20ms) <= 20_000


def test_columns_are_views_of_one_array(dense_20ms):
    """simulate holds the arc once: every float column, phi included, is a
    view of the rows that t is a view of, not a copy. (t and phi hold
    disjoint elements, so np.shares_memory(t, phi) itself is False.)"""
    rows = dense_20ms.t.base
    for name in ("tau", "z1", "z2", "z_tilde1", "z_tilde2", "phi"):
        assert np.shares_memory(getattr(dense_20ms, name), rows), name


def test_trajectory_holds_no_array_beside_the_rows(dense_20ms):
    """Besides the rows, simulate's trajectory holds only arrays of one
    entry per mark, one mark per jump and one for the start: j, cycle and
    z_star are MarkColumns, not full-length columns."""
    rows, marks = dense_20ms.t.base, len(dense_20ms.jumps) + 1
    assert len(dense_20ms) > 100 * marks
    for name in ("j", "cycle", "z_star"):
        assert isinstance(getattr(dense_20ms, name), MarkColumn), name
    seen, todo, arrays = set(), [dense_20ms], []
    while todo:
        obj = todo.pop()
        if id(obj) in seen or obj is dense_20ms.jumps:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
        elif hasattr(obj, "__dict__"):
            todo.extend(vars(obj).values())
    views = [a for a in arrays if np.shares_memory(a, rows)]
    assert len(views) == 7 and len(arrays) > 7      # the marks were reached
    for a in arrays:
        assert np.shares_memory(a, rows) or a.size <= marks, a.shape


def _smaps_entry(address: int) -> dict:
    """The /proc/self/smaps fields of the mapping that holds `address`."""
    entry = None
    with open("/proc/self/smaps", encoding="ascii") as fh:
        for line in fh:
            head = line.split(None, 1)[0]
            if "-" in head and not head.endswith(":"):
                lo, hi = (int(x, 16) for x in head.split("-"))
                if entry is not None:
                    break
                if lo <= address < hi:
                    entry = {}
            elif entry is not None:
                key, _, value = line.partition(":")
                entry[key] = value.strip()
    assert entry is not None, hex(address)
    return entry


@pytest.mark.skipif(not (Path("/proc/self/smaps").exists()
                         and hasattr(mmap, "MADV_NOHUGEPAGE")),
                    reason="needs /proc/self/smaps and MADV_NOHUGEPAGE")
def test_arc_buffers_are_in_base_pages(monkeypatch, scenario_dict):
    """After simulate of the shipped scenario, whose rows outgrow the first
    array, the mappings that hold the rows behind traj.t and the span
    table hold no transparent huge page: reserved rows are resident only
    in the 4 KB pages the run wrote."""
    arcs = []

    class Recorded(_Arc):
        def __init__(self):
            super().__init__()
            arcs.append(self)

    monkeypatch.setattr(engine, "_Arc", Recorded)
    scn = build_scenario(scenario_dict)
    traj = simulate(scn.params, scn.gains, scn.cert, scn.cfg, scn.solver,
                    scn.z0, scn.z_hat0, k=scn.k)
    assert len(traj) > engine._INIT_BUFFER_ROWS // 4
    t = traj.t
    first, last = t.ctypes.data, t.ctypes.data + (len(t) - 1) * t.strides[0]
    spans = arcs[0].spans
    entries = {hex(address): _smaps_entry(address)
               for address in (first, last, spans.ctypes.data,
                               spans.ctypes.data + spans.nbytes - 1)}
    assert {address: entry["AnonHugePages"]
            for address, entry in entries.items()} \
        == dict.fromkeys(entries, "0 kB")
    for address, entry in entries.items():
        if "VmFlags" in entry:
            assert "nh" in entry["VmFlags"].split(), address


def test_z1_roots_are_recorded(dense_20ms):
    """A z1 root is a step boundary: the step over it is retaken up to the
    root, whose endpoint is recorded. So every sign change of the recorded
    z1 within a flow has a sample on the root, with |z1| at most 1e-9 of
    the run's largest |z1|."""
    tol = 1e-9 * np.abs(dense_20ms.z1).max()
    changes = 0
    for jj in np.unique(dense_20ms.j):
        z1 = dense_20ms.z1[np.asarray(dense_20ms.j) == jj]
        nonzero = np.flatnonzero(z1)
        for a, b in zip(nonzero[:-1], nonzero[1:]):
            if z1[a] * z1[b] < 0.0:
                changes += 1
                assert np.abs(z1[a:b + 1]).min() <= tol, f"root near " \
                    f"z1 = {z1[a]:.3g} -> {z1[b]:.3g}"
    assert changes >= 4


def test_initial_within_cycle_precedes_flow(dense_20ms):
    """The bundled estimate starts in D_c: its WithinCycle is taken at
    t = 0 before any flow row, so the run opens with two rows at t = 0,
    before and after the flip."""
    traj = dense_20ms
    assert traj.jumps[0].kind is JumpKind.WITHIN_CYCLE
    assert traj.jumps[0].t == 0.0
    assert list(traj.t[:2]) == [0.0, 0.0] and list(traj.j[:2]) == [0, 1]
    assert traj.z_star[1] == -traj.z_star[0]
    assert traj.t[2] > 0.0


def _frozen_flow(code, starts):
    """A stand-in for fastpath.flow_segment that reports the guard code at
    its start point without advancing t or writing a row."""
    def flow(y, t_start, sc, buf, n0, ret, spans):
        starts.append(t_start)
        ret[0], ret[1], ret[2], ret[3] = code, t_start, n0, 0.0
    return flow


class TestChainedJumps:
    """Jumps from segments that do not advance t are chained jumps; the
    engine caps them and rejects a WithinCycle chained onto another. The
    start state lies in neither jump set, so every jump comes from the
    kernel's code."""

    def _simulate(self, sv_params, sv_gains, sv_cert):
        return simulate(sv_params, sv_gains, sv_cert, make_cfg(max_cycles=64),
                        SolverConfig(max_step=5.4e-5, t_end=0.12),
                        [0.0, 0.3], [0.0, 0.3], k=500.0)

    def test_zero_advance_new_cycles_hit_the_chain_cap(
            self, monkeypatch, sv_params, sv_gains, sv_cert):
        starts = []
        monkeypatch.setattr(fastpath, "flow_segment",
                            _frozen_flow(fastpath.CODE_DNC, starts))
        with pytest.raises(ZenoSuspected, match="more than 4 chained"):
            self._simulate(sv_params, sv_gains, sv_cert)
        # one jump per segment, the fifth one raises
        assert starts == [0.0] * 5

    def test_within_cycle_chained_onto_within_cycle_is_illegal(
            self, monkeypatch, sv_params, sv_gains, sv_cert):
        starts = []
        monkeypatch.setattr(fastpath, "flow_segment",
                            _frozen_flow(fastpath.CODE_DC, starts))
        with pytest.raises(IllegalJump, match="without flow at t=0.0"):
            self._simulate(sv_params, sv_gains, sv_cert)
        assert starts == [0.0] * 2


class TestSimulate:
    def test_jump_bookkeeping(self, golden_run):
        traj = golden_run
        assert traj.j[0] == 0
        assert len(traj.jumps) == traj.j[-1]
        for jr in traj.jumps:
            pre = np.searchsorted(traj.j, jr.j + 1) - 1
            post = pre + 1
            assert traj.t[pre] == traj.t[post] == pytest.approx(jr.t)
            assert traj.z1[pre] == traj.z1[post]
            assert traj.z2[pre] == traj.z2[post]
            assert traj.z_tilde1[pre] == traj.z_tilde1[post]
            assert traj.z_tilde2[pre] == traj.z_tilde2[post]
            if jr.kind is JumpKind.WITHIN_CYCLE:
                assert traj.z_star[post] == -traj.z_star[pre]
                assert traj.cycle[post] == traj.cycle[pre]
                assert traj.tau[post] == traj.tau[pre]
            else:
                assert traj.z_star[post] == traj.z_star[pre] / 2.0
                assert traj.cycle[post] == traj.cycle[pre] + 1
                assert traj.tau[post] == 0.0
                assert np.array_equal(traj.phi[post], [1.0, 0.0, 0.0, 1.0])

    def test_cycles_monotone_and_reach_two(self, golden_run):
        c = golden_run.cycle
        assert np.all(np.diff(c) >= 0)
        assert c[0] == 0 and c[-1] >= 2

    def test_tau_nondecreasing_within_cycles(self, golden_run):
        same_cycle = np.diff(golden_run.cycle) == 0
        assert np.all(np.diff(golden_run.tau)[same_cycle] >= -1e-15)

    def test_zeno_guard_trips_on_tight_budget(self, sv_params, sv_gains,
                                              sv_cert, sv_initial):
        z0, z_hat0 = sv_initial
        solver = SolverConfig(max_step=5.4e-5, t_end=0.12,
                              zeno_window=1.0, zeno_max_jumps=2)
        with pytest.raises(ZenoSuspected):
            simulate(sv_params, sv_gains, sv_cert, make_cfg(), solver,
                     z0, z_hat0, k=500.0)

    def test_max_cycles_stops_the_run(self, sv_params, sv_gains, sv_cert,
                                      sv_initial):
        z0, z_hat0 = sv_initial
        cfg = make_cfg(max_cycles=1)
        solver = SolverConfig(max_step=5.4e-5, t_end=0.5)
        traj = simulate(sv_params, sv_gains, sv_cert, cfg, solver,
                        z0, z_hat0, k=500.0)
        assert np.asarray(traj.cycle).max() == 1
        assert traj.t[-1] < 0.5    # stopped by the cycle cap, not time
