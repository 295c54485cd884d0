"""Unit tests for initialization, flow-segment integration and the hybrid
execution loop, with a scipy reference integration as oracle."""

import dataclasses
import json
import math
import mmap
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from xbstab import (BadInitialBall, HybridState, JumpKind, SolverConfig,
                    StateOutOfDomain, ZenoSuspected, emission, engine,
                    fastpath, initialize, simulate)
from xbstab.analysis import cycle_slice
from xbstab.cli import build_scenario
from xbstab.engine import _Arc, _run_segment, initial_cycle
from xbstab.errors import IllegalJump
from xbstab.model import ClosedColumn, MarkColumn, g_of

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

    @pytest.mark.parametrize("z0,z_hat0,name", [
        ([math.nan, 0.3], [0.0, 0.7], "z0"),
        ([0.0, 0.3], [0.0, math.nan], "z_hat0"),
        ([0.0, math.inf], [0.0, 0.7], "z0"),
    ])
    def test_non_finite_entry_rejected(self, sv_params, sv_gains, sv_cert,
                                       z0, z_hat0, name):
        """A NaN's norm passes every ball test, and a run from it ended
        in a step size underflow at t = 0: a non-finite entry is refused
        by name."""
        with pytest.raises(BadInitialBall, match=rf"^{name}=.*non-finite"):
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


def _started_arc(state, t=0.0):
    """An arc that holds the segment start (t, state), as _run_segment
    expects."""
    arc = _Arc()
    arc.add_state(t, state)
    return arc


def integrate_flow(params, gains, cert, cfg, solver, state, t_start, k):
    """One flow segment through engine._run_segment, as (segment, event).

    The segment includes the start sample; event is None at the horizon,
    else its guard ("Dc" or "Dnc") and time."""
    arc = _started_arc(state, t_start)
    run = fastpath.run_constants(params, gains, k, cert, solver)
    code, t_fin, _ = _run_segment(params, cert, cfg, run, state, t_start, arc)
    event = None
    if code in (fastpath.CODE_DC, fastpath.CODE_DNC):
        event = SimpleNamespace(
            t=t_fin, guard="Dc" if code == fastpath.CODE_DC else "Dnc")
    return arc.trajectory(run[2]), event


def _count_codes(monkeypatch):
    """The exit codes of every fastpath.flow_segment call from now on."""
    codes = []
    flow = fastpath.flow_segment

    def counting_flow(y, t_start, sc, buf, n0, ret, spans, anchors):
        flow(y, t_start, sc, buf, n0, ret, spans, anchors)
        codes.append(int(ret[0]))

    monkeypatch.setattr(fastpath, "flow_segment", counting_flow)
    return codes


def _assert_same_arc(traj, ref):
    """traj and ref hold the same rows, all ten columns, and the same
    jump log, bit for bit."""
    assert len(traj) == len(ref)
    for name in ("t", "j", "cycle", "tau", "z1", "z2", "z_tilde1",
                 "z_tilde2", "z_star", "phi"):
        got, want = (np.asarray(getattr(x, name)[:], float)
                     for x in (traj, ref))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), \
            name
    assert [(jr.t, jr.j, jr.kind) for jr in traj.jumps] == \
        [(jr.t, jr.j, jr.kind) for jr in ref.jumps]


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

    def test_first_views_fit_the_first_stores(self, sv_initial, sv_params,
                                              sv_gains, sv_cert):
        """A kernel call writes into views of the arc's stores: the flow
        rows through _INIT_BUFFER_ROWS past the stored ones, and the
        anchors from the one in force on, with room for one more anchor
        than rows. The first stores hold the start row and the first
        call's views, so the first call reallocates neither; the next
        call's views grow both, at least doubling, and keep what is
        stored."""
        arc = _Arc()
        first = arc.flow, arc.anchors
        state = initialize(sv_params, sv_gains, sv_cert, make_cfg(),
                           *sv_initial)
        arc.add_state(0.0, state)
        flow, anchors = arc.views()
        assert arc.flow is first[0] and arc.anchors is first[1]
        assert len(flow) == 1 + engine._INIT_BUFFER_ROWS
        assert len(anchors) == engine._INIT_BUFFER_ROWS + 2
        assert np.shares_memory(flow, arc.flow)
        assert np.shares_memory(anchors[0], arc.anchors[0])
        arc.add_state(0.0, state)
        flow, anchors = arc.views()
        assert arc.flow is not first[0] and arc.anchors is not first[1]
        assert len(arc.flow) == 2 * len(first[0])
        assert len(arc.anchors) == 2 * len(first[1])
        assert np.array_equal(arc.flow[:2], first[0][:2])
        assert np.array_equal(arc.anchors[:2], first[1][:2])
        assert np.shares_memory(anchors[0], arc.anchors[1])

    def test_buffer_resume_is_seamless(self, monkeypatch, sv_params,
                                       sv_gains, sv_cert):
        """A kernel buffer barely above one step's worst case pauses the
        segment many times; each next call goes on with the step size and
        anchor in force, so the segment records the single-pass rows and
        anchors, and ends in the same state, bit for bit."""
        cfg, state = _off_guard_state(sv_params, sv_gains, sv_cert)
        solver = SolverConfig(max_step=5.4e-5, t_end=5e-4)
        run = fastpath.run_constants(sv_params, sv_gains, 500.0, sv_cert,
                                     solver)
        big = _started_arc(state)
        code_a, t_a, end_a = _run_segment(sv_params, sv_cert, cfg, run,
                                          state, 0.0, big)
        codes = _count_codes(monkeypatch)
        monkeypatch.setattr(engine, "_INIT_BUFFER_ROWS",
                            fastpath.MAX_STEP_ROWS + 4)
        small = _started_arc(state)
        code_b, t_b, end_b = _run_segment(sv_params, sv_cert, cfg, run,
                                          state, 0.0, small)
        assert codes.count(fastpath.CODE_BUFFER_FULL) >= 5
        assert (code_a, t_a) == (code_b, t_b)
        for name in ("tau", "z", "z_tilde", "phi"):
            assert np.array_equal(getattr(end_a, name), getattr(end_b, name))
        # without a jump no instant is recorded twice, at a pause either
        assert np.all(np.diff(big.flow[:big.n, 0]) > 0)
        assert (big.n, big.na) == (small.n, small.na)
        for a, b in ((big.flow[:big.n], small.flow[:small.n]),
                     (big.anchors[:big.na], small.anchors[:small.na])):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))

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
            _run_segment(sv_params, sv_cert, sv_cfg, run, state, 0.0,
                         _started_arc(state))

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
                         state, 0.0, _started_arc(state))


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
                                          sv_cert, sv_cfg, sv_initial,
                                          dense_20ms):
    """The 20 ms bundled run with a buffer barely above one step's worst
    case pauses many times mid-segment and still records the default
    run's arc: every column and the jump log, bit for bit."""
    codes = _count_codes(monkeypatch)
    monkeypatch.setattr(engine, "_INIT_BUFFER_ROWS",
                        fastpath.MAX_STEP_ROWS + 200)
    traj = _bundled_20ms(sv_params, sv_gains, sv_cert, sv_cfg, sv_initial,
                         2e-7)
    assert codes.count(fastpath.CODE_BUFFER_FULL) >= 5
    _assert_same_arc(traj, dense_20ms)


def test_thinned_pauses_match_unpaused_run(monkeypatch, sv_params,
                                           sv_gains, sv_cert, sv_cfg,
                                           sv_initial):
    """Under thinned recording most step starts are left pending. With
    spans of at most 4 rows and a 16-row buffer, the 0.3 s bundled run at
    record_interval 2e-4 pauses over 300 times, each time at its last
    recorded row, and records the unpaused run's arc, every column and
    the jump log, bit for bit. No call appends more anchors than it
    writes rows plus one, so a view of _INIT_BUFFER_ROWS + 2 anchors, the
    one in force among them, cannot fill."""
    z0, z_hat0 = sv_initial
    solver = SolverConfig(rel_tol=1e-9, abs_tol=1e-10, event_tol=1e-9,
                          max_step=5.4e-5, t_end=0.3, record_interval=2e-4,
                          tau_budget_rel=1e9)
    monkeypatch.setattr(fastpath, "_SPAN_MAX_ROWS", 4)
    monkeypatch.setattr(fastpath, "MAX_STEP_ROWS", 2 * 4 + 1)
    ref = simulate(sv_params, sv_gains, sv_cert, sv_cfg, solver, z0, z_hat0,
                   k=500.0)
    calls = []
    flow = fastpath.flow_segment

    def checked_flow(y, t_start, sc, buf, n0, ret, spans, anchors):
        flow(y, t_start, sc, buf, n0, ret, spans, anchors)
        n = int(ret[2])
        calls.append((int(ret[0]), n - n0, int(ret[4])))
        if int(ret[0]) == fastpath.CODE_BUFFER_FULL:
            assert tuple(buf[n - 1]) == (ret[1], y[0], y[1])

    monkeypatch.setattr(fastpath, "flow_segment", checked_flow)
    monkeypatch.setattr(engine, "_INIT_BUFFER_ROWS", 16)
    traj = simulate(sv_params, sv_gains, sv_cert, sv_cfg, solver, z0, z_hat0,
                    k=500.0)
    assert [c[0] for c in calls].count(fastpath.CODE_BUFFER_FULL) > 300
    assert all(anchors <= rows + 1 for _, rows, anchors in calls)
    assert max(anchors for *_, anchors in calls) >= 1
    _assert_same_arc(traj, ref)


@pytest.mark.parametrize("rows", [None, fastpath.MAX_STEP_ROWS + 200])
def test_every_reserved_row_is_filled(monkeypatch, sv_params, sv_gains,
                                      sv_cert, sv_cfg, sv_initial, rows,
                                      dense_20ms):
    """flow_segment leaves the interior rows of each recorded span to
    emission.fill_spans. With the call's free rows NaN-filled first, no
    NaN reaches the trajectory of the 20 ms bundled run, whose segments
    end on events, at the default buffer and at one that pauses often,
    where the run still records the default run's arc bit for bit."""
    calls = []
    flow = fastpath.flow_segment

    def nan_flow(y, t_start, sc, buf, n0, ret, spans, anchors):
        buf[n0:] = np.nan
        flow(y, t_start, sc, buf, n0, ret, spans, anchors)
        ns = int(ret[3])
        # does the call's last span end on its last row?
        last = ns > 0 and spans[ns - 1, fastpath.SP_N] \
            + spans[ns - 1, fastpath.SP_M] == ret[2]
        calls.append((int(ret[0]), ns, last))

    monkeypatch.setattr(fastpath, "flow_segment", nan_flow)
    if rows is not None:
        monkeypatch.setattr(engine, "_INIT_BUFFER_ROWS", rows)
    traj = _bundled_20ms(sv_params, sv_gains, sv_cert, sv_cfg, sv_initial,
                         2e-7)

    codes = [c[0] for c in calls]
    if rows is not None:
        assert codes.count(fastpath.CODE_BUFFER_FULL) >= 5
        _assert_same_arc(traj, dense_20ms)
    # a segment ended on an event right after a span with reserved rows
    assert any(code in (fastpath.CODE_DC, fastpath.CODE_DNC) and last
               for code, _, last in calls)
    assert sum(c[1] for c in calls) > 0
    for name in ("t", "tau", "z1", "z2", "z_tilde1", "z_tilde2", "phi"):
        assert not np.isnan(getattr(traj, name)).any(), name


def _run_with_kernel_log(monkeypatch, sv_params, sv_gains, sv_cert, sv_cfg,
                         sv_initial, rows=None):
    """The 20 ms bundled run, with its kernel buffer of `rows` rows where
    given, as (traj, want, codes): want holds each row as the kernel or
    the engine computed it, from their own calls in the order they made
    them (python source on both backends). A row the kernel or the
    engine wrote is its state, and one the kernel wrote is also asserted
    to equal _closed of the anchor set last at its tau, bit for bit; a
    row the kernel reserved is its t and _dense(...) of its span under
    that anchor; codes are the calls' exit codes."""
    fp = fastpath
    for name in ("flow_segment", "_emit_span"):
        monkeypatch.setattr(fp, name, getattr(getattr(fp, name), "py_func",
                                              getattr(fp, name)))
    events = []
    record, anchor, emit = fp._record, fp._anchor, fp._emit_span

    def logged_record(buf, n, tt, y):
        events.append(("row", n, tt, tuple(y)))
        return record(buf, n, tt, y)

    def logged_anchor(anchors, na, n, s, ys, held):
        events.append(("anchor", n, s, tuple(map(float, ys))))
        return anchor(anchors, na, n, s, ys, held)

    def logged_emit(buf, n, spans, ns, *args):
        n1, ns1 = emit(buf, n, spans, ns, *args)
        if ns1 > ns:
            events.append(("span", n, spans[ns].copy()))
        return n1, ns1

    class Logged(_Arc):
        def add_state(self, t, state):
            super().add_state(t, state)
            events.append(("state", self.n - 1, t,
                           tuple(engine._state_to_y(state))))

    monkeypatch.setattr(fp, "_record", logged_record)
    monkeypatch.setattr(fp, "_anchor", logged_anchor)
    monkeypatch.setattr(fp, "_emit_span", logged_emit)
    codes = _count_codes(monkeypatch)
    monkeypatch.setattr(engine, "_Arc", Logged)
    if rows is not None:
        monkeypatch.setattr(engine, "_INIT_BUFFER_ROWS", rows)
    z0, z_hat0 = sv_initial
    solver = SolverConfig(rel_tol=1e-9, abs_tol=1e-10, event_tol=1e-9,
                          max_step=5.4e-5, t_end=0.02)
    traj = simulate(sv_params, sv_gains, sv_cert, sv_cfg, solver, z0, z_hat0,
                    k=500.0)
    modes = fp.run_constants(sv_params, sv_gains, 500.0, sv_cert, solver)[2]
    want = np.full((len(traj), 10), np.nan)
    for kind, n, *rest in events:
        if kind == "state":
            want[n] = (rest[0], *rest[1])
        elif kind == "row":
            want[n] = (rest[0], *rest[1])
            closed = fp._closed(md, ya, nx, *rest[1][:2])
            assert np.array_equal(np.array(closed).view(np.uint64),
                                  want[n, 1:].view(np.uint64)), n
        elif kind == "anchor":
            md, ya, nx = fp._mode(modes, *rest)
        else:
            d = rest[0]
            tc = tuple(d[fp.SP_TC:])
            for i in range(1, int(d[fp.SP_M])):
                tt = d[fp.SP_T0] + i * d[fp.SP_DT]
                want[n + i - 1] = (tt, *fp._dense(
                    tc, md, ya, nx, d[fp.SP_TAU0], d[fp.SP_TAU1],
                    (tt - d[fp.SP_T0]) / d[fp.SP_H]))
    return traj, want, codes


def _assert_rows_read_back(traj, want):
    """Every row of traj, all ten columns, equals want's in every bit."""
    assert not np.isnan(want).any()
    got = np.column_stack([traj.t, traj.tau, traj.z1, traj.z2, traj.z_tilde1,
                           traj.z_tilde2, traj.phi])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("rows", [None, fastpath.MAX_STEP_ROWS + 200])
def test_every_row_reads_back_bit_for_bit(monkeypatch, sv_params, sv_gains,
                                          sv_cert, sv_cfg, sv_initial, rows,
                                          dense_20ms):
    """simulate stores t, tau and z1 of every row and an anchor per
    anchoring of the closed form, and evaluates z2, z_tilde and phi when
    they are read. On the 20 ms bundled run, at the default buffer and at
    one that pauses often, every row read through the trajectory equals
    the state the kernel computed for it (its closed form under the anchor
    it used), its t and the kernel's _dense(...) for a reserved row, and
    the stored state for a row the engine wrote, bit for bit; the paused
    run records the default run's arc bit for bit."""
    traj, want, codes = _run_with_kernel_log(
        monkeypatch, sv_params, sv_gains, sv_cert, sv_cfg, sv_initial, rows)
    if rows is not None:
        assert codes.count(fastpath.CODE_BUFFER_FULL) >= 5
        _assert_same_arc(traj, dense_20ms)
    src = traj.z2.source
    assert len(traj.jumps) + 1 < len(src._anchors) < len(traj) // 100
    _assert_rows_read_back(traj, want)


@pytest.mark.parametrize("thinned", [False, True])
def test_arc_storage(scenario_dict, thinned):
    """Every column of the shipped run has nbytes, and beside the marks
    the arc holds 24 B per row and 104 B per anchor (its 12 floats and its
    first row as an index), and the two modes' table. Anchors are few: a
    segment start, a z1 root or a row the engine wrote makes one. With
    long_thinned's recording the arc holds no more than 80 B a row, as
    when every row was stored whole, and the modes' table."""
    raw = json.loads(json.dumps(scenario_dict))
    if thinned:
        raw["solver"].update(record_interval=1e-3, tau_budget_rel=1e9)
    scn = build_scenario(raw)
    traj = simulate(scn.params, scn.gains, scn.cert, scn.cfg, scn.solver,
                    scn.z0, scn.z_hat0, k=scn.k)
    src = traj.z2.source
    n, anchors = len(traj), len(src._anchors)
    marks = sum(getattr(traj, name).nbytes for name in ("j", "cycle",
                                                        "z_star"))
    held = sum(getattr(traj, name).nbytes for name in (
        "t", "tau", "z1", "z2", "z_tilde1", "z_tilde2", "phi"))
    # the four ClosedColumns' shares of the source round down
    assert 0 <= 24 * n + 104 * anchors + src._modes.nbytes - held < 4
    assert marks < 200 * (len(traj.jumps) + 1)
    if thinned:
        # no more than when every row was stored whole
        assert held <= 80 * n + src._modes.nbytes
    else:
        assert anchors < 0.002 * n


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
    """simulate holds the arc once: tau and z1 are views of the array
    that t is a view of, not copies, and z2, z_tilde1, z_tilde2 and phi
    are ClosedColumns over one source, which evaluates them on read from
    the same stores."""
    rows = dense_20ms.t.base
    for name in ("tau", "z1"):
        assert np.shares_memory(getattr(dense_20ms, name), rows), name
    closed = [getattr(dense_20ms, name)
              for name in ("z2", "z_tilde1", "z_tilde2", "phi")]
    assert all(isinstance(c, ClosedColumn) for c in closed)
    assert len({c.source for c in closed}) == 1
    assert isinstance(closed[0].source, emission.ClosedForm)
    assert np.shares_memory(closed[0].source._tau, rows)


def test_trajectory_holds_no_array_beside_the_rows(dense_20ms):
    """Besides its stores (t, tau and z1 of every row, and the anchors)
    and the two modes, simulate's trajectory holds only arrays of one
    entry per mark or per anchor: j, cycle and z_star are MarkColumns, not
    full-length columns, and z2, z_tilde and phi are not stored for any
    row."""
    src = dense_20ms.z2.source
    stores = (dense_20ms.t.base, src._anchors)
    marks, anchors = len(dense_20ms.jumps) + 1, len(src._anchors)
    assert len(dense_20ms) > 100 * marks and len(dense_20ms) > 100 * anchors
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
    views = [a for a in arrays
             if any(np.shares_memory(a, store) for store in stores)]
    assert len(views) == 5 and len(arrays) > 5      # the marks were reached
    for a in arrays:
        assert a.size <= max(marks, anchors) or a is src._modes \
            or any(a is v for v in views), a.shape


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
    def flow(y, t_start, sc, buf, n0, ret, spans, anchors):
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
