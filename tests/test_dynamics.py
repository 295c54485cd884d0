"""Unit tests for the closed-loop right-hand sides, guard sets and the
jump map, with independent ODE oracles."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from xbstab import (HybridState, JumpKind, SolverConfig, StateOutOfDomain,
                    engine, fastpath, in_Dc, in_Dnc, jump_map,
                    phi_contraction_norm, simulate)

from flow_oracles import (control_input, flow_map, observer_rhs_zhat,
                          tracking_error_rhs_analysis_form)
from test_model import make_cfg


def make_state(z1=1.0, z2=0.1, zt1=0.0, zt2=0.2, z_star=75.0, cycle=0,
               tau=0.0, phi=None):
    return HybridState(tau=tau, cycle=cycle, z=[z1, z2],
                       z_tilde=[zt1, zt2], z_star=z_star,
                       phi=np.eye(2) if phi is None else phi)


class TestFlowMap:
    def test_control_law(self, sv_params):
        s = make_state(z1=2.0, z2=0.1, zt2=0.3, z_star=75.0)
        u = control_input(sv_params, 500.0, s)
        assert u == pytest.approx(375.0 * 2.0 * 0.4 - 500.0 * (2.0 - 75.0))

    def test_tau_clock_is_speed(self, sv_params, sv_gains):
        for z1 in (3.0, -3.0, 0.0):
            d = flow_map(sv_params, sv_gains, 500.0, make_state(z1=z1))
            assert d.d_tau == abs(z1)

    def test_plant_equations(self, sv_params, sv_gains):
        s = make_state(z1=2.0, z2=0.1)
        d = flow_map(sv_params, sv_gains, 500.0, s)
        u = control_input(sv_params, 500.0, s)
        assert d.d_z1 == pytest.approx(-375.0 * 2.0 * 0.1 + u)
        assert d.d_z2 == pytest.approx((24.0 * 0.1 + 12.5) * 2.0)

    def test_error_mode_matches_sign(self, sv_params, sv_gains):
        zt = np.array([0.1, -0.2])
        pos = flow_map(sv_params, sv_gains, 500.0,
                       make_state(z1=2.0, zt1=zt[0], zt2=zt[1]))
        assert np.allclose(pos.d_z_tilde, 2.0 * sv_gains.A1 @ zt)
        neg = flow_map(sv_params, sv_gains, 500.0,
                       make_state(z1=-2.0, zt1=zt[0], zt2=zt[1]))
        # |z1| * A2 for negative output: Hurwitz in the rescaled clock
        assert np.allclose(neg.d_z_tilde, 2.0 * sv_gains.A2 @ zt)

    def test_domain_boundary_raises(self, sv_params, sv_gains):
        with pytest.raises(StateOutOfDomain):
            flow_map(sv_params, sv_gains, 500.0,
                     make_state(z2=sv_params.z2_floor))

    def test_phi_flows_like_z_tilde(self, sv_params, sv_gains):
        s = make_state(z1=-1.5, zt1=0.3, zt2=-0.1)
        d = flow_map(sv_params, sv_gains, 500.0, s)
        # with Phi = I, d_phi is the generator itself, so applying it to
        # z_tilde must reproduce the error flow
        assert np.allclose(d.d_phi @ s.z_tilde, d.d_z_tilde)


class TestObserverRealizations:
    def test_zhat_form_reproduces_error_form(self, sv_params, sv_gains):
        """Integrate [z, z_tilde] and [z, z_hat]; z_hat must equal
        z + z_tilde to integration accuracy."""
        k, z_star = 500.0, 75.0

        def rhs_err(_, y):
            s = HybridState(tau=0.0, cycle=0, z=y[:2], z_tilde=y[2:],
                            z_star=z_star, phi=np.eye(2))
            d = flow_map(sv_params, sv_gains, k, s)
            return [d.d_z1, d.d_z2, *d.d_z_tilde]

        def rhs_hat(_, y):
            s = HybridState(tau=0.0, cycle=0, z=y[:2],
                            z_tilde=y[2:] - y[:2], z_star=z_star,
                            phi=np.eye(2))
            u = control_input(sv_params, k, s)
            d = flow_map(sv_params, sv_gains, k, s)
            dzh = observer_rhs_zhat(sv_params, sv_gains, u, y[0], y[2:])
            return [d.d_z1, d.d_z2, *dzh]

        y0_err = [0.5, 0.3, 0.1, 0.4]
        y0_hat = [0.5, 0.3, 0.6, 0.7]
        t_end = 0.01
        a = solve_ivp(rhs_err, (0, t_end), y0_err, rtol=1e-12, atol=1e-14,
                      method="DOP853")
        b = solve_ivp(rhs_hat, (0, t_end), y0_hat, rtol=1e-12, atol=1e-14,
                      method="DOP853")
        z_plus_zt = a.y[:2, -1] + a.y[2:, -1]
        assert np.allclose(b.y[2:, -1], z_plus_zt, rtol=1e-8, atol=1e-10)

    def test_z2_closed_form_for_frozen_z1(self, sv_params):
        """With z1 held constant, z2(t) = (z2(0)+d/c) e^{c z1 t} - d/c."""
        c, d = sv_params.c, sv_params.d
        z1, z2_0 = -0.8, 0.3
        sol = solve_ivp(lambda t, z: [(c * z[0] + d) * z1], (0, 0.05),
                        [z2_0], rtol=1e-12, atol=1e-14, method="DOP853")
        t = sol.t[-1]
        closed = (z2_0 + d / c) * math.exp(c * z1 * t) - d / c
        assert sol.y[0, -1] == pytest.approx(closed, abs=1e-8)

    def test_analysis_form_flags_sign_convention(self, sv_params, sv_gains):
        """The analysis-form tracking ODE and direct substitution of the
        control law differ by the a*z1*z2 coupling term."""
        s = make_state(z1=2.0, z2=0.1, zt2=0.3, z_star=75.0)
        d = flow_map(sv_params, sv_gains, 500.0, s)
        analysis = tracking_error_rhs_analysis_form(sv_params, 500.0, s)
        assert d.d_z1 != pytest.approx(analysis, rel=1e-3)


class TestGuards:
    def test_within_cycle_guard(self, sv_params):
        cfg = make_cfg()
        thr = 12.5 * 75.0 / (24.0 * 75.0)
        on = make_state(z2=thr + 0.01, zt2=0.0, z_star=75.0)
        assert in_Dc(sv_params, cfg, on)
        wrong_sign = make_state(z2=-(thr + 0.01), zt2=0.0, z_star=75.0)
        assert not in_Dc(sv_params, cfg, wrong_sign)
        inside_band = make_state(z2=thr / 2, zt2=0.0, z_star=75.0)
        assert not in_Dc(sv_params, cfg, inside_band)
        # threshold scales with the current reference magnitude
        small_ref = make_state(z2=thr / 2, zt2=0.0, z_star=75.0 / 4,
                               cycle=2)
        assert in_Dc(sv_params, cfg, small_ref)

    def test_cycle_transition_guard(self, sv_params, sv_cert):
        cfg = make_cfg()
        lam = math.sqrt(sv_cert.lambda_min)
        h1 = cfg.h_schedule.h(1)
        contracted = 0.5 * lam * h1 / math.sqrt(sv_cert.lambda_max) \
            * np.eye(2)
        s = make_state(z2=-0.01, zt2=0.0, z_star=75.0 / 2, cycle=1,
                       phi=contracted)
        assert in_Dnc(sv_params, cfg, sv_cert, s)
        # identity Phi can never certify contraction (gamma > 1)
        s_id = make_state(z2=-0.01, zt2=0.0, z_star=75.0 / 2, cycle=1)
        assert not in_Dnc(sv_params, cfg, sv_cert, s_id)
        # same-sign estimate blocks the transition
        s_pos = make_state(z2=0.01, zt2=0.0, z_star=75.0 / 2, cycle=1,
                           phi=contracted)
        assert not in_Dnc(sv_params, cfg, sv_cert, s_pos)

    def test_contraction_norm_matches_numpy(self, sv_cert):
        rng = np.random.default_rng(7)
        for _ in range(20):
            phi = rng.normal(size=(2, 2))
            direct = math.sqrt(np.linalg.norm(phi.T @ sv_cert.P @ phi, 2))
            assert phi_contraction_norm(sv_cert, phi) == \
                pytest.approx(direct, rel=1e-12)


class TestJumpMap:
    def test_within_cycle_flips_reference_only(self):
        s = make_state(z_star=75.0, tau=0.4, cycle=1)
        s2 = jump_map(s, JumpKind.WITHIN_CYCLE)
        assert s2.z_star == -75.0
        assert s2.tau == s.tau and s2.cycle == s.cycle
        assert np.array_equal(s2.z, s.z)
        assert np.array_equal(s2.z_tilde, s.z_tilde)
        assert jump_map(s2, JumpKind.WITHIN_CYCLE).z_star == s.z_star

    def test_new_cycle_halves_and_resets(self):
        s = make_state(z_star=-75.0, tau=0.4, cycle=1,
                       phi=0.3 * np.eye(2))
        s2 = jump_map(s, JumpKind.NEW_CYCLE)
        assert s2.z_star == -37.5
        assert s2.tau == 0.0 and s2.cycle == 2
        assert np.array_equal(s2.phi, np.eye(2))


# --- the kernel's flow and guards against the definitions above ----------

def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _kernel_record(params, gains, cert, cfg, k, state):
    """The kernel's record (run, seg) for a segment that starts at state."""
    return (fastpath.run_constants(params, gains, k, cert, SolverConfig()),
            engine._segment_constants(params, cfg, cert, state))


def _kernel_mode(run, s):
    """The run record's tau-time mode for s = sign z1."""
    modes = run[2]
    return modes[0] if s > 0.0 else modes[1]


def _kernel_state(state):
    return (state.tau, *state.z, *state.z_tilde, *state.phi.ravel())


@settings(max_examples=300, deadline=None)
@given(z1=_floats(-80.0, 80.0), z2_above_floor=_floats(1e-6, 3.0),
       zt=st.tuples(_floats(-1.0, 1.0), _floats(-1.0, 1.0)),
       phi=st.tuples(*[_floats(-2.0, 2.0)] * 4),
       z_star=st.sampled_from([75.0, -37.5, 9.375, -0.5859375]),
       k=_floats(50.0, 2000.0))
def test_kernel_flow_matches_flow_map(sv_params, sv_gains, sv_cert, z1,
                                      z2_above_floor, zt, phi, z_star, k):
    """The kernel's flow is flow_oracles.flow_map, to 1e-12 relative to the
    magnitude of the terms each component sums. fastpath._f gives d_tau
    and d_z1. The tau-derivative of the closed form of z2, z_tilde and Phi,
    the generator of the run record's mode for s = sign z1, gives d_z2,
    d_z_tilde and d_phi divided by |z1| (compared here times |z1|, so that
    both sides underflow alike)."""
    cfg = make_cfg()
    state = make_state(z1=z1, z2=sv_params.z2_floor + z2_above_floor,
                       zt1=zt[0], zt2=zt[1], z_star=z_star,
                       phi=np.array(phi).reshape(2, 2))
    run, seg = _kernel_record(sv_params, sv_gains, sv_cert, cfg, k, state)
    ya = _kernel_state(state)
    md = _kernel_mode(run, math.copysign(1.0, z1))
    mu, n11, n12, n21, _, _, z2_rate, d_over_c = md
    gen = np.array([[mu + n11, n12], [n21, mu - n11]])
    rates = np.concatenate([[z2_rate * (state.z[1] + d_over_c)],
                            gen @ state.z_tilde, (gen @ state.phi).ravel()])
    got = np.array([*fastpath._f((run[0], run[1], seg[0]), md, ya,
                                 fastpath._n_products(md, ya), ya[0], z1),
                    *(abs(z1) * rates)])
    d = flow_map(sv_params, sv_gains, k, state)
    want = np.array([d.d_tau, d.d_z1, d.d_z2, *d.d_z_tilde,
                     *d.d_phi.ravel()])

    a, c, dd = sv_params.a, sv_params.c, sv_params.d
    z2 = state.z[1]
    k1, k2 = sv_gains.injection(z1)
    absM = np.abs(np.array([[k1, a], [k2, c]]))
    scale = np.concatenate([
        [abs(z1),
         abs(a * z1 * z2) + abs(a * z1 * (z2 + zt[1]))
         + abs(k * (z1 - z_star)),
         (abs(c * z2) + dd) * abs(z1)],
        abs(z1) * (absM @ np.abs(state.z_tilde)),
        (abs(z1) * (absM @ np.abs(state.phi))).ravel()])
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(np.abs(want),
                                                           scale))


@pytest.mark.parametrize("dtau", [1e-3, 1.0])
@pytest.mark.parametrize("s", [1.0, -1.0])
def test_closed_form_is_exponential_of_generator(sv_params, sv_gains,
                                                  sv_cert, s, dtau):
    """fastpath._closed moves z2, z_tilde and Phi along the generator of
    the run record's mode: scipy's expm of it for z_tilde and Phi and the
    scalar exponential for z2 + d/c, to 1e-13 of the terms summed."""
    state = make_state(z1=s * 2.0, z2=0.3, zt1=-0.2, zt2=0.4,
                       phi=np.array([[0.9, -0.3], [0.2, 1.1]]))
    run, _ = _kernel_record(sv_params, sv_gains, sv_cert, make_cfg(), 500.0,
                            state)
    md = _kernel_mode(run, s)
    mu, n11, n12, n21, _, _, z2_rate, d_over_c = md
    E = expm(np.array([[mu + n11, n12], [n21, mu - n11]]) * dtau)
    ya = _kernel_state(state)
    got = np.array(fastpath._closed(md, ya, fastpath._n_products(md, ya),
                                    ya[0] + dtau, ya[1]))
    w2 = state.z[1] + d_over_c
    want = np.concatenate([[ya[0] + dtau, ya[1],
                            w2 * math.exp(z2_rate * dtau) - d_over_c],
                           E @ state.z_tilde, (E @ state.phi).ravel()])
    scale = np.concatenate([[ya[0] + dtau, abs(ya[1]),
                             w2 * math.exp(z2_rate * dtau) + d_over_c],
                            np.abs(E) @ np.abs(state.z_tilde),
                            (np.abs(E) @ np.abs(state.phi)).ravel()])
    assert np.all(np.abs(got - want) <= 1e-13 * scale)


def test_modes_are_split_once_per_run(monkeypatch, sv_params, sv_gains,
                                      sv_cert, sv_cfg, sv_initial):
    """The run record holds both modes, so simulate splits A1 and A2 once
    each, however many segments and z1 roots the run has: the 20 ms
    bundled run, on the python backend, has 5 jumps and 6 sign changes
    of z1."""
    if fastpath.HAVE_NUMBA:
        monkeypatch.setattr(fastpath, "flow_segment",
                            fastpath.flow_segment.py_func)
    calls = []
    split = fastpath._split

    def counting_split(*m):
        calls.append(m)
        return split(*m)

    monkeypatch.setattr(fastpath, "_split", counting_split)
    z0, z_hat0 = sv_initial
    solver = SolverConfig(rel_tol=1e-9, abs_tol=1e-10, event_tol=1e-9,
                          max_step=5.4e-5, t_end=0.02)
    traj = simulate(sv_params, sv_gains, sv_cert, sv_cfg, solver, z0, z_hat0,
                    k=500.0)
    assert len(traj.jumps) >= 2
    assert np.count_nonzero(np.diff(np.sign(traj.z1))) >= 2
    assert calls == [tuple(sv_gains.A1.ravel()), tuple(sv_gains.A2.ravel())]


@pytest.mark.parametrize("dt", [0.0, 1e-12, 1e-3, 1.0])
@pytest.mark.parametrize("which", ["A1", "A2", "real", "repeated",
                                   "nearly repeated, real",
                                   "nearly repeated, complex"])
def test_expm2_matches_scipy(sv_gains, which, dt):
    """exp(M dt) = p I + q N, with (p, q) from fastpath._expm_pq, against
    scipy's expm, to 1e-13 of the largest entry: the shipped A1 and A2
    (eigenvalues -8 +- 10.05i), real distinct eigenvalues (hyperbolic and
    eigen-exponential branches), a repeated one and two nearly repeated
    ones."""
    m = {"A1": sv_gains.A1, "A2": sv_gains.A2,
         "real": np.array([[-3.0, 1.0], [2.0, -5.0]]),
         "repeated": np.array([[-2.0, 1.0], [0.0, -2.0]]),
         "nearly repeated, real": np.array([[-2.0, 1.0], [1e-14, -2.0]]),
         "nearly repeated, complex": np.array([[-2.0, 1.0],
                                               [-1e-14, -2.0]])}[which]
    md = fastpath._split(*m.ravel())
    p, q = fastpath._expm_pq(md, dt)
    n11, n12, n21 = md[1], md[2], md[3]
    got = np.array([p + q * n11, q * n12, q * n21, p - q * n11])
    want = expm(m * dt)
    assert np.max(np.abs(got.reshape(2, 2) - want)) \
        <= 1e-13 * np.max(np.abs(want))


def test_stage_zt2_is_flow_state_zt2(sv_gains):
    """The zt2 that the Dormand-Prince stages read (fastpath._f) is the
    zt2 of _flow_state, which gives the endpoints, guards, bisection and
    fill, in every bit: 1e5 random anchors and steps, a quarter on each
    branch of _expm_pq. With a = 1, k = 0 and z1 = 1, _f's d_z1 is zt2."""
    rng = np.random.default_rng(0)
    # (matrix, range of w dt): the shipped modes (complex), a repeated
    # eigenvalue, and a real pair on each side of w dt = 1
    cases = [(sv_gains.A1, None), (sv_gains.A2, None),
             (np.array([[-2.0, 1.0], [0.0, -2.0]]), None),
             (np.array([[-3.0, 1.0], [2.0, -5.0]]), (0.0, 1.0)),
             (np.array([[-3.0, 1.0], [2.0, -5.0]]), (1.0, 3.0))]
    branches = set()
    for (m, wdt), count in zip(cases, (12500, 12500, 25000, 25000, 25000)):
        md = (*fastpath._split(*m.ravel()), 24.0, 0.5208333333333334)
        for _ in range(count):
            ya = tuple(rng.uniform(-2.0, 2.0, 9).tolist())
            dt = (rng.uniform(0.0, 1e-2) if wdt is None
                  else rng.uniform(*wdt) / md[5])
            nx = fastpath._n_products(md, ya)
            tau = ya[0] + dt
            stage = fastpath._f((1.0, 0.0, 0.0), md, ya, nx, tau, 1.0)[1]
            flow = fastpath._closed(md, ya, nx, tau, 1.0)[4]
            assert stage == flow and math.copysign(1.0, stage) \
                == math.copysign(1.0, flow), (md, ya, dt)
            branches.add("complex" if md[4] < 0.0 else "repeated"
                         if md[5] == 0.0 else "hyperbolic"
                         if md[5] * (tau - ya[0]) < 1.0 else "two-exp")
    assert len(branches) == 4


@settings(max_examples=400, deadline=None)
@given(cycle=st.integers(0, 3), ref_sign=st.sampled_from([1.0, -1.0]),
       zhat2_rel=_floats(-2.0, 2.0), zt2=_floats(-0.5, 0.5),
       phi_dir=st.tuples(*[_floats(-1.0, 1.0)] * 4),
       log_scale=_floats(-3.0, 0.0))
def test_kernel_guard_matches_jump_sets(sv_params, sv_gains, sv_cert, cycle,
                                        ref_sign, zhat2_rel, zt2, phi_dir,
                                        log_scale):
    """fastpath._guard_any agrees with in_Dc/in_Dnc on states at least
    1e-9 away from the boundaries of either set."""
    cfg = make_cfg()
    z_star = ref_sign * cfg.z_star_init / 2.0 ** cycle
    thr = sv_params.d * abs(z_star) / (sv_params.c * cfg.z_star_init)
    phi = 10.0 ** log_scale * np.array(phi_dir).reshape(2, 2)
    state = make_state(z1=0.3, z2=zhat2_rel * thr - zt2, zt2=zt2,
                       z_star=z_star, cycle=cycle, phi=phi)
    zhat2 = state.z[1] + state.z_tilde[1]
    bound = math.sqrt(sv_cert.lambda_min) * cfg.h_of(cycle, sv_cert.gamma)
    assume(abs(abs(zhat2) - thr) >= 1e-9 and abs(zhat2) >= 1e-9)
    assume(abs(phi_contraction_norm(sv_cert, phi) - bound) >= 1e-9)

    if in_Dc(sv_params, cfg, state):
        want = fastpath.CODE_DC
    elif in_Dnc(sv_params, cfg, sv_cert, state):
        want = fastpath.CODE_DNC
    else:
        want = 0
    run, seg = _kernel_record(sv_params, sv_gains, sv_cert, cfg, 500.0,
                              state)
    assert fastpath._guard_any(_kernel_state(state), seg + run[3]) == want


def test_backends_agree_on_short_run(monkeypatch, sv_params, sv_gains,
                                     sv_cert, sv_cfg, sv_initial):
    """The compiled kernel and its CPython source give the same arc on the
    20 ms bundled run. Needs numba; skipped, not passed, without it."""
    pytest.importorskip("numba")
    z0, z_hat0 = sv_initial
    solver = SolverConfig(rel_tol=1e-9, abs_tol=1e-10, event_tol=1e-9,
                          max_step=5.4e-5, t_end=0.02)
    compiled = simulate(sv_params, sv_gains, sv_cert, sv_cfg, solver,
                        z0, z_hat0, k=500.0)
    monkeypatch.setattr(fastpath, "flow_segment",
                        fastpath.flow_segment.py_func)
    plain = simulate(sv_params, sv_gains, sv_cert, sv_cfg, solver,
                     z0, z_hat0, k=500.0)
    assert [jr.kind for jr in plain.jumps] == \
        [jr.kind for jr in compiled.jumps]
    assert np.allclose([jr.t for jr in plain.jumps],
                       [jr.t for jr in compiled.jumps], rtol=0.0, atol=1e-9)
    assert plain.t[-1] == compiled.t[-1]
    for name in ("z1", "z2", "z_tilde1", "z_tilde2", "tau"):
        assert getattr(plain, name)[-1] == pytest.approx(
            getattr(compiled, name)[-1], rel=1e-8, abs=1e-12)
