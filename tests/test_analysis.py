"""Unit tests for the post-processing checks, using synthetic trajectories
with closed-form properties as oracles."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from xbstab import check_envelope, dwell_certificate, extract_dwell
from xbstab.analysis import (_EXCITATION_FLOOR, BoundReport,
                             check_dwell_lower_bound, check_overshoot_bound,
                             check_phi_oracle, check_vobs_monotone,
                             check_zeno, cycle_slice, overshoot_comparison,
                             verify_bounds)
from xbstab.cli import build_scenario
from xbstab.errors import CycleNotFound, NoExcitation
from xbstab.lyapunov import (DecayCertificate, decay_certificate,
                             dwell_time_lower_bound)
from xbstab.model import JumpKind, JumpRecord

from arcs import arc


def make_traj(t, z1, z_tilde=None, z_star=None, cycle=None, phi=None,
              jumps=None, z2=None):
    t = np.asarray(t, dtype=float)
    n = len(t)
    z1 = np.asarray(z1, dtype=float)
    zt = np.zeros((n, 2)) if z_tilde is None else np.asarray(z_tilde)
    return arc(
        t=t, j=np.zeros(n, dtype=np.int64),
        cycle=np.zeros(n, dtype=np.int64) if cycle is None else cycle,
        tau=np.zeros(n), z1=z1,
        z2=np.zeros(n) if z2 is None else np.asarray(z2, dtype=float),
        z_tilde1=zt[:, 0], z_tilde2=zt[:, 1],
        z_star=np.ones(n) if z_star is None else np.asarray(z_star),
        phi=np.tile(np.eye(2).ravel(), (n, 1)) if phi is None else phi,
        jumps=[] if jumps is None else jumps)


class TestExtractDwell:
    def test_sine_excitation_closed_form(self):
        t = np.linspace(0.0, 2.0, 40001)
        traj = make_traj(t, np.sin(2 * np.pi * t))
        rep = extract_dwell(traj)
        # |sin| >= 1/2 on intervals of length 1/3 separated by gaps of 1/6
        assert rep.tau_d == pytest.approx(1.0 / 3.0, rel=1e-3)
        assert rep.tau_s == pytest.approx(1.0 / 6.0, rel=1e-3)
        assert rep.z_bar == pytest.approx(1.0, rel=1e-6)
        # no switching: the window is the horizon, mu the full average
        assert rep.window == pytest.approx(2.0)
        assert rep.mu == pytest.approx(2.0 / math.pi, rel=1e-4)
        assert rep.assumption_holds

    def test_no_excitation_raises(self):
        t = np.linspace(0.0, 1.0, 101)
        with pytest.raises(NoExcitation):
            extract_dwell(make_traj(t, np.full(101, 0.1)))

    def test_floor_is_the_dwell_certificates(self, scenario_dict):
        """The excitation floor times |z*| = z*_in/2^i of cycle i is the
        dwell certificate's z_underbar_i, so neither changes alone."""
        scn = build_scenario(scenario_dict)
        for i in range(1, 5):
            cert = dwell_certificate(scn.params, scn.cfg, i)
            assert _EXCITATION_FLOOR * scn.cfg.z_star_init / 2.0 ** i \
                == cert.z_underbar_i

    def test_report_serializes(self, golden_run):
        rep = extract_dwell(golden_run)
        d = rep.to_dict()
        assert set(d) == {"intervals", "tau_d", "tau_s", "z_under",
                          "z_bar", "mu", "window", "assumption_holds"}


class TestCycleSlice:
    def test_missing_cycle(self, golden_run):
        with pytest.raises(CycleNotFound):
            cycle_slice(golden_run, 7)

    def test_slices_partition_the_run(self, golden_run):
        stops = [cycle_slice(golden_run, int(i))
                 for i in np.unique(golden_run.cycle)]
        assert stops[0].start == 0
        for a, b in zip(stops, stops[1:]):
            assert a.stop == b.start
        assert stops[-1].stop == len(golden_run)


class TestPhiOracle:
    def test_exact_propagation_scores_zero(self):
        t = np.linspace(0.0, 1.0, 200)
        decay = np.exp(-3.0 * t)
        zt0 = np.array([0.4, -0.2])
        zt = np.column_stack([decay * zt0[0], decay * zt0[1]])
        phi = np.column_stack([decay, np.zeros_like(t),
                               np.zeros_like(t), decay])
        traj = make_traj(t, np.ones_like(t), z_tilde=zt, phi=phi)
        assert check_phi_oracle(traj) <= 1e-14

    def test_mismatch_detected(self):
        t = np.linspace(0.0, 1.0, 200)
        zt = np.column_stack([np.exp(-t), np.zeros_like(t)])
        traj = make_traj(t, np.ones_like(t), z_tilde=zt)   # Phi stays I
        assert check_phi_oracle(traj) > 0.1


class TestZeno:
    def test_sparse_jumps_pass(self):
        t = np.linspace(0.0, 2.0, 50)
        jumps = [JumpRecord(t=0.1 * k, j=k, kind=JumpKind.WITHIN_CYCLE)
                 for k in range(15)]
        traj = make_traj(t, np.ones(50), jumps=jumps)
        ok, worst = check_zeno(traj, t_lmin=0.1)
        assert ok and worst <= 2 * math.ceil(10.0) + 1

    def test_burst_fails(self):
        t = np.linspace(0.0, 2.0, 50)
        jumps = [JumpRecord(t=1e-3 * k, j=k, kind=JumpKind.WITHIN_CYCLE)
                 for k in range(30)]
        traj = make_traj(t, np.ones(50), jumps=jumps)
        ok, worst = check_zeno(traj, t_lmin=0.5)
        assert not ok and worst == 30


def _fake_decay(kappa1, kappa2, mu):
    return DecayCertificate(rho=0.5, log_one_minus_rho=math.log(0.5),
                            kappa1=kappa1, kappa2=kappa2, mu=mu)


class TestThresholdEdges:
    """The vobs, phi, dwell, zeno and progress thresholds, with a case on
    each side of each."""

    @pytest.mark.parametrize("rise, ok", [(2e-6, False), (5e-7, True)])
    def test_vobs_relative_slack(self, sv_cert, rise, ok):
        """V rises once by `rise` relative, against the slack of 1e-6."""
        scale = np.sqrt([1.0, 1.0, 1.0 + rise, 1.0 + rise])
        traj = make_traj(np.arange(4.0), np.ones(4),
                         z_tilde=np.outer(scale, [0.3, -0.1]))
        got, worst = check_vobs_monotone(traj, sv_cert)
        assert got is ok
        assert worst == pytest.approx(rise, rel=1e-6)

    @pytest.mark.parametrize("err, ok", [(2e-5, False), (5e-6, True)])
    def test_phi_threshold(self, err, ok):
        """z_tilde off Phi z_tilde0 by `err` relative, against 1e-5. The
        error is a Python float, so the verdict is a Python bool, and a
        failing run reads `verdicts["phi"] is False`."""
        traj = make_traj(np.arange(3.0), np.ones(3),
                         z_tilde=[[1.0, 0.0], [1.0 + err, 0.0], [1.0, 0.0]])
        phi_err = check_phi_oracle(traj)
        assert type(phi_err) is float
        assert phi_err == pytest.approx(err, rel=1e-9)
        rep = BoundReport(
            vobs_monotone=True, vobs_worst_violation=0.0, envelope_ok=True,
            envelope_T=0.0, envelope_margin=1.0, phi_oracle_max_err=phi_err,
            dwell_ok=True, dwell_min_ratio=2.0, zeno_ok=True,
            zeno_max_jumps=0, z2_floor_margin=1.0)
        assert rep.verdicts["phi"] is ok

    @pytest.mark.parametrize("ratio, ok", [(1.0 - 2e-9, False),
                                           (1.0 - 5e-10, True)])
    def test_dwell_slack(self, sv_params, sv_cfg, ratio, ok):
        """Two successive WithinCycle jumps of cycle 1 `ratio` T_l1 apart,
        inside the cycle's invariant set, against the slack 1 - 1e-9."""
        _, t_l1, _ = dwell_time_lower_bound(sv_params, sv_cfg, 1)
        a, b = t_l1, t_l1 + ratio * t_l1
        jumps = [JumpRecord(t=a, j=0, kind=JumpKind.WITHIN_CYCLE),
                 JumpRecord(t=b, j=1, kind=JumpKind.WITHIN_CYCLE)]
        traj = make_traj([0.0, 3.0 * t_l1], np.zeros(2),
                         cycle=np.ones(2, np.int64), jumps=jumps)
        got, min_ratio = check_dwell_lower_bound(traj, sv_params, sv_cfg)
        assert got is ok
        assert min_ratio == pytest.approx(ratio, abs=1e-14)

    @pytest.mark.parametrize("jumps, ok", [(9, True), (10, False)])
    def test_zeno_ceiling(self, jumps, ok):
        """`jumps` jumps within one time unit, against the ceiling
        2 ceil(1/T_lmin) + 1, which is 9 at T_lmin = 0.3: exactly the
        limit passes, one more fails."""
        log = [JumpRecord(t=0.1 * k, j=k, kind=JumpKind.WITHIN_CYCLE)
               for k in range(jumps)]
        traj = make_traj([0.0, 1.0], np.ones(2), jumps=log)
        assert check_zeno(traj, 0.3) == (ok, jumps)

    @pytest.mark.parametrize("margin, ok", [(2e-12, True), (5e-13, False)])
    def test_progress_floor(self, sv_params, sv_cfg, sv_cert, margin, ok):
        """z2 comes within `margin` d/c of -d/c once, against the floor
        1e-12 on min(z2 + d/c)/(d/c)."""
        floor = sv_params.z2_floor
        traj = make_traj(np.arange(3.0), np.ones(3),
                         z2=[0.3, floor - margin * floor, 0.3])
        rep = verify_bounds(traj, sv_params, sv_cfg, sv_cert,
                            _fake_decay(2.0, 1.0, 1.0), from_cycle=0)
        assert rep.z2_floor_margin == pytest.approx(margin, rel=1e-3)
        assert rep.verdicts["progress"] is ok


class TestEnvelope:
    def test_decaying_error_satisfies_envelope(self):
        t = np.linspace(0.0, 5.0, 500)
        zt = np.column_stack([np.exp(-t), np.zeros_like(t)])
        traj = make_traj(t, np.ones_like(t), z_tilde=zt)
        res = check_envelope(traj, _fake_decay(2.0, 1.0, 1.0), 0)
        assert res["envelope_ok"] and res["T"] == 0.0
        assert res["margin"] > 0.0

    def test_growing_error_fails(self):
        t = np.linspace(0.0, 5.0, 500)
        zt = np.column_stack([np.exp(0.5 * t), np.zeros_like(t)])
        traj = make_traj(t, np.ones_like(t), z_tilde=zt)
        res = check_envelope(traj, _fake_decay(2.0, 1.0, 1.0), 0)
        assert not res["envelope_ok"]
        assert res["T"] == math.inf

    def test_late_activation_reported(self):
        # error flat for a while, then decaying: T is the first offset
        # from which the bound holds at every later sample
        # flat until t=1, then e^{-(t-1)}, against a bound of e^{-t/2}:
        # the bound is violated early and holds exactly from t = 2 on
        t = np.linspace(0.0, 5.0, 501)
        mag = np.where(t < 1.0, 1.0, np.exp(-(t - 1.0)))
        zt = np.column_stack([mag, np.zeros_like(t)])
        traj = make_traj(t, np.ones_like(t), z_tilde=zt)
        res = check_envelope(traj, _fake_decay(1.0, 0.5, 1.0), 0)
        assert res["envelope_ok"]
        assert res["T"] == pytest.approx(2.0, abs=0.02)


class TestRunLevelChecks:
    def test_overshoot_bound_holds_on_run(self, golden_run, sv_params,
                                          sv_cfg):
        assert check_overshoot_bound(golden_run, sv_params, sv_cfg, 1)
        assert check_overshoot_bound(golden_run, sv_params, sv_cfg, 2)
        with pytest.raises(CycleNotFound):
            check_overshoot_bound(golden_run, sv_params, sv_cfg, 0)

    @pytest.mark.parametrize("i_star", [1, 2])
    def test_overshoot_closed_form_matches_dop853(self, golden_run,
                                                  sv_params, sv_cfg, i_star):
        """The comparison bound's closed form against a DOP853 integration
        of dz2/dt = M (c z2 + d) at rtol 1e-12."""
        ts, _, bound = overshoot_comparison(golden_run, sv_params, sv_cfg,
                                            i_star)
        assert ts.size > 100
        c, d = sv_params.c, sv_params.d
        M = float(np.abs(golden_run.z1[cycle_slice(golden_run,
                                                   i_star)]).max())
        _, _, t_lmin = dwell_time_lower_bound(sv_params, sv_cfg, i_star)
        z2_0 = (d / c + sv_cfg.epsilon) / 2.0 ** (i_star - 1)
        sol = solve_ivp(lambda _, z: [M * (c * z[0] + d)], (0.0, t_lmin),
                        [z2_0], t_eval=np.clip(ts, 0.0, t_lmin),
                        rtol=1e-12, atol=1e-14, method="DOP853")
        np.testing.assert_allclose(bound, sol.y[0], rtol=1e-10, atol=0.0)

    def test_dwell_lower_bound_ratio(self, golden_run, sv_params, sv_cfg):
        ok, ratio = check_dwell_lower_bound(golden_run, sv_params, sv_cfg)
        assert ok and ratio >= 1.0

    def test_verify_bounds_aggregate(self, golden_run, sv_params, sv_cfg,
                                     sv_cert, sv_gains):
        dwell = extract_dwell(golden_run)
        decay = decay_certificate(
            sv_gains, sv_cert, (dwell.tau_d, dwell.tau_s, dwell.z_under))
        rep = verify_bounds(golden_run, sv_params, sv_cfg, sv_cert, decay,
                            from_cycle=0)
        assert all(rep.verdicts.values())
        d = rep.to_dict()
        assert d["vobs_monotone"] and d["zeno_ok"]
        assert rep.phi_oracle_max_err <= 1e-5
