"""Unit tests for gain completion, the common Lyapunov certificate and the
constructive dwell/decay constants."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xbstab import (InvalidGains, NoCertificate, ObserverGains,
                    PlantParams, complete_gains, dwell_certificate,
                    dwell_time_lower_bound, solve_common_lyapunov)
from xbstab.analysis import extract_dwell
from xbstab.cli import build_scenario
from xbstab.engine import simulate
from xbstab.lyapunov import (_envelope_ok, _norm2, _place_output_injection,
                             decay_certificate)

from test_model import make_cfg


class TestCompleteGains:
    def test_reference_scenario_exact(self, sv_params):
        g = complete_gains(sv_params, 40.0, -3.0)
        assert g.k1_minus == 8.0
        assert g.k2_minus == -357.0 / 375.0

    def test_unit_example(self):
        p = PlantParams(a=1.0, c=1.0, d=1.0)
        g = complete_gains(p, 2.0, -3.0)
        assert g.k1_minus == 0.0
        assert g.k2_minus == -1.0

    def test_precondition_rejection(self, sv_params):
        with pytest.raises(InvalidGains):
            complete_gains(sv_params, 20.0, -3.0)          # k1+ <= c
        with pytest.raises(InvalidGains):
            complete_gains(sv_params, 40.0, -1.0)          # k2+ too large

    @given(st.floats(min_value=1.0, max_value=500.0),
           st.floats(min_value=0.5, max_value=50.0),
           st.floats(min_value=1.01, max_value=5.0),
           st.floats(min_value=1.01, max_value=10.0))
    def test_equalities_hold_generically(self, a, c, r1, r2):
        p = PlantParams(a=a, c=c, d=1.0)
        k1p = c * r1
        k2p = -(c / a) * k1p * r2
        g = complete_gains(p, k1p, k2p)
        assert g.k1_minus == pytest.approx(2 * c - k1p, rel=1e-12)
        assert c * k1p + a * k2p == pytest.approx(
            c * g.k1_minus + a * g.k2_minus, rel=1e-9, abs=1e-9)


class TestCommonLyapunov:
    def test_reference_certificate(self, sv_cert):
        assert np.allclose(
            sv_cert.P, [[0.14034, 1.70455], [1.70455, 26.6335]], atol=1e-4)
        assert np.linalg.det(sv_cert.P) == pytest.approx(0.832, abs=2e-3)
        assert sv_cert.gamma == pytest.approx(29.31, rel=0.01)
        assert sv_cert.lambda_min == pytest.approx(0.03112, rel=1e-3)
        assert sv_cert.lambda_max == pytest.approx(26.7427, rel=1e-3)

    def test_residuals_both_modes(self, sv_gains, sv_cert):
        CtC = np.array([[1.0, 0.0], [0.0, 0.0]])
        for A in (sv_gains.A1, sv_gains.A2):
            res = np.linalg.norm(A.T @ sv_cert.P + sv_cert.P @ A + CtC, 2)
            assert res <= 1e-9

    @given(w1=st.floats(min_value=-10, max_value=10),
           w2=st.floats(min_value=-10, max_value=10))
    def test_vobs_derivative_structurally_nonpositive(self, sv_gains,
                                                      sv_cert, w1, w2):
        w = np.array([w1, w2])
        for A in (sv_gains.A1, sv_gains.A2):
            q = w @ (A.T @ sv_cert.P + sv_cert.P @ A) @ w
            assert q == pytest.approx(-w1 * w1, abs=1e-9 * (1 + w1 * w1))

    def test_generic_valid_gains_yield_certificate(self):
        p = PlantParams(a=10.0, c=2.0, d=1.0)
        cert = solve_common_lyapunov(complete_gains(p, 5.0, -2.0))
        assert cert.lambda_min > 0 and cert.gamma >= 1.0

    def test_large_p_is_certified(self):
        """k1+ just above c makes ||P||_2 about 4.5e6, and the residuals of
        the correct P, rounding of order eps ||A||_2 ||P||_2, about 3.7e-9:
        the bound on them scales with ||P||_2, so the gains certify."""
        gains = complete_gains(PlantParams(a=375.0, c=2.5, d=1.0),
                               2.505, -0.02505)
        cert = solve_common_lyapunov(gains)
        assert cert.lambda_max > 4e6
        assert max(cert.residual_1, cert.residual_2) > 1e-9
        assert cert.lambda_min > 0

    def test_gains_off_the_equalities_are_refused(self, sv_params,
                                                  sv_gains):
        """The shipped gains with k2- off by 1e-9 relative leave an A2
        residual of 2.7e-8, far above the rounding bound of 3.6e-11."""
        gains = ObserverGains(params=sv_params, k1_plus=sv_gains.k1_plus,
                              k2_plus=sv_gains.k2_plus,
                              k1_minus=sv_gains.k1_minus,
                              k2_minus=sv_gains.k2_minus * (1.0 + 1e-9))
        with pytest.raises(NoCertificate, match="residuals too large"):
            solve_common_lyapunov(gains)


_EPS = np.finfo(float).eps


@st.composite
def _valid_gains(draw):
    """(a, c, d, k1+, k2+) with k1+ = r c and k2+ below -(c/a) k1+ by the
    factor 1 + rho (k1+ - c)^2 / (4 c k1+). A1 has the discriminant
    tr^2 - 4 det = (1 - rho) (k1+ - c)^2: real eigenvalues for rho < 1,
    complex ones for rho > 1 and nearly repeated ones for rho = 1 +- 1e-13
    to 1e-2. TestClosedForms' bounds were measured over these ranges.
    Past them P grows, and with it its residual, rounding of order
    eps ||A|| ||P||, which the refusal bound follows
    (test_large_p_is_certified)."""
    a = draw(st.floats(1.0, 400.0))
    c = draw(st.floats(5.0, 50.0))
    k1 = c * draw(st.floats(1.5, 10.0))
    near = draw(st.floats(-13.0, -2.0))
    rho = draw(st.one_of(
        st.floats(-1.0, 1.0).map(lambda e: 10.0 ** e),
        st.sampled_from([-1.0, 1.0]).map(lambda sgn: 1.0 + sgn * 10 ** near)))
    k2 = -(c / a) * k1 * (1.0 + rho * (k1 - c) ** 2 / (4.0 * c * k1))
    return a, c, draw(st.floats(0.1, 50.0)), k1, k2


class TestClosedForms:
    """solve_common_lyapunov's and decay_certificate's closed forms against
    numpy.linalg (LAPACK) as the reference. The bounds are multiples of
    the unit roundoff eps: P to 4 eps cond(M) ||P||_2, with M the 3x3
    system in (p11, p12, p22) that a backward-stable solve meets to
    cond(M) eps; lambda_min and lambda_max to 8 eps lambda_max (Weyl: an
    eigensolver's absolute error is eps ||P||_2); each residual, itself
    rounding-sized, to 8 eps (2 ||A||_2 ||P||_2 + 1), the rounding of the
    terms it sums; ||A_i||_2 to 16 eps relative (four sums, two hypots).
    Measured worst over 2e4 random draws: 0.22, 1.2, 0.46 and 4.3 of
    these units."""

    @settings(max_examples=300, deadline=None)
    @given(_valid_gains())
    def test_against_lapack(self, draw):
        a, c, d, k1, k2 = draw
        gains = complete_gains(PlantParams(a=a, c=c, d=d), k1, k2)
        cert = solve_common_lyapunov(gains)
        (a11, a12), (a21, a22) = gains.A1
        M = np.array([[2.0 * a11, 2.0 * a21, 0.0],
                      [a12, a11 + a22, a21],
                      [0.0, 2.0 * a12, 2.0 * a22]])
        p11, p12, p22 = np.linalg.solve(M, [-1.0, 0.0, 0.0])
        p_norm = np.linalg.norm(cert.P, 2)
        assert np.abs(cert.P - [[p11, p12], [p12, p22]]).max() \
            <= 4.0 * _EPS * np.linalg.cond(M) * p_norm
        lo, hi = np.linalg.eigvalsh(cert.P)
        assert abs(cert.lambda_min - lo) <= 8.0 * _EPS * hi
        assert abs(cert.lambda_max - hi) <= 8.0 * _EPS * hi
        CtC = np.array([[1.0, 0.0], [0.0, 0.0]])
        for A, res in ((gains.A1, cert.residual_1),
                       (gains.A2, cert.residual_2)):
            a_norm = np.linalg.norm(A, 2)
            ref = np.linalg.norm(A.T @ cert.P + cert.P @ A + CtC, 2)
            assert abs(res - ref) <= 8.0 * _EPS * (2.0 * a_norm * p_norm
                                                   + 1.0)
            assert abs(_norm2(*A.ravel().tolist()) - a_norm) \
                <= 16.0 * _EPS * a_norm

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([-1.0, 1.0]),
                              st.floats(-3.0, 3.0)),
                    min_size=4, max_size=4))
    def test_spectral_norm_formula(self, entries):
        """||M||_2 of 2x2 matrices with entries of magnitude 1e-3 to 1e3
        and any signs, to 16 eps relative."""
        m = [sgn * 10.0 ** e for sgn, e in entries]
        ref = np.linalg.norm(np.reshape(m, (2, 2)), 2)
        assert abs(_norm2(*m) - ref) <= 16.0 * _EPS * ref

    def test_shipped_p_is_the_exact_solution_rounded(self, sv_cert):
        """For (a, c) = (375, 24) and gains (40, -3), A1 has integer
        entries: trace -16, determinant 165, and P = [[741, 9000],
        [9000, 140625]] / 5280. The closed form gives each entry
        correctly rounded."""
        assert sv_cert.P.tolist() == [[741 / 5280, 9000 / 5280],
                                      [9000 / 5280, 140625 / 5280]]


class TestDwellTime:
    def test_reference_values(self, sv_params):
        cfg = make_cfg()
        sigma1, t_l1, t_lmin = dwell_time_lower_bound(sv_params, cfg, 1)
        assert sigma1 == pytest.approx(12.5 / 24.0 - 0.01)
        assert t_l1 == pytest.approx(1.288e-3, rel=1e-3)
        assert t_lmin == pytest.approx(5.449e-4, rel=1e-3)

    def test_monotone_toward_positive_limit(self, sv_params):
        cfg = make_cfg()
        prev = math.inf
        _, _, t_lmin = dwell_time_lower_bound(sv_params, cfg, 1)
        # strictly decreasing until the sequence hits float resolution
        for i in range(1, 15):
            _, t_li, _ = dwell_time_lower_bound(sv_params, cfg, i)
            assert t_li < prev
            assert t_li > t_lmin * (1.0 - 1e-12)
            prev = t_li
        _, t_li, _ = dwell_time_lower_bound(sv_params, cfg, 40)
        assert t_li == pytest.approx(t_lmin, rel=1e-6)

    def test_degenerate_band_rejected(self, sv_params):
        with pytest.raises(ValueError):
            dwell_time_lower_bound(sv_params, make_cfg(epsilon=0.6), 1)

    def test_certificate_structure(self, sv_params):
        cfg = make_cfg()
        c1 = dwell_certificate(sv_params, cfg, 1)
        assert math.isinf(c1.tau_si)     # first-cycle gap bound degenerates
        c2 = dwell_certificate(sv_params, cfg, 2)
        assert math.isfinite(c2.tau_si) and c2.tau_si > 0
        assert c2.z_underbar_i < c2.z_bar_i
        assert c2.tau_di == pytest.approx(c2.T_li_lower / 2)


class TestDecayCertificate:
    def test_no_gap_means_unit_overshoot(self, sv_gains, sv_cert):
        d = decay_certificate(sv_gains, sv_cert, (1e-3, 0.0, 1.0, 10.0))
        assert d.c_bar == 1.0 and d.log_c_bar == 0.0

    def test_contraction_and_envelope_constants(self, sv_gains, sv_cert):
        d = decay_certificate(sv_gains, sv_cert, (1e-3, 2e-3, 9.0, 75.0))
        assert 0.0 < d.rho < 1.0
        assert d.kappa1 >= 1.0
        assert d.kappa2 > 0.0
        assert d.mu == pytest.approx(9.0 * 1e-3 / 3e-3)

    def test_rho_decreases_with_longer_window(self, sv_gains, sv_cert):
        """Recompute 1 - rho from the defining formula in log space (rho
        itself rounds to 1.0 in floats) and check a longer averaging
        window strictly improves the contraction factor."""
        d = decay_certificate(sv_gains, sv_cert, (1e-3, 2e-3, 9.0, 75.0))
        gamma_r = sv_cert.lambda_max / sv_cert.lambda_min
        log_2gc2 = math.log(2 * gamma_r) + 2 * d.log_c_bar
        log_k_bar = (math.log(sv_cert.lambda_max) + 2 * d.log_c_bar
                     + 2 * math.log(max(np.linalg.norm(d.K1),
                                        np.linalg.norm(d.K2)))
                     - math.log(d.decay_rate))

        def log_one_minus_rho(L):
            log_x = log_2gc2 - 2 * d.decay_rate * L
            return math.log(-math.expm1(log_x)) \
                - np.logaddexp(0.0, log_k_bar)

        assert log_one_minus_rho(d.L) == pytest.approx(
            d.log_one_minus_rho, rel=1e-9)
        assert log_one_minus_rho(2 * d.L) > log_one_minus_rho(d.L)

    def test_with_mu_override(self, sv_gains, sv_cert):
        d = decay_certificate(sv_gains, sv_cert, (1e-3, 2e-3, 9.0, 75.0))
        d2 = d.with_mu(5.0)
        assert d2.mu == 5.0
        assert d2.kappa1 == d.kappa1

    def test_rejects_nonpositive_dwell_data(self, sv_gains, sv_cert):
        with pytest.raises(ValueError):
            decay_certificate(sv_gains, sv_cert, (0.0, 1.0, 1.0, 1.0))


def _envelope_ok_loop(M, pole, lam, log_c_bar, tau_start):
    """The envelope check one tau at a time at 400 taus: the sampled
    oracle of the closed-form lyapunov._envelope_ok."""
    for tau in np.linspace(tau_start, tau_start + 60.0 / lam, 400):
        G = np.eye(2) + (M - pole * np.eye(2)) * tau
        lhs = pole * tau + math.log(np.linalg.norm(G, 2))
        if lhs > -log_c_bar - 2.0 * lam * (tau - tau_start):
            return False
    return True


@pytest.mark.parametrize("k", [500.0, 400.0])
def test_batched_envelope_check_matches_loop(scenario_dict, k):
    """On the dwell data of the shipped scenario and of its k = 400
    variant, the closed-form check gives the sampled loop's verdict for
    both modes at every decay rate of decay_certificate's search grid."""
    cfg = json.loads(json.dumps(scenario_dict))
    cfg["controller"]["k"] = k
    scn = build_scenario(cfg)
    traj = simulate(scn.params, scn.gains, scn.cert, scn.cfg, scn.solver,
                    scn.z0, scn.z_hat0, k=scn.k)
    dwell = extract_dwell(traj)
    A1, A2 = scn.gains.A1, scn.gains.A2
    log_c_bar = max(np.linalg.norm(A1, 2), np.linalg.norm(A2, 2)) \
        * dwell.z_bar * dwell.tau_s
    s = dwell.tau_d * dwell.z_under / 2.0
    verdicts = []
    for mult in np.geomspace(1.0, 1e4, 60):
        lam = max(log_c_bar, 1.0) / (3.0 * s) * mult
        for A in (A1, A2):
            M = A + np.outer(_place_output_injection(A, -3.0 * lam),
                             [1.0, 0.0])
            verdict = _envelope_ok(M, -3.0 * lam, lam, log_c_bar, s)
            assert verdict == _envelope_ok_loop(M, -3.0 * lam, lam,
                                                log_c_bar, s), (mult, A)
            verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_envelope_maximum_between_samples_is_caught():
    """A case whose worst tau lies midway between two of the 400 taus the
    sampled check takes: over all tau >= s the envelope fails by 5e-4 in
    the log, which both neighbouring samples miss by about 2e-3, and 1e-3
    less log c_bar makes it hold."""
    lam, pole = 1.0, -3.0
    M = pole * np.eye(2) + np.array([[0.0, 10.0], [0.0, 0.0]])
    peak = math.sqrt(1.0 - 4.0 / 10.0 ** 2)      # stationary, ||N||_F = 10
    s = peak - 30.0 / 399.0     # the samples s and s + 60/399 straddle it

    def excess(taus, log_c_bar):
        G = np.eye(2) + (M - pole * np.eye(2)) * taus[:, None, None]
        return pole * taus + np.log(np.linalg.norm(G, 2, axis=(1, 2))) \
            + log_c_bar + 2.0 * lam * (taus - s)

    log_c_bar = 5e-4 - excess(np.array([peak]), 0.0)[0]
    dense = excess(np.linspace(s, s + 60.0 / lam, 100001), log_c_bar)
    assert dense.max() == pytest.approx(5e-4, abs=1e-7)
    assert _envelope_ok_loop(M, pole, lam, log_c_bar, s)
    assert not _envelope_ok(M, pole, lam, log_c_bar, s)
    assert _envelope_ok(M, pole, lam, log_c_bar - 1e-3, s)


class TestPolePlacement:
    @pytest.mark.parametrize("pole", [-5.0, -50.0, -500.0])
    def test_both_eigenvalues_at_pole(self, sv_gains, pole):
        for A in (sv_gains.A1, sv_gains.A2):
            K = _place_output_injection(A, pole)
            M = A + np.outer(K, [1.0, 0.0])
            eigs = np.linalg.eigvals(M)
            # a defective double eigenvalue splits by ~sqrt(machine eps)
            assert np.allclose(sorted(eigs.real), [pole, pole], rtol=1e-6)
            assert np.allclose(eigs.imag, 0.0, atol=1e-5 * abs(pole))
            # the characteristic polynomial coefficients are exact targets
            assert np.trace(M) == pytest.approx(2 * pole, rel=1e-12)
            assert np.linalg.det(M) == pytest.approx(pole * pole,
                                                     rel=1e-12)
