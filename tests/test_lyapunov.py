"""Unit tests for gain completion, the common Lyapunov certificate and the
dwell and decay certificates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import expm

from xbstab import (InvalidGains, NoCertificate, ObserverGains,
                    PlantParams, complete_gains, dwell_certificate,
                    dwell_time_lower_bound, solve_common_lyapunov)
from xbstab.lyapunov import (_log_rho, _norm2, _residual_norm,
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

    @pytest.mark.parametrize("off, ratio", [(4e-12, 3.03), (4e-13, 0.30)])
    def test_refusal_bound_edge(self, sv_params, sv_gains, sv_cert, off,
                                ratio):
        """k2- off by 4e-12 relative leaves an A2 residual 3.03 times the
        bound 8 eps (2 ||A2||_2 lambda_max + 1), and is refused; off by
        4e-13 it is 0.30 times the bound, and is certified."""
        gains = ObserverGains(params=sv_params, k1_plus=sv_gains.k1_plus,
                              k2_plus=sv_gains.k2_plus,
                              k1_minus=sv_gains.k1_minus,
                              k2_minus=sv_gains.k2_minus * (1.0 + off))
        (p11, p12), (_, p22) = sv_cert.P.tolist()     # P is A1's alone
        bound = 8.0 * _EPS * (2.0 * _norm2(*gains.A2.ravel().tolist())
                              * sv_cert.lambda_max + 1.0)
        residual = _residual_norm(gains.A2, p11, p12, p22)
        assert residual / bound == pytest.approx(ratio, abs=0.01)
        if ratio > 1.0:
            with pytest.raises(NoCertificate, match="residuals too large"):
                solve_common_lyapunov(gains)
        else:
            assert solve_common_lyapunov(gains).residual_2 == residual

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

    @pytest.mark.parametrize("k1_plus, k2_plus", [
        (1e160, -1e160),                            # -2 tr det overflows
        (25.475987993997, -1.630463231615808)])     # det A1 rounds to 0
    def test_singular_system_refused(self, sv_params, k1_plus, k2_plus):
        """Gains that pass ObserverGains' validation can leave the
        Lyapunov system of A1 without a finite solution in floats: its
        denominator -2 tr(A1) det(A1) overflows to inf, or det(A1), the
        difference of two products that cancel, rounds to 0."""
        gains = ObserverGains(sv_params, k1_plus, k2_plus, 8.0, -1e10)
        with pytest.raises(NoCertificate, match="^Lyapunov system is "
                                                "singular"):
            solve_common_lyapunov(gains)

    def test_underflowing_p_is_not_positive_definite(self):
        """With a = 1e-200, p22 = a^2 / (-2 tr det) underflows to 0: gains
        that pass validation, and those complete_gains derives, are refused
        as not positive definite."""
        params = PlantParams(a=1e-200, c=24.0, d=12.5)
        for gains in (ObserverGains(params, 40.0, -1e203, 8.0, -1e203),
                      complete_gains(params, 40.0, -1e203)):
            with pytest.raises(NoCertificate, match="^P is not positive "
                                                    "definite"):
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
    def test_contraction_and_envelope_constants(self, sv_gains, sv_cert):
        d = decay_certificate(sv_gains, sv_cert, (1e-3, 2e-3, 9.0))
        assert 0.0 < d.rho < 1.0
        assert d.kappa1 == pytest.approx(sv_cert.gamma / math.sqrt(d.rho),
                                         rel=1e-12)
        assert d.kappa2 == pytest.approx(-math.log(d.rho) / (2 * 9e-3),
                                         rel=1e-9)
        assert d.mu == pytest.approx(9.0 * 1e-3 / 4e-3)
        assert d.log_one_minus_rho == pytest.approx(math.log1p(-d.rho),
                                                    abs=1e-12)

    def test_fields_are_python_floats(self, sv_gains, sv_cert):
        for T in (8.22e-3, 1.0, 74.9):
            d = decay_certificate(sv_gains, sv_cert, (T / 4.0, 2e-3, 4.0))
            assert all(type(v) is float for v in d.to_dict().values())

    def test_long_window_keeps_kappa2_finite(self, sv_gains, sv_cert):
        """The stall reproducers' one interval of 2 s covers T = 74.9:
        rho underflows to 0, but its log does not, so kappa2 is finite
        and the shipped modes' decay rate -8 shows in it."""
        d = decay_certificate(sv_gains, sv_cert, (2.0, 0.0, 74.9 / 2.0))
        assert d.rho == 0.0 and d.log_one_minus_rho == 0.0
        assert d.kappa2 == pytest.approx(8.0, rel=1e-2)
        assert math.isfinite(d.kappa1)

    def test_rho_decreases_with_longer_window(self, sv_gains, sv_cert):
        for A in (sv_gains.A1, sv_gains.A2):
            log_rho = [_log_rho(A, sv_cert, T)[0]
                       for T in np.geomspace(1e-6, 40.0, 60)]
            assert all(np.diff(log_rho) < 0.0)

    def test_rejects_nonpositive_dwell_data(self, sv_gains, sv_cert):
        with pytest.raises(ValueError):
            decay_certificate(sv_gains, sv_cert, (0.0, 1.0, 1.0))


def _reference_log_rho(A, P, T):
    """(log rho, 1 - rho) by scipy: 1 - rho = lambda_min(W, P) for the
    Gramian W from scipy quad of e^{A's} C'C e^{As} (with scipy expm),
    taken as det W / det P / lambda_max, since an eigensolver's smallest
    eigenvalue is only good to eps lambda_max; log rho =
    2 r T + log lambda_max(F'PF, P) with F = expm((A - rI) T) and r the
    largest real part of an eigenvalue of A."""
    L_inv = np.linalg.inv(np.linalg.cholesky(P))
    r = max(np.linalg.eigvals(A).real)
    F = expm((A - r * np.eye(2)) * T)
    log_rho = 2.0 * r * T + math.log(
        np.linalg.eigvalsh(L_inv @ F.T @ P @ F @ L_inv.T)[1])
    if log_rho < math.log(0.25):
        return log_rho, None

    def entry(s, i, j):
        row = expm(A * s)[0]
        return row[i] * row[j]

    # w11 and w22 integrate squares, to 1e-13 relative; w12 can cancel,
    # so it is held to 1e-14 of its Cauchy-Schwarz bound sqrt(w11 w22)
    w11, w22 = (quad(entry, 0.0, T, args=(i, i), epsabs=0.0, epsrel=1e-13,
                     limit=1000)[0] for i in (0, 1))
    w12 = quad(entry, 0.0, T, args=(0, 1), epsabs=1e-14 * math.sqrt(
        w11 * w22), epsrel=1e-13, limit=1000)[0]
    W = np.array([[w11, w12], [w12, w22]])
    lam_max = np.linalg.eigvalsh(L_inv @ W @ L_inv.T)[1]
    return log_rho, np.linalg.det(W) / np.linalg.det(P) / lam_max


def _assert_log_rho_matches(A, cert, T, rel=0.0):
    """1 - rho to 1e-10 relative where rho >= 1/2, log rho to 1e-10
    absolute below, or to `rel` relative where that is larger."""
    log_rho, log_one_minus_rho = _log_rho(A, cert, T)
    ref_log_rho, ref_one_minus_rho = _reference_log_rho(A, cert.P, T)
    if log_rho >= -math.log(2.0):
        assert math.exp(log_one_minus_rho) == pytest.approx(
            ref_one_minus_rho, rel=1e-10, abs=0.0), T
    else:
        assert log_rho == pytest.approx(ref_log_rho, rel=rel, abs=1e-10), T


def _whole_stretches(intervals, t0, t, tau_d):
    """The most disjoint stretches of length tau_d, each inside one
    interval, that fit in [t0, t]."""
    return sum(max(0, min(b, t) - max(a, t0)) // tau_d for a, b in intervals)


def test_window_count_of_the_decay_certificate():
    """decay_certificate counts one contraction per 2 tau_d + tau_s from
    any t0 at most tau_s before the first interval. On intervals of
    2 tau_d - delta with gaps of tau_s (in integers: tau_d 10, tau_s 15,
    delta 1), every [t0, t] on the grid holds that many whole tau_d
    stretches, while one per tau_d + tau_s overcounts."""
    tau_d, tau_s, delta = 10, 15, 1
    period = 2 * tau_d - delta + tau_s
    intervals = [(k * period, k * period + 2 * tau_d - delta)
                 for k in range(8)]
    end = intervals[-1][1]
    overcounted = False
    for t0 in range(-tau_s, end + 1):
        for t in range(t0, end + 1):
            n = _whole_stretches(intervals, t0, t, tau_d)
            assert n >= (t - t0) // (2 * tau_d + tau_s), (t0, t)
            overcounted |= n < (t - t0) // (tau_d + tau_s)
    assert overcounted


class TestContractionAgainstGramian:
    """lyapunov._log_rho, which builds e^{AT} from fastpath._expm_pq and
    sums the Gramian by doubling, against scipy's quadrature of the
    Gramian and scipy's matrix exponential."""

    @pytest.mark.parametrize("T", [1e-6, 1e-5, 8.6e-5, 1e-3, 8.22e-3, 0.03,
                                   0.1, 0.15, 0.2, 1.0, 5.0, 40.0])
    def test_shipped_gains(self, sv_gains, sv_cert, T):
        for A in (sv_gains.A1, sv_gains.A2):
            _assert_log_rho_matches(A, sv_cert, T)

    @settings(max_examples=40, deadline=None)
    @given(_valid_gains(), st.floats(-6.0, math.log10(40.0)))
    def test_closed_forms_draws(self, draw, log_T):
        """Both modes of TestClosedForms' gains, at T from 1e-6 to 40.
        log rho reaches -1.2e4 here, where scipy's expm is the weaker
        side: against 60-digit arithmetic it was off by up to 4.6e-7
        (4e-11 relative), _log_rho by 2.4e-9."""
        a, c, d, k1, k2 = draw
        gains = complete_gains(PlantParams(a=a, c=c, d=d), k1, k2)
        cert = solve_common_lyapunov(gains)
        for A in (gains.A1, gains.A2):
            _assert_log_rho_matches(A, cert, 10.0 ** log_T, rel=1e-10)
