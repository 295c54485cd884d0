"""Common-Lyapunov certificate, observer-gain completion, and the
constructive dwell-time / decay constants.

The quadratic certificate solves

    A_i' P + P A_i = -C'C,   i in {1, 2},

by the closed form of the 2x2 Lyapunov equation, and is the basis for the
cycle-exit test of the hybrid engine. Both certificates are 2x2 algebra,
written out in float arithmetic and the math module (P, its eigenvalues,
the residuals and the spectral norms), so a run never calls LAPACK. The
decay certificate reproduces the constructive estimation-error envelope

    |z_tilde(t)| <= kappa1 |z_tilde(t0)| exp(-kappa2 mu (t - t0)),

with the injected-gain construction replaced by explicit pole placement
(both closed-loop eigenvalues at -3*lambda), verified in closed form: with
a double eigenvalue the matrix exponential's norm is exact, and the
envelope is checked at its worst point (_envelope_ok). The constants
involved are astronomically conservative for realistic dwell data, so
everything is evaluated in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NoCertificate, PlacementFailed
from .model import (ControllerConfig, ObserverGains, PlantParams, as_dict,
                    g_of, t_lmin_asymptote)

_RESIDUAL_TOL = 1e-9


def complete_gains(params: PlantParams, k1_plus: float,
                   k2_plus: float) -> ObserverGains:
    """Derive (k1_minus, k2_minus) from the common-Lyapunov equalities.

    k1_minus = 2c - k1_plus and c k1+ + a k2+ = c k1- + a k2-; the returned
    gains satisfy all four Hurwitz inequalities, or ObserverGains raises
    InvalidGains naming the first that fails.
    """
    a, c = params.a, params.c
    k1_minus = 2.0 * c - k1_plus
    k2_minus = (c * k1_plus + a * k2_plus - c * k1_minus) / a
    return ObserverGains(params=params, k1_plus=k1_plus, k2_plus=k2_plus,
                         k1_minus=k1_minus, k2_minus=k2_minus)


@dataclass(frozen=True)
class LyapunovCertificate:
    """P solving the common Lyapunov equation, with spectral data."""

    P: np.ndarray
    lambda_min: float
    lambda_max: float
    gamma: float                # sqrt(lambda_max / lambda_min) >= 1
    residual_1: float
    residual_2: float

    to_dict = as_dict


def _norm2(m11: float, m12: float, m21: float, m22: float) -> float:
    """||M||_2 of the 2x2 matrix [[m11, m12], [m21, m22]] in closed form:
    its largest singular value,
    (hypot(m11 + m22, m21 - m12) + hypot(m11 - m22, m12 + m21)) / 2."""
    return 0.5 * (math.hypot(m11 + m22, m21 - m12)
                  + math.hypot(m11 - m22, m12 + m21))


def _residual_norm(A: np.ndarray, p11: float, p12: float,
                   p22: float) -> float:
    """||A' P + P A + C'C||_2, the residual written entrywise."""
    (a11, a12), (a21, a22) = A.tolist()
    r12 = a12 * p11 + (a11 + a22) * p12 + a21 * p22
    return _norm2(2.0 * (a11 * p11 + a21 * p12) + 1.0, r12, r12,
                  2.0 * (a12 * p12 + a22 * p22))


def solve_common_lyapunov(gains: ObserverGains) -> LyapunovCertificate:
    """Solve A_i' P + P A_i = -C'C for both error modes, in closed form.

    For a 2x2 A with trace t and determinant D, A' P + P A = -Q has the
    solution P = (D Q + B' Q B) / (-2 t D) with B = A - t I. With A = A1
    and Q = C'C = [[1, 0], [0, 0]] it reads
    P = [[D + a22^2, -a12 a22], [-a12 a22, a12^2]] / (-2 t D).
    The residual for A2 must then vanish by the gain equality constraints
    and is verified to 1e-9 in spectral norm (_norm2). P is positive
    definite when p22 > 0 and det P = D a12^2 / (2 t D)^2 = D p22 / (-2 t D)
    > 0, a form without the cancellation of p11 p22 - p12^2. Its
    eigenvalues are lambda_max = (p11 + p22)/2 + hypot((p11 - p22)/2, p12)
    and lambda_min = det P / lambda_max. Only float arithmetic and the math
    module are used, so certifying calls no LAPACK.
    """
    A1, A2 = gains.A1, gains.A2
    (a11, a12), (a21, a22) = A1.tolist()
    trace, det = a11 + a22, a11 * a22 - a12 * a21
    den = -2.0 * trace * det
    if den == 0.0 or not math.isfinite(den):
        raise NoCertificate(f"Lyapunov system is singular: trace {trace}, "
                            f"determinant {det} of A1")
    p11, p12, p22 = (det + a22 * a22) / den, -a12 * a22 / den, a12 * a12 / den
    P = np.array([[p11, p12], [p12, p22]])

    res = [_residual_norm(A, p11, p12, p22) for A in (A1, A2)]
    det_p = det * p22 / den
    if not (p22 > 0 and det_p > 0):
        raise NoCertificate(f"P is not positive definite (p22={p22}, "
                            f"det P={det_p})")
    lam_max = 0.5 * (p11 + p22) + math.hypot(0.5 * (p11 - p22), p12)
    lam_min = det_p / lam_max
    if max(res) > _RESIDUAL_TOL:
        raise NoCertificate(f"Lyapunov residuals too large: {res}")
    return LyapunovCertificate(
        P=P,
        lambda_min=lam_min,
        lambda_max=lam_max,
        gamma=math.sqrt(lam_max / lam_min),
        residual_1=res[0],
        residual_2=res[1],
    )


def dwell_time_lower_bound(params: PlantParams, cfg: ControllerConfig,
                           i: int) -> tuple[float, float, float]:
    """Closed-form within-cycle dwell bound (sigma_i, T_li_lower, T_lmin).

    sigma_i = (d/c - eps)/2**(i-1); the bound is the time the comparison
    flow dz2/dt = -(2 z*_in / 2**(i-1)) (c z2 + d) needs to cross the
    estimate-threshold band, and its i -> infinity limit
    (d/c - eps)/(d z*_in) is the uniform floor T_lmin.
    """
    if i < 1:
        raise ValueError(f"cycle index must be >= 1, got {i}")
    t_lmin = t_lmin_asymptote(params, cfg)      # raises unless eps < d/c
    d_over_c = params.d / params.c
    sigma_i = (d_over_c - cfg.epsilon) / 2.0 ** (i - 1)
    t_li = (2.0 ** (i - 1) / (2.0 * params.c * cfg.z_star_init)) \
        * math.log1p(2.0 * sigma_i / (d_over_c - sigma_i))
    return sigma_i, t_li, t_lmin


@dataclass(frozen=True)
class DwellTimeCertificate:
    """Per-cycle dwell quantities certifying the excitation assumption."""

    cycle: int
    sigma_i: float
    T_li_lower: float
    T_lmin: float
    tau_di: float               # T_li / 2
    tau_si: float               # T_ui - T_li / 2
    z_bar_i: float              # (z*_in / 2**(i-1)) (1 + g(i-1))
    z_underbar_i: float         # |z*| / 2 = z*_in / 2**(i+1)

    to_dict = as_dict


def dwell_certificate(params: PlantParams, cfg: ControllerConfig,
                      i: int) -> DwellTimeCertificate:
    """Full per-cycle dwell certificate (tau_d, tau_s, z_bar, z_underbar).

    The off-interval bound tau_si is the time the worst-case comparison flow
    takes to bring z2 back across the band at the minimal rate |z*|/2. For
    i = 1 the comparison target -(d/c + eps) lies beyond the invariant
    asymptote -d/c of the decay flow, so the bound degenerates: tau_si is
    then infinite (use empirically extracted dwell data instead).
    """
    sigma_i, t_li, t_lmin = dwell_time_lower_bound(params, cfg, i)
    c, d = params.c, params.d
    d_over_c = d / c
    g_prev = g_of(cfg, i - 1)
    z_bar = (cfg.z_star_init / 2.0 ** (i - 1)) * (1.0 + g_prev)
    z_under = cfg.z_star_init / 2.0 ** (i + 1)

    # worst-case overshoot phase: growth at rate z_bar for T_li/2, then
    # decay at rate z_under until the band is crossed again
    z2_start = (d_over_c + cfg.epsilon) / 2.0 ** (i - 1)
    z2_peak = (z2_start + d_over_c) * math.exp(c * z_bar * t_li / 2.0) \
        - d_over_c
    z2_target = -(d_over_c + cfg.epsilon) / 2.0 ** (i - 1)
    if z2_target <= -d_over_c:
        t_down = math.inf
    else:
        t_down = (1.0 / (c * z_under)) * math.log(
            (z2_peak + d_over_c) / (z2_target + d_over_c))
    return DwellTimeCertificate(
        cycle=i, sigma_i=sigma_i, T_li_lower=t_li, T_lmin=t_lmin,
        tau_di=t_li / 2.0, tau_si=t_down, z_bar_i=z_bar, z_underbar_i=z_under)


@dataclass(frozen=True)
class DecayCertificate:
    """Constructive constants of the exponential estimation-error envelope."""

    decay_rate: float           # design rate lambda
    c_bar: float
    log_c_bar: float
    K1: np.ndarray
    K2: np.ndarray
    rho: float
    log_one_minus_rho: float
    L: float
    kappa1: float
    kappa2: float
    mu: float

    def with_mu(self, mu: float) -> "DecayCertificate":
        """Certificate with an empirically measured excitation rate."""
        return replace(self, mu=mu)

    to_dict = as_dict


def _place_output_injection(A: np.ndarray, pole: float) -> np.ndarray:
    """K such that A + K C (C = [1 0]) has both eigenvalues at `pole`.

    Only the first column of A is affected by K, so trace and determinant
    assignments decouple: m11 = 2*pole - a22, m21 = (pole^2 - m11 a22)/a12.
    """
    a12, a22 = A[0, 1], A[1, 1]
    m11 = 2.0 * pole - a22
    m21 = (m11 * a22 - pole * pole) / a12
    return np.array([m11 - A[0, 0], m21 - A[1, 0]])


def _envelope_ok(M: np.ndarray, pole: float, lam: float, log_c_bar: float,
                 tau_start: float) -> bool:
    """Whether ||e^{M tau}||_2 <= (1/c_bar) e^{-2 lam (tau - s)} for every
    tau >= s = tau_start.

    M has both eigenvalues at `pole`, so N = M - pole I is nilpotent,
    e^{M tau} = e^(pole tau) (I + N tau) and, with n = ||N||_F,
    ||I + N tau||_2 = exp(asinh(n tau / 2)). The log of the left side over
    the right, asinh(n tau / 2) - r tau plus a constant with
    r = -(pole + 2 lam), is concave in tau. For r > 0 (decay_certificate
    places pole = -3 lam, so r = lam) its maximum over tau >= s lies at s
    or at its stationary point sqrt(1/r^2 - 4/n^2), which exists for
    n > 2 r.
    """
    r = -(pole + 2.0 * lam)
    n = float(np.linalg.norm(M - pole * np.eye(2)))
    tau = tau_start
    if n > 2.0 * r:
        tau = max(tau, math.sqrt(1.0 / (r * r) - 4.0 / (n * n)))
    return pole * tau + math.asinh(0.5 * n * tau) \
        <= -log_c_bar - 2.0 * lam * (tau - tau_start)


def decay_certificate(gains: ObserverGains, cert: LyapunovCertificate,
                      assumption: tuple[float, float, float, float]
                      ) -> DecayCertificate:
    """Constructive envelope constants from dwell data.

    assumption = (tau_d, tau_s, z_underbar, z_bar): minimal on-interval
    length, maximal gap, and the excitation floor/ceiling of |z1|. The decay
    rate lambda is searched on a logarithmic grid; L is the smallest grid
    value reaching rho <= 0.9, falling back to the best rho < 1 when
    the target is out of reach (the constants are conservative by design).
    The overshoot log c_bar = max_i ||A_i||_2 z_bar tau_s takes the
    spectral norms in closed form (_norm2).
    """
    tau_d, tau_s, z_under, z_bar = assumption
    if min(tau_d, z_under, z_bar) <= 0 or tau_s < 0:
        raise ValueError("dwell quantities must be strictly positive "
                         "(tau_s may be zero)")
    A1, A2 = gains.A1, gains.A2
    a_norm = max(_norm2(*A.ravel().tolist()) for A in (A1, A2))
    log_c_bar = a_norm * z_bar * tau_s
    c_bar = math.exp(log_c_bar) if log_c_bar < 700 else math.inf

    s = tau_d * z_under / 2.0       # envelope activation point in tau-time

    lam = None
    lam0 = max(log_c_bar, 1.0) / (3.0 * s)
    for mult in np.geomspace(1.0, 1e4, 60):
        cand = lam0 * mult
        pole = -3.0 * cand
        K1 = _place_output_injection(A1, pole)
        K2 = _place_output_injection(A2, pole)
        M1 = A1 + np.outer(K1, [1.0, 0.0])
        M2 = A2 + np.outer(K2, [1.0, 0.0])
        if _envelope_ok(M1, pole, cand, log_c_bar, s) and \
           _envelope_ok(M2, pole, cand, log_c_bar, s):
            lam = cand
            break
    if lam is None:
        raise PlacementFailed("no decay rate on the search grid satisfies "
                              "the injected-gain envelope")

    k_inj = max(np.linalg.norm(K1), np.linalg.norm(K2))
    p_m, p_M = cert.lambda_min, cert.lambda_max
    gamma_r = p_M / p_m
    log_k_bar = math.log(p_M) + 2.0 * log_c_bar + 2.0 * math.log(k_inj) \
        - math.log(lam)
    log_2gc2 = math.log(2.0 * gamma_r) + 2.0 * log_c_bar

    # rho(L) = (2 gamma c_bar^2 e^{-2 lam L} + k_bar) / (1 + k_bar); every
    # grid L is at least 1.01 L0, so log_x <= -0.01 log_2gc2 <= -0.01 log 2
    def log_one_minus_rho_of(L: float) -> float:
        log_x = log_2gc2 - 2.0 * lam * L
        one_minus_x = -math.expm1(log_x)
        return math.log(one_minus_x) - np.logaddexp(0.0, log_k_bar)

    L0 = log_2gc2 / (2.0 * lam)     # x = 1 threshold
    chosen = None
    for L in np.geomspace(max(L0, 1e-12) * 1.01, max(L0, 1e-12) * 1e4, 200):
        lg = log_one_minus_rho_of(L)
        one_minus_rho = math.exp(lg) if lg > -745 else 5e-324
        rho = 1.0 - one_minus_rho
        if rho >= 1.0:
            rho = math.nextafter(1.0, 0.0)
        if rho <= 0.9:
            chosen = (L, rho, lg)
            break
        if chosen is None or rho < chosen[1]:
            chosen = (L, rho, lg)
    L, rho, lg = chosen

    # kappa1 = gamma (k_bar + 2 c_bar^2 gamma) / (rho (1 + k_bar))
    log_num = math.log(gamma_r) + np.logaddexp(log_k_bar, log_2gc2)
    log_den = math.log(rho) + np.logaddexp(0.0, log_k_bar)
    kappa1 = math.exp(log_num - log_den)
    # kappa2 = -ln(rho)/L evaluated through log1p for rho close to 1
    one_minus_rho = math.exp(lg) if lg > -745 else 5e-324
    kappa2 = -math.log1p(-one_minus_rho) / L
    if kappa2 <= 0.0:
        kappa2 = 5e-324 / L if L < 1.0 else 5e-324

    mu_analytic = z_under * tau_d / (tau_d + tau_s)
    return DecayCertificate(
        decay_rate=lam, c_bar=c_bar, log_c_bar=log_c_bar,
        K1=K1, K2=K2, rho=rho, log_one_minus_rho=lg, L=float(L),
        kappa1=kappa1, kappa2=kappa2, mu=mu_analytic)
