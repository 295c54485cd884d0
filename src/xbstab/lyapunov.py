"""Common-Lyapunov certificate, observer-gain completion, and the
dwell-time and decay certificates.

The quadratic certificate solves

    A_i' P + P A_i = -C'C,   i in {1, 2},

by the closed form of the 2x2 Lyapunov equation, and is the basis for the
cycle-exit test of the hybrid engine. The decay certificate is the
contraction of V = z_tilde' P z_tilde over one excitation window, which
gives the estimation-error envelope

    |z_tilde(t)| <= kappa1 |z_tilde(t0)| exp(-kappa2 mu (t - t0))

for any t0 at most tau_s before the first excitation interval; over a
window of tau-length T, 1 - rho grows like T^3 (decay_certificate). Both
certificates are 2x2 algebra, written out in float arithmetic and the
math module, so a run never calls LAPACK.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NoCertificate
from .fastpath import _expm_pq, _split
from .model import (ControllerConfig, ObserverGains, PlantParams, as_dict,
                    g_of, t_lmin_asymptote)

# a residual above this times 2 ||A_i||_2 lambda_max + 1, the rounding of
# the terms it sums, refuses the certificate
_RESIDUAL_EPS = 8.0 * sys.float_info.epsilon


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
    The residual for A2 must then vanish by the gain equality constraints.
    Each residual, in spectral norm (_norm2), is held to the rounding of
    the terms it sums, 8 eps (2 ||A_i||_2 lambda_max + 1), so a correct P
    is accepted however large it is. P is positive definite when p22 > 0
    and det P = D a12^2 / (2 t D)^2 = D p22 / (-2 t D) > 0, a form
    without the cancellation of p11 p22 - p12^2. Its
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
    if any(r > _RESIDUAL_EPS * (2.0 * _norm2(*A.ravel().tolist()) * lam_max
                                + 1.0) for A, r in zip((A1, A2), res)):
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
    """The exponential envelope of the estimation error, from the factor
    rho by which V contracts over one excitation window
    (decay_certificate); log(1 - rho) carries rho where it rounds to 1."""

    rho: float
    log_one_minus_rho: float
    kappa1: float               # gamma / sqrt(rho)
    kappa2: float               # -ln(rho) / (2 T)
    mu: float                   # T / (2 tau_d + tau_s)

    to_dict = as_dict


def _gramian(md: tuple, T: float) -> tuple[float, float, float]:
    """(w11, w12, w22) of the observability Gramian
    W(T) = int_0^T e^{A's} C'C e^{As} ds of the mode A split as md.

    W(T) equals P - e^{A'T} P e^{AT}, but that difference cancels where
    1 - rho is small, so W is summed from terms that do not: at
    h = T / 2^k with h ||A||_2 <= eps, W(h) = h [[1, y/2], [y/2, y^2/3]]
    to rounding, y = a12 h, then k doublings
    W(2h) = W(h) + e^{A'h} W(h) e^{Ah}, with e^{Ah} = pI + qN (_expm_pq).
    """
    mu, n11, n12, n21 = md[:4]
    a_norm = _norm2(mu + n11, n12, n21, mu - n11)
    k = max(0, math.ceil(math.log2(T * a_norm) + 53))
    h = T / 2.0 ** k
    w11, w12, w22 = h, 0.5 * h * h * n12, h * (h * n12) ** 2 / 3.0
    for _ in range(k):
        p, q = _expm_pq(md, h)
        e11, e12, e21, e22 = p + q * n11, q * n12, q * n21, p - q * n11
        z11, z12 = w11 * e11 + w12 * e21, w11 * e12 + w12 * e22
        z21, z22 = w12 * e11 + w22 * e21, w12 * e12 + w22 * e22
        w11, w12, w22 = (w11 + e11 * z11 + e21 * z21,
                         w12 + e11 * z12 + e21 * z22,
                         w22 + e12 * z12 + e22 * z22)
        h *= 2.0
    return w11, w12, w22


def _log_rho(A: np.ndarray, cert: LyapunovCertificate,
             T: float) -> tuple[float, float]:
    """(log rho, log(1 - rho)) for rho = lambda_max(E'PE, P), E = e^{AT}:
    the factor by which V contracts over a tau-length T of mode A.

    With P = U U' (U upper triangular), rho = ||U' E U^-T||_2^2. It is
    taken in log space, E = e^{rT} F with r the largest real part of an
    eigenvalue of A, so rho underflows in its exponent alone. Where
    rho >= 1/2, 1 - rho is the smallest eigenvalue of (W, P) for the
    Gramian W = P - E'PE (_gramian): det W / det P over the largest
    eigenvalue of U^-1 W U^-T. Neither form calls LAPACK.
    """
    md = _split(*A.ravel().tolist())
    mu, n11, n12, n21, disc, w = md
    r = mu + w if disc > 0.0 else mu
    p, q = _expm_pq((mu - r,) + md[1:], T)      # F = e^{-rT} E = pI + qN
    f11, f12, f21, f22 = p + q * n11, q * n12, q * n21, p - q * n11
    (_, p12), (_, p22) = cert.P.tolist()
    det_p = cert.lambda_min * cert.lambda_max
    # P = U U' with U = [[u11, t u22], [0, u22]], s = u22 / u11
    t, s = p12 / p22, p22 / math.sqrt(det_p)
    g11 = f11 - t * f12
    log_rho = 2.0 * (r * T + math.log(_norm2(
        g11, f12 / s, s * (t * g11 + f21 - t * f22), f22 + t * f12)))
    if log_rho < -math.log(2.0):
        return log_rho, math.log(-math.expm1(log_rho))
    w11, w12, w22 = _gramian(md, T)
    r11 = (w11 - 2.0 * t * w12 + t * t * w22) * p22 / det_p
    r22 = w22 / p22
    r_max = 0.5 * (r11 + r22) + math.hypot(0.5 * (r11 - r22),
                                           (w12 - t * w22) / math.sqrt(det_p))
    one_minus_rho = (w11 * w22 - w12 * w12) / det_p / r_max
    return math.log1p(-one_minus_rho), math.log(one_minus_rho)


def decay_certificate(gains: ObserverGains, cert: LyapunovCertificate,
                      assumption: tuple[float, float, float]
                      ) -> DecayCertificate:
    """The estimation-error envelope that V = z_tilde' P z_tilde certifies.

    assumption = (tau_d, tau_s, z_underbar): the shortest excitation
    interval, the longest gap between two, and the floor of |z1| on them.
    In tau-time z_tilde' = A_i z_tilde, so V never increases, and a jump
    leaves z_tilde unchanged. On an excitation interval the mode is fixed,
    and a stretch of tau_d covers a tau-length of at least
    T = z_underbar tau_d, over which V contracts by rho (_log_rho, the
    worse mode). From any t a whole stretch ends by t + 2 tau_d + tau_s,
    since t may fall in an interval with less than tau_d left, so
    V(t) <= rho^floor((t - t0) / (2 tau_d + tau_s)) V(t0): kappa1 =
    gamma / sqrt(rho) (inf where that overflows), kappa2 = -ln(rho) / (2 T)
    and mu = T / (2 tau_d + tau_s). The lead-in condition: t0 lies at most
    tau_s before the first interval. 1 - rho grows like T^3 for short T
    (about 0.44 T^3 on the shipped gains), and rho underflows for long T,
    where kappa2 stays finite.
    """
    tau_d, tau_s, z_under = assumption
    if min(tau_d, z_under) <= 0 or tau_s < 0:
        raise ValueError("dwell quantities must be strictly positive "
                         "(tau_s may be zero)")
    T = z_under * tau_d
    log_rho, lg = max(_log_rho(A, cert, T) for A in (gains.A1, gains.A2))
    half = -0.5 * log_rho
    return DecayCertificate(
        rho=math.exp(log_rho), log_one_minus_rho=lg,
        kappa1=cert.gamma * math.exp(half) if half < 709.0 else math.inf,
        kappa2=-log_rho / (2.0 * T), mu=T / (2.0 * tau_d + tau_s))
