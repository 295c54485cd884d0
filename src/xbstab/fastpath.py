"""Inner loop of the hybrid engine.

One call integrates a single flow segment (between jumps) of the 9-state
closed loop

    y = [tau, z1, z2, zt1, zt2, phi11, phi12, phi21, phi22]

with an adaptive Dormand-Prince 5(4) stepper, guard evaluation at every
accepted step, bisection-based event localization on a cubic-Hermite dense
output, and on-the-fly sample recording.

Step sizes serve accuracy only: a step ends where rel_tol, abs_tol,
max_step, the horizon or an event say. Recording is decided inside each
accepted step. A step whose recorded span would let the trapezoidal
quadrature of |z1| drift from the integrated tau gets equally spaced
interior samples, as many as the trapezoid's 1/m^2 error law needs to meet
the recording budget, with a forced sample at a z1 sign change. Interior
tau comes from the step's own z1 interpolant: the integrated tau increment
is distributed in proportion to the integral of |z1| along the step's cubic
Hermite of z1 (see _tau_curve). That tau is monotone, ends exactly at the
step's endpoint tau and matches the trapezoid of the recorded z1 to third
order in the sample spacing. Across a z1 sign change the endpoint tau
itself comes from that integral, split at the root, because the
Dormand-Prince quadrature of tau does not resolve the kink of |z1|.

The kernel is written once, in scalar-local style: every value it does
arithmetic on is a float local or a tuple of floats, and numpy arrays are
touched only to read the inputs, write sample rows and write the results
back. The same source is jit-compiled when numba is installed (the ``fast``
extra) and runs as plain CPython otherwise.
"""

from __future__ import annotations

import math

import numpy as np

try:
    from numba import njit
    HAVE_NUMBA = True
except ImportError:               # numba is the optional ``fast`` extra
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]
        return lambda f: f


# scalar-parameter vector layout
SC_A, SC_C, SC_D, SC_K = 0, 1, 2, 3
SC_K1P, SC_K2P, SC_K1M, SC_K2M = 4, 5, 6, 7
SC_ZSTAR, SC_THR, SC_LMH2 = 8, 9, 10
SC_P11, SC_P12, SC_P22 = 11, 12, 13
SC_RTOL, SC_ATOL = 14, 15
SC_MAXSTEP, SC_EVENTTOL = 16, 17
SC_TSTOP, SC_RECDT, SC_CONVTOL, SC_TAUBUDGET, SC_Z2FLOOR = 18, 19, 20, 21, 22
N_SC = 23

# segment exit codes
CODE_HORIZON = 0
CODE_DC = 1
CODE_DNC = 2
CODE_DOMAIN = 3
CODE_CONVERGED = 4
CODE_BUFFER_FULL = 5
CODE_STEP_FAILURE = 6

_TAU_ABS_FLOOR = 1e-15

# _emit_span records at most _SPAN_MAX_ROWS rows. One step can flush a
# pending row and then emit two spans (up to a z1 root, then up to the
# endpoint or the event), so MAX_STEP_ROWS free rows before a step
# guarantee that it fits the buffer.
_SPAN_MAX_ROWS = 1 << 12
MAX_STEP_ROWS = 2 * _SPAN_MAX_ROWS + 1

# Dormand-Prince 5(4) tableau (Hairer, Norsett & Wanner, Solving ODEs I,
# II.5); subtracted terms carry a negative coefficient, which rounds
# exactly like the subtraction.
_A21 = 0.2
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = (19372.0 / 6561.0, -25360.0 / 2187.0,
                          64448.0 / 6561.0, -212.0 / 729.0)
_A61, _A62, _A63, _A64, _A65 = (9017.0 / 3168.0, -355.0 / 33.0,
                                46732.0 / 5247.0, 49.0 / 176.0,
                                -5103.0 / 18656.0)
_B1, _B3, _B4, _B5, _B6 = (35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0,
                           -2187.0 / 6784.0, 11.0 / 84.0)
_E1, _E3, _E4, _E5, _E6, _E7 = (71.0 / 57600.0, -71.0 / 16695.0,
                                71.0 / 1920.0, -17253.0 / 339200.0,
                                22.0 / 525.0, -1.0 / 40.0)


@njit(cache=True)
def _rhs_params(sc):
    """(a, c, d, k, z*, k1+, k2+, k1-, k2-) from the scalar vector."""
    return (float(sc[SC_A]), float(sc[SC_C]), float(sc[SC_D]),
            float(sc[SC_K]), float(sc[SC_ZSTAR]),
            float(sc[SC_K1P]), float(sc[SC_K2P]),
            float(sc[SC_K1M]), float(sc[SC_K2M]))


@njit(cache=True)
def _guard_params(sc):
    """(thr, z*, P11, P12, P22, lambda_min h(i)^2) from the scalar vector."""
    return (float(sc[SC_THR]), float(sc[SC_ZSTAR]), float(sc[SC_P11]),
            float(sc[SC_P12]), float(sc[SC_P22]), float(sc[SC_LMH2]))


@njit(cache=True)
def _rhs(p, y):
    a, c, d, k, zstar, k1p, k2p, k1m, k2m = p
    _, z1, z2, zt1, zt2, f11, f12, f21, f22 = y
    zh2 = z2 + zt2
    u = a * z1 * zh2 - k * (z1 - zstar)
    if z1 > 0.0:
        k1 = k1p
        k2 = k2p
    elif z1 < 0.0:
        k1 = k1m
        k2 = k2m
    else:
        k1 = 0.0
        k2 = 0.0
    # dPhi = z1 * M * Phi with the same mode matrix M as the error flow
    return (abs(z1),
            -a * z1 * z2 + u,
            (c * z2 + d) * z1,
            z1 * (-k1 * zt1 - a * zt2),
            z1 * (-k2 * zt1 + c * zt2),
            z1 * (-k1 * f11 - a * f21),
            z1 * (-k1 * f12 - a * f22),
            z1 * (-k2 * f11 + c * f21),
            z1 * (-k2 * f12 + c * f22))


@njit(cache=True)
def _guard_any(y, g):
    """CODE_DC if y is in D_c, else CODE_DNC if it is in D_nc, else 0."""
    thr, zstar, p11, p12, p22, lmh2 = g
    zh2 = y[2] + y[4]
    if abs(zh2) >= thr and zh2 * zstar >= 0.0:
        return CODE_DC
    if abs(zh2) > thr or zh2 * zstar > 0.0:
        return 0
    f11, f12, f21, f22 = y[5], y[6], y[7], y[8]
    # S = Phi' P Phi, symmetric 2x2
    s11 = p11 * f11 * f11 + 2.0 * p12 * f11 * f21 + p22 * f21 * f21
    s22 = p11 * f12 * f12 + 2.0 * p12 * f12 * f22 + p22 * f22 * f22
    s12 = p11 * f11 * f12 + p12 * (f11 * f22 + f12 * f21) + p22 * f21 * f22
    half_tr = 0.5 * (s11 + s22)
    rad = math.sqrt(0.25 * (s11 - s22) * (s11 - s22) + s12 * s12)
    if half_tr + rad <= lmh2:
        return CODE_DNC
    return 0


@njit(cache=True)
def _dp_step(p, y, k1, h):
    """One Dormand-Prince 5(4) step of size h from y with k1 = f(y).

    Returns (y1, k7, err): the 5th-order solution, f(y1) (FSAL) and the
    embedded error estimate.
    """
    k2 = _rhs(p, (
        y[0] + h * (_A21 * k1[0]), y[1] + h * (_A21 * k1[1]),
        y[2] + h * (_A21 * k1[2]), y[3] + h * (_A21 * k1[3]),
        y[4] + h * (_A21 * k1[4]), y[5] + h * (_A21 * k1[5]),
        y[6] + h * (_A21 * k1[6]), y[7] + h * (_A21 * k1[7]),
        y[8] + h * (_A21 * k1[8])))
    k3 = _rhs(p, (
        y[0] + h * (_A31 * k1[0] + _A32 * k2[0]),
        y[1] + h * (_A31 * k1[1] + _A32 * k2[1]),
        y[2] + h * (_A31 * k1[2] + _A32 * k2[2]),
        y[3] + h * (_A31 * k1[3] + _A32 * k2[3]),
        y[4] + h * (_A31 * k1[4] + _A32 * k2[4]),
        y[5] + h * (_A31 * k1[5] + _A32 * k2[5]),
        y[6] + h * (_A31 * k1[6] + _A32 * k2[6]),
        y[7] + h * (_A31 * k1[7] + _A32 * k2[7]),
        y[8] + h * (_A31 * k1[8] + _A32 * k2[8])))
    k4 = _rhs(p, (
        y[0] + h * (_A41 * k1[0] + _A42 * k2[0] + _A43 * k3[0]),
        y[1] + h * (_A41 * k1[1] + _A42 * k2[1] + _A43 * k3[1]),
        y[2] + h * (_A41 * k1[2] + _A42 * k2[2] + _A43 * k3[2]),
        y[3] + h * (_A41 * k1[3] + _A42 * k2[3] + _A43 * k3[3]),
        y[4] + h * (_A41 * k1[4] + _A42 * k2[4] + _A43 * k3[4]),
        y[5] + h * (_A41 * k1[5] + _A42 * k2[5] + _A43 * k3[5]),
        y[6] + h * (_A41 * k1[6] + _A42 * k2[6] + _A43 * k3[6]),
        y[7] + h * (_A41 * k1[7] + _A42 * k2[7] + _A43 * k3[7]),
        y[8] + h * (_A41 * k1[8] + _A42 * k2[8] + _A43 * k3[8])))
    k5 = _rhs(p, (
        y[0] + h * (_A51 * k1[0] + _A52 * k2[0] + _A53 * k3[0]
                    + _A54 * k4[0]),
        y[1] + h * (_A51 * k1[1] + _A52 * k2[1] + _A53 * k3[1]
                    + _A54 * k4[1]),
        y[2] + h * (_A51 * k1[2] + _A52 * k2[2] + _A53 * k3[2]
                    + _A54 * k4[2]),
        y[3] + h * (_A51 * k1[3] + _A52 * k2[3] + _A53 * k3[3]
                    + _A54 * k4[3]),
        y[4] + h * (_A51 * k1[4] + _A52 * k2[4] + _A53 * k3[4]
                    + _A54 * k4[4]),
        y[5] + h * (_A51 * k1[5] + _A52 * k2[5] + _A53 * k3[5]
                    + _A54 * k4[5]),
        y[6] + h * (_A51 * k1[6] + _A52 * k2[6] + _A53 * k3[6]
                    + _A54 * k4[6]),
        y[7] + h * (_A51 * k1[7] + _A52 * k2[7] + _A53 * k3[7]
                    + _A54 * k4[7]),
        y[8] + h * (_A51 * k1[8] + _A52 * k2[8] + _A53 * k3[8]
                    + _A54 * k4[8])))
    k6 = _rhs(p, (
        y[0] + h * (_A61 * k1[0] + _A62 * k2[0] + _A63 * k3[0]
                    + _A64 * k4[0] + _A65 * k5[0]),
        y[1] + h * (_A61 * k1[1] + _A62 * k2[1] + _A63 * k3[1]
                    + _A64 * k4[1] + _A65 * k5[1]),
        y[2] + h * (_A61 * k1[2] + _A62 * k2[2] + _A63 * k3[2]
                    + _A64 * k4[2] + _A65 * k5[2]),
        y[3] + h * (_A61 * k1[3] + _A62 * k2[3] + _A63 * k3[3]
                    + _A64 * k4[3] + _A65 * k5[3]),
        y[4] + h * (_A61 * k1[4] + _A62 * k2[4] + _A63 * k3[4]
                    + _A64 * k4[4] + _A65 * k5[4]),
        y[5] + h * (_A61 * k1[5] + _A62 * k2[5] + _A63 * k3[5]
                    + _A64 * k4[5] + _A65 * k5[5]),
        y[6] + h * (_A61 * k1[6] + _A62 * k2[6] + _A63 * k3[6]
                    + _A64 * k4[6] + _A65 * k5[6]),
        y[7] + h * (_A61 * k1[7] + _A62 * k2[7] + _A63 * k3[7]
                    + _A64 * k4[7] + _A65 * k5[7]),
        y[8] + h * (_A61 * k1[8] + _A62 * k2[8] + _A63 * k3[8]
                    + _A64 * k4[8] + _A65 * k5[8])))
    y1 = (
        y[0] + h * (_B1 * k1[0] + _B3 * k3[0] + _B4 * k4[0] + _B5 * k5[0]
                    + _B6 * k6[0]),
        y[1] + h * (_B1 * k1[1] + _B3 * k3[1] + _B4 * k4[1] + _B5 * k5[1]
                    + _B6 * k6[1]),
        y[2] + h * (_B1 * k1[2] + _B3 * k3[2] + _B4 * k4[2] + _B5 * k5[2]
                    + _B6 * k6[2]),
        y[3] + h * (_B1 * k1[3] + _B3 * k3[3] + _B4 * k4[3] + _B5 * k5[3]
                    + _B6 * k6[3]),
        y[4] + h * (_B1 * k1[4] + _B3 * k3[4] + _B4 * k4[4] + _B5 * k5[4]
                    + _B6 * k6[4]),
        y[5] + h * (_B1 * k1[5] + _B3 * k3[5] + _B4 * k4[5] + _B5 * k5[5]
                    + _B6 * k6[5]),
        y[6] + h * (_B1 * k1[6] + _B3 * k3[6] + _B4 * k4[6] + _B5 * k5[6]
                    + _B6 * k6[6]),
        y[7] + h * (_B1 * k1[7] + _B3 * k3[7] + _B4 * k4[7] + _B5 * k5[7]
                    + _B6 * k6[7]),
        y[8] + h * (_B1 * k1[8] + _B3 * k3[8] + _B4 * k4[8] + _B5 * k5[8]
                    + _B6 * k6[8]))
    k7 = _rhs(p, y1)
    err = (
        h * (_E1 * k1[0] + _E3 * k3[0] + _E4 * k4[0] + _E5 * k5[0]
             + _E6 * k6[0] + _E7 * k7[0]),
        h * (_E1 * k1[1] + _E3 * k3[1] + _E4 * k4[1] + _E5 * k5[1]
             + _E6 * k6[1] + _E7 * k7[1]),
        h * (_E1 * k1[2] + _E3 * k3[2] + _E4 * k4[2] + _E5 * k5[2]
             + _E6 * k6[2] + _E7 * k7[2]),
        h * (_E1 * k1[3] + _E3 * k3[3] + _E4 * k4[3] + _E5 * k5[3]
             + _E6 * k6[3] + _E7 * k7[3]),
        h * (_E1 * k1[4] + _E3 * k3[4] + _E4 * k4[4] + _E5 * k5[4]
             + _E6 * k6[4] + _E7 * k7[4]),
        h * (_E1 * k1[5] + _E3 * k3[5] + _E4 * k4[5] + _E5 * k5[5]
             + _E6 * k6[5] + _E7 * k7[5]),
        h * (_E1 * k1[6] + _E3 * k3[6] + _E4 * k4[6] + _E5 * k5[6]
             + _E6 * k6[6] + _E7 * k7[6]),
        h * (_E1 * k1[7] + _E3 * k3[7] + _E4 * k4[7] + _E5 * k5[7]
             + _E6 * k6[7] + _E7 * k7[7]),
        h * (_E1 * k1[8] + _E3 * k3[8] + _E4 * k4[8] + _E5 * k5[8]
             + _E6 * k6[8] + _E7 * k7[8]))
    return y1, k7, err


@njit(cache=True)
def _hermite(t0, h, y0, f0, y1, f1, tt, tau):
    """Cubic Hermite of the step at tt; the tau component is the caller's
    (from _tau_at, so that it stays consistent with the recorded z1)."""
    th = (tt - t0) / h
    om = 1.0 - th
    h00 = (1.0 + 2.0 * th) * om * om
    h10 = th * om * om * h
    h01 = th * th * (3.0 - 2.0 * th)
    h11 = th * th * (th - 1.0) * h
    return (tau,
            h00 * y0[1] + h10 * f0[1] + h01 * y1[1] + h11 * f1[1],
            h00 * y0[2] + h10 * f0[2] + h01 * y1[2] + h11 * f1[2],
            h00 * y0[3] + h10 * f0[3] + h01 * y1[3] + h11 * f1[3],
            h00 * y0[4] + h10 * f0[4] + h01 * y1[4] + h11 * f1[4],
            h00 * y0[5] + h10 * f0[5] + h01 * y1[5] + h11 * f1[5],
            h00 * y0[6] + h10 * f0[6] + h01 * y1[6] + h11 * f1[6],
            h00 * y0[7] + h10 * f0[7] + h01 * y1[7] + h11 * f1[7],
            h00 * y0[8] + h10 * f0[8] + h01 * y1[8] + h11 * f1[8])


@njit(cache=True)
def _with_tau(y, tau):
    """y with its tau component replaced."""
    return (tau, y[1], y[2], y[3], y[4], y[5], y[6], y[7], y[8])


@njit(cache=True)
def _record(buf, n, tt, y):
    buf[n, 0] = tt
    for m in range(9):
        buf[n, m + 1] = y[m]
    return n + 1


@njit(cache=True)
def _tau_budget(dtau, tau_now, budget_rel):
    return budget_rel * abs(dtau) + _TAU_ABS_FLOOR * (1.0 + abs(tau_now))


@njit(cache=True)
def _z1_prim(tc, th):
    """Integral over [0, th] of the step's z1 cubic, in units of h."""
    c0, c1, c2, c3 = tc[0], tc[1], tc[2], tc[3]
    return th * (c0 + th * (0.5 * c1 + th * (c2 / 3.0 + th * (0.25 * c3))))


@njit(cache=True)
def _tau_curve(h, y0, f0, y1, f1, root_tol):
    """The step's tau interpolant, as (c0, c1, c2, c3, th_r, p_r, a1).

    z1_H(th) = c0 + c1 th + c2 th^2 + c3 th^3 is the cubic Hermite of z1 in
    th = (t - t0)/h. When z1 changes sign over the step, th_r is the root of
    z1_H (bisected to root_tol), else 1; p_r is the integral of z1_H up to
    th_r and a1 the integral of |z1_H| over the whole step, both in units
    of h. Within a segment z* is fixed and z1 crosses zero with slope about
    k z*, so z1_H has at most the one root that the endpoint signs show.
    """
    c0 = y0[1]
    c1 = h * f0[1]
    m1 = h * f1[1]
    c2 = 3.0 * (y1[1] - c0) - 2.0 * c1 - m1
    c3 = 2.0 * (c0 - y1[1]) + c1 + m1
    th_r = 1.0
    if c0 * y1[1] < 0.0:
        lo = 0.0
        hi = 1.0
        s_lo = c0 > 0.0
        for _ in range(80):
            if hi - lo <= root_tol:
                break
            mid = 0.5 * (lo + hi)
            if (c0 + mid * (c1 + mid * (c2 + mid * c3)) > 0.0) == s_lo:
                lo = mid
            else:
                hi = mid
        th_r = 0.5 * (lo + hi)
    tc = (c0, c1, c2, c3, th_r, 0.0, 0.0)
    p_r = _z1_prim(tc, th_r)
    a1 = abs(p_r) + abs(_z1_prim(tc, 1.0) - p_r)
    return (c0, c1, c2, c3, th_r, p_r, a1)


@njit(cache=True)
def _tau_at(tc, tau0, tau1, th):
    """tau at th inside the step: tau0 + (tau1 - tau0) A(th)/A(1), with A
    the integral of |z1_H|. Monotone, and exactly tau1 at th = 1."""
    a1 = tc[6]
    if a1 <= 0.0:
        return tau0 + (tau1 - tau0) * th
    p = _z1_prim(tc, th)
    if th <= tc[4]:
        area = abs(p)
    else:
        area = abs(tc[5]) + abs(p - tc[5])
    return tau0 + (tau1 - tau0) * (area / a1)


@njit(cache=True)
def _emit_span(buf, n, t0, h, y0, f0, y1, f1, tc, ta, tau_a, z1_a, tb, yb,
               budget_rel):
    """Record samples on (ta, tb] within the current step; yb is the state
    at tb. The span gets m equally spaced samples, m chosen from the
    endpoint tau/trapezoid mismatch e: the composite trapezoid error falls
    as 1/m^2, so m > sqrt(e / budget) brings it within the budget. Returns
    the new n; at most _SPAN_MAX_ROWS rows are written."""
    dtau = yb[0] - tau_a
    e = abs(dtau - 0.5 * (abs(z1_a) + abs(yb[1])) * (tb - ta))
    q = math.sqrt(e / _tau_budget(dtau, yb[0], budget_rel))
    m = _SPAN_MAX_ROWS
    if q < _SPAN_MAX_ROWS - 1:
        m = int(q) + 1
    dt = (tb - ta) / m
    for i in range(1, m):
        tt = ta + i * dt
        tau = _tau_at(tc, y0[0], y1[0], (tt - t0) / h)
        n = _record(buf, n, tt, _hermite(t0, h, y0, f0, y1, f1, tt, tau))
    return _record(buf, n, tb, yb)


@njit(cache=True)
def _bisect_guard(t0, h, y0, f0, y1, f1, g, event_tol):
    """Earliest guard activation in (t0, t0+h]; guard is false at t0 and
    true at t0+h. Returns (t_event, width).

    The event is located on the guard-true side: t_event is the upper end
    of a bracket of at most event_tol whose lower end is guard-false, and
    the engine jumps at that point. A WithinCycle event is thus taken with
    |zhat2| just above the D_c threshold thr (exactly on it only if a
    bisection point lands on the boundary), so after the flip of z* the
    state lies just outside D_nc and no NewCycle chains onto the flip at
    |zhat2| = thr. Locating events on the guard-false side, with D_nc read
    as a closed set, would chain one there whenever the contraction
    condition already holds; in the reference scenario that moves the
    first NewCycle from 0.0431 s to 0.0408 s."""
    lo = t0
    hi = t0 + h
    for _ in range(80):
        if hi - lo <= event_tol:
            break
        mid = 0.5 * (lo + hi)
        if _guard_any(_hermite(t0, h, y0, f0, y1, f1, mid, 0.0), g) != 0:
            hi = mid
        else:
            lo = mid
    return hi, hi - lo


@njit(cache=True)
def _finish(y, ys, ret, code, t, n, width):
    """Write the state ys back into y and the exit record into ret."""
    for m in range(9):
        y[m] = ys[m]
    ret[0] = code
    ret[1] = t
    ret[2] = n
    ret[3] = width


@njit(cache=True)
def flow_segment(y, t_start, sc, buf, n0, ret):
    """Integrate one flow segment from (t_start, y).

    Writes samples into buf starting at row n0 (10 columns: t then y) and
    fills ret = [code, t_final, n_written, bracket_width]. y is updated in
    place to the final state on every exit code. The caller is expected to
    have recorded the segment-start sample already. A step starts only
    with at least MAX_STEP_ROWS free rows in buf, so no sample is ever
    dropped; otherwise the call returns CODE_BUFFER_FULL at the current
    point, so a buffer of fewer than MAX_STEP_ROWS rows makes no progress.
    """
    p = _rhs_params(sc)
    g = _guard_params(sc)
    rtol = float(sc[SC_RTOL])
    atol = float(sc[SC_ATOL])
    max_step = float(sc[SC_MAXSTEP])
    event_tol = float(sc[SC_EVENTTOL])
    t_stop = float(sc[SC_TSTOP])
    rec_dt = float(sc[SC_RECDT])
    conv_tol = float(sc[SC_CONVTOL])
    budget_rel = float(sc[SC_TAUBUDGET])
    z2_floor = float(sc[SC_Z2FLOOR])
    t = float(t_start)
    cap = buf.shape[0]
    ys = (float(y[0]), float(y[1]), float(y[2]), float(y[3]), float(y[4]),
          float(y[5]), float(y[6]), float(y[7]), float(y[8]))

    # guard already active at the segment start: zero-width event
    code0 = _guard_any(ys, g)
    if code0 != 0:
        _finish(y, ys, ret, code0, t, n0, 0.0)
        return

    f0 = _rhs(p, ys)
    h = max_step * 0.1

    last_rec_t = t
    last_rec_tau = ys[0]
    last_rec_z1 = ys[1]
    have_pend = False           # the step start (t, ys) is not recorded yet
    tc = (0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0)   # set by every recorded step
    n = n0

    while True:
        if n > cap - MAX_STEP_ROWS:
            _finish(y, ys, ret, CODE_BUFFER_FULL, t, n, 0.0)
            return
        t_left = t_stop - t
        if t_left <= 0.0:
            break
        if h > max_step:
            h = max_step
        if h > t_left:
            h = t_left
        if h < 1e-14:
            _finish(y, ys, ret, CODE_STEP_FAILURE, t, n, 0.0)
            return

        y1, f1, err = _dp_step(p, ys, f0, h)
        enorm = 0.0
        for m in range(9):
            q = err[m] / (atol + rtol * max(abs(ys[m]), abs(y1[m])))
            enorm += q * q
        enorm = math.sqrt(enorm / 9.0)
        if enorm > 1.0:
            fac = 0.9 * enorm ** -0.2
            if fac < 0.2:
                fac = 0.2
            h *= fac
            continue

        # accepted step [t, t+h]; f1 is f at the new point (FSAL)
        t_new = t + h
        ev = _guard_any(y1, g)
        cross = ys[1] * y1[1] < 0.0
        if ev != 0 or cross:
            if have_pend:
                n = _record(buf, n, t, ys)
                have_pend = False
            last_rec_t = t
            last_rec_tau = ys[0]
            last_rec_z1 = ys[1]
            tc = _tau_curve(h, ys, f0, y1, f1, 1e-13 * (1.0 + abs(t)) / h)
            if cross:
                # |z1| has a kink at the root, which the Dormand-Prince
                # quadrature of tau does not resolve (on the bundled run it
                # overshoots by up to 1 % of the step's increment); the
                # split integral of |z1_H| is accurate to O(h^5)
                y1 = _with_tau(y1, ys[0] + h * tc[6])
            t_hi = t_new
            width = 0.0
            if ev != 0:
                t_hi, width = _bisect_guard(t, h, ys, f0, y1, f1, g,
                                            event_tol)
            # forced sample at the z1 kink inside the (truncated) step
            r = t + tc[4] * h
            if cross and r < t_hi:
                yr = _hermite(t, h, ys, f0, y1, f1, r,
                              _tau_at(tc, ys[0], y1[0], tc[4]))
                n = _emit_span(buf, n, t, h, ys, f0, y1, f1, tc, last_rec_t,
                               last_rec_tau, last_rec_z1, r, yr, budget_rel)
                last_rec_t = r
                last_rec_tau = yr[0]
                last_rec_z1 = yr[1]
            if ev != 0:
                # record up to the event point, then stop there
                yev = _hermite(t, h, ys, f0, y1, f1, t_hi,
                               _tau_at(tc, ys[0], y1[0], (t_hi - t) / h))
                n = _emit_span(buf, n, t, h, ys, f0, y1, f1, tc, last_rec_t,
                               last_rec_tau, last_rec_z1, t_hi, yev,
                               budget_rel)
                _finish(y, yev, ret, ev, t_hi, n, width)
                return

        # recording decision at the accepted endpoint: thinned recording
        # leaves it pending while nothing forces a sample and one trapezoid
        # from the last recorded sample still matches tau
        at_stop = t_new >= t_stop - 1e-14
        z2_bad = y1[2] <= z2_floor
        converged = (abs(y1[1]) + abs(y1[2]) + abs(y1[3]) + abs(y1[4])
                     < conv_tol)
        force = at_stop or z2_bad or converged
        dtau = y1[0] - last_rec_tau
        trap = 0.5 * (abs(last_rec_z1) + abs(y1[1])) * (t_new - last_rec_t)
        coarse_ok = abs(dtau - trap) <= _tau_budget(dtau, y1[0], budget_rel)
        if not force and coarse_ok and (t_new - last_rec_t) < rec_dt:
            have_pend = True
        else:
            if have_pend:
                n = _record(buf, n, t, ys)
                have_pend = False
                last_rec_t = t
                last_rec_tau = ys[0]
                last_rec_z1 = ys[1]
            if not cross:           # a crossing step has its curve already
                tc = _tau_curve(h, ys, f0, y1, f1, 1.0)
            n = _emit_span(buf, n, t, h, ys, f0, y1, f1, tc, last_rec_t,
                           last_rec_tau, last_rec_z1, t_new, y1, budget_rel)
            last_rec_t = t_new
            last_rec_tau = y1[0]
            last_rec_z1 = y1[1]

        # advance
        t = t_new
        ys = y1
        f0 = f1
        fac = 0.9 * enorm ** -0.2 if enorm > 1e-30 else 5.0
        if fac > 5.0:
            fac = 5.0
        h *= fac

        if z2_bad:
            _finish(y, ys, ret, CODE_DOMAIN, t, n, 0.0)
            return
        if converged:
            _finish(y, ys, ret, CODE_CONVERGED, t, n, 0.0)
            return

    # horizon reached; the final sample was force-recorded above
    _finish(y, ys, ret, CODE_HORIZON, t, n, 0.0)


def pack_scalars(params, gains, k, z_star, z_star_init, h_i, cert, solver,
                 t_stop) -> np.ndarray:
    """Scalar-parameter vector for flow_segment."""
    sc = np.zeros(N_SC)
    sc[SC_A] = params.a
    sc[SC_C] = params.c
    sc[SC_D] = params.d
    sc[SC_K] = k
    sc[SC_K1P] = gains.k1_plus
    sc[SC_K2P] = gains.k2_plus
    sc[SC_K1M] = gains.k1_minus
    sc[SC_K2M] = gains.k2_minus
    sc[SC_ZSTAR] = z_star
    sc[SC_THR] = params.d * abs(z_star) / (params.c * z_star_init)
    sc[SC_LMH2] = cert.lambda_min * h_i * h_i
    sc[SC_P11] = cert.P[0, 0]
    sc[SC_P12] = cert.P[0, 1]
    sc[SC_P22] = cert.P[1, 1]
    sc[SC_RTOL] = solver.rel_tol
    sc[SC_ATOL] = solver.abs_tol
    sc[SC_MAXSTEP] = solver.max_step
    sc[SC_EVENTTOL] = solver.event_tol
    sc[SC_TSTOP] = t_stop
    sc[SC_RECDT] = solver.record_interval
    sc[SC_CONVTOL] = solver.abs_tol
    sc[SC_TAUBUDGET] = solver.tau_budget_rel
    sc[SC_Z2FLOOR] = -params.d / params.c
    return sc
