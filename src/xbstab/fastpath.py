"""Inner loop of the hybrid engine.

One call integrates a single flow segment (between jumps) of the 9-state
closed loop y = [tau, z1, z2, zt1, zt2, phi11, phi12, phi21, phi22]. An
adaptive Dormand-Prince 5(4) stepper integrates two of them,

    dtau/dt = |z1|,    dz1/dt = a z1 zt2(tau) - k (z1 - z*),

and the other seven are solved in closed form: with s = sign z1 fixed they
are linear in tau, d(z2 + d/c)/dtau = s c (z2 + d/c) and dX/dtau = A(s) X
for X = zt and Phi, with A(+1) = A1 and A(-1) = A2. From an anchor state
that is a scalar exponential and the exponential of a 2x2 matrix (_expm2).
Every stage reads zt2 from that closed form, and the same closed form gives
z2, zt and Phi at accepted step endpoints (for the guards), at bisection
points and at recorded samples. z1 roots are step boundaries: a step over
which z1 changes sign is retaken up to the root (bisected on the step's
cubic Hermite of z1, then polished by Newton iterations on the retaken
endpoint), and the closed form is re-anchored there with the new s, so no
step integrates tau across the kink of |z1|.

Guards are tested at accepted step endpoints; an event is then located by
bisection inside that step. Step sizes serve accuracy only: a step ends
where rel_tol, abs_tol, max_step, the horizon, a z1 root or an event say.
Recording is decided inside each accepted step. A step whose recorded span
would let the trapezoidal quadrature of |z1| drift from the integrated tau
gets equally spaced interior samples, as many as the trapezoid's 1/m^2
error law needs to meet the recording budget, and a root endpoint is always
recorded. Interior tau comes from the step's own z1 interpolant: the
integrated tau increment is distributed in proportion to the integral of
|z1| along the step's cubic Hermite of z1 (see _tau_curve). That tau is
monotone, ends exactly at the step's endpoint tau and matches the trapezoid
of the recorded z1 to third order in the sample spacing.

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
_MIN_STEP = 1e-14
_ROOT_ITERS = 4                 # Newton iterations polishing a z1 root

# _emit_span records at most _SPAN_MAX_ROWS rows, and one step flushes at
# most a pending row and then emits one span, so MAX_STEP_ROWS free rows
# before a step guarantee that it fits the buffer. MAX_STEP_ROWS keeps a
# second span of headroom; engine and the tests size buffers by it.
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
    """(a, k, z*) from the scalar vector."""
    return float(sc[SC_A]), float(sc[SC_K]), float(sc[SC_ZSTAR])


@njit(cache=True)
def _guard_params(sc):
    """(thr, z*, P11, P12, P22, lambda_min h(i)^2) from the scalar vector."""
    return (float(sc[SC_THR]), float(sc[SC_ZSTAR]), float(sc[SC_P11]),
            float(sc[SC_P12]), float(sc[SC_P22]), float(sc[SC_LMH2]))


@njit(cache=True)
def _split(m11, m12, m21, m22):
    """M = [[m11, m12], [m21, m22]] as (mu, n11, n12, n21, disc, w), where
    M = mu I + N, N = [[n11, n12], [n21, -n11]], N^2 = disc I and
    w = sqrt(|disc|)."""
    mu = 0.5 * (m11 + m22)
    n11 = 0.5 * (m11 - m22)
    disc = n11 * n11 + m12 * m21
    return (mu, n11, m12, m21, disc, math.sqrt(abs(disc)))


@njit(cache=True)
def _expm_pq(md, dt):
    """(p, q) with exp(M dt) = p I + q N, for M split by _split.

    Complex eigenvalues mu +- i w: p = e^(mu dt) cos(w dt) and
    q = e^(mu dt) sin(w dt) / w. Real ones mu +- w: the hyperbolic pair
    while w dt < 1, beyond that the two eigen-exponentials, which do not
    overflow where cosh does. A repeated eigenvalue: p = e^(mu dt),
    q = dt p. sin(x)/w and sinh(x)/w keep full relative accuracy as
    w -> 0, so nearly repeated eigenvalues need no series.
    """
    mu, disc, w = md[0], md[4], md[5]
    x = w * dt
    if disc < 0.0:
        e = math.exp(mu * dt)
        return e * math.cos(x), e * math.sin(x) / w
    if w == 0.0:
        e = math.exp(mu * dt)
        return e, dt * e
    if x < 1.0:
        e = math.exp(mu * dt)
        return e * math.cosh(x), e * math.sinh(x) / w
    ep = math.exp((mu + w) * dt)
    em = math.exp((mu - w) * dt)
    return 0.5 * (ep + em), 0.5 * (ep - em) / w


@njit(cache=True)
def _expm2(md, dt):
    """exp(M dt) for M split by _split, as (e11, e12, e21, e22)."""
    p, q = _expm_pq(md, dt)
    return (p + q * md[1], q * md[2], q * md[3], p - q * md[1])


@njit(cache=True)
def _mode(sc, s):
    """The tau-time flow for s = sign z1: A(s) split by _split (A1 for
    s > 0, A2 for s < 0), followed by s c and d/c for z2."""
    a, c, d = float(sc[SC_A]), float(sc[SC_C]), float(sc[SC_D])
    if s > 0.0:
        m = _split(-float(sc[SC_K1P]), -a, -float(sc[SC_K2P]), c)
    else:
        m = _split(float(sc[SC_K1M]), a, float(sc[SC_K2M]), -c)
    return (m[0], m[1], m[2], m[3], m[4], m[5], s * c, d / c)


@njit(cache=True)
def _closed(md, ya, tau, z1):
    """The state at (tau, z1): z2, zt and Phi from the closed form of mode
    md anchored at the state ya."""
    dt = tau - ya[0]
    e11, e12, e21, e22 = _expm2(md, dt)
    return (tau, z1,
            ya[2] + (ya[2] + md[7]) * math.expm1(md[6] * dt),
            e11 * ya[3] + e12 * ya[4], e21 * ya[3] + e22 * ya[4],
            e11 * ya[5] + e12 * ya[7], e11 * ya[6] + e12 * ya[8],
            e21 * ya[5] + e22 * ya[7], e21 * ya[6] + e22 * ya[8])


@njit(cache=True)
def _zt2_anchor(md, ya):
    """(tau, zt2, (N zt)_2) at the anchor ya: zt2 at tau' is then
    p zt2 + q (N zt)_2 with (p, q) = _expm_pq(md, tau' - tau)."""
    return ya[0], ya[4], md[3] * ya[3] - md[1] * ya[4]


@njit(cache=True)
def _f(p, md, za, tau, z1):
    """(dtau/dt, dz1/dt) at (tau, z1), with zt2 from the closed form (za
    from _zt2_anchor)."""
    a, k, zstar = p
    e, q = _expm_pq(md, tau - za[0])
    return abs(z1), a * z1 * (e * za[1] + q * za[2]) - k * (z1 - zstar)


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
def _dp_step(p, md, za, y, k1, h):
    """One Dormand-Prince 5(4) step of (tau, z1) of size h from y with
    k1 = f(y).

    Returns (y1, k7, err): the 5th-order solution, f(y1) (FSAL) and the
    embedded error estimate.
    """
    tau, z1 = y
    a1, b1 = k1
    a2, b2 = _f(p, md, za, tau + h * (_A21 * a1), z1 + h * (_A21 * b1))
    a3, b3 = _f(p, md, za, tau + h * (_A31 * a1 + _A32 * a2),
                z1 + h * (_A31 * b1 + _A32 * b2))
    a4, b4 = _f(p, md, za, tau + h * (_A41 * a1 + _A42 * a2 + _A43 * a3),
                z1 + h * (_A41 * b1 + _A42 * b2 + _A43 * b3))
    a5, b5 = _f(p, md, za,
                tau + h * (_A51 * a1 + _A52 * a2 + _A53 * a3 + _A54 * a4),
                z1 + h * (_A51 * b1 + _A52 * b2 + _A53 * b3 + _A54 * b4))
    a6, b6 = _f(p, md, za,
                tau + h * (_A61 * a1 + _A62 * a2 + _A63 * a3 + _A64 * a4
                           + _A65 * a5),
                z1 + h * (_A61 * b1 + _A62 * b2 + _A63 * b3 + _A64 * b4
                          + _A65 * b5))
    y1 = (tau + h * (_B1 * a1 + _B3 * a3 + _B4 * a4 + _B5 * a5 + _B6 * a6),
          z1 + h * (_B1 * b1 + _B3 * b3 + _B4 * b4 + _B5 * b5 + _B6 * b6))
    k7 = _f(p, md, za, y1[0], y1[1])
    err = (h * (_E1 * a1 + _E3 * a3 + _E4 * a4 + _E5 * a5 + _E6 * a6
                + _E7 * k7[0]),
           h * (_E1 * b1 + _E3 * b3 + _E4 * b4 + _E5 * b5 + _E6 * b6
                + _E7 * k7[1]))
    return y1, k7, err


@njit(cache=True)
def _err_norm(y0, y1, err, tau_a, atol, rtol):
    """RMS of the (tau, z1) error estimate, scaled by the tolerances. The
    closed-form states are functions of tau - tau_a, with tau_a the
    anchor's tau, so that is what rtol scales for tau."""
    q0 = err[0] / (atol + rtol * abs(y1[0] - tau_a))
    q1 = err[1] / (atol + rtol * max(abs(y0[1]), abs(y1[1])))
    return math.sqrt(0.5 * (q0 * q0 + q1 * q1))


@njit(cache=True)
def _step_factor(enorm):
    """Step-size factor 0.9 enorm^(-1/5), within [0.2, 5]."""
    if enorm <= 1e-30:
        return 5.0
    return min(5.0, max(0.2, 0.9 * enorm ** -0.2))


@njit(cache=True)
def _tau_curve(h, z1_0, dz1_0, z1_1, dz1_1):
    """The step's z1 cubic and tau interpolant, as (c0, c1, c2, c3, a1).

    z1_H(th) = c0 + c1 th + c2 th^2 + c3 th^3 is the cubic Hermite of z1 in
    th = (t - t0)/h, and a1 the integral of |z1_H| over the step in units
    of h. z1 keeps its sign within a step, up to the rounding of a root
    endpoint.
    """
    c1 = h * dz1_0
    m1 = h * dz1_1
    c2 = 3.0 * (z1_1 - z1_0) - 2.0 * c1 - m1
    c3 = 2.0 * (z1_0 - z1_1) + c1 + m1
    tc = (z1_0, c1, c2, c3, 0.0)
    return (z1_0, c1, c2, c3, abs(_z1_prim(tc, 1.0)))


@njit(cache=True)
def _z1_prim(tc, th):
    """Integral over [0, th] of the step's z1 cubic, in units of h."""
    c0, c1, c2, c3 = tc[0], tc[1], tc[2], tc[3]
    return th * (c0 + th * (0.5 * c1 + th * (c2 / 3.0 + th * (0.25 * c3))))


@njit(cache=True)
def _tau_at(tc, tau0, tau1, th):
    """tau at th inside the step: tau0 + (tau1 - tau0) A(th)/A(1), with A
    the integral of |z1_H|. Monotone, and exactly tau1 at th = 1."""
    a1 = tc[4]
    if a1 <= 0.0:
        return tau0 + (tau1 - tau0) * th
    return tau0 + (tau1 - tau0) * (abs(_z1_prim(tc, th)) / a1)


@njit(cache=True)
def _dense(tc, md, ya, tau0, tau1, th):
    """The state at th inside the step: z1 from its cubic, tau from
    _tau_at and the rest from the closed form."""
    z1 = tc[0] + th * (tc[1] + th * (tc[2] + th * tc[3]))
    return _closed(md, ya, _tau_at(tc, tau0, tau1, th), z1)


@njit(cache=True)
def _z1_root(tc, s):
    """Root of the z1 cubic in [0, 1], given s z1_H(0) > 0 > s z1_H(1),
    bisected to 1e-9 (a first guess for _step_to_root)."""
    lo = 0.0
    hi = 1.0
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if s * (tc[0] + mid * (tc[1] + mid * (tc[2] + mid * tc[3]))) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@njit(cache=True)
def _step_to_root(p, md, za, y0, f0, hr, h):
    """Retake the step from y0 = (tau, z1) with size hr, a guess of the z1
    root, and polish hr by Newton iterations on the retaken endpoint's z1.

    Returns (hr, y1, f1, err, at_root); at_root says that |z1| at the
    endpoint is within 1e-12 of |z1| at y0. hr stays in (0, h].
    """
    y1, f1, err = _dp_step(p, md, za, y0, f0, hr)
    ztol = 1e-12 * abs(y0[1])
    for _ in range(_ROOT_ITERS):
        if abs(y1[1]) <= ztol or f1[1] == 0.0:
            break
        hn = hr - y1[1] / f1[1]
        if hn <= 0.0 or hn > h:
            break
        hr = hn
        y1, f1, err = _dp_step(p, md, za, y0, f0, hr)
    return hr, y1, f1, err, abs(y1[1]) <= ztol


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
def _emit_span(buf, n, t0, h, tc, md, ya, tau0, tau1, ta, tau_a, z1_a, tb,
               yb, budget_rel):
    """Record samples on (ta, tb] within the step [t0, t0 + h], whose tau
    runs from tau0 to tau1; yb is the state at tb. The span gets m equally
    spaced samples, m chosen from the endpoint tau/trapezoid mismatch e:
    the composite trapezoid error falls as 1/m^2, so m > sqrt(e / budget)
    brings it within the budget. Returns the new n; at most _SPAN_MAX_ROWS
    rows are written."""
    dtau = yb[0] - tau_a
    e = abs(dtau - 0.5 * (abs(z1_a) + abs(yb[1])) * (tb - ta))
    q = math.sqrt(e / _tau_budget(dtau, yb[0], budget_rel))
    m = _SPAN_MAX_ROWS
    if q < _SPAN_MAX_ROWS - 1:
        m = int(q) + 1
    dt = (tb - ta) / m
    for i in range(1, m):
        tt = ta + i * dt
        n = _record(buf, n, tt,
                    _dense(tc, md, ya, tau0, tau1, (tt - t0) / h))
    return _record(buf, n, tb, yb)


@njit(cache=True)
def _bisect_guard(t0, h, tc, md, ya, tau0, tau1, g, event_tol):
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
        if _guard_any(_dense(tc, md, ya, tau0, tau1, (mid - t0) / h),
                      g) != 0:
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

    # s = sign z1; at z1 = 0, the sign of dz1/dt = k z*
    s = 1.0
    if ys[1] < 0.0 or (ys[1] == 0.0 and p[2] < 0.0):
        s = -1.0
    md = _mode(sc, s)
    ya = ys                     # anchor of the closed form
    za = _zt2_anchor(md, ya)
    f0 = _f(p, md, za, ys[0], ys[1])
    h = max_step * 0.1
    flipped = False             # s switched at t without a step since

    last_rec_t = t
    last_rec_tau = ys[0]
    last_rec_z1 = ys[1]
    have_pend = False           # the step start (t, ys) is not recorded yet
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
        if h < _MIN_STEP:
            _finish(y, ys, ret, CODE_STEP_FAILURE, t, n, 0.0)
            return

        y0 = (ys[0], ys[1])
        y1, f1, err = _dp_step(p, md, za, y0, f0, h)
        hs = h
        crossed = s * y1[1] < 0.0 and not flipped
        at_root = False
        if crossed:
            # z1 changes sign: retake the step up to its root
            hs = 0.0
            if s * ys[1] > 0.0:
                hs = h * _z1_root(_tau_curve(h, ys[1], f0[1], y1[1], f1[1]),
                                  s)
            if hs < _MIN_STEP:
                # the root is at the step start: switch the mode here
                s = -s
                md = _mode(sc, s)
                ya = ys
                za = _zt2_anchor(md, ya)
                flipped = True
                continue
            hs, y1, f1, err, at_root = _step_to_root(p, md, za, y0, f0, hs,
                                                     h)
        enorm = _err_norm(y0, y1, err, ya[0], atol, rtol)
        if enorm > 1.0:
            h = hs * _step_factor(enorm)
            continue
        flipped = False

        # accepted step [t, t+hs]; f1 is f at the new point (FSAL)
        t_new = t + hs
        ye = _closed(md, ya, y1[0], y1[1])
        ev = _guard_any(ye, g)
        if ev != 0:
            # record up to the event point, then stop there
            if have_pend:
                n = _record(buf, n, t, ys)
            tc = _tau_curve(hs, ys[1], f0[1], y1[1], f1[1])
            t_hi, width = _bisect_guard(t, hs, tc, md, ya, ys[0], y1[0], g,
                                        event_tol)
            yev = _dense(tc, md, ya, ys[0], y1[0], (t_hi - t) / hs)
            n = _emit_span(buf, n, t, hs, tc, md, ya, ys[0], y1[0], t,
                           ys[0], ys[1], t_hi, yev, budget_rel)
            _finish(y, yev, ret, ev, t_hi, n, width)
            return

        # recording decision at the accepted endpoint: thinned recording
        # leaves it pending while nothing forces a sample and one trapezoid
        # from the last recorded sample still matches tau
        at_stop = t_new >= t_stop - 1e-14
        z2_bad = ye[2] <= z2_floor
        converged = (abs(ye[1]) + abs(ye[2]) + abs(ye[3]) + abs(ye[4])
                     < conv_tol)
        force = at_stop or z2_bad or converged or at_root
        dtau = ye[0] - last_rec_tau
        trap = 0.5 * (abs(last_rec_z1) + abs(ye[1])) * (t_new - last_rec_t)
        coarse_ok = abs(dtau - trap) <= _tau_budget(dtau, ye[0], budget_rel)
        if not force and coarse_ok and (t_new - last_rec_t) < rec_dt:
            have_pend = True
        else:
            if have_pend:
                n = _record(buf, n, t, ys)
                have_pend = False
                last_rec_t = t
                last_rec_tau = ys[0]
                last_rec_z1 = ys[1]
            tc = _tau_curve(hs, ys[1], f0[1], y1[1], f1[1])
            n = _emit_span(buf, n, t, hs, tc, md, ya, ys[0], ye[0],
                           last_rec_t, last_rec_tau, last_rec_z1, t_new, ye,
                           budget_rel)
            last_rec_t = t_new
            last_rec_tau = ye[0]
            last_rec_z1 = ye[1]

        # advance; a root re-anchors the closed form with the new sign, and
        # a retaken step leaves the proposed step size as it was
        t = t_new
        ys = ye
        f0 = f1
        if at_root:
            s = -s
            md = _mode(sc, s)
            ya = ys
            za = _zt2_anchor(md, ya)
        if not crossed:
            h *= _step_factor(enorm)

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
