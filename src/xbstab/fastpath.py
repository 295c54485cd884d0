"""Inner loop of the hybrid engine.

One call integrates a single flow segment (between jumps) of the 9-state
closed loop y = [tau, z1, z2, zt1, zt2, phi11, phi12, phi21, phi22]. An
adaptive Dormand-Prince 5(4) stepper integrates two of them,

    dtau/dt = |z1|,    dz1/dt = a z1 zt2(tau) - k (z1 - z*),

and the other seven are solved in closed form: with s = sign z1 fixed they
are linear in tau, d(z2 + d/c)/dtau = s c (z2 + d/c) and dX/dtau = A(s) X
for X = zt and Phi, with A(+1) = A1 and A(-1) = A2. From an anchor state
that is a scalar exponential and the exponential of a 2x2 matrix,
exp(M dt) = p I + q N: each entry X of zt and Phi is p X + q (N X), with
the products N X taken once per anchor (_n_products). Every stage reads
zt2 in that form, and the same form gives z2, zt and Phi at accepted step
endpoints (for the guards), at bisection points and at recorded samples.
z1 roots are step boundaries: a step over which z1 changes sign is
retaken up to the root (bisected on the step's cubic Hermite of z1, then
polished by Newton iterations on the retaken endpoint), and the closed
form is re-anchored there with the new s, so no step integrates tau
across the kink of |z1|.

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

The kernel writes t, tau and z1 of each recorded row, the values it
integrates, and nothing else. It writes each span's endpoint row, reserves
the rows before it and leaves one descriptor per span (layout SP_*), from
which emission.fill_spans writes t, tau and z1 of every reserved row in
one vectorized pass after the call. At each z1 root, where it anchors the
closed form anew (_mode), it leaves an anchor (layout AN_*): the first
row the anchor covers, its mode and its state.
z2, zt and Phi of a row are the closed form of its anchor at the row's
tau, which emission.ClosedForm evaluates when they are read. The closed
form's arithmetic after the transcendental calls is written once, in
functions that take floats or numpy arrays alike (_n_products,
_flow_state, _z1_cubic, _z1_prim): the kernel calls them on floats,
emission on arrays, so each row reads back as the state the kernel
computed for it, bit for bit. _f reads zt2 by _flow_state's expression;
_dp_step writes _f in place for its six stages, with _expm_pq's complex
branch (the shipped modes' eigenvalues are complex), and returns the FSAL
stage's (p, q), from which flow_segment gives the endpoint by
_flow_state, as _closed would at the same tau.

A run's constants reach the kernel as one record of floats and tuples,
sc = (run, seg): run = (a, k, modes, (P11, P12, P22), settings, -d/c)
from run_constants once per simulate call, and seg = (z*, D_c threshold,
lambda_min h(i)^2) from engine._segment_constants once per segment.
modes[0] and modes[1] are the tau-time flows for z1 > 0 and z1 < 0: A1 or
A2 split by _split, then s c and d/c, so a z1 root only picks the other one.

The kernel is written once, in scalar-local style: every value it does
arithmetic on is a float local or a tuple of floats, and numpy arrays are
touched only to read the inputs, write sample rows and descriptors and
write the results back. The same source is jit-compiled when numba is
installed (the ``fast`` extra) and runs as plain CPython otherwise. The
numba path has never been compiled in this repository. emission calls the
shared functions' Python source, on both backends.
"""

from __future__ import annotations

import math

try:
    from numba import njit
    HAVE_NUMBA = True
except ImportError:               # numba is the optional ``fast`` extra
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]
        return lambda f: f


# span-descriptor layout, one row of flow_segment's spans array per span
# with interior samples: its first interior row and sample count m, the
# sample spacing, the step's start (also the span's), size and tau range,
# and the step's _tau_curve
SP_N, SP_M, SP_DT, SP_T0, SP_H, SP_TAU0, SP_TAU1, SP_TC = range(8)
N_SP = 12

# anchor layout, one row of flow_segment's anchors array per anchoring of
# the closed form: the first row it covers, its mode (0 for z1 > 0, 1 for
# z1 < 0), whether that first row is held, that is, is the anchor state as
# stored (1.0) rather than its closed form at dt = 0 (0.0), which turns a
# -0.0 into +0.0, and the anchor state
AN_FIRST, AN_MODE, AN_HELD, AN_YA = 0, 1, 2, 3
N_AN = 12

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
def _n_products(md, ya):
    """N zt and N Phi at the anchor ya, for N of mode md (_split), as
    ((N zt)_1, (N zt)_2, (N Phi)_11, (N Phi)_12, (N Phi)_21, (N Phi)_22)."""
    n11, n12, n21 = md[1], md[2], md[3]
    return (n11 * ya[3] + n12 * ya[4], n21 * ya[3] - n11 * ya[4],
            n11 * ya[5] + n12 * ya[7], n11 * ya[6] + n12 * ya[8],
            n21 * ya[5] - n11 * ya[7], n21 * ya[6] - n11 * ya[8])


@njit(cache=True)
def _flow_state(md, ya, nx, tau, z1, p, q, x):
    """The state at (tau, z1) in the closed form of mode md anchored at
    ya, with nx = _n_products(md, ya), (p, q) = _expm_pq(md, dt) and
    x = expm1(s c dt) for dt = tau - ya[0]: each entry X of zt and Phi
    is p X + q (N X)."""
    return (tau, z1, ya[2] + (ya[2] + md[7]) * x,
            p * ya[3] + q * nx[0], p * ya[4] + q * nx[1],
            p * ya[5] + q * nx[2], p * ya[6] + q * nx[3],
            p * ya[7] + q * nx[4], p * ya[8] + q * nx[5])


@njit(cache=True)
def _closed(md, ya, nx, tau, z1):
    """The state at (tau, z1): z2, zt and Phi from the closed form of mode
    md anchored at the state ya (nx = _n_products(md, ya))."""
    dt = tau - ya[0]
    p, q = _expm_pq(md, dt)
    return _flow_state(md, ya, nx, tau, z1, p, q, math.expm1(md[6] * dt))


@njit(cache=True)
def _sign(z1, zstar):
    """s = sign z1; at z1 = 0, the sign of dz1/dt = k z*."""
    return -1.0 if z1 < 0.0 or (z1 == 0.0 and zstar < 0.0) else 1.0


@njit(cache=True)
def _mode(modes, s, ys):
    """The closed form for sign s anchored at the state ys, as (md, ya,
    nx): the mode, the anchor and _n_products."""
    md = modes[0] if s > 0.0 else modes[1]
    return md, ys, _n_products(md, ys)


@njit(cache=True)
def _f(p, md, ya, nx, tau, z1):
    """(dtau/dt, dz1/dt) at (tau, z1), with zt2 by _flow_state's
    expression; _dp_step's stages write it in place."""
    a, k, zstar = p
    e, q = _expm_pq(md, tau - ya[0])
    return abs(z1), a * z1 * (e * ya[4] + q * nx[1]) - k * (z1 - zstar)


@njit(cache=True)
def _guard_any(y, g):
    """CODE_DC if y is in D_c, else CODE_DNC if it is in D_nc (the sets of
    engine.in_Dc and in_Dnc), else 0; g = (z*, thr, lambda_min h(i)^2, P11,
    P12, P22). flow_segment writes the first two tests in place at every
    accepted step endpoint."""
    zstar, thr, lmh2, p11, p12, p22 = g
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
def _dp_step(p, md, ya, nx, y, k1, h):
    """One Dormand-Prince 5(4) step of (tau, z1) of size h from y with
    k1 = f(y).

    Returns (y1, k7, err, pq): the 5th-order solution, f(y1) (FSAL), the
    embedded error estimate and the FSAL stage's (p, q) = _expm_pq(md,
    y1[0] - ya[0]), from which _flow_state gives the state at y1; NaN or
    inf where a step far too large drives the closed form out of range
    (math.exp raises on CPython). Every step evaluates six stages, so each
    is _f written in place, and so is _expm_pq's complex branch, which the
    shipped modes take.
    """
    a, k, zstar = p
    mu, cplx, w = md[0], md[4] < 0.0, md[5]
    ta, zt2, nzt2 = ya[0], ya[4], nx[1]
    tau, z1 = y
    a1, b1 = k1
    try:                        # numba catches Exception, no subclass
        dt = tau + h * (_A21 * a1) - ta
        z = z1 + h * (_A21 * b1)
        if cplx:
            e = math.exp(mu * dt)
            pe, qe = e * math.cos(w * dt), e * math.sin(w * dt) / w
        else:
            pe, qe = _expm_pq(md, dt)
        a2 = abs(z)
        b2 = a * z * (pe * zt2 + qe * nzt2) - k * (z - zstar)
        dt = tau + h * (_A31 * a1 + _A32 * a2) - ta
        z = z1 + h * (_A31 * b1 + _A32 * b2)
        if cplx:
            e = math.exp(mu * dt)
            pe, qe = e * math.cos(w * dt), e * math.sin(w * dt) / w
        else:
            pe, qe = _expm_pq(md, dt)
        a3 = abs(z)
        b3 = a * z * (pe * zt2 + qe * nzt2) - k * (z - zstar)
        dt = tau + h * (_A41 * a1 + _A42 * a2 + _A43 * a3) - ta
        z = z1 + h * (_A41 * b1 + _A42 * b2 + _A43 * b3)
        if cplx:
            e = math.exp(mu * dt)
            pe, qe = e * math.cos(w * dt), e * math.sin(w * dt) / w
        else:
            pe, qe = _expm_pq(md, dt)
        a4 = abs(z)
        b4 = a * z * (pe * zt2 + qe * nzt2) - k * (z - zstar)
        dt = (tau + h * (_A51 * a1 + _A52 * a2 + _A53 * a3 + _A54 * a4)
              - ta)
        z = z1 + h * (_A51 * b1 + _A52 * b2 + _A53 * b3 + _A54 * b4)
        if cplx:
            e = math.exp(mu * dt)
            pe, qe = e * math.cos(w * dt), e * math.sin(w * dt) / w
        else:
            pe, qe = _expm_pq(md, dt)
        a5 = abs(z)
        b5 = a * z * (pe * zt2 + qe * nzt2) - k * (z - zstar)
        dt = (tau + h * (_A61 * a1 + _A62 * a2 + _A63 * a3 + _A64 * a4
                         + _A65 * a5) - ta)
        z = z1 + h * (_A61 * b1 + _A62 * b2 + _A63 * b3 + _A64 * b4
                      + _A65 * b5)
        if cplx:
            e = math.exp(mu * dt)
            pe, qe = e * math.cos(w * dt), e * math.sin(w * dt) / w
        else:
            pe, qe = _expm_pq(md, dt)
        a6 = abs(z)
        b6 = a * z * (pe * zt2 + qe * nzt2) - k * (z - zstar)
        tau1 = tau + h * (_B1 * a1 + _B3 * a3 + _B4 * a4 + _B5 * a5
                          + _B6 * a6)
        z = z1 + h * (_B1 * b1 + _B3 * b3 + _B4 * b4 + _B5 * b5 + _B6 * b6)
        dt = tau1 - ta
        if cplx:
            e = math.exp(mu * dt)
            pq = (e * math.cos(w * dt), e * math.sin(w * dt) / w)
        else:
            pq = _expm_pq(md, dt)
        a7 = abs(z)
        b7 = a * z * (pq[0] * zt2 + pq[1] * nzt2) - k * (z - zstar)
    except Exception:
        nan2 = (math.nan, math.nan)
        return nan2, nan2, nan2, nan2
    err = (h * (_E1 * a1 + _E3 * a3 + _E4 * a4 + _E5 * a5 + _E6 * a6
                + _E7 * a7),
           h * (_E1 * b1 + _E3 * b3 + _E4 * b4 + _E5 * b5 + _E6 * b6
                + _E7 * b7))
    return (tau1, z), (a7, b7), err, pq


@njit(cache=True)
def _step_factor(enorm):
    """Step-size factor 0.9 enorm^(-1/5), within [0.2, 5]."""
    if enorm <= 1e-30:
        return 5.0
    if not enorm < 1e4:         # 0.2 from here on, and for a NaN enorm
        return 0.2
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
def _z1_cubic(tc, th):
    """The step's z1 cubic at th."""
    return tc[0] + th * (tc[1] + th * (tc[2] + th * tc[3]))


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
    frac = th if a1 <= 0.0 else abs(_z1_prim(tc, th)) / a1
    return tau0 + (tau1 - tau0) * frac


@njit(cache=True)
def _dense(tc, md, ya, nx, tau0, tau1, th):
    """The state at th inside the step: z1 from its cubic, tau from
    _tau_at and the rest from the closed form."""
    return _closed(md, ya, nx, _tau_at(tc, tau0, tau1, th),
                   _z1_cubic(tc, th))


@njit(cache=True)
def _z1_root(tc, s):
    """Root of the z1 cubic in [0, 1], given s z1_H(0) > 0 > s z1_H(1),
    bisected to 1e-9 (a first guess for _step_to_root)."""
    lo = 0.0
    hi = 1.0
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if s * _z1_cubic(tc, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@njit(cache=True)
def _step_to_root(p, md, ya, nx, y0, f0, hr, h):
    """Retake the step from y0 = (tau, z1) with size hr, a guess of the z1
    root, and polish hr by Newton iterations on the retaken endpoint's z1.

    Returns (hr, y1, f1, err, pq, at_root), with pq as from _dp_step;
    at_root says that |z1| at the endpoint is within 1e-12 of |z1| at y0.
    hr stays in (0, h].
    """
    y1, f1, err, pq = _dp_step(p, md, ya, nx, y0, f0, hr)
    ztol = 1e-12 * abs(y0[1])
    for _ in range(_ROOT_ITERS):
        if abs(y1[1]) <= ztol or f1[1] == 0.0:
            break
        hn = hr - y1[1] / f1[1]
        if not 0.0 < hn <= h:   # also a NaN hn, from an overflowed step
            break
        hr = hn
        y1, f1, err, pq = _dp_step(p, md, ya, nx, y0, f0, hr)
    return hr, y1, f1, err, pq, abs(y1[1]) <= ztol


@njit(cache=True)
def _floats(v):
    """The 9 entries of the array v as a tuple of floats."""
    return (float(v[0]), float(v[1]), float(v[2]), float(v[3]), float(v[4]),
            float(v[5]), float(v[6]), float(v[7]), float(v[8]))


@njit(cache=True)
def _record(buf, n, tt, y):
    """Write t, tau and z1 of the point (tt, y) into row n."""
    buf[n, 0] = tt
    buf[n, 1] = y[0]
    buf[n, 2] = y[1]
    return n + 1


@njit(cache=True)
def _anchor(anchors, na, n, s, ys, held):
    """Write the anchor (layout AN_*) of the closed form for sign s at the
    state ys, whose first row n holds ys if held is 1.0, into row na, or
    over row na - 1 if that anchor covers no row yet; returns the anchor
    count."""
    if na > 0 and anchors[na - 1, AN_FIRST] == n:
        na -= 1
    anchors[na, AN_FIRST] = n
    anchors[na, AN_MODE] = 0.0 if s > 0.0 else 1.0
    anchors[na, AN_HELD] = held
    for m in range(9):
        anchors[na, AN_YA + m] = ys[m]
    return na + 1


@njit(cache=True)
def _tau_budget(dtau, tau_now, budget_rel):
    return budget_rel * abs(dtau) + _TAU_ABS_FLOOR * (1.0 + abs(tau_now))


@njit(cache=True)
def _emit_span(buf, n, spans, ns, t0, h, tc, tau0, tau1, tb, yb,
               budget_rel):
    """Record samples on (t0, tb] within the step [t0, t0 + h], whose tau
    runs from tau0 to tau1 and whose start is recorded; yb is the state at
    tb. The span gets m equally spaced samples, m chosen from the endpoint
    tau/trapezoid mismatch e: the composite trapezoid error falls as
    1/m^2, so m > sqrt(e / budget) brings it within the budget. The
    endpoint row is written here; the m - 1 interior rows before it are
    only reserved, and their descriptor goes to spans[ns] (layout SP_*)
    for emission.fill_spans. Returns the new (n, ns); at most
    _SPAN_MAX_ROWS rows are taken."""
    dtau = yb[0] - tau0
    e = abs(dtau - 0.5 * (abs(tc[0]) + abs(yb[1])) * (tb - t0))
    q = math.sqrt(e / _tau_budget(dtau, yb[0], budget_rel))
    m = _SPAN_MAX_ROWS
    if q < _SPAN_MAX_ROWS - 1:
        m = int(q) + 1
    if m > 1:
        # the descriptor's fields in the order of the SP_* layout
        d = (float(n), float(m), (tb - t0) / m, t0, h, tau0, tau1) + tc
        for i in range(N_SP):
            spans[ns, i] = d[i]
        n += m - 1
        ns += 1
    return _record(buf, n, tb, yb), ns


@njit(cache=True)
def _bisect_guard(t0, h, tc, md, ya, nx, tau0, tau1, g, event_tol):
    """Earliest guard activation in (t0, t0+h]; guard is false at t0 and
    true at t0+h. Returns t_event.

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
        if _guard_any(_dense(tc, md, ya, nx, tau0, tau1, (mid - t0) / h),
                      g) != 0:
            hi = mid
        else:
            lo = mid
    return hi


@njit(cache=True)
def _finish(y, ys, ret, code, t, n, ns, na, h):
    """Write the state ys back into y and the exit record into ret."""
    for m in range(9):
        y[m] = ys[m]
    ret[0] = code
    ret[1] = t
    ret[2] = n
    ret[3] = ns
    ret[4] = na
    ret[5] = h


@njit(cache=True)
def flow_segment(y, t_start, sc, buf, n0, ret, spans, anchors):
    """Integrate one flow segment from (t_start, y) with the record sc
    = (run, seg) of the module docstring, or go on with a paused one.

    Writes samples into buf from row n0 on (3 columns: t, tau, z1), goes
    on with the anchor in force anchors[0] (layout AN_*, first rows in
    buf's rows), appends one per z1 root, at most one more than the rows
    written, and fills ret = [code, t_final, n, n_spans, n_anchors, h]:
    the rows end at n, n_anchors were appended, and h is the proposed
    step size, which a call given ret[5] goes on with (0: max_step / 10).
    The interior rows of a recorded span are reserved, not written: the
    call leaves one descriptor per such span in spans[:n_spans], from
    which the engine fills them (emission.fill_spans); spans needs
    (len(buf) - n0) // 2 rows. y is updated in place to the final state
    on every exit code. The caller has recorded the segment-start sample.
    A step starts only with at least MAX_STEP_ROWS free rows in buf, so
    no sample is ever dropped; otherwise the call pauses at its last row
    with CODE_BUFFER_FULL, and a call from (t_final, y) with that ret,
    buf's rows from n on and anchors from the last one on goes on bit for
    bit. A buffer of fewer than MAX_STEP_ROWS rows makes no progress.
    """
    run, seg = sc
    a, k, modes, pm, settings, z2_floor = run
    rtol, atol, max_step, event_tol, t_stop, rec_dt, budget_rel = settings
    zstar, thr = seg[0], seg[1]
    p = (a, k, zstar)
    g = seg + pm
    t = float(t_start)
    cap = buf.shape[0]
    ys = _floats(y)

    # a guard already active at the segment start is a zero-width event;
    # the loop runs while code is 0, which is also CODE_HORIZON
    code = _guard_any(ys, g)

    # the anchor in force; ya is read as floats by every stage
    s = 1.0 if anchors[0, AN_MODE] == 0.0 else -1.0
    md, ya, nx = _mode(modes, s, _floats(anchors[0, AN_YA:]))
    n = n0
    na = 1
    f0 = _f(p, md, ya, nx, ys[0], ys[1])
    h = float(ret[5]) if ret[5] > 0.0 else max_step * 0.1
    flipped = False             # s switched at t without a step since

    last_rec_t, last_rec_tau, last_rec_z1 = t, ys[0], ys[1]
    have_pend = False           # the step start (t, ys) is not recorded yet
    ns = 0                      # span descriptors written

    while code == 0:
        if n > cap - MAX_STEP_ROWS:
            # only a step that records writes rows, and it leaves nothing
            # pending and no fresh mode switch: (t, ys) is the last row,
            # from which the next call goes on with h and the last anchor
            code = CODE_BUFFER_FULL
            break
        t_left = t_stop - t
        if t_left < _MIN_STEP:
            # horizon, its sample force-recorded; t + (t_stop - t) can
            # round to just below t_stop
            break
        if h > max_step:
            h = max_step
        if h > t_left:
            h = t_left
        if h < _MIN_STEP:
            code = CODE_STEP_FAILURE
            break

        y0 = (ys[0], ys[1])
        y1, f1, err, pq = _dp_step(p, md, ya, nx, y0, f0, h)
        hs = h
        crossed = -math.inf < s * y1[1] < 0.0 and not flipped
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
                md, ya, nx = _mode(modes, s, ys)
                na = _anchor(anchors, na, n, s, ys, 0.0)
                flipped = True
                continue
            hs, y1, f1, err, pq, at_root = _step_to_root(p, md, ya, nx, y0,
                                                         f0, hs, h)
        # RMS of the (tau, z1) error estimate scaled by the tolerances; the
        # closed-form states are functions of tau - ya[0], so that is what
        # rtol scales for tau
        e0 = err[0] / (atol + rtol * abs(y1[0] - ya[0]))
        e1 = err[1] / (atol + rtol * max(abs(ys[1]), abs(y1[1])))
        enorm = math.sqrt(0.5 * (e0 * e0 + e1 * e1))
        if not enorm <= 1.0:
            h = hs * _step_factor(enorm)
            continue

        # accepted step [t, t+hs]; f1 is f at the new point (FSAL), and the
        # closed form there reuses the FSAL stage's (p, q). _guard_any's
        # first two tests are written in place: D_c, then the band outside
        # which no state is in D_nc.
        t_new = t + hs
        ye = _flow_state(md, ya, nx, y1[0], y1[1], pq[0], pq[1],
                         math.expm1(md[6] * (y1[0] - ya[0])))
        zh2 = ye[2] + ye[4]
        if abs(zh2) >= thr and zh2 * zstar >= 0.0:
            code = CODE_DC
        elif not (abs(zh2) > thr or zh2 * zstar > 0.0):
            code = _guard_any(ye, g)

        # recording decision at the accepted endpoint: thinned recording
        # leaves it pending while nothing forces a sample and one trapezoid
        # from the last recorded sample still matches tau
        at_stop = t_new >= t_stop - 1e-14
        z2_bad = ye[2] <= z2_floor
        converged = abs(ye[1]) + abs(ye[2]) + abs(ye[3]) + abs(ye[4]) < atol
        force = code != 0 or at_stop or z2_bad or converged or at_root
        dtau = ye[0] - last_rec_tau
        trap = 0.5 * (abs(last_rec_z1) + abs(ye[1])) * (t_new - last_rec_t)
        coarse_ok = abs(dtau - trap) <= (budget_rel * abs(dtau)
                                         + _TAU_ABS_FLOOR * (1.0 + abs(ye[0])))
        if not force and coarse_ok and (t_new - last_rec_t) < rec_dt:
            have_pend = True
        else:
            if have_pend:
                if flipped:     # the last anchor's state, at its first row
                    anchors[na - 1, AN_HELD] = 1.0
                n = _record(buf, n, t, ys)
                have_pend = False
            tc = _tau_curve(hs, ys[1], f0[1], y1[1], f1[1])
            if code != 0:
                # an event ends the step, and the segment, at its point
                t_new = _bisect_guard(t, hs, tc, md, ya, nx, ys[0], y1[0], g,
                                      event_tol)
                ye = _dense(tc, md, ya, nx, ys[0], y1[0], (t_new - t) / hs)
            n, ns = _emit_span(buf, n, spans, ns, t, hs, tc, ys[0], y1[0],
                               t_new, ye, budget_rel)
            last_rec_t, last_rec_tau, last_rec_z1 = t_new, ye[0], ye[1]
        flipped = False

        # advance; a root re-anchors the closed form with the new sign, a
        # retaken step leaves the proposed step size as it was, and so does
        # an error norm of at most 0.5 at max_step (its factor, above 1.03,
        # would be capped back to max_step)
        t = t_new
        ys = ye
        f0 = f1
        if at_root:
            s = -s
            md, ya, nx = _mode(modes, s, ys)
            na = _anchor(anchors, na, n, s, ys, 0.0)
        if not crossed and (h != max_step or enorm > 0.5):
            h *= _step_factor(enorm)
        if code == 0 and z2_bad:
            code = CODE_DOMAIN
        elif code == 0 and converged:
            code = CODE_CONVERGED

    _finish(y, ys, ret, code, t, n, ns, na - 1, h)


def run_constants(params, gains, k, cert, solver) -> tuple:
    """The run part of the kernel's record (module docstring); settings
    are rel_tol, abs_tol, max_step, event_tol, t_end, record_interval and
    tau_budget_rel."""
    c, d_over_c = float(params.c), float(params.d / params.c)
    modes = tuple((*_split(*map(float, m.ravel())), s * c, d_over_c)
                  for m, s in ((gains.A1, 1.0), (gains.A2, -1.0)))
    P = cert.P
    settings = (solver.rel_tol, solver.abs_tol, solver.max_step,
                solver.event_tol, solver.t_end, solver.record_interval,
                solver.tau_budget_rel)
    return (float(params.a), float(k), modes,
            (float(P[0, 0]), float(P[0, 1]), float(P[1, 1])),
            tuple(map(float, settings)), -d_over_c)
