"""Interior samples of the recorded flow spans.

flow_segment chooses how many equally spaced samples each recorded span
gets, writes the span's endpoint row and reserves the rows before it; each
span with reserved rows leaves one descriptor (layout fastpath.SP_*). After
every kernel call the engine passes those descriptors to fill_spans, which
writes all reserved rows of the call in one vectorized pass: z1 from the
step's cubic Hermite, tau from fastpath._tau_at and the rest from the
closed form of fastpath._closed, with numpy doing the arithmetic in the
kernel's operation order. The transcendentals go through CPython's math,
one element at a time: numpy's ufuncs are not bit-identical to libm. On
1e6 uniform arguments (numpy 2.4, x86-64), np.exp differs from math.exp
in 4.7 % of values on [-20, 20], np.cosh in 14 % and np.sinh in 28 % on
[0, 1], and np.expm1 in 9 % on [-1, 1]; every filled row must equal the
kernel's _record(buf, n, t, _dense(...)) bit for bit.

This is plain Python on both backends; only the descriptor stores run
inside the kernel.
"""

from __future__ import annotations

import math

import numpy as np

from .fastpath import (SP_DT, SP_H, SP_M, SP_MD, SP_N, SP_T0, SP_TA,
                       SP_TAU0, SP_TAU1, SP_TC, SP_YA)

# rows per _fill pass, plus at most one span: bounds the temporaries
_FILL_ROWS = 1 << 11


def _libm(f, x):
    """f(x) element by element through CPython's math."""
    return np.fromiter(map(f, x.tolist()), float, x.size)


def _expm_pq_rows(mu, disc, w, dt):
    """fastpath._expm_pq on arrays, each element on its own branch."""
    x = w * dt
    p = np.empty_like(dt)
    q = np.empty_like(dt)
    cplx = disc < 0.0
    rep = ~cplx & (w == 0.0)
    hyp = ~cplx & ~rep & (x < 1.0)
    for sel, cos, sin in ((cplx, math.cos, math.sin),
                          (hyp, math.cosh, math.sinh)):
        e = _libm(math.exp, mu[sel] * dt[sel])
        p[sel] = e * _libm(cos, x[sel])
        q[sel] = e * _libm(sin, x[sel]) / w[sel]
    e = _libm(math.exp, mu[rep] * dt[rep])
    p[rep] = e
    q[rep] = dt[rep] * e
    two = ~(cplx | rep | hyp)
    mu, w, dt = mu[two], w[two], dt[two]
    ep = _libm(math.exp, (mu + w) * dt)
    em = _libm(math.exp, (mu - w) * dt)
    p[two] = 0.5 * (ep + em)
    q[two] = 0.5 * (ep - em) / w
    return p, q


def _fill(buf, sp):
    """Write the reserved rows of the span descriptors sp into buf."""
    cnt = sp[:, SP_M].astype(np.int64) - 1
    k = np.repeat(np.arange(len(sp)), cnt)      # descriptor of each row
    i = np.arange(k.size) - (np.cumsum(cnt) - cnt)[k] + 1

    def field(c):
        return sp[k, c]

    row = field(SP_N).astype(np.int64) + i - 1
    tt = field(SP_TA) + i * field(SP_DT)
    th = (tt - field(SP_T0)) / field(SP_H)
    c0, c1, c2, c3, a1 = (field(SP_TC + c) for c in range(5))
    tau0 = field(SP_TAU0)
    # _tau_at; np.where drops the quotient where a1 <= 0
    prim = th * (c0 + th * (0.5 * c1 + th * (c2 / 3.0 + th * (0.25 * c3))))
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(a1 <= 0.0, th, np.abs(prim) / a1)
    tau = tau0 + (field(SP_TAU1) - tau0) * frac
    buf[row, 0] = tt
    buf[row, 1] = tau
    buf[row, 2] = c0 + th * (c1 + th * (c2 + th * c3))
    # _closed
    mu, n11, n12, n21, disc, w, sc, dc = (field(SP_MD + c) for c in range(8))
    ya = [field(SP_YA + c) for c in range(9)]
    dtau = tau - ya[0]
    p, q = _expm_pq_rows(mu, disc, w, dtau)
    e11 = p + q * n11
    e12 = q * n12
    e21 = q * n21
    e22 = p - q * n11
    buf[row, 3] = ya[2] + (ya[2] + dc) * _libm(math.expm1, sc * dtau)
    buf[row, 4] = e11 * ya[3] + e12 * ya[4]
    buf[row, 5] = e21 * ya[3] + e22 * ya[4]
    buf[row, 6] = e11 * ya[5] + e12 * ya[7]
    buf[row, 7] = e11 * ya[6] + e12 * ya[8]
    buf[row, 8] = e21 * ya[5] + e22 * ya[7]
    buf[row, 9] = e21 * ya[6] + e22 * ya[8]


def fill_spans(buf, spans, count):
    """Write every row that a flow_segment call reserved in buf, from the
    first `count` rows of its span descriptors, in passes of about
    _FILL_ROWS rows."""
    ends = np.cumsum(spans[:count, SP_M] - 1.0)
    lo = 0
    while lo < count:
        done = ends[lo - 1] if lo else 0.0
        hi = max(lo + 1, int(np.searchsorted(ends, done + _FILL_ROWS,
                                             side="right")))
        _fill(buf, spans[lo:hi])
        lo = hi
