"""Interior samples of the recorded flow spans.

flow_segment chooses how many equally spaced samples each recorded span
gets, writes the span's endpoint row and reserves the rows before it; each
span with reserved rows leaves one descriptor (layout fastpath.SP_*). After
every kernel call the engine passes those descriptors to fill_spans, which
writes all reserved rows of the call in one vectorized pass of
fastpath._dense: it runs the kernel's own arithmetic functions (the z1
cubic, tau's primitive, N zt and N Phi once per descriptor, the state
p X + q (N X) and the row store) on arrays, since numpy's + - * / round
like Python's floats and fuse nothing. What stays here is what arrays
need: the branch masks of fastpath._expm_pq, the a1 <= 0 case of
fastpath._tau_at and the transcendentals, which go through CPython's math
one element at a time, because numpy's ufuncs are not bit-identical to
libm. On 1e6 uniform arguments (numpy 2.4, x86-64), np.exp differs from
math.exp in 4.7 % of values on [-20, 20], np.cosh in 14 % and np.sinh in
28 % on [0, 1], and np.expm1 in 9 % on [-1, 1]; every filled row must
equal the kernel's _record(buf, n, t, _dense(...)) bit for bit.

This is plain Python on both backends: the fill calls the shared
functions' Python source (py_func where numba compiled them).
"""

from __future__ import annotations

import math

import numpy as np

from . import fastpath
from .fastpath import (SP_DT, SP_H, SP_M, SP_MD, SP_N, SP_T0, SP_TA,
                       SP_TAU0, SP_TAU1, SP_TC, SP_YA)

# the kernel's own arithmetic, as Python source on both backends; none of
# them calls another kernel function, which numba would compile for arrays
_n_products, _flow_state, _record, _z1_cubic, _z1_prim = (
    getattr(f, "py_func", f) for f in (
        fastpath._n_products, fastpath._flow_state, fastpath._record,
        fastpath._z1_cubic, fastpath._z1_prim))

# rows per _fill pass, plus at most one span: bounds the temporaries
_FILL_ROWS = 1 << 11


def _libm(f, x):
    """f(x) element by element through CPython's math."""
    return np.fromiter(map(f, x.tolist()), float, x.size)


def _expm_pq_rows(md, dt):
    """fastpath._expm_pq on arrays, each element on its own branch."""
    mu, disc, w = md[0], md[4], md[5]
    x = w * dt
    p, q = np.empty((2, dt.size))
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
    """Write the reserved rows of the span descriptors sp into buf: for
    each, _record(buf, n, tt, _dense(...)) on arrays."""
    cnt = sp[:, SP_M].astype(np.int64) - 1
    k = np.repeat(np.arange(len(sp)), cnt)      # descriptor of each row
    i = np.arange(k.size) - (np.cumsum(cnt) - cnt)[k] + 1
    f = sp[k].T                                 # one array per field
    tc, md, ya = f[SP_TC:SP_MD], f[SP_MD:SP_YA], f[SP_YA:]
    # N zt and N Phi once per descriptor, then copied to its rows
    nx = [v[k] for v in _n_products(sp.T[SP_MD:SP_YA], sp.T[SP_YA:])]
    tt = f[SP_TA] + i * f[SP_DT]
    th = (tt - f[SP_T0]) / f[SP_H]
    # _tau_at; np.where drops the quotient where a1 <= 0
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(tc[4] <= 0.0, th, np.abs(_z1_prim(tc, th)) / tc[4])
    tau = f[SP_TAU0] + (f[SP_TAU1] - f[SP_TAU0]) * frac
    # _closed
    dt = tau - ya[0]
    y = _flow_state(md, ya, nx, tau, _z1_cubic(tc, th),
                    *_expm_pq_rows(md, dt), _libm(math.expm1, md[6] * dt))
    _record(buf, f[SP_N].astype(np.int64) + i - 1, tt, y)


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
