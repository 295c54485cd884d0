"""The rows the kernel reserves, filled, and z2, z_tilde and Phi of every
row, evaluated when they are read.

flow_segment chooses how many equally spaced samples each recorded span
gets, writes the span's endpoint row and reserves the rows before it; each
span with reserved rows leaves one descriptor (layout fastpath.SP_*). After
every kernel call the engine passes those descriptors to fill_spans, which
writes t, tau and z1 of all reserved rows of the call in one vectorized
pass of the kernel's own arithmetic functions (the z1 cubic and tau's
primitive), since numpy's + - * / round like Python's floats and fuse
nothing. Those are the values the kernel integrates; the fill calls no
transcendental.

On each mode arc the other seven columns, z2, z_tilde and Phi, are
closed-form functions of tau set by one anchor state. The arc keeps one
anchor (layout fastpath.AN_*: first row, mode, state) per anchoring of the
closed form: the kernel's at each z1 root, the engine's at each row it
writes (a segment's start). ClosedForm evaluates the seven columns of a block
of rows on read by the rest of fastpath._closed: N zt and N Phi, the state
p X + q (N X) and the z2 propagation, at the stored tau under the anchor
that covers each row; a row that holds its anchor's state (AN_HELD) reads
it as stored. What stays here is what arrays need: the branch masks of
fastpath._expm_pq, the a1 <= 0 case of fastpath._tau_at and the
transcendentals, which go through CPython's math one element at a time,
because numpy's ufuncs are not bit-identical to libm. On 1e6 uniform
arguments (numpy 2.4, x86-64), np.exp differs from math.exp in 4.7 % of
values on [-20, 20], np.cosh in 14 % and np.sinh in 28 % on [0, 1], and
np.expm1 in 9 % on [-1, 1]; every row, read back, equals the state the
kernel computed for it bit for bit.

This is plain Python on both backends: it calls the shared functions'
Python source (py_func where numba compiled them).
"""

from __future__ import annotations

import math

import numpy as np

from . import fastpath
from .fastpath import (AN_FIRST, AN_HELD, AN_MODE, AN_YA, SP_DT, SP_H, SP_M,
                       SP_N, SP_T0, SP_TAU0, SP_TAU1, SP_TC)

# the kernel's own arithmetic, as Python source on both backends; none of
# them calls another kernel function, which numba would compile for arrays
_n_products, _flow_state, _z1_cubic, _z1_prim = (
    getattr(f, "py_func", f) for f in (
        fastpath._n_products, fastpath._flow_state, fastpath._z1_cubic,
        fastpath._z1_prim))

# rows per _fill pass, plus at most one span, and per _closed pass: bounds
# the temporaries. A _closed pass takes about 110 B a row at its peak;
# evaluating the 51,072 rows of the shipped scenario took 16.7, 18.8 and
# 23.2 ms in passes of 2048, 1024 and 512 rows (2-CPU x86 VM)
_FILL_ROWS = 1 << 11
_CLOSED_ROWS = 1 << 10


def _libm(f, x):
    """f(x) element by element through CPython's math."""
    return np.fromiter(map(f, memoryview(x)), float, x.size)


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


def _fill(flow, sp):
    """Write t, tau and z1 of the reserved rows of the span descriptors sp
    into the first three columns of flow: _dense's t, _tau_at and
    _z1_cubic on arrays."""
    cnt = sp[:, SP_M].astype(np.int64) - 1
    k = np.repeat(np.arange(len(sp)), cnt)      # descriptor of each row
    i = np.arange(k.size) - (np.cumsum(cnt) - cnt)[k] + 1
    f = sp[k].T                                 # one array per field
    tc = f[SP_TC:]
    tt = f[SP_T0] + i * f[SP_DT]
    th = (tt - f[SP_T0]) / f[SP_H]
    # _tau_at; np.where drops the quotient where a1 <= 0
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(tc[4] <= 0.0, th, np.abs(_z1_prim(tc, th)) / tc[4])
    rows = f[SP_N].astype(np.int64) + i - 1
    flow[rows, 0] = tt
    flow[rows, 1] = f[SP_TAU0] + (f[SP_TAU1] - f[SP_TAU0]) * frac
    flow[rows, 2] = _z1_cubic(tc, th)


def fill_spans(flow, spans, count):
    """Write t, tau and z1 of every row that a flow_segment call reserved,
    from the first `count` rows of its span descriptors, into the first
    three columns of flow, the store the call wrote its rows into; in
    passes of about _FILL_ROWS rows."""
    ends = np.cumsum(spans[:count, SP_M] - 1.0)
    lo = 0
    while lo < count:
        done = ends[lo - 1] if lo else 0.0
        hi = max(lo + 1, int(np.searchsorted(ends, done + _FILL_ROWS,
                                             side="right")))
        _fill(flow, spans[lo:hi])
        lo = hi


class _Rows:
    """fields[i][k] for index i: fields kept per anchor, read per row k
    only while an expression uses them."""

    def __init__(self, fields, k):
        self._fields, self._k = fields, k

    def __getitem__(self, i):
        return self._fields[i][self._k]


def _closed(modes, anchors, k, tau):
    """(z2, zt1, zt2, Phi11, Phi12, Phi21, Phi22) at the stored tau of
    rows whose anchors are anchors[k]: fastpath._closed at (tau, z1), on
    arrays. The mode, state and N products stay per anchor."""
    md = modes[anchors[:, AN_MODE].astype(np.intp)].T
    ya = anchors[:, AN_YA:].T
    md, ya, nx = (_Rows(f, k) for f in (md, ya, _n_products(md, ya)))
    dt = tau - ya[0]
    return _flow_state(md, ya, nx, tau, tau, *_expm_pq_rows(md, dt),
                       _libm(math.expm1, md[6] * dt))[2:]


class ClosedForm:
    """The closed-form columns (z2, zt1, zt2, Phi11, Phi12, Phi21, Phi22)
    of an arc, evaluated on read.

    tau is the arc's tau column and anchors its anchors (layout
    fastpath.AN_*) in row order; the anchor of a row is the last one whose
    first row is at or before it, and its mode a row of modes (the
    fastpath._split form, s c and d/c). Each row is its anchor's closed
    form at the stored tau, and the held first row of an anchor its state,
    so every value is the kernel's or the engine's, bit for bit. A call
    evaluates the rows it is given and keeps nothing.
    """

    def __init__(self, tau, anchors, modes):
        self._tau, self._anchors, self._modes = tau, anchors, modes
        self._first = anchors[:, AN_FIRST].astype(np.int64)
        self.nbytes = sum(a.nbytes for a in (anchors, modes, self._first))

    def __call__(self, lo: int, hi: int, out=None) -> np.ndarray:
        """The seven columns of rows lo:hi as a (7, hi - lo) array, into
        out[:, :hi - lo] when out is given."""
        out = np.empty((7, hi - lo)) if out is None else out[:, :hi - lo]
        for c in range(lo, hi, _CLOSED_ROWS):
            rows = np.arange(c, min(c + _CLOSED_ROWS, hi))
            k = self._first.searchsorted(rows, "right") - 1
            a = self._anchors[k[0]:k[-1] + 1]
            k -= k[0]
            part = out[:, c - lo:c - lo + rows.size]
            for row, v in zip(part, _closed(self._modes, a, k,
                                            self._tau[c:c + rows.size])):
                row[:] = v
            held = (a[k, AN_HELD] != 0.0) & (a[k, AN_FIRST] == rows)
            part[:, held] = a[k[held], AN_YA + 2:].T
        return out
