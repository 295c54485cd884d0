"""Interior samples of the recorded flow spans: t, tau and z1 when they are
recorded, z2, z_tilde and Phi when they are read.

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
closed-form functions of tau. So the engine keeps one span record per
descriptor (layout R_*: its first row, its count of filled rows, its mode
and the closed form's anchor state), and ClosedForm evaluates those
columns of a block of rows on read by the rest of fastpath._dense: N zt
and N Phi, the state p X + q (N X) and the z2 propagation at the stored
tau. What stays here is what arrays need: the branch masks of
fastpath._expm_pq, the a1 <= 0 case of fastpath._tau_at and the
transcendentals, which go through CPython's math one element at a time,
because numpy's ufuncs are not bit-identical to libm. On 1e6 uniform
arguments (numpy 2.4, x86-64), np.exp differs from math.exp in 4.7 % of
values on [-20, 20], np.cosh in 14 % and np.sinh in 28 % on [0, 1], and
np.expm1 in 9 % on [-1, 1]; every filled row, read back, equals the
kernel's _record(buf, n, t, _dense(...)) bit for bit.

This is plain Python on both backends: it calls the shared functions'
Python source (py_func where numba compiled them).
"""

from __future__ import annotations

import math

import numpy as np

from . import fastpath
from .fastpath import (SP_DT, SP_H, SP_M, SP_MD, SP_N, SP_T0, SP_TA,
                       SP_TAU0, SP_TAU1, SP_TC, SP_YA)

# the kernel's own arithmetic, as Python source on both backends; none of
# them calls another kernel function, which numba would compile for arrays
_n_products, _flow_state, _z1_cubic, _z1_prim = (
    getattr(f, "py_func", f) for f in (
        fastpath._n_products, fastpath._flow_state, fastpath._z1_cubic,
        fastpath._z1_prim))

# span-record layout, one row per descriptor: the arc row of its first
# filled row, its count of filled rows, its mode (a row of the modes table
# ClosedForm reads) and the anchor state ya of its closed form
R_FIRST, R_COUNT, R_MODE, R_YA = 0, 1, 2, 3
N_R = 12

# rows per _fill pass, plus at most one span, and per _closed pass: bounds
# the temporaries. A _closed pass takes about 110 B a row at its peak;
# evaluating the 48,761 filled rows of the shipped scenario took 16.0,
# 17.9 and 22.0 ms in passes of 2048, 1024 and 512 rows (2-CPU x86 VM)
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
    f = sp[:, :SP_MD][k].T                      # one array per field
    tc = f[SP_TC:]
    tt = f[SP_TA] + i * f[SP_DT]
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
    three columns of flow, whose rows are those of the call's buffer; in
    passes of about _FILL_ROWS rows."""
    ends = np.cumsum(spans[:count, SP_M] - 1.0)
    lo = 0
    while lo < count:
        done = ends[lo - 1] if lo else 0.0
        hi = max(lo + 1, int(np.searchsorted(ends, done + _FILL_ROWS,
                                             side="right")))
        _fill(flow, spans[lo:hi])
        lo = hi


def written_rows(spans, count, rows):
    """Mask of the first `rows` rows of a flow_segment call's buffer that
    the call wrote: all but the reserved rows of its first `count`
    descriptors. Each reserved run ends before its span's endpoint row,
    so no two runs share an edge."""
    edge = np.zeros(rows + 1, np.int8)
    first = spans[:count, SP_N].astype(np.intp)
    edge[first] = 1
    edge[first + spans[:count, SP_M].astype(np.intp) - 1] = -1
    return np.cumsum(edge[:-1], dtype=np.int8) == 0


def span_records(spans, count, first_row, out):
    """Write into out the span records of the first `count` descriptors of
    a flow_segment call whose buffer row 0 is arc row first_row. The mode
    is 0 for z1 > 0 and 1 for z1 < 0, the sign of the descriptor's s c
    (c > 0); returns the mode of each record as indices."""
    sp = spans[:count]
    mode = (sp[:, SP_MD + 6] < 0.0).astype(np.intp)
    out[:, R_FIRST] = sp[:, SP_N] + first_row
    out[:, R_COUNT] = sp[:, SP_M] - 1.0
    out[:, R_MODE] = mode
    out[:, R_YA:] = sp[:, SP_YA:]
    return mode


class _Rows:
    """fields[i][k] for index i: fields kept per span, read per row k only
    while an expression uses them."""

    def __init__(self, fields, k):
        self._fields, self._k = fields, k

    def __getitem__(self, i):
        return self._fields[i][self._k]


def _closed(modes, rec, k, tau):
    """(z2, zt1, zt2, Phi11, Phi12, Phi21, Phi22) at the stored tau of
    filled rows, with rec[k] the span record of each row: the rest of
    fastpath._dense, _closed at (tau, z1), on arrays. The mode, anchor
    and N products stay per span."""
    md = modes[rec[:, R_MODE].astype(np.intp)].T
    ya = rec[:, R_YA:].T
    md, ya, nx = (_Rows(f, k) for f in (md, ya, _n_products(md, ya)))
    dt = tau - ya[0]
    return _flow_state(md, ya, nx, tau, tau, *_expm_pq_rows(md, dt),
                       _libm(math.expm1, md[6] * dt))[2:]


class ClosedForm:
    """The closed-form columns (z2, zt1, zt2, Phi11, Phi12, Phi21, Phi22)
    of an arc, evaluated on read.

    tau is the arc's tau column; kept holds those seven columns of the
    rows the kernel and the engine wrote, in row order, and records the
    span records (layout R_*) of the filled rows, in row order; a record's
    mode is a row of modes (the fastpath._split form, s c and d/c). Kept
    rows are copied and filled rows evaluated at the stored tau, so every
    value is the kernel's, bit for bit. A call evaluates the rows it is
    given and keeps nothing.
    """

    def __init__(self, tau, kept, records, modes):
        self._tau, self._kept, self._records = tau, kept, records
        self._modes = modes
        first = records[:, R_FIRST].astype(np.int64)
        count = records[:, R_COUNT].astype(np.int64)
        self._first, self._end = first, first + count
        self._before = np.cumsum(count) - count     # filled rows before
        self._filled = int(count.sum())
        self.nbytes = sum(a.nbytes for a in (
            kept, records, modes, self._first, self._end, self._before))

    def _filled_before(self, row: int, k: int) -> int:
        """Filled rows before `row`, where record k is the first that ends
        after it."""
        if k == len(self._first):
            return self._filled
        return int(self._before[k]) + max(0, row - int(self._first[k]))

    def __call__(self, lo: int, hi: int, out=None) -> np.ndarray:
        """The seven columns of rows lo:hi as a (7, hi - lo) array, into
        out[:, :hi - lo] when out is given."""
        m = hi - lo
        out = np.empty((7, m)) if out is None else out[:, :m]
        k0 = int(self._end.searchsorted(lo, "right"))
        k1 = int(self._first.searchsorted(hi, "left"))
        a = np.maximum(self._first[k0:k1], lo) - lo
        cnt = np.minimum(self._end[k0:k1], hi) - lo - a
        # the block position and the record of each filled row
        k = np.repeat(np.arange(k0, k1), cnt)
        pos = np.arange(k.size) + np.repeat(a - (np.cumsum(cnt) - cnt), cnt)
        written = np.ones(m, bool)
        written[pos] = False
        idx = np.flatnonzero(written)
        base = lo - self._filled_before(lo, k0)
        out[:, idx] = self._kept[base:base + idx.size].T
        rec = self._records[k0:k1]
        for c in range(0, k.size, _CLOSED_ROWS):
            p = pos[c:c + _CLOSED_ROWS]
            for row, v in zip(out, _closed(self._modes, rec,
                                           k[c:c + _CLOSED_ROWS] - k0,
                                           self._tau[lo + p])):
                row[p] = v
        return out
