"""The vectorized fill of reserved sample rows (emission.fill_spans) and
the closed-form columns evaluated on read (emission.ClosedForm) against
the kernel's per-sample path, _dense(...), bit for bit."""

from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from xbstab import emission, fastpath

# one flow matrix per branch of fastpath._expm_pq, before scaling: complex
# eigenvalues, a repeated one (w = 0), and a real pair, which takes the
# hyperbolic branch while w dt < 1 and the two exponentials beyond
_MATRICES = {"complex": (-8.0, 3.0, -40.0, -8.0),
             "repeated": (-2.0, 1.0, 0.0, -2.0),
             "hyperbolic": (-3.0, 1.0, 2.0, -5.0),
             "two-exponential": (-3.0, 1.0, 2.0, -5.0)}


def _branch(md, dt):
    """The branch _expm_pq takes for mode md at tau - tau_anchor = dt."""
    if md[4] < 0.0:
        return "complex"
    if md[5] == 0.0:
        return "repeated"
    return "hyperbolic" if md[5] * dt < 1.0 else "two-exponential"


def _unit(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def _span(draw):
    """(branch, linear tau, mode, anchor, _emit_span arguments after buf,
    n, spans, ns)."""
    branch = draw(st.sampled_from(sorted(_MATRICES)))
    scale = draw(_unit(0.1, 10.0))
    md = (*fastpath._split(*(scale * v for v in _MATRICES[branch])),
          draw(_unit(-5.0, 5.0)), draw(_unit(-1.0, 1.0)))
    ya = tuple(draw(_unit(-2.0, 2.0)) for _ in range(9))
    # the tau range keeps w (tau - ya[0]) on the branch's side of 1
    if branch == "hyperbolic":
        f0 = draw(_unit(0.0, 0.5))
        lo, hi = f0 / md[5], (f0 + draw(_unit(0.01, 0.45))) / md[5]
    elif branch == "two-exponential":
        f0 = draw(_unit(1.05, 3.0))
        lo, hi = f0 / md[5], (f0 + draw(_unit(0.01, 3.0))) / md[5]
    else:
        lo = draw(_unit(0.0, 0.25))
        hi = lo + draw(_unit(1e-6, 0.25))
    tau0, tau1 = ya[0] + lo, ya[0] + hi
    # z1 keeps its sign over a step, except where the linear tau of a1 = 0
    # takes over (here z1 = s (1 - 2 th), whose integral is exactly 0)
    linear = draw(st.booleans())
    if linear:
        s = draw(_unit(-1.0, 1.0))
        c = (s, -2.0 * s, 0.0, 0.0)
    else:
        c = (draw(_unit(0.5, 1.0)),
             *(draw(_unit(-0.1, 0.1)) for _ in range(3)))
    tc = (*c, abs(fastpath._z1_prim(c + (0.0,), 1.0)))
    t0 = draw(_unit(0.0, 1.0))
    h = draw(_unit(1e-7, 1e-3))
    tb = t0 + h * draw(_unit(0.01, 1.0))     # below t0 + h: an event span
    yb = fastpath._closed(md, ya, fastpath._n_products(md, ya), tau1, 0.0)
    # a budget that gives the span m samples: the composite trapezoid's
    # mismatch e, against budget_rel |dtau|, asks for 1/(m - 1/2)^2 of it
    m = draw(st.integers(2, 40))
    dtau = tau1 - tau0
    e = abs(dtau - 0.5 * abs(tc[0]) * (tb - t0))
    assume(e > 1e-6 * dtau)
    return branch, linear, md, ya, (t0, h, tc, tau0, tau1, tb, yb,
                                    e / (dtau * (m - 0.5) ** 2))


@settings(max_examples=300, deadline=None)
@given(spans=st.lists(_span(), min_size=1, max_size=6),
       chunk=st.sampled_from([1, 7, 1 << 11]))
def test_fill_matches_dense_bit_for_bit(spans, chunk):
    """Spans on every branch of _expm_pq and both cases of _tau_at, side
    by side in one buffer, each under its own anchor: fill_spans writes t,
    tau and z1 of each reserved row and nothing else, ClosedForm gives the
    other seven columns of every row from the anchors, and each row
    equals the row of the per-sample loop the fill replaced, in every
    bit."""
    rows = 1 + 40 * len(spans)
    buf = np.full((rows, 3), np.nan)
    ref = np.full((rows, 10), np.nan)
    descr = np.full((rows // 2, fastpath.N_SP), np.nan)
    anchors = np.empty((len(spans), fastpath.N_AN))
    reserved = np.zeros(rows, bool)
    n, ns = 1, 0
    for branch, linear, md, ya, args in spans:
        t0, h, tc, tau0, tau1, tb, yb, _ = args
        n_end, ns = fastpath._emit_span(buf, n, descr, ns, *args)
        m = n_end - n
        assert m >= 2 and descr[ns - 1, fastpath.SP_M] == m
        assert (tc[4] == 0.0) == linear
        # the loop of _emit_span before the fill took over
        dt = (tb - t0) / m
        for i in range(1, m):
            tt = t0 + i * dt
            y = fastpath._dense(tc, md, ya, fastpath._n_products(md, ya),
                                tau0, tau1, (tt - t0) / h)
            assert _branch(md, y[0] - ya[0]) == branch
            ref[n + i - 1] = (tt, *y)
        ref[n_end - 1] = (tb, *yb)
        reserved[n:n_end - 1] = True
        # each span its own mode: the modes table has a row per anchor
        anchors[ns - 1] = (n, ns - 1, 0.0, *ya)
        n = n_end
    modes = np.array([md for _, _, md, _, _ in spans])
    with mock.patch.object(emission, "_FILL_ROWS", chunk), \
            mock.patch.object(emission, "_CLOSED_ROWS", chunk):
        emission.fill_spans(buf, descr, ns)
        closed = emission.ClosedForm(buf[:n, 1], anchors, modes)(1, n)
    assert np.array_equal(buf[1:n].view(np.uint64),
                          ref[1:n, :3].view(np.uint64))
    assert np.array_equal(closed.view(np.uint64),
                          ref[1:n, 3:].T.view(np.uint64))
    assert np.isnan(buf[0]).all() and np.isnan(buf[n:]).all()


def test_held_row_reads_its_anchor_state():
    """A row the kernel records at its anchor's state right after a mode
    switch (flow_segment marks it AN_HELD) holds that state, and
    reads it as stored, -0.0 included; a row at the state of an anchor
    it does not hold is its closed form at dt = 0, X + 0 (N X), which
    gives +0.0 there, and the rows after it are that closed form."""
    md = fastpath._split(-8.0, 16.0, 375.0, -0.952) + (-24.0, 0.5)
    ya = (0.0, 0.0, 0.3, -0.0, 1e-4, 1.0, 0.0, 0.0, 1.0)
    nx = fastpath._n_products(md, ya)
    buf, anchors = np.empty((3, 3)), np.empty((2, fastpath.N_AN))
    na = fastpath._anchor(anchors, 0, 0, 1.0, ya, 0.0)
    n = fastpath._record(buf, 0, 0.0, ya)
    na = fastpath._anchor(anchors, na, n, -1.0, ya, 0.0)
    anchors[na - 1, fastpath.AN_HELD] = 1.0
    n = fastpath._record(buf, n, 0.0, ya)
    fastpath._record(buf, n, 1e-3, (1e-3, 0.0))
    assert anchors[:, fastpath.AN_HELD].tolist() == [0.0, 1.0]
    got = emission.ClosedForm(buf[:, 1], anchors, np.array([md, md]))(0, 3)
    want = [fastpath._closed(md, ya, nx, 0.0, 0.0)[2:], ya[2:],
            fastpath._closed(md, ya, nx, 1e-3, 0.0)[2:]]
    assert np.array_equal(got.T.view(np.uint64),
                          np.array(want).view(np.uint64))
    assert nx[0] > 0.0 and not np.signbit(got[1, 0]) and np.signbit(got[1, 1])
