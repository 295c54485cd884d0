"""Arcs built from whole columns, for tests. simulate builds its arcs from
its own stores (engine._Arc.trajectory); a test that states every row of
every column builds one here instead."""

from __future__ import annotations

import numpy as np

from xbstab.model import HybridTrajectory


class _Stored:
    """The closed-form columns of an arc given whole, as (7, n) rows, in
    the place of emission.ClosedForm."""

    def __init__(self, rows: np.ndarray):
        self._rows, self.nbytes = rows, rows.nbytes

    def __call__(self, lo: int, hi: int) -> np.ndarray:
        return self._rows[:, lo:hi]


def arc(t, j, cycle, tau, z1, z2, z_tilde1, z_tilde2, z_star, phi,
        jumps=()) -> HybridTrajectory:
    """The HybridTrajectory whose columns are the given arrays, phi as
    (n, 4): a mark wherever j, cycle or z_star changes, floats compared by
    their bits, so that -0.0 and nan keep theirs. Columns of different
    lengths raise ValueError."""
    flow = [np.asarray(c, dtype=float) for c in (t, tau, z1)]
    marked = [np.asarray(c) for c in (j, cycle, z_star)]
    closed = [np.asarray(c, dtype=float) for c in (z2, z_tilde1, z_tilde2)]
    phi = np.asarray(phi, dtype=float)
    n = len(flow[0])
    if any(len(c) != n for c in flow + marked + closed) \
            or phi.shape != (n, 4):
        raise ValueError("columns of inconsistent length")
    new = np.arange(n) == 0
    for c in marked:
        bits = c.view(f"u{c.itemsize}") if c.dtype.kind == "f" else c
        new[1:] |= bits[1:] != bits[:-1]
    first = np.flatnonzero(new)
    return HybridTrajectory(
        flow=np.column_stack(flow),
        marks=(first, *(c[first] for c in marked)),
        closed=_Stored(np.vstack(closed + [phi.T])),
        jumps=list(jumps))
