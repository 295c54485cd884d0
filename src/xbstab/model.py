"""Domain types, configuration and the cycle schedule.

Everything here but the recorded arc is an immutable value object; the
other modules only ever read these. The plant is the 2-state bilinear
model

    dz1/dt = -a z1 z2 + u
    dz2/dt = (c z2 + d) z1,      y = z1,

and the controller runs through cycles i = 0, 1, 2, ... during which the
piecewise-constant reference takes the values +-z_star_init / 2**i.

The arc that simulate returns (HybridTrajectory) is read through one
function, block(lo, hi), which gives every column of a range of rows; each
pass over the rows calls it a block of _BLOCK_ROWS rows at a time.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import sys
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from .errors import InvalidGains

# rows per block of every pass over an arc after simulate: the checks,
# the reports and the CSV writer's children. On the shipped scenario
# (2-CPU x86 VM), execute's VmHWM read 32.6-32.7 MB at 2,048 and 4,096
# rows and 32.8-33.3 MB at 8,192; the parent's passes took about 2 ms
# more at 2,048, and the writer's children fault more pages at 8,192
_BLOCK_ROWS = 4096
# the columns of an arc by where it keeps them: the flow store, the marks
# and the closed form
_FLOW = ("t", "tau", "z1")
_MARKED = ("j", "cycle", "z_star")
_CLOSED = ("z2", "z_tilde1", "z_tilde2", "phi")
# the kinds of a number field: an int or a float, Python's or NumPy's
_REAL = (int, float, np.integer, np.floating)
# the largest double below 1, the power schedule's h(i) where 1/(1 + b**-i)
# rounds to 1
_BELOW_ONE = math.nextafter(1.0, 0.0)


def as_dict(obj) -> dict:
    """Every dataclass field of obj by name, numpy arrays as nested lists
    (the JSON form of the report and certificate types)."""
    vals = ((f.name, getattr(obj, f.name)) for f in fields(obj))
    return {k: v.tolist() if isinstance(v, np.ndarray) else v
            for k, v in vals}


def _check_number(name: str, v, low, high=math.inf, *, closed=False,
                  count=False):
    """Refuse v, the value of field `name`, with a ValueError naming the
    field unless it is a finite number above low (at least low if closed)
    and below high: an int or a float, Python's or NumPy's, not a bool,
    and an int if count, not a float even where it is integral."""
    ok = (isinstance(v, (int, np.integer) if count else _REAL)
          and not isinstance(v, bool) and abs(v) <= sys.float_info.max
          and (low <= v if closed else low < v) and v < high)
    if not ok:
        bound = (f"in ({low}, {high})" if high < math.inf
                 else f"{'at least' if closed else 'above'} {low}")
        kind = ", an integer" if count else ""
        raise ValueError(f"{name} must be finite{kind} and {bound}, got "
                         f"{name}={v!r}")


@dataclass(frozen=True)
class PlantParams:
    """Coefficients (a, c, d) of the bilinear plant, all strictly positive."""

    a: float
    c: float
    d: float

    def __post_init__(self):
        for name in ("a", "c", "d"):
            _check_number(name, getattr(self, name), 0)

    @property
    def z2_floor(self) -> float:
        """Lower boundary -d/c of the admissible z2 half-line."""
        return -self.d / self.c


@dataclass(frozen=True)
class ObserverGains:
    """Switched observer gains and the two induced error-mode matrices.

    Construction validates the four Hurwitz inequalities

        k1_plus > c,   k2_plus  < -(c/a) k1_plus,
        k1_minus < c,  k2_minus < -(c/a) k1_minus,

    which make A1 (active for z1 > 0) and A2 (active for z1 < 0) Hurwitz.
    Use lyapunov.complete_gains to derive (k1_minus, k2_minus) from the
    common-Lyapunov equality constraints.
    """

    params: PlantParams
    k1_plus: float
    k2_plus: float
    k1_minus: float
    k2_minus: float

    def __post_init__(self):
        a, c = self.params.a, self.params.c
        checks = [
            (self.k1_plus > c, f"k1_plus={self.k1_plus} must exceed c={c}"),
            (self.k2_plus < -(c / a) * self.k1_plus,
             f"k2_plus={self.k2_plus} must be below -(c/a)k1_plus="
             f"{-(c / a) * self.k1_plus}"),
            (self.k1_minus < c, f"k1_minus={self.k1_minus} must be below c={c}"),
            (self.k2_minus < -(c / a) * self.k1_minus,
             f"k2_minus={self.k2_minus} must be below -(c/a)k1_minus="
             f"{-(c / a) * self.k1_minus}"),
        ]
        for ok, msg in checks:
            if not ok:
                raise InvalidGains(msg)

    @property
    def A1(self) -> np.ndarray:
        a, c = self.params.a, self.params.c
        return np.array([[-self.k1_plus, -a], [-self.k2_plus, c]])

    @property
    def A2(self) -> np.ndarray:
        a, c = self.params.a, self.params.c
        return np.array([[self.k1_minus, a], [self.k2_minus, -c]])

    def injection(self, z1: float) -> tuple[float, float]:
        """(k1(z1), k2(z1)) with the zero convention at z1 = 0."""
        if z1 > 0:
            return self.k1_plus, self.k2_plus
        if z1 < 0:
            return self.k1_minus, self.k2_minus
        return 0.0, 0.0


@dataclass(frozen=True)
class HSchedule:
    """Per-cycle contraction targets h(i) in (0, 1) for i >= 1, in one of
    two forms:

      values -- a list whose i-th entry is h(i), repeated from its last;
      base   -- the power law h(i) = 1/(1 + base**-i), or the largest
                double below 1 where that rounds to 1 (for base 4 from
                i = 27 on, for bases of about 1e16 or more from i = 1).

    The cumulative product g(i) = prod h(j) tends to zero for every list,
    whose entries lie in (0, 1), and for no power law: the sum of base**-i
    is finite, so prod 1/(1 + base**-i) has a positive limit, which
    violates the convergence requirement lim g(i) = 0 (the form is kept so
    that the runner can flag exactly this misuse).
    """

    values: tuple = ()
    base: float | None = None

    @staticmethod
    def constant(v: float) -> "HSchedule":
        return HSchedule((v,))

    @staticmethod
    def paper_v() -> "HSchedule":
        """h(i) = 1/(1 + 4**-i) for i in 1..8, then 1/2."""
        return HSchedule(tuple(1.0 / (1.0 + 4.0 ** (-i))
                               for i in range(1, 9)) + (0.5,))

    @staticmethod
    def explicit(vals: Sequence[float]) -> "HSchedule":
        return HSchedule(tuple(vals))

    @staticmethod
    def power(base: float) -> "HSchedule":
        return HSchedule(base=base)

    def __post_init__(self):
        if not isinstance(self.values, tuple) \
                or (self.base is None) != bool(self.values):
            raise ValueError(f"an h schedule takes a non-empty tuple of "
                             f"values or a base, got values={self.values!r}, "
                             f"base={self.base!r}")
        if self.base is not None:
            _check_number("base", self.base, 1)
        for m, v in enumerate(self.values):
            _check_number(f"values[{m}]", v, 0, 1)

    def h(self, i: int) -> float:
        """h(i) for cycle index i >= 1."""
        if i < 1:
            raise ValueError(f"h(i) is defined for i >= 1, got {i}")
        if self.base is None:
            return self.values[min(i, len(self.values)) - 1]
        return min(1.0 / (1.0 + self.base ** (-i)), _BELOW_ONE)


@dataclass(frozen=True, kw_only=True)
class ControllerConfig:
    """Reference/cycle configuration of the hybrid controller, built by
    keyword; k_prime defaults to 1 and h_schedule to paper_v."""

    z_star_init: float
    k_prime: float = 1.0
    epsilon: float
    R: float
    R_tilde: float
    h_schedule: HSchedule = HSchedule.paper_v()
    max_cycles: int = 64

    def __post_init__(self):
        for name in ("z_star_init", "k_prime", "epsilon"):
            _check_number(name, getattr(self, name), 0)
        for name in ("R", "R_tilde"):
            _check_number(name, getattr(self, name), 0, closed=True)
        _check_number("max_cycles", self.max_cycles, 1, closed=True,
                      count=True)
        if not isinstance(self.h_schedule, HSchedule):
            raise ValueError(f"h_schedule must be an HSchedule, got "
                             f"h_schedule={self.h_schedule!r}")

    def h0(self, gamma: float) -> float:
        """Contraction target gating the initialization cycle.

        h(0) = epsilon / (gamma * R_tilde); defined as 1 when R_tilde = 0
        (a known-exact estimate needs no initialization cycle).
        """
        if self.R_tilde == 0.0:
            return 1.0
        return self.epsilon / (gamma * self.R_tilde)

    def h_of(self, i: int, gamma: float) -> float:
        """h(i) for any cycle index i >= 0."""
        return self.h0(gamma) if i == 0 else self.h_schedule.h(i)


def g_of(cfg: ControllerConfig, i: int) -> float:
    """Cumulative contraction g(i) = prod_{j=1..i} h(j), with g(0) = 1."""
    if i < 0:
        raise ValueError(f"cycle index must be >= 0, got {i}")
    g = 1.0
    for j in range(1, i + 1):
        g *= cfg.h_schedule.h(j)
    return g


def t_lmin_asymptote(params: PlantParams, cfg: ControllerConfig) -> float:
    """Uniform dwell-time floor (d/c - epsilon) / (d * z_star_init)."""
    band = params.d / params.c - cfg.epsilon
    if band <= 0:
        raise ValueError(f"epsilon={cfg.epsilon} must be below d/c="
                         f"{params.d / params.c}")
    return band / (params.d * cfg.z_star_init)


def derive_control_gain(params: PlantParams, cfg: ControllerConfig,
                        gamma: float) -> float:
    """Controller gain k = gamma * a * R_tilde + k'.

    k' is the largest of every lower bound required by the convergence
    argument (so all of them hold simultaneously) and the configured value:

        k' >= 16 a^2 R_tilde^2        (initialization step)
        k' >= a^2 eps^2 / 2           (invariance of the per-cycle set)
        k' >= 4 a^2 eps^2             (dwell-time argument)
        k' >= 10 ln 2 / T_lmin        (tracking settles within half a dwell)
        k' >= 1
    """
    if gamma < 1.0:
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    a, eps = params.a, cfg.epsilon
    t_lmin = t_lmin_asymptote(params, cfg)
    k_prime = max(
        cfg.k_prime,
        16.0 * a * a * cfg.R_tilde * cfg.R_tilde,
        0.5 * a * a * eps * eps,
        4.0 * a * a * eps * eps,
        10.0 * math.log(2.0) / t_lmin,
        1.0,
    )
    return gamma * a * cfg.R_tilde + k_prime


@dataclass(frozen=True)
class HybridState:
    """Augmented closed-loop state (tau, i, z, z_tilde, z_star, Phi)."""

    tau: float
    cycle: int
    z: np.ndarray
    z_tilde: np.ndarray
    z_star: float
    phi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "z", np.asarray(self.z, dtype=float))
        object.__setattr__(self, "z_tilde",
                           np.asarray(self.z_tilde, dtype=float))
        object.__setattr__(self, "phi", np.asarray(self.phi, dtype=float))
        if self.tau < 0:
            raise ValueError(f"tau must be non-negative, got {self.tau}")
        if self.cycle < 0:
            raise ValueError(f"cycle must be non-negative, got {self.cycle}")
        if self.z.shape != (2,) or self.z_tilde.shape != (2,):
            raise ValueError("z and z_tilde must be 2-vectors")
        if self.phi.shape != (2, 2):
            raise ValueError("phi must be a 2x2 matrix")

    def replace(self, **kw) -> "HybridState":
        return dataclasses.replace(self, **kw)


class JumpKind(enum.Enum):
    WITHIN_CYCLE = "WithinCycle"
    NEW_CYCLE = "NewCycle"


@dataclass(frozen=True)
class JumpRecord:
    t: float
    j: int          # jump counter before the jump
    kind: JumpKind


class Column:
    """Column `name` of an arc, read through HybridTrajectory.block: an int
    index gives the row's value, a slice of step 1 an array of its rows,
    np.asarray the whole column, and every other index is NumPy's on the
    whole column. nbytes is what the arc keeps for it: 8 B a row of the
    flow store, its marks, or its share of the closed form's anchors."""

    def __init__(self, arc: "HybridTrajectory", name: str):
        self._arc, self._name = arc, name

    def __len__(self) -> int:
        return len(self._arc)

    @property
    def nbytes(self) -> int:
        arc, name = self._arc, self._name
        if name in _FLOW:
            return len(arc) * arc.flow.itemsize
        if name in _MARKED:
            first, *values = arc.marks
            return first.nbytes + values[_MARKED.index(name)].nbytes
        return arc.closed.nbytes * (4 if name == "phi" else 1) // 7

    def __getitem__(self, key):
        rows = range(len(self))
        if isinstance(key, (int, np.integer)):
            r = rows[key]
            return self[r:r + 1][0]
        if isinstance(key, slice) and rows[key].step == 1:
            rows = rows[key]
            return self._arc.block(rows.start,
                                   rows.start + len(rows))[self._name]
        return self[:][key]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        col = np.asarray(self[:], dtype)
        return col.copy() if copy else col


class _Block(dict):
    """The columns of rows lo:hi of an arc by name (HybridTrajectory.block):
    t, tau and z1 as views of the flow store; j, cycle and z_star expanded
    from the marks, and z2, z_tilde1, z_tilde2 and phi evaluated, all of a
    group when one of it is first read."""

    def __init__(self, arc: "HybridTrajectory", lo: int, hi: int):
        flow = arc.flow[lo:hi]
        super().__init__(zip(_FLOW, flow.T))
        self._arc, self._lo, self._hi = arc, lo, hi

    def __missing__(self, name: str) -> np.ndarray:
        if name in _MARKED:
            first, *values = self._arc.marks
            k = first.searchsorted(np.arange(self._lo, self._hi), "right") - 1
            self.update(zip(_MARKED, (v[k] for v in values)))
        elif name in _CLOSED:
            c = self._arc.closed(self._lo, self._hi)
            self.update(zip(_CLOSED, (c[0], c[1], c[2], c[3:].T)))
        else:
            raise KeyError(name)
        return self[name]


@dataclass
class HybridTrajectory:
    """A hybrid arc indexed by hybrid time (t, j), in the stores simulate
    writes (engine._Arc).

    Rows are lexicographically ordered in (t, j): every flow instant has
    one row and a jump instant two, its pre- and post-jump points, and j
    increments by one at each entry of `jumps`. flow holds t, tau and z1 of
    every row as an (n, 3) array. marks is (first, j, cycle, z_star),
    arrays of one entry per mark: row r takes j, cycle and z_star of the
    last mark whose first row is at most r, and first rises from row 0.
    closed(lo, hi) gives z2, z_tilde1, z_tilde2 and phi11 to phi22 of rows
    lo:hi as a (7, hi - lo) array and has nbytes (emission.ClosedForm).

    block(lo, hi) is the one read of the rows; every column is also an
    attribute by its name, a Column over block.
    """

    flow: np.ndarray
    marks: tuple
    closed: object
    jumps: list = field(default_factory=list)

    def __post_init__(self):
        if len({len(m) for m in self.marks}) != 1 \
                or (len(self) > 0) != (self.marks[0][:1] == 0).any():
            raise ValueError("marks must be arrays of one length whose first "
                             "rows start at row 0")

    def __len__(self) -> int:
        return len(self.flow)

    def __getattr__(self, name: str) -> Column:
        if name in _FLOW + _MARKED + _CLOSED:
            return Column(self, name)
        raise AttributeError(name)

    def block(self, lo: int, hi: int) -> dict:
        """Every column of rows lo:hi (0 <= lo <= hi <= n) by name, as
        arrays, phi as (hi - lo, 4): t, tau and z1 as views, the others
        computed only for a caller that reads them (_Block)."""
        return _Block(self, lo, hi)

    def validate_domain(self):
        """Check hybrid-time-domain well-formedness; raise on violation.
        Reads the marks, and t a block of rows at a time."""
        first, j, i, _ = self.marks
        jumped = np.concatenate(([False], j[1:] != j[:-1]))
        if np.any(j[1:] < j[:-1]):
            raise ValueError("jump counter decreases")
        n = len(self)
        for lo in range(0, n - 1, _BLOCK_ROWS):
            t = self.block(lo, min(lo + _BLOCK_ROWS + 1, n))["t"]
            back = np.flatnonzero(t[1:] < t[:-1]) + (lo + 1)
            k = first.searchsorted(back, "right") - 1   # marks of the rows
            if not np.all(jumped[k] & (first[k] == back)):
                raise ValueError("time decreases within a flow interval")
        if np.any(j[1:] > j[:-1] + 1):
            raise ValueError("jump counter skips a value")
        if np.any((i[1:] < i[:-1]) | ((i[1:] != i[:-1]) & (j[1:] == j[:-1]))):
            raise ValueError("cycle index decreases or changes without a jump")


@dataclass(frozen=True)
class SolverConfig:
    """Integrator and runtime-guard settings (artifact policy, not physics).

    rel_tol, abs_tol and max_step alone set the step sizes, and a z1 root
    ends a step; a kernel call that fills its buffer pauses, and the next
    goes on with the same step size, so no row depends on a buffer size.
    Every field must be finite. record_interval = 0 records a sample at
    every accepted step; a positive value thins the recording (samples are
    still forced at a z1 root and wherever the recording budget below
    demands them).

    The guards D_c and D_nc are tested at accepted step endpoints only,
    and an event is then located by bisection inside the step. A D_c
    excursion that enters and leaves within one step is missed, so
    max_step bounds how short an excursion can be and still be detected.

    tau_budget_rel sets recording density only. Inside each accepted step
    the kernel adds equally spaced samples until the trapezoid of |z1| over
    the recorded span is expected to match the integrated tau increment to
    this relative budget. It never changes the steps, the jumps or the
    state: a looser budget records a subset of the same samples. What is
    checked under the default budget is criterion 5's cumulative bound:
    within each cycle, the running trapezoid of |z1| matches the recorded
    tau to 1e-6 relative (plus 1e-9), and tau never decreases. Single
    intervals can exceed the relative budget where |z1| varies strongly
    within a step; loosening the budget thins long-horizon recordings.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-10
    event_tol: float = 1e-9
    max_step: float = 1e-3
    t_end: float = 10.0
    zeno_window: float = 1.0
    zeno_max_jumps: int = 4000
    record_interval: float = 0.0
    tau_budget_rel: float = 2e-7

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "event_tol", "max_step", "t_end",
                     "zeno_window", "tau_budget_rel"):
            _check_number(name, getattr(self, name), 0)
        _check_number("zeno_max_jumps", self.zeno_max_jumps, 2, closed=True,
                      count=True)
        _check_number("record_interval", self.record_interval, 0,
                      closed=True)
