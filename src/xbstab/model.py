"""Domain types, configuration and the cycle schedule.

Everything here is an immutable value object; the other modules only ever
read these. The plant is the 2-state bilinear model

    dz1/dt = -a z1 z2 + u
    dz2/dt = (c z2 + d) z1,      y = z1,

and the controller runs through cycles i = 0, 1, 2, ... during which the
piecewise-constant reference takes the values +-z_star_init / 2**i.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np
from numpy.lib.mixins import NDArrayOperatorsMixin

from .errors import InvalidGains

# rows per block of a pass over the rows: the float scratch of a block is
# 64 KiB a column, and each numpy call still takes thousands of rows
_BLOCK_ROWS = 8192
# the largest double below 1, the power schedule's h(i) where 1/(1 + b**-i)
# rounds to 1
_BELOW_ONE = math.nextafter(1.0, 0.0)


def as_dict(obj) -> dict:
    """Every dataclass field of obj by name, numpy arrays as nested lists
    (the JSON form of the report and certificate types)."""
    vals = ((f.name, getattr(obj, f.name)) for f in fields(obj))
    return {k: v.tolist() if isinstance(v, np.ndarray) else v
            for k, v in vals}


@dataclass(frozen=True)
class PlantParams:
    """Coefficients (a, c, d) of the bilinear plant, all strictly positive."""

    a: float
    c: float
    d: float

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.a, self.c, self.d)):
            raise ValueError(f"plant coefficients must be finite and "
                             f"positive, got "
                             f"a={self.a}, c={self.c}, d={self.d}")

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


class HScheduleKind(enum.Enum):
    CONSTANT = "constant"
    PAPER_V = "paper_v"
    EXPLICIT = "explicit"
    POWER = "power"


@dataclass(frozen=True)
class HSchedule:
    """Per-cycle contraction targets h(i) in (0, 1) for i >= 1.

    Kinds:
      constant  -- h(i) == value for every i
      paper_v   -- h(i) = 1/(1 + 4**-i) for i in 1..8, then 1/2
      explicit  -- a finite list, repeated from its last entry
      power     -- h(i) = 1/(1 + value**-i) for every i, or the largest
                   double below 1 where that rounds to 1 (for base 4 from
                   i = 27 on, for bases of about 1e16 or more from i = 1);
                   the cumulative product g(i) then has a positive limit,
                   which violates the convergence requirement lim g(i) = 0
                   (kept so the runner can detect and flag exactly this
                   misuse)
    """

    kind: HScheduleKind
    value: float = 0.5
    values: tuple = ()

    @staticmethod
    def constant(v: float) -> "HSchedule":
        return HSchedule(HScheduleKind.CONSTANT, value=v)

    @staticmethod
    def paper_v() -> "HSchedule":
        return HSchedule(HScheduleKind.PAPER_V)

    @staticmethod
    def explicit(vals: Sequence[float]) -> "HSchedule":
        return HSchedule(HScheduleKind.EXPLICIT, values=tuple(vals))

    @staticmethod
    def power(base: float) -> "HSchedule":
        return HSchedule(HScheduleKind.POWER, value=base)

    def __post_init__(self):
        if self.kind is HScheduleKind.CONSTANT:
            if not 0.0 < self.value < 1.0:
                raise ValueError(f"constant h must lie in (0,1), got {self.value}")
        elif self.kind is HScheduleKind.POWER:
            if not 1.0 < self.value < math.inf:
                raise ValueError(f"power base must be a finite number above "
                                 f"1, got {self.value}")
        elif self.kind is HScheduleKind.EXPLICIT:
            if not self.values:
                raise ValueError("explicit h schedule needs at least one value")
            for v in self.values:
                if not 0.0 < v < 1.0:
                    raise ValueError(f"h values must lie in (0,1), got {v}")

    def h(self, i: int) -> float:
        """h(i) for cycle index i >= 1."""
        if i < 1:
            raise ValueError(f"h(i) is defined for i >= 1, got {i}")
        if self.kind is HScheduleKind.CONSTANT:
            return self.value
        if self.kind is HScheduleKind.PAPER_V:
            return 1.0 / (1.0 + 4.0 ** (-i)) if i <= 8 else 0.5
        if self.kind is HScheduleKind.POWER:
            return min(1.0 / (1.0 + self.value ** (-i)), _BELOW_ONE)
        return self.values[min(i, len(self.values)) - 1]


@dataclass(frozen=True)
class ControllerConfig:
    """Reference/cycle configuration of the hybrid controller."""

    z_star_init: float
    k_prime: float
    epsilon: float
    R: float
    R_tilde: float
    h_schedule: HSchedule
    max_cycles: int = 64

    def __post_init__(self):
        for name in ("z_star_init", "k_prime", "epsilon"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        for name in ("R", "R_tilde"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative")
        if not 1 <= self.max_cycles < math.inf:
            raise ValueError("max_cycles must be finite and at least 1")

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


def control(params: PlantParams, k: float, z1, z2_hat,
            z_star) -> np.ndarray:
    """The certainty-equivalence control u = a z1 zhat2 - k (z1 - z*)."""
    return params.a * z1 * z2_hat - k * (z1 - np.asarray(z_star))


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


class MarkColumn:
    """A column that changes only at marks: row r holds values[k] of the
    last mark k whose first row first[k] is at most r. first starts at 0
    and rises strictly. simulate keeps j, cycle and z_star this way, one
    mark per flow interval, instead of one value per row.

    It reads as the expanded column np.repeat(values, np.diff(first,
    append=n)) does: an int index gives a NumPy scalar, a slice of step 1
    a new array, and np.asarray the whole column; every other index is
    NumPy's on the whole column. rows(sl) is the column of rows sl, over
    the marks that cover them.
    """

    def __init__(self, first, values, n: int):
        self._first = np.asarray(first, dtype=np.int64)
        self._values = np.asarray(values)
        self._n = n

    @classmethod
    def of(cls, column) -> "MarkColumn":
        """The column of a 1-D array, with a mark wherever the value
        changes; floats compare by their bits, so -0.0 and nan keep
        theirs."""
        col = np.asarray(column)
        if col.ndim != 1:
            raise ValueError(f"a column is one-dimensional, got shape "
                             f"{col.shape}")
        bits = col.view(f"u{col.itemsize}") if col.dtype.kind == "f" else col
        first = np.flatnonzero(bits[1:] != bits[:-1]) + 1
        if col.size:
            first = np.concatenate(([0], first))
        return cls(first, col[first], len(col))

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:
        return (f"MarkColumn({len(self._first)} marks, {self._n} rows, "
                f"{self.dtype})")

    @property
    def dtype(self) -> np.dtype:
        return self._values.dtype

    @property
    def nbytes(self) -> int:
        """Bytes of the marks."""
        return self._first.nbytes + self._values.nbytes

    def marks(self) -> tuple:
        """(first rows, values) of the marks."""
        return self._first, self._values

    def rows(self, sl: slice) -> "MarkColumn":
        """The column of rows sl (step 1): the marks that cover them, with
        first rows counted from sl's first row."""
        lo, hi, step = sl.indices(self._n)
        if step != 1:
            raise ValueError("rows() takes a slice of step 1")
        k0 = int(self._first.searchsorted(lo, "right")) - 1
        k1 = int(self._first.searchsorted(hi, "left")) if hi > lo else k0
        first = self._first[k0:k1] - lo
        first[:1] = 0
        return MarkColumn(first, self._values[k0:k1], max(hi - lo, 0))

    def _expand(self, a: int, b: int) -> np.ndarray:
        """Rows a:b, a < b."""
        first = self._first
        k = int(first.searchsorted(a, "right"))
        if k == len(first) or first[k] >= b:
            return self._values[k - 1:k].repeat(b - a)
        m = int(first.searchsorted(b, "left"))
        edges = np.empty(m - k + 2, np.int64)
        edges[0], edges[1:-1], edges[-1] = a, first[k:m], b
        return self._values[k - 1:m].repeat(edges[1:] - edges[:-1])

    def __getitem__(self, key):
        rows = range(self._n)
        if isinstance(key, (int, np.integer)):
            return self._values[self._first.searchsorted(rows[key],
                                                         "right") - 1]
        if isinstance(key, slice) and rows[key].step == 1:
            rows = rows[key]
            return self._expand(rows.start, rows.stop) if rows \
                else self._values[:0].copy()
        return self[:][key]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        col = self[:]
        return col if dtype is None else col.astype(dtype, copy=False)

    def __eq__(self, other):
        # as <, > and the rest do, instead of comparing identities
        raise TypeError("a MarkColumn does not compare; compare "
                        "np.asarray(column)")

    __ne__ = __eq__


class ClosedColumn(NDArrayOperatorsMixin):
    """A column that simulate evaluates when read instead of storing it
    for every row: z2, z_tilde1, z_tilde2 or phi, closed-form functions
    of tau on each mode arc.

    source(lo, hi, out=None) gives the seven closed-form columns (z2,
    z_tilde1, z_tilde2, phi11, phi12, phi21, phi22) of rows lo:hi at once,
    as a (7, hi - lo) array (emission.ClosedForm); this column is its row
    `index`, or for a slice its rows transposed, as phi's (n, 4). Rows
    0:n of the column are rows lo:lo + n of the source.

    It reads as the evaluated column would: an int index gives a row, a
    slice of step 1 a new array, evaluated _BLOCK_ROWS rows at a time, and
    np.asarray the whole column; NumPy's operators and ufuncs act on the
    whole column, and every other index is NumPy's on it. rows(sl) is
    the column of rows sl over the same source, and block(sl) all seven
    columns of rows sl from one call of source. nbytes is this column's
    share of the bytes the source holds.
    """

    def __init__(self, source, index, n: int, lo: int = 0):
        self.source, self._index, self._n, self._lo = source, index, n, lo
        self._width = len(range(7)[index]) if isinstance(index, slice) \
            else 1

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:
        return f"ClosedColumn({self._index}, {self._n} rows)"

    @property
    def shape(self) -> tuple:
        return (self._n,) if self._width == 1 else (self._n, self._width)

    @property
    def nbytes(self) -> int:
        return self.source.nbytes * self._width // 7

    def rows(self, sl: slice) -> "ClosedColumn":
        """The column of rows sl (step 1)."""
        lo, hi, step = sl.indices(self._n)
        if step != 1:
            raise ValueError("rows() takes a slice of step 1")
        return ClosedColumn(self.source, self._index, max(hi - lo, 0),
                            self._lo + lo)

    def block(self, sl: slice, out=None) -> np.ndarray:
        """The seven columns of rows sl (step 1) as a (7, m) array."""
        rows = range(self._n)[sl]
        return self.source(self._lo + rows.start, self._lo + rows.stop, out)

    def __getitem__(self, key):
        rows = range(self._n)
        if isinstance(key, (int, np.integer)):
            r = rows[key]
            return self[r:r + 1][0]
        if not (isinstance(key, slice) and rows[key].step == 1):
            return self[:][key]
        rows = rows[key]
        col = np.empty((len(rows),) + self.shape[1:])
        for a in range(0, len(rows), _BLOCK_ROWS):
            b = min(a + _BLOCK_ROWS, len(rows))
            col[a:b] = self.block(slice(rows.start + a,
                                        rows.start + b))[self._index].T
        return col

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        col = self[:]
        return col if dtype is None else col.astype(dtype, copy=False)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        inputs = [np.asarray(x) if isinstance(x, ClosedColumn) else x
                  for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


@dataclass
class HybridTrajectory:
    """A hybrid arc stored column-wise, indexed by hybrid time (t, j).

    Samples are lexicographically ordered in (t, j); j increments by one at
    each entry of `jumps`. Every flow instant appears once, and a jump
    instant twice (pre- and post-jump). Every column may be given as an
    array. simulate returns t, tau and z1, which its kernel integrates,
    as views of one array, and z2, z_tilde1, z_tilde2 and phi as
    ClosedColumns, evaluated on read at each row's tau from the anchor of
    its mode arc; closed_rows reads all four of a block of rows at once.
    j, cycle and z_star are MarkColumns, which change only at jumps, so
    they take memory per jump, not per row; one given as an array becomes
    MarkColumn.of(it).
    """

    t: np.ndarray
    j: MarkColumn
    cycle: MarkColumn
    tau: np.ndarray
    z1: np.ndarray
    z2: np.ndarray | ClosedColumn
    z_tilde1: np.ndarray | ClosedColumn
    z_tilde2: np.ndarray | ClosedColumn
    z_star: MarkColumn
    phi: np.ndarray | ClosedColumn  # (n, 4) row-major flattening
    jumps: list = field(default_factory=list)

    def __post_init__(self):
        for name in ("j", "cycle", "z_star"):
            if not isinstance(getattr(self, name), MarkColumn):
                setattr(self, name, MarkColumn.of(getattr(self, name)))
        n = len(self.t)
        for name in ("j", "cycle", "tau", "z1", "z2", "z_tilde1",
                     "z_tilde2", "z_star"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name} has inconsistent length")
        if self.phi.shape != (n, 4):
            raise ValueError("phi column must have shape (n, 4)")

    def __len__(self) -> int:
        return len(self.t)

    def rows(self, sl: slice) -> "HybridTrajectory":
        """Rows sl (step 1) of every column, arrays as views, without the
        jump log; nothing is evaluated."""
        def part(col):
            if isinstance(col, (MarkColumn, ClosedColumn)):
                return col.rows(sl)
            return col[sl]
        return HybridTrajectory(**{f.name: part(getattr(self, f.name))
                                   for f in fields(self)
                                   if f.name != "jumps"})

    def closed_rows(self, sl: slice, out=None) -> np.ndarray:
        """The closed-form columns z2, z_tilde1, z_tilde2 and phi11 to
        phi22 of rows sl (step 1) as a (7, m) array, into out[:, :m] when
        out is given: from one evaluation where all four are ClosedColumns
        of one source, as simulate returns them."""
        cols = (self.z2, self.z_tilde1, self.z_tilde2, self.phi)
        sources = {(c.source, c._lo) if isinstance(c, ClosedColumn)
                   else None for c in cols}
        if len(sources) == 1 and None not in sources:
            return self.z2.block(sl, out)
        rows = range(len(self))[sl]
        out = np.empty((7, len(rows))) if out is None \
            else out[:, :len(rows)]
        sl = slice(rows.start, rows.stop)
        out[0], out[1], out[2] = self.z2[sl], self.z_tilde1[sl], \
            self.z_tilde2[sl]
        out[3:] = self.phi[sl].T
        return out

    @property
    def z1_hat(self) -> np.ndarray:
        return self.z1 + self.z_tilde1

    @property
    def z2_hat(self) -> np.ndarray:
        return self.z2 + self.z_tilde2

    def control(self, params: PlantParams, k: float) -> np.ndarray:
        """Control input u at every sample."""
        return control(params, k, self.z1, self.z2_hat, self.z_star)

    def validate_domain(self):
        """Check hybrid-time-domain well-formedness; raise on violation.
        Reads the marks of j and cycle, and t a block of rows at a time."""
        _, j = self.j.marks()
        i_first, i = self.cycle.marks()

        def without_jump(rows):         # rows r whose j is that of r - 1
            return any(self.j[r] == self.j[r - 1] for r in rows.tolist())

        if np.any(j[1:] < j[:-1]):
            raise ValueError("jump counter decreases")
        t = self.t
        for lo in range(0, len(t) - 1, _BLOCK_ROWS):
            tb = t[lo:lo + _BLOCK_ROWS + 1]
            if without_jump(np.flatnonzero(tb[1:] < tb[:-1]) + (lo + 1)):
                raise ValueError("time decreases within a flow interval")
        if np.any(j[1:] > j[:-1] + 1):
            raise ValueError("jump counter skips a value")
        if np.any(i[1:] < i[:-1]) or without_jump(
                i_first[1:][i[1:] != i[:-1]]):
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
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and strictly "
                                 f"positive")
        if not 2 <= self.zeno_max_jumps < math.inf:
            raise ValueError("zeno_max_jumps must be finite and at least 2")
        if not 0 <= self.record_interval < math.inf:
            raise ValueError("record_interval must be finite and "
                             "non-negative")
