"""Domain types, configuration and the cycle schedule.

Everything here is an immutable value object; the other modules only ever
read these. The plant is the 2-state bilinear model

    dz1/dt = -a z1 z2 + u
    dz2/dt = (c z2 + d) z1,      y = z1,

and the controller runs through cycles i = 0, 1, 2, ... during which the
piecewise-constant reference takes the values +-z_star_init / 2**i.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InvalidGains


@dataclass(frozen=True)
class PlantParams:
    """Coefficients (a, c, d) of the bilinear plant, all strictly positive."""

    a: float
    c: float
    d: float

    def __post_init__(self):
        if not (self.a > 0 and self.c > 0 and self.d > 0):
            raise ValueError(f"plant coefficients must be positive, got "
                             f"a={self.a}, c={self.c}, d={self.d}")

    @property
    def z2_floor(self) -> float:
        """Lower boundary -d/c of the admissible z2 half-line."""
        return -self.d / self.c

    @property
    def output_matrix(self) -> np.ndarray:
        """The fixed output map C = [1 0]."""
        return np.array([[1.0, 0.0]])


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

    def mode_matrix(self, w1: float) -> np.ndarray:
        """A(w1): A1 for w1 > 0, A2 for w1 < 0, zero at w1 = 0."""
        if w1 > 0:
            return self.A1
        if w1 < 0:
            return self.A2
        return np.zeros((2, 2))

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
      power     -- h(i) = 1/(1 + value**-i) for every i; the cumulative
                   product g(i) then has a positive limit, which violates
                   the convergence requirement lim g(i) = 0 (kept so the
                   runner can detect and flag exactly this misuse)
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
            if not self.value > 1.0:
                raise ValueError(f"power base must exceed 1, got {self.value}")
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
            return 1.0 / (1.0 + self.value ** (-i))
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
        if self.z_star_init <= 0:
            raise ValueError("z_star_init must be positive")
        if self.k_prime <= 0:
            raise ValueError("k_prime must be positive")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.R < 0 or self.R_tilde < 0:
            raise ValueError("R and R_tilde must be non-negative")
        if self.max_cycles < 1:
            raise ValueError("max_cycles must be at least 1")

    @staticmethod
    def default_epsilon(z_star_init: float) -> float:
        """Default threshold: one percent of the initial reference."""
        return 0.01 * z_star_init

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


def reference_set_value(cfg: ControllerConfig, i: int, sign: int) -> float:
    """Reference value sign * z_star_init / 2**i of cycle i."""
    if i < 0:
        raise ValueError(f"cycle index must be >= 0, got {i}")
    if sign not in (-1, 1):
        raise ValueError(f"sign must be -1 or +1, got {sign}")
    return sign * cfg.z_star_init / 2.0 ** i


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

    @property
    def z_hat(self) -> np.ndarray:
        """Observer estimate z + z_tilde."""
        return self.z + self.z_tilde

    def replace(self, **kw) -> "HybridState":
        data = dict(tau=self.tau, cycle=self.cycle, z=self.z,
                    z_tilde=self.z_tilde, z_star=self.z_star, phi=self.phi)
        data.update(kw)
        return HybridState(**data)


class JumpKind(enum.Enum):
    WITHIN_CYCLE = "WithinCycle"
    NEW_CYCLE = "NewCycle"


@dataclass(frozen=True)
class JumpRecord:
    t: float
    j: int          # jump counter before the jump
    kind: JumpKind


@dataclass
class HybridTrajectory:
    """A hybrid arc stored column-wise, indexed by hybrid time (t, j).

    Samples are lexicographically ordered in (t, j); j increments by one at
    each entry of `jumps`, and the sample at a jump instant appears twice
    (pre- and post-jump).
    """

    t: np.ndarray
    j: np.ndarray
    cycle: np.ndarray
    tau: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    z_tilde1: np.ndarray
    z_tilde2: np.ndarray
    z_star: np.ndarray
    phi: np.ndarray                 # (n, 4) row-major flattening
    jumps: list = field(default_factory=list)

    def __post_init__(self):
        n = len(self.t)
        for name in ("j", "cycle", "tau", "z1", "z2", "z_tilde1",
                     "z_tilde2", "z_star"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name} has inconsistent length")
        if self.phi.shape != (n, 4):
            raise ValueError("phi column must have shape (n, 4)")

    def __len__(self) -> int:
        return len(self.t)

    @property
    def z1_hat(self) -> np.ndarray:
        return self.z1 + self.z_tilde1

    @property
    def z2_hat(self) -> np.ndarray:
        return self.z2 + self.z_tilde2

    def control(self, params: PlantParams, k: float) -> np.ndarray:
        """Control input u at every sample."""
        return (params.a * self.z1 * self.z2_hat
                - k * (self.z1 - self.z_star))

    def validate_domain(self):
        """Check hybrid-time-domain well-formedness; raise on violation."""
        t, j = self.t, self.j
        if np.any(np.diff(j) < 0):
            raise ValueError("jump counter decreases")
        same_j = np.diff(j) == 0
        if np.any(np.diff(t)[same_j] < 0):
            raise ValueError("time decreases within a flow interval")
        if np.any(np.diff(j) > 1):
            raise ValueError("jump counter skips a value")


@dataclass(frozen=True)
class SolverConfig:
    """Integrator and runtime-guard settings (artifact policy, not physics).

    rel_tol, abs_tol and max_step alone set the step sizes, and a z1 root
    ends a step. record_interval = 0 records a sample at every accepted
    step; a positive value thins the recording (samples are still forced
    at a z1 root and wherever the recording budget below demands them).

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
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.zeno_max_jumps < 2:
            raise ValueError("zeno_max_jumps must be at least 2")
        if self.record_interval < 0:
            raise ValueError("record_interval must be non-negative")
