"""Independent jump-sequence oracle for a scenario.

scipy's DOP853 at rtol 1e-12 re-integrates the closed loop from the
scenario JSON alone. Nothing here imports xbstab: the flow is written out
from the plant equations, the certainty-equivalence law and the
error/transition-matrix dynamics, and the jump sets from the docstrings of
``dynamics.in_Dc`` and ``dynamics.in_Dnc``. With s = zhat2 sign(z*) and
thr = d|z*|/(c z*_in), each guard function is >= 0 exactly on its set:

    D_c:  s - thr
    D_nc: min(s + thr, -s, lambda_min h(i)^2 - lambda_max(Phi' P Phi))

A flow event is located on the guard-true side (the guard function
strictly positive), then the closed sets are tested for chained jumps, as
the docstring of ``engine.simulate`` states.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import solve_continuous_lyapunov

WITHIN = "WithinCycle"
NEW = "NewCycle"


class ClosedLoop:
    """Constants of the closed loop, derived from a scenario dict."""

    def __init__(self, scenario: dict):
        plant, obs, ctl = (scenario["plant"], scenario["observer"],
                           scenario["controller"])
        self.a, self.c, self.d = plant["a"], plant["c"], plant["d"]
        a, c = self.a, self.c
        # negative-output gains from the common-Lyapunov equalities
        # k1- = 2c - k1+ and c k1+ + a k2+ = c k1- + a k2-
        self.k1p, self.k2p = obs["k1_plus"], obs["k2_plus"]
        self.k1m = 2.0 * c - self.k1p
        self.k2m = (c * self.k1p + a * self.k2p - c * self.k1m) / a
        self.A1 = np.array([[-self.k1p, -a], [-self.k2p, c]])
        # A1' P + P A1 = -C'C with C = [1 0]
        self.P = solve_continuous_lyapunov(self.A1.T,
                                           -np.diag([1.0, 0.0]))
        lam = np.linalg.eigvalsh(self.P)
        self.lambda_min = float(lam[0])
        self.gamma = math.sqrt(lam[1] / lam[0])
        if ctl.get("h_schedule", "paper_v") != "paper_v":
            raise ValueError("the oracle implements the paper_v schedule only")
        self.k = float(ctl["k"])
        self.z_star_init = float(ctl["z_star_init"])
        self.epsilon = float(ctl["epsilon"])
        self.R_tilde = float(ctl["R_tilde"])
        self.max_cycles = int(ctl.get("max_cycles", 64))
        self.t_end = float(scenario["solver"]["t_end"])
        self.z0 = np.asarray(scenario["initial"]["z0"], dtype=float)
        self.z_hat0 = np.asarray(scenario["initial"]["z_hat0"], dtype=float)

    def h(self, i: int) -> float:
        """Contraction target: eps/(gamma R~) for i = 0, paper_v after."""
        if i == 0:
            return self.epsilon / (self.gamma * self.R_tilde)
        return 1.0 / (1.0 + 4.0 ** -i) if i <= 8 else 0.5

    def initial_cycle(self) -> int:
        """i0 = max{0, max{i : R~ <= eps g(i-1)/gamma}}, g(i) = prod h."""
        i0, g = 0, 1.0
        for cand in range(1, self.max_cycles + 1):
            if self.R_tilde > self.epsilon * g / self.gamma:
                break
            i0 = cand
            g *= self.h(cand)
        return i0

    def rhs(self, y, z_star):
        a, c, d = self.a, self.c, self.d
        z1, z2, e1, e2, f11, f12, f21, f22 = y
        if z1 > 0.0:
            k1, k2 = self.k1p, self.k2p
        elif z1 < 0.0:
            k1, k2 = self.k1m, self.k2m
        else:
            k1 = k2 = 0.0
        u = a * z1 * (z2 + e2) - self.k * (z1 - z_star)
        return [-a * z1 * z2 + u, (c * z2 + d) * z1,
                z1 * (-k1 * e1 - a * e2), z1 * (-k2 * e1 + c * e2),
                z1 * (-k1 * f11 - a * f21), z1 * (-k1 * f12 - a * f22),
                z1 * (-k2 * f11 + c * f21), z1 * (-k2 * f12 + c * f22)]

    def _s_thr(self, y, z_star):
        s = (y[1] + y[3]) * math.copysign(1.0, z_star)
        return s, self.d * abs(z_star) / (self.c * self.z_star_init)

    def g_dc(self, y, z_star):
        s, thr = self._s_thr(y, z_star)
        return s - thr

    def g_dnc(self, y, z_star, h):
        s, thr = self._s_thr(y, z_star)
        phi = np.asarray(y[4:]).reshape(2, 2)
        lam_max = np.linalg.eigvalsh(phi.T @ self.P @ phi)[-1]
        return min(s + thr, -s, self.lambda_min * h * h - lam_max)


def jump_sequence(scenario: dict) -> list:
    """Jumps [(t, kind, cycle before the jump)] of the scenario's run."""
    loop = ClosedLoop(scenario)
    i = loop.initial_cycle()
    if i == 0:
        z_star = loop.z_star_init
    else:
        sign = 1.0 if loop.z_hat0[1] < 0.0 else -1.0
        z_star = sign * loop.z_star_init / 2.0 ** i
    y = np.array([*loop.z0, *(loop.z_hat0 - loop.z0), 1.0, 0.0, 0.0, 1.0])
    t = 0.0
    jumps = []

    def jump(kind):
        nonlocal z_star, i
        jumps.append((t, kind, i))
        if kind == WITHIN:
            z_star = -z_star
        else:
            z_star, i = z_star / 2.0, i + 1
            y[4:] = [1.0, 0.0, 0.0, 1.0]

    while i < loop.max_cycles:
        h = loop.h(i)
        if loop.g_dc(y, z_star) >= 0.0:
            jump(WITHIN)
            continue
        if loop.g_dnc(y, z_star, h) >= 0.0:
            jump(NEW)
            continue
        guards = [lambda _, y_, z=z_star: loop.g_dc(y_, z),
                  lambda _, y_, z=z_star, h=h: loop.g_dnc(y_, z, h)]
        for g in guards:
            g.terminal, g.direction = True, 1
        sol = solve_ivp(lambda _, y_, z=z_star: loop.rhs(y_, z),
                        (t, loop.t_end), y, method="DOP853", rtol=1e-12,
                        atol=1e-14, events=guards, dense_output=True)
        if not sol.success:
            raise RuntimeError(f"oracle integration failed: {sol.message}")
        if sol.status == 0:
            return jumps
        fired = 0 if sol.t_events[0].size else 1
        t_root, step = sol.t[-1], 1e-15
        t = t_root
        while guards[fired](t, sol.sol(t)) <= 0.0:
            if step > 1e-9:
                raise RuntimeError(f"guard stays false past the root "
                                   f"t={t_root}")
            t, step = t_root + step, 2.0 * step
        y = sol.sol(t)
        jump((WITHIN, NEW)[fired])
    return jumps
