"""Guard membership tests and the jump map.

All functions are pure and stateless. The closed-loop flow itself lives in
the kernel of fastpath; its state-space oracles are test-only.
"""

from __future__ import annotations

import numpy as np

from .errors import IllegalJump
from .lyapunov import LyapunovCertificate
from .model import ControllerConfig, HybridState, JumpKind, PlantParams


def in_Dc(params: PlantParams, cfg: ControllerConfig,
          state: HybridState) -> bool:
    """Within-cycle jump set: |zhat2| >= d|z*|/(c z*_in) and zhat2 z* >= 0."""
    zhat2 = state.z[1] + state.z_tilde[1]
    thr = params.d * abs(state.z_star) / (params.c * cfg.z_star_init)
    return abs(zhat2) >= thr and zhat2 * state.z_star >= 0.0


def phi_contraction_norm(cert: LyapunovCertificate,
                         phi: np.ndarray) -> float:
    """||Phi' P Phi||_2^(1/2), the verifiable error-contraction measure."""
    S = phi.T @ cert.P @ phi
    return float(np.sqrt(np.linalg.norm(S, 2)))


def in_Dnc(params: PlantParams, cfg: ControllerConfig,
           cert: LyapunovCertificate, state: HybridState) -> bool:
    """Cycle-transition jump set.

    Requires |zhat2| under the threshold, opposite signs of zhat2 and z*,
    and certified contraction ||Phi'P Phi||^(1/2) <= sqrt(lambda_min) h(i).
    """
    zhat2 = state.z[1] + state.z_tilde[1]
    thr = params.d * abs(state.z_star) / (params.c * cfg.z_star_init)
    if abs(zhat2) > thr or zhat2 * state.z_star > 0.0:
        return False
    h_i = cfg.h_of(state.cycle, cert.gamma)
    return phi_contraction_norm(cert, state.phi) \
        <= np.sqrt(cert.lambda_min) * h_i


def jump_map(state: HybridState, which: JumpKind) -> HybridState:
    """Reset map G: sign flip of z* within a cycle, halving at a new cycle.

    z and z_tilde are continuous variables and never change across jumps.
    Guard preconditions are the caller's duty (the engine jumps on the
    kernel's guard verdict); only structural legality is enforced here.
    """
    if which is JumpKind.WITHIN_CYCLE:
        return state.replace(z_star=-state.z_star)
    if which is JumpKind.NEW_CYCLE:
        return state.replace(tau=0.0, cycle=state.cycle + 1,
                             z_star=state.z_star / 2.0, phi=np.eye(2))
    raise IllegalJump(f"unknown jump kind {which!r}")

