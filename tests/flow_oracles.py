"""Test-only oracles of the closed-loop flow: the state-space right-hand
side, the certainty-equivalence law, the estimate-form observer and the
tracking error's analysis form. The simulator never integrates these; the
tests check the kernel and each other against them."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from xbstab.errors import StateOutOfDomain
from xbstab.model import HybridState, ObserverGains, PlantParams


@dataclass(frozen=True)
class FlowDerivative:
    """Time derivative of the flowing components; (i, z_star) are frozen."""

    d_tau: float
    d_z1: float
    d_z2: float
    d_z_tilde: np.ndarray
    d_phi: np.ndarray


def control_input(params: PlantParams, k: float, state: HybridState) -> float:
    """Certainty-equivalence law u = a z1 zhat2 - k (z1 - z_star)."""
    z1 = state.z[0]
    zhat2 = state.z[1] + state.z_tilde[1]
    return params.a * z1 * zhat2 - k * (z1 - state.z_star)


def flow_map(params: PlantParams, gains: ObserverGains, k: float,
             state: HybridState) -> FlowDerivative:
    """Closed-loop flow: plant, error dynamics and transition matrix.

    d z_tilde = z1 * M(z1) * z_tilde and d Phi = |z1| A(sign z1) Phi; the
    two right-hand sides coincide because |z1| A(sign z1) == z1 M(z1).
    """
    z1, z2 = state.z
    if z2 <= params.z2_floor:
        raise StateOutOfDomain(f"z2={z2} at or below -d/c={params.z2_floor}")
    u = control_input(params, k, state)
    k1, k2 = gains.injection(z1)
    M = np.array([[-k1, -params.a], [-k2, params.c]])
    return FlowDerivative(
        d_tau=abs(z1),
        d_z1=-params.a * z1 * z2 + u,
        d_z2=(params.c * z2 + params.d) * z1,
        d_z_tilde=z1 * (M @ state.z_tilde),
        d_phi=z1 * (M @ state.phi),
    )


def observer_rhs_zhat(params: PlantParams, gains: ObserverGains, u: float,
                      z1: float, z_hat: np.ndarray) -> np.ndarray:
    """Alternative realization: the estimate-form observer ODE.

    Integrating this alongside the plant must reproduce z + z_tilde from
    flow_map to integration tolerance (the error form is ground truth).
    """
    k1, k2 = gains.injection(z1)
    innov = z1 - z_hat[0]
    return np.array([
        -params.a * z1 * z_hat[1] + u + k1 * z1 * innov,
        params.c * z1 * z_hat[1] + params.d * z1 + k2 * z1 * innov,
    ])


def tracking_error_rhs_analysis_form(params: PlantParams, k: float,
                                     state: HybridState) -> float:
    """Diagnostic only: the tracking-error ODE in its analysis form,

        d z1e = -(k + a z_tilde2) z1e + a z_star z_tilde2.

    The closed loop is never integrated through this expression; comparing
    it against the simulated d z1 exposes the sign discrepancy between the
    analysis form and direct substitution of the control law.
    """
    z1e = state.z[0] - state.z_star
    zt2 = state.z_tilde[1]
    return -(k + params.a * zt2) * z1e + params.a * state.z_star * zt2
