"""Test-only oracles of the closed-loop flow: the state-space right-hand
side, the certainty-equivalence law, the estimate-form observer, the
tracking error's analysis form and a reference Dormand-Prince step. The
simulator never integrates these; the tests check the kernel and each
other against them."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from xbstab import fastpath as fp
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


def dp_step_reference(p, md, ya, nx, y, k1, h):
    """fastpath._dp_step written stage by stage: every stage through
    fastpath._f, the state at the step's end through fastpath._closed.

    Returns (y1, k7, err, ye), ye being that state; on an overflow, the
    all-NaN step that the kernel rejects."""
    tau, z1 = y
    a1, b1 = k1
    try:
        a2, b2 = fp._f(p, md, ya, nx, tau + h * (fp._A21 * a1),
                       z1 + h * (fp._A21 * b1))
        a3, b3 = fp._f(p, md, ya, nx,
                       tau + h * (fp._A31 * a1 + fp._A32 * a2),
                       z1 + h * (fp._A31 * b1 + fp._A32 * b2))
        a4, b4 = fp._f(p, md, ya, nx,
                       tau + h * (fp._A41 * a1 + fp._A42 * a2
                                  + fp._A43 * a3),
                       z1 + h * (fp._A41 * b1 + fp._A42 * b2
                                 + fp._A43 * b3))
        a5, b5 = fp._f(p, md, ya, nx,
                       tau + h * (fp._A51 * a1 + fp._A52 * a2
                                  + fp._A53 * a3 + fp._A54 * a4),
                       z1 + h * (fp._A51 * b1 + fp._A52 * b2
                                 + fp._A53 * b3 + fp._A54 * b4))
        a6, b6 = fp._f(p, md, ya, nx,
                       tau + h * (fp._A61 * a1 + fp._A62 * a2
                                  + fp._A63 * a3 + fp._A64 * a4
                                  + fp._A65 * a5),
                       z1 + h * (fp._A61 * b1 + fp._A62 * b2
                                 + fp._A63 * b3 + fp._A64 * b4
                                 + fp._A65 * b5))
        y1 = (tau + h * (fp._B1 * a1 + fp._B3 * a3 + fp._B4 * a4
                         + fp._B5 * a5 + fp._B6 * a6),
              z1 + h * (fp._B1 * b1 + fp._B3 * b3 + fp._B4 * b4
                        + fp._B5 * b5 + fp._B6 * b6))
        k7 = fp._f(p, md, ya, nx, y1[0], y1[1])
    except (OverflowError, ValueError):
        nan2 = (math.nan, math.nan)
        return nan2, nan2, nan2, (math.nan,) * 9
    err = (h * (fp._E1 * a1 + fp._E3 * a3 + fp._E4 * a4 + fp._E5 * a5
                + fp._E6 * a6 + fp._E7 * k7[0]),
           h * (fp._E1 * b1 + fp._E3 * b3 + fp._E4 * b4 + fp._E5 * b5
                + fp._E6 * b6 + fp._E7 * k7[1]))
    return y1, k7, err, fp._closed(md, ya, nx, y1[0], y1[1])
