"""Simulation and certification toolkit for output-feedback stabilization
of a 2-state bilinear wheel-dynamics model that loses observability on the
zero-output set.

The package provides the switched observer gains and their common-Lyapunov
certificate, the certainty-equivalence hybrid controller with a halving
piecewise-constant reference, a hybrid-arc execution engine, and analysis
routines that numerically verify every constructive bound (dwell times,
excitation, exponential error envelope).
"""

from .errors import (BadInitialBall, InvalidGains, NoCertificate,
                     StateOutOfDomain, ZenoSuspected)
from .model import (ControllerConfig, HSchedule, HybridState,
                    HybridTrajectory, JumpKind, ObserverGains, PlantParams,
                    SolverConfig, derive_control_gain, g_of,
                    t_lmin_asymptote)
from .lyapunov import (complete_gains, dwell_certificate,
                       dwell_time_lower_bound, solve_common_lyapunov)
from .engine import (in_Dc, in_Dnc, initialize, jump_map,
                     phi_contraction_norm, simulate)
from .analysis import (check_envelope, check_vobs_monotone, extract_dwell,
                       verify_bounds)

__version__ = "1.0.0"

__all__ = [
    "BadInitialBall", "ControllerConfig", "HSchedule", "HybridState",
    "HybridTrajectory", "InvalidGains", "JumpKind", "NoCertificate",
    "ObserverGains", "PlantParams", "SolverConfig", "StateOutOfDomain",
    "ZenoSuspected", "check_envelope", "check_vobs_monotone",
    "complete_gains", "derive_control_gain", "dwell_certificate",
    "dwell_time_lower_bound", "extract_dwell", "g_of", "in_Dc", "in_Dnc",
    "initialize", "jump_map", "phi_contraction_norm", "simulate",
    "solve_common_lyapunov", "t_lmin_asymptote", "verify_bounds",
]
