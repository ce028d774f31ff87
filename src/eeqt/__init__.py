"""Discrete quantum-classical detector simulation and transmission planning.

The package models detectors as open quantum-classical systems: hybrid
block-diagonal states evolve under a Liouville equation driven by coupling
operators, detector families admit closed-form efficiency solutions, and a
planning layer sizes quantum-state transmissions with exact binomial
confidence estimates.
"""

__version__ = "0.1.0"

from .states import (
    HybridState,
    basis_projector,
    check_projector,
    classical_marginal,
    product_state,
    quantum_marginal,
    validate_state,
)
from .evolution import (
    CouplingOperator,
    EvolutionConfig,
    Trajectory,
    check_cp_conditions,
    classical_rate_equations,
    evolve,
    liouville_rhs,
)
from .shapes import (
    ShapeTag2x2,
    ShapeTag3x3,
    TopologyTag,
    admissible_2x2,
    admissible_3x3,
    classify_topology,
    enumerate_admissible_patterns,
)
from .detectors import (
    BinaryDetectorSpec,
    FilterSpec,
    NStateDetectorSpec,
    SignalDecomposition,
    TwoStateDetectorSpec,
    balance_residual,
    binary_asymptotic,
    binary_trajectory,
    filter_classical_output,
    filter_quantum_marginal,
    filter_quantum_output,
    n_state_trajectory,
    two_state_asymptotic,
    two_state_trajectory,
)
from .planner import (
    PlanResult,
    TransmissionScenario,
    confidence,
    detect_nonmonotonicity,
    di_confirmation_count,
    intelligibility,
    minimal_m,
    plan_for_m,
    scan_plan,
    transmission_speed,
)

__all__ = [name for name in dir() if not name.startswith("_")]
