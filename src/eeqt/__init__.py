"""Discrete quantum-classical detector simulation and transmission planning.

The package models detectors as open quantum-classical systems: hybrid
block-diagonal states evolve under a Liouville equation driven by coupling
operators, detector families admit closed-form efficiency solutions, and a
planning layer sizes quantum-state transmissions with exact binomial
confidence estimates.

``import eeqt`` loads no submodule.  Each public name, and each submodule
name, is resolved on first access (PEP 562) by importing the one module
that defines it, so a program that plans never imports the integrator.
"""

import importlib

__version__ = "0.1.0"

# Submodule -> the public names it gives the package.
_EXPORTS = {
    "states": ("HybridState", "basis_projector", "check_projector", "classical_marginal",
               "product_state", "quantum_marginal", "validate_state"),
    "evolution": ("CouplingOperator", "EvolutionConfig", "Trajectory", "check_cp_conditions",
                  "classical_rate_equations", "evolve", "liouville_rhs"),
    "shapes": ("ShapeTag2x2", "ShapeTag3x3", "TopologyTag", "admissible_2x2", "admissible_3x3",
               "classify_topology", "enumerate_admissible_patterns"),
    "detectors": ("SignalDecomposition", "binary_trajectory", "filter_classical_output",
                  "filter_quantum_output", "n_state_trajectory", "two_state_trajectory"),
    "specs": ("BinaryDetectorSpec", "FilterSpec", "NStateDetectorSpec", "TwoStateDetectorSpec",
              "balance_residual", "filter_quantum_marginal"),
    "planner": ("PlanResult", "TransmissionScenario", "confidence", "detect_nonmonotonicity",
                "di_confirmation_count", "intelligibility", "minimal_m", "plan_for_m",
                "scan_plan", "transmission_speed"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name):
    """A public name or submodule, imported on first access and then kept."""
    module = name if name in _EXPORTS else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


class _Frozen:
    """Base of the immutable value classes of the submodules.

    Each subclass lists its attributes in ``__slots__`` and sets them once,
    in ``__init__``, through ``_set``; assigning or deleting one afterwards
    raises AttributeError.  Plain classes, because a frozen dataclass
    generates its methods with ``exec`` when its module is imported.
    """

    __slots__ = ()

    def _set(self, **values):
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")
