"""Closed-form detector families: binary, two-state, n-state and filter.

These evaluators solve the classical rate equations of the four detector
families analytically.  They serve both as fast replacements for numeric
integration and as independent oracles against it.

Two printed solutions required correction to be consistent with their own
asymptotics and with numeric integration of the unambiguous rate equations:
the registered-probability prefactor of the binary time solution uses the
gain constant squared (k1^2, not k2^2), and the filter quantum output is
rebuilt from the decay structure of its listed special cases.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .evolution import CouplingOperator
from .states import HybridState, check_projector


@dataclass(frozen=True)
class BinaryDetectorSpec:
    """Yes/no detector with antidiagonal coupling blocks k1*e and k2*e."""

    k1: float
    k2: float
    e: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.k1 < 0 or self.k2 < 0:
            raise ValueError("coupling constants must be non-negative")
        if self.k1 + self.k2 == 0:
            raise ValueError("at least one coupling constant must be positive")
        object.__setattr__(self, "e", check_projector(self.e))

    def coupling(self) -> CouplingOperator:
        """Antidiagonal coupling operator over a 2-event classical space."""
        return CouplingOperator.from_entries(2, {(0, 1): self.k1 * self.e,
                                                 (1, 0): self.k2 * self.e})


@dataclass(frozen=True)
class SignalDecomposition:
    """Initial signal weights: aligned with the detector projector or not."""

    a0: float
    b0: float

    def __post_init__(self):
        if self.a0 < 0 or self.b0 < 0:
            raise ValueError("signal weights must be non-negative")
        if self.a0 + self.b0 > 1 + 1e-12:
            raise ValueError(f"a0 + b0 = {self.a0 + self.b0:.12g} exceeds 1")


def binary_asymptotic(spec: BinaryDetectorSpec, sig: SignalDecomposition):
    """Long-time probabilities (p0_inf, p1_inf) of the binary detector.

    Assumes the full decomposition a0 + b0 = 1; the registered probability is
    k1^2 / (k1^2 + k2^2) * (1 - b0).
    """
    p1_inf = spec.k1 ** 2 / (spec.k1 ** 2 + spec.k2 ** 2) * (1.0 - sig.b0)
    return 1.0 - p1_inf, p1_inf


def binary_trajectory(spec: BinaryDetectorSpec, sig: SignalDecomposition, t: float):
    """Probabilities (p0(t), p1(t)) of the binary detector.

    p1(t) = a0 * k1^2/(k1^2 + k2^2) * (1 - exp(-(k1^2 + k2^2) t)) and
    p0(t) = a0 + b0 - p1(t); the orthogonal weight b0 is inert.
    """
    if t < 0:
        raise ValueError("time must be non-negative")
    rate = spec.k1 ** 2 + spec.k2 ** 2
    p1 = sig.a0 * spec.k1 ** 2 / rate * (1.0 - math.exp(-rate * t))
    return sig.a0 + sig.b0 - p1, p1


def balance_residual(spec: BinaryDetectorSpec, state: HybridState) -> float:
    """Stationarity residual k2^2 tr(e rho1) - k1^2 tr(e rho0).

    Zero exactly when the classical evolution has reached balance.
    """
    if state.classical_dim != 2:
        raise ValueError("balance residual requires a 2-event state")
    if state.quantum_dim != spec.e.shape[0]:
        raise ValueError("quantum dimension mismatch between spec and state")
    tr0 = np.trace(spec.e @ state.blocks[0]).real
    tr1 = np.trace(spec.e @ state.blocks[1]).real
    return spec.k2 ** 2 * tr1 - spec.k1 ** 2 * tr0


def _check_orthogonal(projectors: dict) -> None:
    """Raise ValueError unless tr(ei ej) vanishes for every pair of named projectors."""
    for (a, ea), (b, eb) in itertools.combinations(projectors.items(), 2):
        overlap = abs(np.trace(ea @ eb))
        if overlap > 1e-10:
            raise ValueError(f"projectors {a} and {b} are not orthogonal: "
                             f"|tr({a} {b})| = {overlap:.3g}")


@dataclass(frozen=True)
class TwoStateDetectorSpec:
    """Detector distinguishing two signals via orthogonal projectors e2, e3."""

    k1: float
    k2: float
    n1: float
    n2: float
    e2: np.ndarray = field(repr=False)
    e3: np.ndarray = field(repr=False)

    def __post_init__(self):
        for k in (self.k1, self.k2, self.n1, self.n2):
            if k < 0:
                raise ValueError("coupling constants must be non-negative")
        if self.k1 + self.k2 == 0 and self.n1 + self.n2 == 0:
            raise ValueError("at least one channel must have a positive constant")
        object.__setattr__(self, "e2", check_projector(self.e2))
        object.__setattr__(self, "e3", check_projector(self.e3))
        _check_orthogonal({"e2": self.e2, "e3": self.e3})

    def couplings(self) -> list:
        """The pair of single-focus coupling operators over 3 classical events."""
        return [
            CouplingOperator.from_entries(3, {(0, 1): self.k1 * self.e2,
                                              (1, 0): self.k2 * self.e2}),
            CouplingOperator.from_entries(3, {(0, 2): self.n1 * self.e3,
                                              (2, 0): self.n2 * self.e3}),
        ]


def _channel(weight: float, gain: float, loss: float, t: float, name: str) -> float:
    rate = gain ** 2 + loss ** 2
    if rate == 0:
        if weight > 0:
            raise ValueError(f"channel {name} has weight but zero coupling constants")
        return 0.0
    return weight * gain ** 2 / rate * (1.0 - math.exp(-rate * t))


def two_state_trajectory(spec: TwoStateDetectorSpec, a0: float, b0: float, t: float):
    """Probabilities (p0(t), p1(t), p2(t)) of the two-state detector.

    a0 is the initial weight on e2, b0 on e3; remaining weight is inert.
    """
    if t < 0:
        raise ValueError("time must be non-negative")
    SignalDecomposition(a0, b0)  # reuse the range checks
    p1 = _channel(a0, spec.k1, spec.k2, t, "e2")
    p2 = _channel(b0, spec.n1, spec.n2, t, "e3")
    return 1.0 - p1 - p2, p1, p2


def two_state_asymptotic(spec: TwoStateDetectorSpec, a0: float, b0: float):
    """Long-time limits (p1_inf, p2_inf, total_efficiency).

    The total efficiency reaches one exactly when k2 = n2 = 0 and a0 + b0 = 1.
    """
    SignalDecomposition(a0, b0)
    p1 = _channel(a0, spec.k1, spec.k2, math.inf, "e2") if a0 or spec.k1 + spec.k2 else 0.0
    p2 = _channel(b0, spec.n1, spec.n2, math.inf, "e3") if b0 or spec.n1 + spec.n2 else 0.0
    return p1, p2, p1 + p2


@dataclass(frozen=True)
class NStateDetectorSpec:
    """Detector registering n distinguishable signals at a common rate k."""

    k: float
    projectors: tuple = field(repr=False)

    def __post_init__(self):
        if self.k <= 0:
            raise ValueError("coupling constant k must be positive")
        projectors = tuple(check_projector(e) for e in self.projectors)
        _check_orthogonal({f"e{i}": e for i, e in enumerate(projectors, start=1)})
        object.__setattr__(self, "projectors", projectors)

    @property
    def n_channels(self) -> int:
        return len(self.projectors)

    def couplings(self) -> list:
        """One coupling per channel: sqrt(k) e_i in block (0, i)."""
        root_k = math.sqrt(self.k)
        return [CouplingOperator.from_entries(self.n_channels + 1, {(0, i): root_k * e})
                for i, e in enumerate(self.projectors, start=1)]


def n_state_trajectory(spec: NStateDetectorSpec, j: int, t: float) -> np.ndarray:
    """Probability vector at time t for a signal aligned with channel j.

    p0 = exp(-k t), p_j = 1 - exp(-k t), all other channels stay at zero;
    the registered probability does not depend on the number of channels.
    """
    if not 0 <= j < spec.n_channels:
        raise ValueError(f"channel index {j} out of range")
    if t < 0:
        raise ValueError("time must be non-negative")
    p = np.zeros(spec.n_channels + 1)
    decay = math.exp(-spec.k * t)
    p[0] = decay
    p[j + 1] = 1.0 - decay
    return p


@dataclass(frozen=True)
class FilterSpec:
    """Nondemolition filter: registers without disturbing aligned signals."""

    k: float
    e1: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.k <= 0:
            raise ValueError("coupling constant k must be positive")
        object.__setattr__(self, "e1", check_projector(self.e1))

    def coupling(self) -> CouplingOperator:
        """Antidiagonal coupling sqrt(k) * e1 on both off-diagonal blocks."""
        root_k = math.sqrt(self.k)
        return CouplingOperator.from_entries(2, {(0, 1): root_k * self.e1,
                                                 (1, 0): root_k * self.e1})


def filter_quantum_output(diagonal_weights, offdiagonal_weights, spec: FilterSpec,
                          t: float):
    """Quantum output of the filter in the projector-basis description.

    ``diagonal_weights`` maps channel index i (0 is the filter channel) to
    the weight on e_i; ``offdiagonal_weights`` maps pairs (i, j), i != j, to
    coherence weights.  Diagonal weights pass through unchanged; a coherence
    touching the filter channel is scaled by exp(-k t / 2), all others pass.
    """
    if t < 0:
        raise ValueError("time must be non-negative")
    diagonal_weights = dict(diagonal_weights)
    out_off = {}
    decay = math.exp(-0.5 * spec.k * t)
    for (i, j), w in dict(offdiagonal_weights).items():
        if i == j:
            raise ValueError("off-diagonal weights require i != j")
        factor = decay if (i == 0 or j == 0) else 1.0
        out_off[(i, j)] = w * factor
    return diagonal_weights, out_off


def filter_quantum_marginal(rho_q: np.ndarray, spec: FilterSpec, t: float) -> np.ndarray:
    """Quantum marginal of the filter output for an arbitrary input matrix.

    rho_q(t) = rho_q + (exp(-k t / 2) - 1) ({e1, rho_q} - 2 e1 rho_q e1):
    the e1-diagonal and fully orthogonal parts are untouched while the
    cross terms decay.
    """
    if t < 0:
        raise ValueError("time must be non-negative")
    e = spec.e1
    rho_q = np.asarray(rho_q, dtype=complex)
    anti = e @ rho_q + rho_q @ e
    return rho_q + (math.exp(-0.5 * spec.k * t) - 1.0) * (anti - 2.0 * (e @ rho_q @ e))


def filter_classical_output(p0: float, p1: float, q1: float, k: float, t: float):
    """Classical output (p0(t), p1(t)) of the filter.

    q1 = tr(e1 rho_q) is the aligned weight of the quantum input; the
    imbalance (p0 - p1) q1 relaxes at rate 2k and the sum is conserved.
    """
    if t < 0:
        raise ValueError("time must be non-negative")
    if not (0 <= q1 <= 1 + 1e-12):
        raise ValueError(f"q1 = {q1:.12g} outside [0, 1]")
    if p0 < -1e-12 or p1 < -1e-12 or abs(p0 + p1 - 1.0) > 1e-9:
        raise ValueError("p0, p1 must be a probability pair summing to 1")
    decay = math.exp(-2.0 * k * t)
    out0 = 0.5 * (p1 - p0) * q1 + p0 + 0.5 * (p0 - p1) * q1 * decay
    out1 = 0.5 * (p0 - p1) * q1 + p1 + 0.5 * (p1 - p0) * q1 * decay
    return out0, out1
