"""The detector specs on numpy projectors, for library use and the tests.

Each spec is a constants class of ``detectors`` plus its projectors, checked
by ``states.check_projector`` and, for two or more, for orthogonality; its
couplings are ``evolution.CouplingOperator`` values.  No command loads this
module: the CLI reads a family's constants and basis indices with
``detectors.FAMILIES`` and propagates with ``sectors``.  ``detectors`` gives
every name here on first access (PEP 562), so ``from eeqt.detectors import
BinaryDetectorSpec`` and ``eeqt.BinaryDetectorSpec`` still work.
"""

from __future__ import annotations

import math

import numpy as np

from .detectors import (BinaryConstants, FilterConstants, NStateConstants, TwoStateConstants,
                        _decay, _not_orthogonal)
from .evolution import CouplingOperator
from .states import HybridState, check_projector, operator_array


def _check_orthogonal(projectors: dict) -> None:
    """Raise ValueError unless tr(ei ej) vanishes for every pair of named projectors."""
    names, e = list(projectors), np.array(list(projectors.values()))
    n = len(e)
    # tr(ea eb) = flat(ea) . flat(eb^T): one Gram product gives every overlap
    overlap = np.abs(e.reshape(n, -1) @ e.swapaxes(1, 2).reshape(n, -1).T)
    bad = np.argwhere(np.triu(overlap > 1e-10, 1))  # row-major: itertools.combinations order
    if len(bad):
        i, j = bad[0]
        raise _not_orthogonal(names[i], names[j], overlap[i, j])


class BinaryDetectorSpec(BinaryConstants):
    """Yes/no detector with antidiagonal coupling blocks k1*e and k2*e."""

    __slots__ = ("e",)

    def __init__(self, k1: float, k2: float, e):
        super().__init__(k1, k2)
        self._set(e=check_projector(e))

    def coupling(self) -> CouplingOperator:
        """Antidiagonal coupling operator over a 2-event classical space."""
        return CouplingOperator.from_entries(2, {(0, 1): self.k1 * self.e,
                                                 (1, 0): self.k2 * self.e})


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


class TwoStateDetectorSpec(TwoStateConstants):
    """Detector distinguishing two signals via orthogonal projectors e2, e3."""

    __slots__ = ("e2", "e3")

    def __init__(self, k1: float, k2: float, n1: float, n2: float, e2, e3):
        super().__init__(k1, k2, n1, n2)
        e2, e3 = check_projector(e2), check_projector(e3)
        _check_orthogonal({"e2": e2, "e3": e3})
        self._set(e2=e2, e3=e3)

    def couplings(self) -> list:
        """The pair of single-focus coupling operators over 3 classical events."""
        return [
            CouplingOperator.from_entries(3, {(0, 1): self.k1 * self.e2,
                                              (1, 0): self.k2 * self.e2}),
            CouplingOperator.from_entries(3, {(0, 2): self.n1 * self.e3,
                                              (2, 0): self.n2 * self.e3}),
        ]


class NStateDetectorSpec(NStateConstants):
    """Detector registering n distinguishable signals at a common rate k."""

    __slots__ = ("projectors",)

    def __init__(self, k: float, projectors: tuple):
        projectors = tuple(projectors)
        super().__init__(k, len(projectors))
        projectors = tuple(check_projector(e) for e in projectors)
        _check_orthogonal({f"e{i}": e for i, e in enumerate(projectors, start=1)})
        self._set(projectors=projectors)

    def couplings(self) -> list:
        """One coupling per channel: sqrt(k) e_i in block (0, i)."""
        root_k = math.sqrt(self.k)
        return [CouplingOperator.from_entries(self.n_channels + 1, {(0, i): root_k * e})
                for i, e in enumerate(self.projectors, start=1)]


class FilterSpec(FilterConstants):
    """Nondemolition filter: registers without disturbing aligned signals."""

    __slots__ = ("e1",)

    def __init__(self, k: float, e1):
        super().__init__(k)
        self._set(e1=check_projector(e1))

    def coupling(self) -> CouplingOperator:
        """Antidiagonal coupling sqrt(k) * e1 on both off-diagonal blocks."""
        root_k = math.sqrt(self.k)
        return CouplingOperator.from_entries(2, {(0, 1): root_k * self.e1,
                                                 (1, 0): root_k * self.e1})


def filter_quantum_marginal(rho_q, spec: FilterSpec, t: float) -> np.ndarray:
    """Quantum marginal of the filter output for an arbitrary input matrix.

    rho_q(t) = rho_q + (exp(-k t / 2) - 1) ({e1, rho_q} - 2 e1 rho_q e1):
    the e1-diagonal and fully orthogonal parts are untouched while the
    cross terms decay.  Raises ValueError for a negative time, for a
    `rho_q` that is not a finite square matrix and for one whose dimension
    differs from the projector's.
    """
    decay = _decay(0.5 * spec.k, t)
    e = spec.e1
    rho_q = operator_array(rho_q, "quantum input", 2)
    if rho_q.shape != e.shape:
        raise ValueError(f"quantum input has shape {rho_q.shape}, "
                         f"but the filter projector has {e.shape}")
    anti = e @ rho_q + rho_q @ e
    return rho_q + (decay - 1.0) * (anti - 2.0 * (e @ rho_q @ e))
