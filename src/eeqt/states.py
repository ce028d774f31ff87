"""Hybrid quantum-classical states as block-diagonal density matrices.

A hybrid state is a sequence of quantum density blocks indexed by the pure
states of a finite classical system.  The block traces form the classical
probability distribution, and summing the blocks recovers the quantum
marginal.  All types here are immutable values and all operations are pure
functions.
"""

from __future__ import annotations

import numpy as np

from . import _Frozen
from .limits import (HERMITICITY_TOL, IDEMPOTENCY_TOL, POSITIVITY_TOL, TRACE_TOL,
                     check_basis_index, check_offdiagonal_index)


def operator_array(a, name: str, ndim: int) -> np.ndarray:
    """Read-only complex copy of `a`, an array of square operators.

    Raises ValueError, naming the array `name`, unless `a` has `ndim` axes
    (2 or 3), none of them empty, square last two axes and only finite
    entries.  State blocks, coupling entries, Hamiltonians and projectors are
    all built here.
    """
    out = np.array(a, dtype=complex)
    shape = out.shape
    if out.ndim != ndim or 0 in shape or shape[-1] != shape[-2]:
        layout = "(" + "n+1, " * (ndim - 2) + "d, d)"
        raise ValueError(f"{name} must have shape {layout}, got {shape}")
    if not np.all(np.isfinite(out.view(float))):
        raise ValueError(f"{name} contains non-finite entries")
    out.setflags(write=False)
    return out


def basis_projector(dim: int, index: int) -> np.ndarray:
    """Rank-1 projector onto the computational basis vector `index`."""
    check_basis_index(dim, index)
    e = np.zeros((dim, dim), dtype=complex)
    e[index, index] = 1.0
    return e


def vector_projector(vec) -> np.ndarray:
    """Rank-1 projector |v><v| / <v|v> onto an arbitrary vector."""
    v = np.asarray(vec, dtype=complex).ravel()
    norm2 = float(np.vdot(v, v).real)
    if norm2 <= 0:
        raise ValueError("cannot project onto the zero vector")
    return np.outer(v, v.conj()) / norm2


def offdiagonal_element(dim: int, i: int, j: int) -> np.ndarray:
    """Matrix unit |i><j| with i != j.

    These are the unnormalized off-diagonal basis elements used to describe
    coherences; they are not trace-1 projectors.
    """
    check_offdiagonal_index(dim, i, j)
    m = np.zeros((dim, dim), dtype=complex)
    m[i, j] = 1.0
    return m


def random_projector(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Rank-1 trace-1 projector onto a Haar-random complex vector."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vector_projector(v)


def check_projector(e) -> np.ndarray:
    """Return `e` as a read-only complex matrix after checking it.

    Raises ValueError unless `e` is a Hermitian, idempotent, trace-1 matrix.
    """
    e = operator_array(e, "projector", 2)
    herm = np.max(np.abs(e - e.conj().T))
    if herm > IDEMPOTENCY_TOL:
        raise ValueError(f"projector not Hermitian: max |e - e*| = {herm:.3g}")
    idem = np.max(np.abs(e @ e - e))
    if idem > IDEMPOTENCY_TOL:
        raise ValueError(f"projector not idempotent: max |e^2 - e| = {idem:.3g}")
    tr = abs(np.trace(e) - 1.0)
    if tr > IDEMPOTENCY_TOL:
        raise ValueError(f"projector not normalized: |tr(e) - 1| = {tr:.3g}")
    return e


class HybridState(_Frozen):
    """Block-diagonal density matrix of the coupled quantum-classical system.

    Attributes
    ----------
    blocks : np.ndarray
        Complex array of shape (classical_dim, d, d).  Block ``alpha`` is the
        unnormalized quantum density matrix attached to classical event
        ``alpha``; the block traces sum to one.
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        self._set(blocks=operator_array(blocks, "state blocks", 3))

    @property
    def classical_dim(self) -> int:
        return self.blocks.shape[0]

    @property
    def quantum_dim(self) -> int:
        return self.blocks.shape[1]


def block_eigenvalues(blocks: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of each matrix on the last two axes.

    A matrix whose off-diagonal entries are all exactly zero gets its sorted
    real diagonal: LAPACK's answer bit for bit, except where LAPACK rescales a
    matrix of norm outside about 1e+-146, and there the exact one.  Only the
    other matrices go to ``eigvalsh``.  Projector couplings keep a diagonal
    signal diagonal, so most records never reach LAPACK.
    """
    d = blocks.shape[-1]
    flat = blocks.reshape(-1, d, d)
    values = np.sort(np.diagonal(flat, axis1=1, axis2=2).real, axis=1)
    off = flat != 0
    off[:, np.arange(d), np.arange(d)] = False
    full = np.flatnonzero(off.any(axis=(1, 2)))
    if full.size:
        part = flat[full]
        values[full] = np.linalg.eigvalsh(0.5 * (part + np.swapaxes(part.conj(), 1, 2)))
    return values.reshape(blocks.shape[:-1])


class StateReport(_Frozen):
    """Validation report for a HybridState (reporting only, never raises)."""

    __slots__ = ("hermiticity_deviation", "min_eigenvalue", "total_trace_deviation",
                 "block_traces", "hermitian_ok", "positive_ok", "trace_ok")

    def __init__(self, hermiticity_deviation: float, min_eigenvalue: float,
                 total_trace_deviation: float, block_traces: tuple, hermitian_ok: bool,
                 positive_ok: bool, trace_ok: bool):
        self._set(hermiticity_deviation=hermiticity_deviation, min_eigenvalue=min_eigenvalue,
                  total_trace_deviation=total_trace_deviation, block_traces=block_traces,
                  hermitian_ok=hermitian_ok, positive_ok=positive_ok, trace_ok=trace_ok)

    @property
    def ok(self) -> bool:
        return self.hermitian_ok and self.positive_ok and self.trace_ok


def validate_state(state: HybridState) -> StateReport:
    """Check Hermiticity, positivity and normalization of every block."""
    blocks = state.blocks
    herm = float(np.max(np.abs(blocks - blocks.conj().transpose(0, 2, 1))))
    # eigenvalues of the Hermitian part; deviation is reported separately
    min_eig = float(np.min(block_eigenvalues(blocks)))
    traces = np.trace(blocks, axis1=1, axis2=2).real
    trace_dev = float(abs(traces.sum() - 1.0))
    return StateReport(
        hermiticity_deviation=herm,
        min_eigenvalue=min_eig,
        total_trace_deviation=trace_dev,
        block_traces=tuple(float(t) for t in traces),
        hermitian_ok=herm <= HERMITICITY_TOL,
        positive_ok=min_eig >= -POSITIVITY_TOL,
        trace_ok=trace_dev <= TRACE_TOL,
    )


def check_probability_vector(p) -> np.ndarray:
    """Validate and return a classical probability vector."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise ValueError("probability vector must be a non-empty 1-d sequence")
    if np.any(p < -TRACE_TOL):
        raise ValueError(f"negative probability: min p = {p.min():.3g}")
    if abs(p.sum() - 1.0) > TRACE_TOL:
        raise ValueError(f"probabilities sum to {p.sum():.12g}, expected 1")
    return p


def product_state(w, p) -> HybridState:
    """Uncorrelated hybrid state with blocks ``p[alpha] * w``.

    Parameters
    ----------
    w : array_like
        Unit-trace quantum density matrix.
    p : array_like
        Classical probability vector.
    """
    w = operator_array(w, "quantum state", 2)
    tr = np.trace(w).real
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"quantum state has trace {tr:.12g}, expected 1")
    p = check_probability_vector(p)
    return HybridState(p[:, None, None] * w[None, :, :])


def quantum_marginal(state: HybridState) -> np.ndarray:
    """Quantum marginal: the sum of all blocks (unit trace)."""
    return state.blocks.sum(axis=0)


def classical_marginal(state: HybridState) -> np.ndarray:
    """Classical marginal: the vector of block traces."""
    return np.trace(state.blocks, axis1=1, axis2=2).real.copy()
