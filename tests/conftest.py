"""Shared helpers for the test suite."""

import numpy as np
import pytest

from eeqt.evolution import CouplingOperator
from eeqt.states import HybridState


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random unit-trace positive semidefinite matrix."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_hybrid_state(n_classical: int, dim: int,
                        rng: np.random.Generator) -> HybridState:
    """Random valid hybrid state with strictly positive block traces."""
    blocks = np.stack([random_density(dim, rng) for _ in range(n_classical)])
    weights = rng.dirichlet(np.ones(n_classical))
    return HybridState(weights[:, None, None] * blocks)


def coupling_from_blocks(blocks) -> CouplingOperator:
    """The coupling of a dense (n+1, n+1, d, d) block array.

    Every block is listed, zero or not, so that a Generator built from it
    must leave the zero ones out itself.
    """
    blocks = np.asarray(blocks, dtype=complex)
    n1, d = blocks.shape[0], blocks.shape[-1]
    return CouplingOperator.from_entries(
        n1, {(g, a): blocks[g, a] for g in range(n1) for a in range(n1)}, d)


def dense_blocks(coupling: CouplingOperator) -> np.ndarray:
    """The (n+1, n+1, d, d) block array of `coupling`, zero where no entry is listed."""
    n1, d = coupling.classical_dim, coupling.quantum_dim
    blocks = np.zeros((n1, n1, d, d), dtype=complex)
    blocks[tuple(coupling.positions.T)] = coupling.entries
    return blocks


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
