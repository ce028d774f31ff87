"""Shared helpers for the test suite."""

import pathlib

import numpy as np
import pytest

from eeqt import detectors
from eeqt.evolution import CouplingOperator
from eeqt.limits import check_signal, signal_entries
from eeqt.states import HybridState, product_state


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


def config_system(text: str) -> tuple:
    """Numpy couplings, initial state and EvolutionConfig of the config `text`, for ``evolve``.

    One CouplingOperator per coupling of the family's table, each block the
    diagonal matrix of its entries; the state is the product of the checked
    signal with p = (1, 0, ...), as ``simulate`` propagates it.
    """
    config = detectors._Config()
    config.read_string(text)
    _, dim, family = detectors._read_family(config)
    check_signal(dim, family.classical_dim, family.weights, family.coherences)
    rho_q = np.zeros((dim, dim), dtype=complex)
    for pos, value in signal_entries(family.weights, family.coherences).items():
        rho_q[pos] = value
    state = product_state(rho_q, np.eye(family.classical_dim)[0])
    couplings = table_couplings(family.couplings, family.classical_dim, dim)
    return couplings, state, detectors._evolution_config(config)


def table_couplings(table, classical_dim: int, dim: int) -> list:
    """One CouplingOperator per coupling of a ``sectors`` coupling table, of diagonal blocks."""
    return [CouplingOperator.from_entries(
        classical_dim,
        {pos: np.diag([entries.get(m, 0.0) for m in range(dim)]) for pos, entries in coupling},
        dim) for coupling in table]


def load_system(path) -> tuple:
    """``config_system`` of the config file at `path`."""
    return config_system(pathlib.Path(path).read_text())


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
