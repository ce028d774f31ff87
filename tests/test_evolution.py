import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eeqt.evolution import (
    CouplingOperator,
    EvolutionConfig,
    TraceDriftError,
    check_cp_conditions,
    classical_rate_equations,
    evolve,
    liouville_rhs,
    trajectory_rows,
)
from eeqt.states import (
    HybridState,
    basis_projector,
    product_state,
    random_projector,
    validate_state,
)

from conftest import random_density, random_hybrid_state


def binary_coupling(k1, k2, e):
    d = e.shape[0]
    blocks = np.zeros((2, 2, d, d), dtype=complex)
    blocks[0, 1] = k1 * e
    blocks[1, 0] = k2 * e
    return CouplingOperator(blocks)


def test_rhs_free_case_is_zero(rng):
    state = random_hybrid_state(2, 3, rng)
    rhs = liouville_rhs(state, hamiltonian=np.zeros((2, 3, 3)), couplings=[])
    np.testing.assert_array_equal(rhs, np.zeros_like(state.blocks))


def test_rhs_binary_gain_only_block_traces(rng):
    # hand-expanded oracle for the one-way coupling (upper block k1*e only):
    # dp0/dt = -k1^2 tr(e rho_q), dp1/dt = +k1^2 tr(e rho_q)
    k1 = 0.7
    e = random_projector(3, rng)
    rho_q = random_density(3, rng)
    state = HybridState(np.stack([rho_q, np.zeros((3, 3), dtype=complex)]))
    rhs = liouville_rhs(state, couplings=[binary_coupling(k1, 0.0, e)])
    expected = k1 ** 2 * np.trace(e @ rho_q).real
    assert np.trace(rhs[0]).real == pytest.approx(-expected, abs=1e-12)
    assert np.trace(rhs[1]).real == pytest.approx(expected, abs=1e-12)


@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 3), st.integers(2, 3))
@settings(max_examples=50)
def test_rhs_conserves_total_trace(seed, n_classical, dim):
    # probability conservation holds for arbitrary couplings, CP or not
    rng = np.random.default_rng(seed)
    state = random_hybrid_state(n_classical, dim, rng)
    vs = [CouplingOperator(rng.normal(size=(n_classical, n_classical, dim, dim))
                           + 1j * rng.normal(size=(n_classical, n_classical, dim, dim)))
          for _ in range(2)]
    h = np.stack([random_density(dim, rng) for _ in range(n_classical)])
    rhs = liouville_rhs(state, hamiltonian=h, couplings=vs)
    total = sum(np.trace(rhs[a]) for a in range(n_classical))
    assert abs(total) < 1e-12


def test_rhs_dimension_mismatch(rng):
    state = random_hybrid_state(2, 2, rng)
    with pytest.raises(ValueError):
        liouville_rhs(state, hamiltonian=np.zeros((3, 2, 2)))
    with pytest.raises(ValueError):
        liouville_rhs(state, couplings=[binary_coupling(1.0, 0.0, np.eye(3))])


def test_evolve_constant_without_couplings(rng):
    state = random_hybrid_state(2, 2, rng)
    traj = evolve(state, config=EvolutionConfig(step=0.1, duration=1.0))
    assert len(traj) == 11
    for k in range(len(traj)):
        np.testing.assert_allclose(traj.blocks[k], state.blocks, atol=1e-14)


def test_evolve_binary_matches_exponential_saturation():
    e = basis_projector(2, 0)
    state = product_state(e, [1.0, 0.0])
    traj = evolve(state, couplings=[binary_coupling(1.0, 0.0, e)],
                  config=EvolutionConfig(step=0.01, duration=2.0, record_every=50))
    probs = traj.probabilities()
    for t, p1 in zip(traj.times, probs[:, 1]):
        assert p1 == pytest.approx(1.0 - math.exp(-t), abs=1e-6)


def test_evolve_n_state_matches_appendix_closed_form():
    # common-rate couplings sqrt(k) e_i in blocks (0, i); aligned channel 0
    k = 1.0
    d, n = 3, 2
    couplings = []
    for i in range(n):
        blocks = np.zeros((n + 1, n + 1, d, d), dtype=complex)
        blocks[0, i + 1] = math.sqrt(k) * basis_projector(d, i)
        couplings.append(CouplingOperator(blocks))
    state = product_state(basis_projector(d, 0), [1.0] + [0.0] * n)
    traj = evolve(state, couplings=couplings,
                  config=EvolutionConfig(step=0.01, duration=3.0, record_every=50))
    probs = traj.probabilities()
    for t, row in zip(traj.times, probs):
        assert row[0] == pytest.approx(math.exp(-k * t), abs=1e-6)
        assert row[1] == pytest.approx(1.0 - math.exp(-k * t), abs=1e-6)
        assert abs(row[2]) < 1e-12


def test_evolve_first_entry_is_initial_state(rng):
    state = random_hybrid_state(2, 2, rng)
    traj = evolve(state, couplings=[binary_coupling(0.5, 0.5, basis_projector(2, 0))],
                  config=EvolutionConfig(step=0.05, duration=1.0))
    np.testing.assert_array_equal(traj.blocks[0], state.blocks)
    assert traj.times[0] == 0.0
    assert all(validate_state(traj.state(k)).ok for k in range(len(traj)))


@pytest.mark.parametrize("step, duration", [
    (0.1, math.inf), (math.inf, 1.0), (0.1, math.nan), (math.nan, 1.0),
    (0.7, 1.0), (0.3, 1.0),
])
def test_config_rejects_a_step_grid_that_misses_the_duration(step, duration):
    # a non-finite value or a duration the step does not divide would end the
    # run early, late or never
    with pytest.raises(ValueError):
        EvolutionConfig(step=step, duration=duration)


def test_config_accepts_whole_multiples_up_to_rounding():
    # 0.12 / 0.002 is 59.99999999999999 in floating point
    state = product_state(basis_projector(2, 0), [1.0, 0.0])
    traj = evolve(state, config=EvolutionConfig(step=0.002, duration=0.12, record_every=60))
    assert traj.times.tolist() == [0.0, 60 * 0.002]


def test_evolve_trace_drift_guard_fires():
    # a deliberately huge step makes RK4 blow up and the guard must notice
    e = basis_projector(2, 0)
    state = product_state(e, [1.0, 0.0])
    coupling = binary_coupling(4.0, 0.0, e)
    with pytest.raises(TraceDriftError):
        evolve(state, couplings=[coupling],
               config=EvolutionConfig(step=2.0, duration=20.0))


def test_evolve_rejects_cp_violating_coupling():
    e = basis_projector(2, 0)
    blocks = np.zeros((2, 2, 2, 2), dtype=complex)
    blocks[:, :] = e  # all four blocks equal: fails the structural check
    state = product_state(e, [1.0, 0.0])
    with pytest.raises(ValueError, match="CP"):
        evolve(state, couplings=[CouplingOperator(blocks)],
               config=EvolutionConfig(step=0.01, duration=1.0))


def test_step_halving_convergence():
    # halving the step moves recorded probabilities by far less than 1e-8
    e = basis_projector(2, 0)
    state = product_state(e, [1.0, 0.0])
    coupling = binary_coupling(1.0, 1.0, e)
    coarse = evolve(state, couplings=[coupling],
                    config=EvolutionConfig(step=0.005, duration=4.0, record_every=8))
    fine = evolve(state, couplings=[coupling],
                  config=EvolutionConfig(step=0.0025, duration=4.0, record_every=16))
    np.testing.assert_allclose(coarse.times, fine.times, atol=1e-12)
    assert np.max(np.abs(coarse.probabilities() - fine.probabilities())) <= 1e-8


def test_cp_check_passes_antidiagonal_coupling(rng):
    report = check_cp_conditions([binary_coupling(1.0, 2.0, random_projector(2, rng))])
    assert report.ok
    assert report.gain_offdiag <= 1e-10
    assert report.sandwich_offdiag <= 1e-10


def test_cp_check_fails_full_block_matrix(rng):
    e = random_projector(2, rng)
    blocks = np.empty((2, 2, 2, 2), dtype=complex)
    blocks[:, :] = e
    report = check_cp_conditions([CouplingOperator(blocks)])
    assert not report.ok
    checks = {v[0] for v in report.violations}
    assert "gain" in checks
    # the report names the violating off-diagonal block
    assert any(v[2] != v[3] for v in report.violations)
    assert "worst" in report.summary()


def test_cp_check_empty_couplings():
    assert check_cp_conditions([]).ok


def test_cp_check_sandwich_violation_with_clean_gain(rng):
    # two entries in the same block row pass the gain check (the other row is
    # empty) but leak into the off-diagonal block of the sandwich; probes are
    # accepted and ignored
    e0 = basis_projector(2, 0)
    blocks = np.zeros((2, 2, 2, 2), dtype=complex)
    blocks[0, 0] = e0
    blocks[0, 1] = e0
    report = check_cp_conditions([CouplingOperator(blocks)],
                                 probes=[random_hybrid_state(2, 2, rng)])
    assert not report.ok
    assert all(v[0] == "sandwich" for v in report.violations)


@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 4), st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_exact_cp_check_matches_brute_force_sandwich(seed, n, d):
    # oracle: form Vi* A Vi as dense (n d) x (n d) matrices for random
    # block-diagonal A with unit-norm blocks; generic A exposes every leak
    rng = np.random.default_rng(seed)
    couplings = []
    for _ in range(rng.integers(1, 3)):
        mask = rng.random((n, n)) < 0.35
        blocks = rng.normal(size=(n, n, d, d)) + 1j * rng.normal(size=(n, n, d, d))
        couplings.append(CouplingOperator(blocks * mask[:, :, None, None]))
    report = check_cp_conditions(couplings)

    leaks, worst = set(), 0.0
    for _ in range(3):
        a = np.zeros((n * d, n * d), dtype=complex)
        for g in range(n):
            block = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            a[g * d:(g + 1) * d, g * d:(g + 1) * d] = block / np.linalg.norm(block)
        for i, v in enumerate(couplings):
            dense = v.blocks.transpose(0, 2, 1, 3).reshape(n * d, n * d)
            sandwich = dense.conj().T @ a @ dense
            for alpha in range(n):
                for beta in range(n):
                    if alpha == beta:
                        continue
                    mag = np.abs(sandwich[alpha * d:(alpha + 1) * d,
                                          beta * d:(beta + 1) * d]).max()
                    worst = max(worst, mag)
                    if mag > report.tol:
                        leaks.add((i, alpha, beta))
    assert {v[1:4] for v in report.violations if v[0] == "sandwich"} == leaks
    assert worst <= report.sandwich_offdiag * (1 + 1e-12)


def test_rate_equations_match_hand_expansion(rng):
    # binary detector with zeros on the diagonal:
    # dp0/dt = k2^2 tr(e rho_1) - k1^2 tr(e rho_0) and dp1/dt the negative
    k1, k2 = 0.8, 1.3
    e = random_projector(3, rng)
    state = random_hybrid_state(2, 3, rng)
    rates = classical_rate_equations(state, [binary_coupling(k1, k2, e)])
    expected0 = (k2 ** 2 * np.trace(e @ state.blocks[1]).real
                 - k1 ** 2 * np.trace(e @ state.blocks[0]).real)
    assert rates[0] == pytest.approx(expected0, abs=1e-12)
    assert rates[1] == pytest.approx(-expected0, abs=1e-12)


def test_rate_equations_antidiagonal_traces_balance_exactly(rng):
    state = random_hybrid_state(2, 2, rng)
    rhs = liouville_rhs(state, couplings=[binary_coupling(1.0, 0.5,
                                                          random_projector(2, rng))])
    # the identity is exact; the two traces go through different einsum
    # contractions, so allow the last ulp
    assert np.trace(rhs[0]).real == pytest.approx(-np.trace(rhs[1]).real,
                                                  abs=1e-15, rel=1e-15)


@pytest.mark.parametrize("positions,frozen_index", [
    ({(0, 1), (1, 0)}, 2),   # exchange between events 0 and 1 leaves p2 alone
    ({(0, 2), (2, 0)}, 1),   # exchange between events 0 and 2 leaves p1 alone
])
def test_rate_equations_frozen_component(positions, frozen_index, rng):
    d = 3
    blocks = np.zeros((3, 3, d, d), dtype=complex)
    for a, b in positions:
        blocks[a, b] = random_projector(d, rng)
    state = random_hybrid_state(3, d, rng)
    rates = classical_rate_equations(state, [CouplingOperator(blocks)])
    assert abs(rates[frozen_index]) < 1e-12
    assert abs(rates.sum()) < 1e-12


def test_rate_equations_equal_block_traces_of_rhs(rng):
    state = random_hybrid_state(3, 2, rng)
    couplings = [CouplingOperator(rng.normal(size=(3, 3, 2, 2))
                                  + 1j * rng.normal(size=(3, 3, 2, 2)))]
    rates = classical_rate_equations(state, couplings)
    rhs = liouville_rhs(state, couplings=couplings)
    np.testing.assert_allclose(rates, np.trace(rhs, axis1=1, axis2=2).real,
                               atol=1e-12)


def test_marginal_consistency_along_trajectory():
    # central finite differences of p(t) reproduce the rate equations to
    # integrator order
    e = basis_projector(2, 0)
    state = product_state(e, [1.0, 0.0])
    coupling = binary_coupling(1.0, 0.7, e)
    h = 0.01
    traj = evolve(state, couplings=[coupling],
                  config=EvolutionConfig(step=h, duration=2.0))
    probs = traj.probabilities()
    for k in range(1, len(traj) - 1):
        fd = (probs[k + 1] - probs[k - 1]) / (2.0 * h)
        rates = classical_rate_equations(traj.state(k), [coupling])
        np.testing.assert_allclose(fd, rates, atol=5.0 * h ** 2)


def test_trajectory_rows_shape_and_drift():
    e = basis_projector(2, 0)
    state = product_state(e, [1.0, 0.0])
    traj = evolve(state, couplings=[binary_coupling(1.0, 1.0, e)],
                  config=EvolutionConfig(step=0.01, duration=1.0, record_every=20))
    rows = list(trajectory_rows(traj))
    assert len(rows) == len(traj)
    for t, p0, p1, drift, min_eig in rows:
        assert p0 + p1 == pytest.approx(1.0, abs=1e-9)
        assert drift <= 1e-8
        assert min_eig >= -1e-7


def test_coupling_from_grid_and_support():
    e = basis_projector(2, 0)
    coupling = CouplingOperator.from_grid([[None, e], [2.0 * e, None]])
    assert coupling.support() == {(0, 1), (1, 0)}
    empty = CouplingOperator.from_grid([[None, None], [None, None]], quantum_dim=2)
    assert empty.support() == frozenset()
    with pytest.raises(ValueError):
        CouplingOperator.from_grid([[None, None], [None, None]])
