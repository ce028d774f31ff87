import math
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eeqt import cli
from eeqt.detectors import FilterSpec, NStateDetectorSpec
from eeqt import evolution
from eeqt.evolution import (
    MAX_STEPS,
    CouplingOperator,
    EvolutionConfig,
    Generator,
    TraceDriftError,
    _dense_pays,
    _dense_step,
    _integrate,
    _matrix_free_step,
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


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_hamiltonian_is_rejected_without_warning(bad, rng):
    state = random_hybrid_state(2, 2, rng)
    h = np.zeros((2, 2, 2), dtype=complex)
    h[1, 0, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="non-finite"):
            Generator.prepare([], h)
        with pytest.raises(ValueError, match="non-finite"):
            liouville_rhs(state, hamiltonian=h)


def test_generator_keeps_a_read_only_copy_of_the_hamiltonian(rng):
    h = np.stack([random_density(2, rng) for _ in range(2)])
    expected = h.copy()
    gen = Generator.prepare([], h)
    h[0, 0, 0] = 5.0
    np.testing.assert_array_equal(gen.h, expected)
    assert not gen.h.flags.writeable


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


@pytest.mark.parametrize("step, duration", [
    (1.0, MAX_STEPS + 1.0), (0.01, 1e200), (1e-200, 1.0), (5e-324, 1.0),
])
def test_config_rejects_more_than_max_steps(step, duration):
    # a step count near 1e200 would integrate without end
    with pytest.raises(ValueError, match="MAX_STEPS"):
        EvolutionConfig(step=step, duration=duration)
    assert EvolutionConfig(step=1.0, duration=float(MAX_STEPS)).n_steps == MAX_STEPS


@pytest.mark.parametrize("step, duration, every", [
    (0.01, 1.0, 1), (0.01, 1.0, 30), (0.01, 1.0, 100), (0.01, 1.0, 150), (1.0, 1.0, 1),
])
def test_config_counts_its_records(step, duration, every):
    config = EvolutionConfig(step=step, duration=duration, record_every=every)
    assert config.n_records == len(list(config.record_steps()))


def test_evolve_refuses_records_beyond_max_record_bytes(monkeypatch):
    # 101 records of 8 complex entries take 101 * 128 bytes; a run over the
    # bound is refused before any step is taken or any record allocated
    state = product_state(basis_projector(2, 0), [1.0, 0.0])
    couplings = [binary_coupling(1.0, 0.0, basis_projector(2, 0))]
    config = EvolutionConfig(step=0.01, duration=1.0)
    monkeypatch.setattr(evolution, "MAX_RECORD_BYTES", 101 * 128)
    assert len(evolve(state, couplings=couplings, config=config)) == 101
    monkeypatch.setattr(evolution, "MAX_RECORD_BYTES", 101 * 128 - 1)
    with pytest.raises(ValueError, match="MAX_RECORD_BYTES"):
        evolve(state, couplings=couplings, config=config)


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
    placed = CouplingOperator.from_entries(3, {(0, 2): e, (2, 1): 2.0 * e})
    expected = np.zeros((3, 3, 2, 2), dtype=complex)
    expected[0, 2], expected[2, 1] = e, 2.0 * e
    np.testing.assert_array_equal(placed.blocks, expected)
    empty = CouplingOperator.from_grid([[None, None], [None, None]], quantum_dim=2)
    assert empty.support() == frozenset()
    assert CouplingOperator.from_entries(2, {}, quantum_dim=3).blocks.shape == (2, 2, 3, 3)
    with pytest.raises(ValueError):
        CouplingOperator.from_grid([[None, None], [None, None]])
    with pytest.raises(ValueError):
        CouplingOperator.from_entries(2, {})
    with pytest.raises(ValueError, match="square"):
        CouplingOperator.from_grid([[None, e]])


@pytest.mark.parametrize("entries", [
    {(-1, 0): basis_projector(2, 0)},
    {(2, 0): basis_projector(2, 0)},
    {(0, 1): 2.0},
    {(0, 1): np.ones((2, 3))},
    {(0, 1): basis_projector(2, 0), (1, 0): basis_projector(3, 0)},
], ids=["negative-row", "row-past-end", "scalar", "non-square", "mismatched-dim"])
def test_from_entries_rejects_entries_outside_the_block_layout(entries):
    with pytest.raises(ValueError):
        CouplingOperator.from_entries(2, entries)


SHIPPED_CONFIGS = pathlib.Path(__file__).parents[1] / "configs"
FAMILY_CONFIGS = {path.stem: path.read_text() for path in SHIPPED_CONFIGS.glob("*.ini")}
FAMILY_CONFIGS["none"] = "[detector]\nfamily = none\ndim = 2\nclassical_dim = 3\n"


def family_system(family):
    """Generator and initial state that cli.FAMILIES builds for a config of `family`."""
    config = cli._Config()
    config.read_string(FAMILY_CONFIGS[family])
    _, system, state = cli._build_system(config)
    return Generator.prepare(system.couplings, state=state), state


def hamiltonian_system():
    """Random Hermitian Hamiltonian and random (not CP) couplings, n+1 = 3, d = 3."""
    rng = np.random.default_rng(7)
    n, d = 3, 3
    a = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    h = 0.5 * (a + a.conj().transpose(0, 2, 1))
    vs = [CouplingOperator(0.5 * (rng.normal(size=(n, n, d, d))
                                  + 1j * rng.normal(size=(n, n, d, d)))) for _ in range(2)]
    state = random_hybrid_state(n, d, rng)
    return Generator.prepare(vs, h, state), state


def reference_rk4(gen, rho, config):
    """Records of the classical RK4 loop on the unordered three-operand einsum."""
    def rhs(r):
        out = np.zeros_like(r)
        if gen.h is not None:
            out += -1j * (gen.h @ r - r @ gen.h)
        if gen.vs is not None:
            out += np.einsum("igaxm,gxz,igazw->amw", gen.vs.conj(), r, gen.vs)
            out -= 0.5 * (gen.gain @ r + r @ gen.gain)
        return out

    dt, records, done = config.step, [], 0
    for step in config.record_steps():
        for _ in range(step - done):
            k1 = rhs(rho)
            k2 = rhs(rho + 0.5 * dt * k1)
            k3 = rhs(rho + 0.5 * dt * k2)
            k4 = rhs(rho + dt * k3)
            rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        records.append(rho)
        done = step
    return np.stack(records)


# every detector family as the CLI builds it, plus a Hamiltonian case
SYSTEMS = {**{family: lambda family=family: family_system(family) for family in cli.FAMILIES},
           "hamiltonian": hamiltonian_system}


@pytest.mark.parametrize("name", SYSTEMS)
def test_liouvillian_matches_rhs(name, rng):
    gen, state = SYSTEMS[name]()
    rho = random_hybrid_state(state.classical_dim, state.quantum_dim, rng).blocks
    lv = gen.liouvillian(rho.shape)
    assert lv.shape == (rho.size, rho.size)
    np.testing.assert_allclose(lv @ rho.ravel(), gen.rhs(rho).ravel(), rtol=0, atol=1e-14)


@pytest.mark.parametrize("stepper", [_dense_step, _matrix_free_step])
@pytest.mark.parametrize("name", SYSTEMS)
def test_both_paths_match_the_reference_rk4_loop(name, stepper):
    gen, state = SYSTEMS[name]()
    config = EvolutionConfig(step=0.01, duration=2.0, record_every=10)
    traj = _integrate(stepper(gen, state.blocks.shape, config.step), state.blocks, config)
    np.testing.assert_allclose(traj.blocks, reference_rk4(gen, state.blocks, config),
                               rtol=0, atol=1e-13)
    assert traj.times.tolist() == [step * 0.01 for step in config.record_steps()]


# The large-dim benchmark shapes (family, quantum dim, channels, steps): a
# dense N x N propagator would cost more operations or memory there.
LARGE_SHAPES = [("n_state", 8, 3, 60), ("n_state", 12, 4, 20),
                ("filter", 24, 1, 30), ("filter", 36, 1, 10)]


@pytest.mark.parametrize("family, dim, channels, steps", LARGE_SHAPES)
def test_path_rule_takes_matrix_free_for_large_generators(family, dim, channels, steps):
    if family == "n_state":
        couplings = NStateDetectorSpec(1.0, tuple(basis_projector(dim, i)
                                                  for i in range(channels))).couplings()
    else:
        couplings = [FilterSpec(1.0, basis_projector(dim, 0)).coupling()]
    state = product_state(basis_projector(dim, 0), [1.0] + [0.0] * channels)
    gen = Generator.prepare(couplings, state=state)
    assert not _dense_pays(gen, state.blocks.shape, steps)


def test_path_rule_keeps_the_dense_path_under_its_memory_ceiling(monkeypatch):
    # n_state, d = 12, 11 channels, 1000 steps: N = 1728, where T4 costs fewer
    # operations, but its three N x N arrays would take about 137 MiB
    dim, channels, steps = 12, 11, 1000
    couplings = NStateDetectorSpec(1.0, tuple(basis_projector(dim, i)
                                              for i in range(channels))).couplings()
    state = product_state(basis_projector(dim, 0), [1.0] + [0.0] * channels)
    gen = Generator.prepare(couplings, state=state)
    assert not _dense_pays(gen, state.blocks.shape, steps)
    monkeypatch.setattr(evolution, "DENSE_MEMORY_CEILING", math.inf)
    assert _dense_pays(gen, state.blocks.shape, steps)


@pytest.mark.parametrize("path", sorted(SHIPPED_CONFIGS.glob("*.ini")), ids=lambda p: p.stem)
def test_path_rule_takes_the_propagator_for_shipped_configs(path):
    _, _, system, state, config = cli._load_system(str(path))
    gen = Generator.prepare(system.couplings, state=state)
    assert _dense_pays(gen, state.blocks.shape, config.n_steps)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_integration_stops_at_the_first_non_finite_record(bad):
    # an off-diagonal entry leaves the trace alone; it must still be caught
    state = product_state(basis_projector(2, 0), [1.0, 0.0])
    calls = []

    def advance(v):
        calls.append(v)
        v = v.copy()
        if len(calls) == 3:
            v[1] = bad  # block 0, row 0, column 1
        return v

    with np.errstate(invalid="ignore"), pytest.raises(TraceDriftError, match="t=0.3"):
        _integrate(advance, state.blocks, EvolutionConfig(step=0.1, duration=100.0))
    assert len(calls) == 3
