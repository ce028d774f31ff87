import math
import pathlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eeqt.detectors import FAMILIES
from eeqt.specs import FilterSpec, NStateDetectorSpec
from eeqt import evolution, limits
from eeqt.evolution import (
    BLOCK_ZERO_TOL,
    MAX_STEPS,
    CouplingOperator,
    EvolutionConfig,
    Generator,
    TraceDriftError,
    _dense_pays,
    _record,
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

from conftest import (config_system, coupling_from_blocks, dense_blocks, load_system,
                      random_density, random_hybrid_state)
from test_exact_propagator import exact_records


def binary_coupling(k1, k2, e):
    d = e.shape[0]
    blocks = np.zeros((2, 2, d, d), dtype=complex)
    blocks[0, 1] = k1 * e
    blocks[1, 0] = k2 * e
    return coupling_from_blocks(blocks)


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
    vs = [coupling_from_blocks(rng.normal(size=(n_classical, n_classical, dim, dim))
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
    expected = -1j * h
    gen = Generator.prepare([], h)
    h[0, 0, 0] = 5.0
    np.testing.assert_array_equal(gen.k, expected)
    assert not gen.k.flags.writeable
    assert gen.v.shape == (0, 2, 2) and gen.index.shape == (3, 0)
    assert not gen.v.flags.writeable and not gen.index.flags.writeable


def test_generator_refuses_disagreeing_shapes():
    # an H of one block must not be broadcast over two-event couplings
    couplings = [binary_coupling(1.0, 0.5, basis_projector(2, 0))]
    with pytest.raises(ValueError, match="disagree"):
        Generator.prepare(couplings, np.zeros((1, 2, 2)))
    with pytest.raises(ValueError, match="disagree"):
        Generator.prepare(couplings + [binary_coupling(1.0, 0.5, basis_projector(3, 0))])
    with pytest.raises(ValueError, match="none of them"):
        Generator.prepare()


def dense_stack_reference(couplings, hamiltonian, n1, d):
    """rhs, Liouvillian and CP report from the dense (m, n+1, n+1, d, d) stack of every block.

    The formulas the gathered stack replaced: the gain is one einsum over all
    blocks, the sandwich two batched products per block, L one einsum, and
    the CP check reads the block norms of every coupling.
    """
    vs = np.array([dense_blocks(c) for c in couplings], dtype=complex).reshape(-1, n1, n1, d, d)
    k = -0.5 * np.einsum("iagxz,iagwz->axw", vs, vs.conj())
    if hamiltonian is not None:
        k = k - 1j * hamiltonian

    def rhs(rho):
        sandwich = (vs.conj().swapaxes(-1, -2) @ rho[None, :, None] @ vs).sum(axis=(0, 1))
        return k @ rho + rho @ k.conj().swapaxes(-1, -2) + sandwich

    size = n1 * d * d
    lv = np.einsum("igaxm,igazw->amwgxz", vs.conj(), vs).reshape(size, size)
    for a in range(n1):
        lv.reshape(n1, d * d, n1, d * d)[a, :, a] += (np.kron(k[a], np.eye(d))
                                                      + np.kron(np.eye(d), k[a].conj()))
    offdiag = ~np.eye(n1, dtype=bool)
    gain = np.abs(np.einsum("iagxz,ibgwz->abxw", vs, vs.conj())).max(axis=(2, 3))
    norms = np.linalg.norm(vs, axis=(3, 4))
    leak = np.einsum("iga,igb->iab", norms, norms)
    violations = ([("gain", None, a, b, gain[a, b])
                   for a, b in zip(*np.nonzero((gain > BLOCK_ZERO_TOL) & offdiag))]
                  + [("sandwich", i, a, b, leak[i, a, b])
                     for i, a, b in zip(*np.nonzero((leak > BLOCK_ZERO_TOL) & offdiag))])
    return rhs, lv, (gain[offdiag].max(initial=0.0), leak[:, offdiag].max(initial=0.0),
                     violations)


def random_couplings(rng, m, n1, d):
    """m couplings whose blocks are each nonzero with probability 1/2."""
    return [coupling_from_blocks((rng.normal(size=(n1, n1, d, d))
                                  + 1j * rng.normal(size=(n1, n1, d, d)))
                                 * (rng.random((n1, n1)) < 0.5)[:, :, None, None])
            for _ in range(m)]


GATHER_CASES = {
    **{f"random-{seed}": lambda rng, seed=seed: random_couplings(
        np.random.default_rng(seed), 1 + seed % 3, 2 + seed % 3, 1 + seed % 3)
       for seed in range(6)},
    "all-zero-coupling": lambda rng: [CouplingOperator.from_entries(2, {}, quantum_dim=3)],
    "zero-and-random": lambda rng: ([CouplingOperator.from_entries(3, {}, quantum_dim=2)]
                                    + random_couplings(rng, 2, 3, 2)),
    "no-couplings": lambda rng: [],
    "tiny-entry": lambda rng: [tiny_entry_coupling()],
}


@pytest.mark.parametrize("with_h", [False, True], ids=["no-H", "H"])
@pytest.mark.parametrize("case", GATHER_CASES)
def test_gathered_stack_matches_the_dense_stack(case, with_h, rng):
    couplings = GATHER_CASES[case](rng)
    n1, d = (couplings[0].classical_dim, couplings[0].quantum_dim) if couplings else (2, 3)
    h = None
    if with_h or not couplings:
        a = rng.normal(size=(n1, d, d)) + 1j * rng.normal(size=(n1, d, d))
        h = a + a.conj().transpose(0, 2, 1)
    gen = Generator.prepare(couplings, h, random_hybrid_state(n1, d, rng))
    rhs, lv, (gain_offdiag, sandwich_offdiag, violations) = dense_stack_reference(
        couplings, h, n1, d)
    nonzero = [(i, g, a) for i, c in enumerate(couplings)
               for g in range(n1) for a in range(n1) if dense_blocks(c)[g, a].any()]
    assert sorted(map(tuple, gen.index.T.tolist())) == nonzero
    assert gen.v.shape == (len(nonzero), d, d) and not gen.v.flags.writeable
    rho = random_hybrid_state(n1, d, rng).blocks
    np.testing.assert_allclose(gen.rhs(rho), rhs(rho), rtol=0, atol=1e-12)
    np.testing.assert_allclose(gen.liouvillian(), lv, rtol=0, atol=1e-12)
    report = gen.cp_report()
    assert [v[:4] for v in report.violations] == [v[:4] for v in violations]
    np.testing.assert_allclose([v[4] for v in report.violations],
                               [v[4] for v in violations], rtol=1e-12)
    assert report.gain_offdiag == pytest.approx(gain_offdiag, rel=1e-12, abs=1e-15)
    assert report.sandwich_offdiag == pytest.approx(sandwich_offdiag, rel=1e-12, abs=1e-15)


def test_random_gather_cases_sum_repeated_targets():
    # two gathered blocks with one column alpha add into one rhs block
    columns = [np.unique(Generator.prepare(GATHER_CASES[case](None)).index[2],
                         return_counts=True)[1].max()
               for case in GATHER_CASES if case.startswith("random")]
    assert max(columns) >= 3


def tiny_entry_coupling():
    """A coupling whose block (1, 0) has one nonzero entry, 1e-300."""
    e = np.zeros((2, 2))
    e[1, 0] = 1e-300
    return CouplingOperator.from_entries(2, {(0, 1): basis_projector(2, 0), (1, 0): e})


def test_a_block_with_one_tiny_entry_is_gathered():
    # nonzero means != 0, not above PATTERN_ZERO_TOL: 1e-300 is gathered
    coupling = tiny_entry_coupling()
    e = dense_blocks(coupling)[1, 0]
    assert coupling.support() == {(0, 1)}
    gen = Generator.prepare([coupling])
    assert gen.index.T.tolist() == [[0, 1, 0], [0, 0, 1]]
    np.testing.assert_array_equal(gen.v, [e, basis_projector(2, 0)])


def test_generator_refuses_a_coupling_too_large_to_square():
    coupling = CouplingOperator.from_entries(2, {(0, 1): 1e200 * basis_projector(2, 0)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="not finite"):
            Generator.prepare([coupling])


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
        couplings.append(coupling_from_blocks(blocks))
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
    (0.0025, 5.0, 7), (0.005, 10.0, 50),
])
def test_config_counts_its_records(step, duration, every):
    config = EvolutionConfig(step=step, duration=duration, record_every=every)
    steps = np.array([*range(0, config.n_steps, every), config.n_steps], dtype=np.int64)
    assert config.n_records == len(steps)
    assert config.record_times() == (steps * step).tolist()  # bit for bit, without numpy


def test_config_refuses_a_record_every_that_is_not_an_integer():
    # read with operator.index, so 2.5 fails here and not later in n_records
    with pytest.raises(TypeError):
        EvolutionConfig(step=0.1, duration=1.0, record_every=2.5)
    config = EvolutionConfig(step=0.1, duration=1.0, record_every=np.int64(2))
    assert type(config.record_every) is int and config.n_records == 6


@pytest.mark.parametrize("tol", [math.nan, -1e-8, -math.inf])
def test_config_refuses_a_nan_or_negative_trace_tol(tol):
    # with such a tolerance every record would count as drifting
    with pytest.raises(ValueError, match="trace_tol"):
        EvolutionConfig(step=0.1, duration=1.0, trace_tol=tol)


def test_evolve_refuses_records_beyond_max_record_bytes(monkeypatch):
    # 101 records of 8 complex entries take 101 * 128 bytes; a run over the
    # bound is refused before any step is taken or any record allocated
    state = product_state(basis_projector(2, 0), [1.0, 0.0])
    couplings = [binary_coupling(1.0, 0.0, basis_projector(2, 0))]
    config = EvolutionConfig(step=0.01, duration=1.0)
    monkeypatch.setattr(limits, "MAX_RECORD_BYTES", 101 * 128)
    assert len(evolve(state, couplings=couplings, config=config)) == 101
    monkeypatch.setattr(limits, "MAX_RECORD_BYTES", 101 * 128 - 1)
    with pytest.raises(ValueError, match="MAX_RECORD_BYTES"):
        evolve(state, couplings=couplings, config=config)


def test_evolve_refuses_a_matrix_free_run_beyond_max_steps_substeps(monkeypatch):
    # A Hamiltonian 1e8 (|0><1| + |1><0|) in each block of a filter at d = 24:
    # N = 2 * 24^2 = 1152 is above the dense memory ceiling, and the norm of
    # L is bounded by 2 ||K||_F + k, about 2.83e8, so one unit of time would
    # take 2.83e8 series substeps.  The run is refused before any rhs call.
    calls = []
    rhs = Generator.rhs

    def counted(gen, rho):
        calls.append(rho)
        return rhs(gen, rho)

    monkeypatch.setattr(Generator, "rhs", counted)
    d = 24
    hamiltonian = np.zeros((2, d, d))
    hamiltonian[:, 0, 1] = hamiltonian[:, 1, 0] = 1e8
    e = basis_projector(d, 0)
    state = product_state(e, [1.0, 0.0])
    with pytest.raises(ValueError, match=r"^2\.83e\+08 series substeps exceed the limit of "
                                         r"10000000 \(MAX_STEPS\); shorten the duration$"):
        evolve(state, hamiltonian, [FilterSpec(1.0, e).coupling()],
               config=EvolutionConfig(step=1.0, duration=1.0))
    assert calls == []


def test_config_accepts_whole_multiples_up_to_rounding():
    # 0.12 / 0.002 is 59.99999999999999 in floating point
    state = product_state(basis_projector(2, 0), [1.0, 0.0])
    traj = evolve(state, config=EvolutionConfig(step=0.002, duration=0.12, record_every=60))
    assert traj.times.tolist() == [0.0, 60 * 0.002]


def test_evolve_trace_drift_guard_fires(monkeypatch):
    # a record propagator that adds half of each record to it makes the trace
    # 1.5 at the first record, and the guard must notice
    monkeypatch.setattr(evolution, "_propagator", lambda lv, tau: 0.5 * np.eye(len(lv)))
    e = basis_projector(2, 0)
    state = product_state(e, [1.0, 0.0])
    coupling = binary_coupling(4.0, 0.0, e)
    with pytest.raises(TraceDriftError, match="drift 0.5 at t=2 "):
        evolve(state, couplings=[coupling],
               config=EvolutionConfig(step=2.0, duration=20.0))


def test_evolve_rejects_cp_violating_coupling():
    e = basis_projector(2, 0)
    blocks = np.zeros((2, 2, 2, 2), dtype=complex)
    blocks[:, :] = e  # all four blocks equal: fails the structural check
    state = product_state(e, [1.0, 0.0])
    with pytest.raises(ValueError, match="CP"):
        evolve(state, couplings=[coupling_from_blocks(blocks)],
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
    report = check_cp_conditions([coupling_from_blocks(blocks)])
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
    report = check_cp_conditions([coupling_from_blocks(blocks)],
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
        couplings.append(coupling_from_blocks(blocks * mask[:, :, None, None]))
    report = check_cp_conditions(couplings)

    leaks, worst = set(), 0.0
    for _ in range(3):
        a = np.zeros((n * d, n * d), dtype=complex)
        for g in range(n):
            block = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            a[g * d:(g + 1) * d, g * d:(g + 1) * d] = block / np.linalg.norm(block)
        for i, v in enumerate(couplings):
            dense = dense_blocks(v).transpose(0, 2, 1, 3).reshape(n * d, n * d)
            sandwich = dense.conj().T @ a @ dense
            for alpha in range(n):
                for beta in range(n):
                    if alpha == beta:
                        continue
                    mag = np.abs(sandwich[alpha * d:(alpha + 1) * d,
                                          beta * d:(beta + 1) * d]).max()
                    worst = max(worst, mag)
                    if mag > BLOCK_ZERO_TOL:
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
    rates = classical_rate_equations(state, [coupling_from_blocks(blocks)])
    assert abs(rates[frozen_index]) < 1e-12
    assert abs(rates.sum()) < 1e-12


def test_rate_equations_equal_block_traces_of_rhs(rng):
    state = random_hybrid_state(3, 2, rng)
    couplings = [coupling_from_blocks(rng.normal(size=(3, 3, 2, 2))
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


def test_trajectory_rows_is_one_array_of_the_trajectory_columns():
    spec = NStateDetectorSpec(1.0, tuple(basis_projector(3, i) for i in range(2)))
    state = product_state(random_density(3, np.random.default_rng(5)), [1.0, 0.0, 0.0])
    traj = evolve(state, couplings=spec.couplings(),
                  config=EvolutionConfig(step=0.01, duration=0.5, record_every=3))
    rows = trajectory_rows(traj)
    # t, three probabilities (n = 2), trace_drift and min_eigenvalue
    assert isinstance(rows, np.ndarray) and rows.shape == (len(traj), 2 + 4)
    np.testing.assert_array_equal(rows[:, 0], traj.times)
    np.testing.assert_array_equal(rows[:, 1:4], traj.probabilities())
    np.testing.assert_array_equal(rows[:, 4], traj.trace_drift())
    np.testing.assert_array_equal(rows[:, 5], traj.min_eigenvalues())


def test_coupling_from_entries_and_support():
    e = basis_projector(2, 0)
    placed = CouplingOperator.from_entries(3, {(2, 1): 2.0 * e, (0, 2): e})
    assert placed.support() == {(0, 2), (2, 1)}
    # row-major (gamma, alpha) order, whatever the order of the mapping
    assert placed.positions.tolist() == [[0, 2], [2, 1]]
    np.testing.assert_array_equal(placed.entries, [e, 2.0 * e])
    assert not placed.positions.flags.writeable and not placed.entries.flags.writeable
    expected = np.zeros((3, 3, 2, 2), dtype=complex)
    expected[0, 2], expected[2, 1] = e, 2.0 * e
    np.testing.assert_array_equal(dense_blocks(placed), expected)
    empty = CouplingOperator.from_entries(2, {}, quantum_dim=3)
    assert empty.support() == frozenset()
    assert empty.positions.shape == (0, 2) and empty.entries.shape == (0, 3, 3)
    assert (empty.classical_dim, empty.quantum_dim) == (2, 3)
    with pytest.raises(ValueError, match="quantum_dim"):
        CouplingOperator.from_entries(2, {})
    with pytest.raises(ValueError, match="outside"):
        CouplingOperator.from_entries(2, {(0, 2): e})


@pytest.mark.parametrize("args, error", [
    ((0, {}, 2), ValueError),
    ((2, {}, 0), ValueError),
    ((2, {(0.5, 1): basis_projector(2, 0)}, None), TypeError),
    ((2.0, {(0, 1): basis_projector(2, 0)}, None), TypeError),
], ids=["no-classical-events", "zero-quantum-dim", "fractional-position", "float-classical-dim"])
def test_from_entries_refuses_dimensions_and_positions_that_are_not_counts(args, error):
    with pytest.raises(error):
        CouplingOperator.from_entries(*args)


def test_only_exact_zeros_are_left_out_of_the_gather():
    # 1e-13 is below PATTERN_ZERO_TOL, so it is not in the support, but it
    # is != 0 and is gathered; an entry that is exactly zero is in neither
    e = basis_projector(2, 0)
    coupling = CouplingOperator.from_entries(3, {(0, 1): e, (1, 2): 1e-13 * e, (2, 0): 0 * e})
    assert coupling.support() == {(0, 1)}
    gen = Generator.prepare([coupling])
    assert gen.index.T.tolist() == [[0, 0, 1], [0, 1, 2]]
    np.testing.assert_array_equal(gen.v, [e, 1e-13 * e])


def dense_gather(couplings, d):
    """(index, v) as the gather over dense (n+1, n+1, d, d) blocks formed them.

    Each coupling's blocks with an entry != 0 in row-major order, couplings
    in turn, then sorted stably by alpha: the oracle for the order and the
    bits of ``Generator.prepare``'s stack.
    """
    blocks = [dense_blocks(c) for c in couplings]
    index = sorted(((i, g, a) for i, b in enumerate(blocks)
                    for g, a in zip(*np.nonzero(b.any(axis=(2, 3))))),
                   key=lambda entry: entry[2])
    v = np.array([blocks[i][g, a] for i, g, a in index], complex).reshape(-1, d, d)
    return np.array(index, dtype=np.intp).reshape(-1, 3).T.copy(), v


def random_pattern_couplings(rng, n1, d, cp):
    """One to three couplings with random entries, a fifth of them exactly zero.

    With `cp` each coupling is a partial permutation (at most one entry in
    each block row and column), which passes the CP check; otherwise each
    block is listed with probability 1/2.
    """
    couplings = []
    for _ in range(rng.integers(1, 4)):
        if cp:
            rows = rng.permutation(n1)[:rng.integers(0, n1 + 1)]
            positions = zip(rows.tolist(), rng.permutation(n1)[:len(rows)].tolist())
        else:
            positions = [(g, a) for g in range(n1) for a in range(n1) if rng.random() < 0.5]
        entries = {pos: (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
                   * (rng.random() < 0.8) for pos in positions}
        couplings.append(CouplingOperator.from_entries(n1, entries, d))
    return couplings


@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 4), st.integers(1, 3), st.booleans())
@settings(max_examples=100, deadline=None)
def test_gather_equals_the_dense_gather_bit_for_bit(seed, n1, d, cp):
    couplings = random_pattern_couplings(np.random.default_rng(seed), n1, d, cp)
    gen = Generator.prepare(couplings)
    index, v = dense_gather(couplings, d)
    assert gen.index.dtype == index.dtype and gen.index.shape == index.shape
    np.testing.assert_array_equal(gen.index, index)
    assert gen.v.shape == v.shape and gen.v.tobytes() == v.tobytes()
    assert gen.cp_report().ok or not cp


def test_random_patterns_include_cp_violations():
    reports = [Generator.prepare(random_pattern_couplings(np.random.default_rng(seed), 3, 2,
                                                          False)).cp_report().ok
               for seed in range(10)]
    assert not all(reports)


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
    """Generator, initial state, Hamiltonian (None) and couplings that
    detectors.FAMILIES builds for a config of `family`."""
    couplings, state, _ = config_system(FAMILY_CONFIGS[family])
    return Generator.prepare(couplings, state=state), state, None, couplings


def hamiltonian_system():
    """Random Hermitian Hamiltonian and random (not CP) couplings, n+1 = 3, d = 3."""
    rng = np.random.default_rng(7)
    n, d = 3, 3
    a = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    h = 0.5 * (a + a.conj().transpose(0, 2, 1))
    vs = [coupling_from_blocks(0.5 * (rng.normal(size=(n, n, d, d))
                                      + 1j * rng.normal(size=(n, n, d, d)))) for _ in range(2)]
    state = random_hybrid_state(n, d, rng)
    return Generator.prepare(vs, h, state), state, h, vs


def reference_exact(hamiltonian, couplings, rho, config):
    """Records e^{tL} rho on the record grid, L built from the unordered three-operand einsum.

    Built from the raw Hamiltonian and couplings, not from a Generator: the
    gain is the diagonal blocks of sum_i Vi Vi*, each Vi a dense (n+1) d
    square matrix.  The N x N matrix of that right-hand side is taken column
    by column and exponentiated by ``test_exact_propagator.expm``.
    """
    n1, d = rho.shape[:2]
    h = np.zeros(rho.shape) if hamiltonian is None else hamiltonian
    vs = np.array([dense_blocks(v) for v in couplings]).reshape(-1, n1, n1, d, d)
    dense = vs.transpose(0, 1, 3, 2, 4).reshape(len(vs), n1 * d, n1 * d)
    full = (dense @ dense.conj().swapaxes(1, 2)).sum(axis=0).reshape(n1, d, n1, d)
    gain = np.stack([full[a, :, a] for a in range(n1)])

    def rhs(r):
        return (-1j * (h @ r - r @ h)
                + np.einsum("igaxm,gxz,igazw->amw", vs.conj(), r, vs)
                - 0.5 * (gain @ r + r @ gain))

    unit = np.eye(rho.size).reshape(-1, *rho.shape)
    lv = np.stack([rhs(column).ravel() for column in unit], axis=1)
    return exact_records(lv, rho, config)


# every detector family as the CLI builds it, plus a Hamiltonian case
SYSTEMS = {**{family: lambda family=family: family_system(family) for family in FAMILIES},
           "hamiltonian": hamiltonian_system}


@pytest.mark.parametrize("name", SYSTEMS)
def test_liouvillian_matches_rhs(name, rng):
    gen, state, _, _ = SYSTEMS[name]()
    rho = random_hybrid_state(state.classical_dim, state.quantum_dim, rng).blocks
    lv = gen.liouvillian()
    assert lv.shape == (rho.size, rho.size)
    np.testing.assert_allclose(lv @ rho.ravel(), gen.rhs(rho).ravel(), rtol=0, atol=1e-14)


# (duration, record_every) at step 0.01: a record every tenth step, every
# step recorded, a last record off the record grid, more records than one
# dense-path stack holds (at most 256 at these sizes), a record interval
# longer than the run, and 257 grid records in chunks of 32 at N = 8, the
# last chunk partial, then a record off the grid
GRIDS = [(2.0, 10), (0.5, 1), (2.07, 10), (3.0, 1), (0.2, 1000), (25.73, 10)]


# The name and ids are kept so that the test ids stay stable; the reference
# is exact.
@pytest.mark.parametrize("dense", [True, False], ids=["_dense_step", "_matrix_free_step"])
@pytest.mark.parametrize("name", SYSTEMS)
def test_both_paths_match_the_reference_rk4_loop(name, dense):
    gen, state, hamiltonian, couplings = SYSTEMS[name]()
    for duration, every in GRIDS:
        config = EvolutionConfig(step=0.01, duration=duration, record_every=every)
        traj = _record(gen, state.blocks, config, dense)
        reference = reference_exact(hamiltonian, couplings, state.blocks, config)
        np.testing.assert_allclose(traj.blocks, reference, rtol=0, atol=1e-12,
                                   err_msg=f"duration {duration}, record_every {every}")
        steps = [*range(0, config.n_steps, every), config.n_steps]
        assert traj.times.tolist() == [step * 0.01 for step in steps]


def large_generator(family, dim, channels):
    if family == "n_state":
        couplings = NStateDetectorSpec(1.0, tuple(basis_projector(dim, i)
                                                  for i in range(channels))).couplings()
    else:
        couplings = [FilterSpec(1.0, basis_projector(dim, 0)).coupling()]
    state = product_state(basis_projector(dim, 0), [1.0] + [0.0] * channels)
    return Generator.prepare(couplings, state=state)


# The path-rule tests below pin which path the library ``evolve`` takes.
# ``eeqt simulate`` propagates sectors and runs neither path, so they pin
# library behaviour, not the path of a benchmark workload.
#
# The large-dim benchmark shapes (family, quantum dim, channels, steps,
# record_every) at the benchmark's largest step, 0.01, where a dense N x N
# propagator would need more memory than the ceiling or more operations than
# the series: at N = 256 the series takes 0.7 ms, the dense path 22 ms.
LARGE_SHAPES = [("n_state", 8, 3, 60, 30), ("n_state", 12, 4, 20, 10),
                ("filter", 24, 1, 30, 15), ("filter", 36, 1, 10, 5)]


@pytest.mark.parametrize("family, dim, channels, steps, every", LARGE_SHAPES,
                         ids=["-".join(map(str, shape[:4])) for shape in LARGE_SHAPES])
def test_path_rule_takes_matrix_free_for_large_generators(family, dim, channels, steps, every):
    gen = large_generator(family, dim, channels)
    config = EvolutionConfig(step=0.01, duration=steps * 0.01, record_every=every)
    assert not _dense_pays(gen, config)


def test_path_rule_takes_the_propagator_when_every_step_is_recorded():
    # n_state, d = 8, 3 channels, N = 256, at step 1: 60 records take 27 ms
    # dense and 62 ms on the series (best of 5, 2 vCPUs), since each record
    # costs the series three Taylor sums of rhs calls but the dense path one
    # N x N product
    gen = large_generator("n_state", 8, 3)
    assert _dense_pays(gen, EvolutionConfig(step=1.0, duration=60))


def test_path_rule_keeps_the_dense_path_under_its_memory_ceiling(monkeypatch):
    # n_state, d = 12, 11 channels, 10^6 steps and one record interval:
    # N = 1728, where the squared propagator costs far fewer operations than
    # 4.3 x 10^6 series substeps of rhs calls, but four N x N arrays would
    # take about 182 MiB
    dim, channels, steps = 12, 11, 10 ** 6
    couplings = NStateDetectorSpec(1.0, tuple(basis_projector(dim, i)
                                              for i in range(channels))).couplings()
    state = product_state(basis_projector(dim, 0), [1.0] + [0.0] * channels)
    gen = Generator.prepare(couplings, state=state)
    config = EvolutionConfig(step=1.0, duration=steps, record_every=steps)
    assert not _dense_pays(gen, config)
    monkeypatch.setattr(evolution, "DENSE_MEMORY_CEILING", math.inf)
    assert _dense_pays(gen, config)


@pytest.mark.parametrize("steps, every", [(20, 1), (200, 1), (10, 10 ** 6)])
def test_path_rule_takes_the_propagator_for_short_small_runs(steps, every):
    # however its run is gridded, a small system (N = 8) takes the
    # propagator, never the slower matrix-free series
    e = basis_projector(2, 0)
    gen = Generator.prepare([binary_coupling(1.0, 0.3, e)], state=product_state(e, [1.0, 0.0]))
    assert _dense_pays(gen, EvolutionConfig(step=1.0, duration=steps, record_every=every))


@pytest.mark.parametrize("path", sorted(SHIPPED_CONFIGS.glob("*.ini")), ids=lambda p: p.stem)
def test_path_rule_takes_the_propagator_for_shipped_configs(path):
    couplings, state, config = load_system(path)
    gen = Generator.prepare(couplings, state=state)
    assert _dense_pays(gen, config)


# The path ``evolve`` takes on the system of every perfbench simulate
# invocation at seeds 1-3: large-dim and detector-mix's n_state go
# matrix-free, all else is dense.  The invocations themselves run ``sectors``.
BENCH_PATHS = {
    "detector-mix": {"mix0-binary-d2": True, "mix1-two_state-d3": True,
                     "mix2-n_state-d5": False, "mix3-filter-d3": True},
    "large-dim": {"big0-n_state-d8": False, "big1-n_state-d12": False,
                  "big2-filter-d24": False, "big3-filter-d36": False},
    "dense-record": {"dense0-binary-d2": True, "dense1-two_state-d3": True,
                     "dense2-binary-d3": True},
    "plan-scan": {"plan-detector0": True, "plan-detector1": True},
}


@pytest.mark.parametrize("workload", BENCH_PATHS)
def test_path_rule_keeps_each_benchmark_invocation_on_its_path(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parents[1] / "perfbench"))
    import workloads

    dense = {}
    for seed in (1, 2, 3):
        for inv in workloads.generate(workload, seed):
            if inv.command == "simulate":
                path = tmp_path / inv.config_name
                path.write_text(inv.config_text)
                couplings, state, config = load_system(path)
                gen = Generator.prepare(couplings, state=state)
                dense[seed, inv.key.removeprefix("simulate/")] = _dense_pays(gen, config)
    assert dense == {(seed, key): path for seed in (1, 2, 3)
                     for key, path in BENCH_PATHS[workload].items()}


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_integration_stops_at_the_first_non_finite_record(bad, monkeypatch):
    # an off-diagonal entry leaves the trace alone; it must still be caught
    state = product_state(basis_projector(2, 0), [1.0, 0.0])
    calls = []

    def series(gen, config, q, count):
        def move(v, out):
            calls.append(v)
            out[0] = v
            if len(calls) == 3:
                out[0, 1] = bad  # block 0, row 0, column 1
        return move, 1

    monkeypatch.setattr(evolution, "_series", series)
    gen = Generator.prepare(state=state)
    with np.errstate(invalid="ignore"), pytest.raises(TraceDriftError, match="t=0.3"):
        _record(gen, state.blocks, EvolutionConfig(step=0.1, duration=100.0), dense=False)
    assert len(calls) == 3


def test_unstable_dense_run_stops_at_the_first_non_finite_record(monkeypatch):
    # An injected record propagator multiplies the unregistered weight by
    # 38709 a step and moves the difference to the registered block, keeping
    # the trace 1: record j holds about 38709^j, finite up to j = 67 and inf
    # at 68.  The trace stays within the loose tolerance until then, so the
    # first record the guard refuses is the first non-finite one.
    growth = np.zeros((8, 8))
    growth[0, 0], growth[4, 0] = 38708.0, -38708.0  # p_0 and p_1 of a d = 2 binary record
    monkeypatch.setattr(evolution, "_propagator", lambda lv, tau: growth.copy())
    e = basis_projector(2, 0)
    state = product_state(e, [1.0, 0.0])
    config = EvolutionConfig(step=2.0, duration=2000.0, trace_tol=1e300)
    assert _dense_pays(Generator.prepare([binary_coupling(4.0, 0.0, e)], state=state), config)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TraceDriftError, match=r"drift nan at t=136 "):
            evolve(state, couplings=[binary_coupling(4.0, 0.0, e)], config=config)


def test_evolve_peak_memory_is_bounded_by_the_records():
    # 50 001 records of 128 bytes each; evolve holds them, their times and
    # steps, and a bounded amount besides
    state = product_state(basis_projector(2, 0), [1.0, 0.0])
    couplings = [binary_coupling(0.2, 0.1, basis_projector(2, 0))]
    config = EvolutionConfig(step=0.001, duration=50.0)
    record_bytes = config.n_records * state.blocks.nbytes
    tracemalloc.start()
    try:
        traj = evolve(state, couplings=couplings, config=config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.blocks.nbytes == record_bytes
    assert peak < 1.5 * record_bytes
