"""The sector propagator of ``simulate`` against ``evolve``, the closed forms and numpy."""

import itertools
import math
import pathlib

import numpy as np
import pytest

from eeqt import detectors, limits, sectors
from eeqt.evolution import (EvolutionConfig, PositivityError, TraceDriftError, evolve,
                            trajectory_rows)
from eeqt.states import basis_projector, product_state

from conftest import config_system, table_couplings
from test_cli import FAMILY_CONFIGS
from test_exact_propagator import expm

ROOT = pathlib.Path(__file__).parents[1]

COMPONENT_FILTER = """\
[detector]
family = filter
dim = 4
k = 0.8
projector = 1

[signal]
weights = 0.4,0.3,0.2,0.1
offdiag_0_1 = 0.05
offdiag_1_0 = 0.05
offdiag_1_2 = -0.04
offdiag_2_1 = -0.04
offdiag_0_2 = 0.03
offdiag_2_0 = 0.03

[evolution]
step = 0.01
duration = 2.0
record_every = 7
"""

WIDE_N_STATE = """\
[detector]
family = n_state
dim = 30
channels = 30
k = 1.3
aligned_channel = 17
"""

# The system of the binary row of ``eeqt reproduce``.
BALANCED_BINARY = """\
[detector]
family = binary
dim = 2
k1 = 1.0
k2 = 1.0

[signal]
aligned = 1.0

[evolution]
step = 0.005
duration = 12.0
record_every = 200
"""

PARITY_CONFIGS = {**FAMILY_CONFIGS, "filter-3-index-component": COMPONENT_FILTER,
                  "n_state-30-channels": WIDE_N_STATE,
                  "reproduce-balanced-binary": BALANCED_BINARY}


def simulated_columns(text: str) -> list:
    """The columns that ``simulate`` writes for a config of `text`, before formatting."""
    config = detectors._Config()
    config.read_string(text)
    _, dim, family = detectors._read_family(config)
    return sectors.sector_columns(
        family.couplings, limits.signal_entries(family.weights, family.coherences),
        (family.classical_dim, dim), detectors._evolution_config(config))


@pytest.mark.parametrize("text", PARITY_CONFIGS.values(), ids=PARITY_CONFIGS)
def test_simulate_rows_match_evolve(text):
    couplings, state, config = config_system(text)
    expected = trajectory_rows(evolve(state, couplings=couplings, config=config))
    rows = np.array(list(zip(*simulated_columns(text))))
    assert rows.shape == expected.shape
    np.testing.assert_allclose(rows, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("workload", ["detector-mix", "large-dim", "dense-record", "plan-scan"])
def test_every_benchmark_record_matches_its_closed_form(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    for seed in (1, 2, 3):
        for inv in workloads.generate(workload, seed):
            if inv.command != "simulate":
                continue
            config = detectors._Config()
            config.read_string(inv.config_text)
            family = detectors._read_family(config)[2]
            columns = simulated_columns(inv.config_text)
            closed_form = family.closed_form()
            expected = [closed_form(t) for t in columns[0]]
            probs = np.array(columns[1:-2]).T
            np.testing.assert_allclose(probs, expected, rtol=0, atol=1e-12,
                                       err_msg=f"{inv.key} at seed {seed}")


def test_a_hundred_channels_match_their_closed_form():
    text = WIDE_N_STATE.replace("dim = 30", "dim = 100").replace("channels = 30",
                                                                 "channels = 100")
    text += "\n[evolution]\nstep = 0.01\nduration = 1.0\nrecord_every = 10\n"
    columns = simulated_columns(text)
    assert len(columns) == 104 and len(columns[0]) == 11
    k, j = 1.3, 17
    for r, t in enumerate(columns[0]):
        p = [col[r] for col in columns[1:-2]]
        assert abs(p[0] - math.exp(-k * t)) <= 1e-12
        assert abs(p[j + 1] - (1.0 - math.exp(-k * t))) <= 1e-12
        assert not any(p[1:j + 1] + p[j + 2:])


def test_signal_entries_sum_coherences_in_order_and_drop_zeros():
    entries = limits.signal_entries({0: 0.5, 1: 0.5, 2: -0.0},
                                    [((0, 1), 0.25), ((0, 1), -0.25), ((1, 0), 0.1),
                                     ((1, 0), 0.2)])
    assert entries == {(0, 0): 0.5, (1, 1): 0.5, (1, 0): 0.1 + 0.2}


def test_sector_reaches_only_states_with_a_nonzero_product():
    # blocks (0, 1) on index 0 and (1, 2) on index 1: sector (0, 0) reaches 1
    # but stops there, sector (0, 1) reaches nothing
    table = ((((0, 1), {0: 2.0}),), (((1, 2), {1: 3.0}),))
    blocks, kappa = sectors._gather(table, 3)
    assert sectors._sector(0, 0, blocks, kappa) == ((0, 1), ((-4.0, 0.0), (4.0, 0.0)))
    assert sectors._sector(0, 1, blocks, kappa) == ((0,), ((-2.0,),))
    assert sectors._sector(1, 1, blocks, kappa) == ((0,), ((0.0,),))


def random_generator_rows(rng, c):
    """A c x c rate matrix: nonnegative off the diagonal, each column summing to a loss."""
    rows = rng.uniform(0.0, 2.0, size=(c, c))
    np.fill_diagonal(rows, 0.0)
    rows[np.diag_indices(c)] = -rows.sum(axis=0) - rng.uniform(0.0, 1.0, size=c)
    return rows


@pytest.mark.parametrize("c, tau", [(1, 0.3), (2, 0.05), (3, 1.7), (3, 40.0), (5, 0.9)])
def test_propagator_matches_the_matrix_exponential(c, tau):
    rows = random_generator_rows(np.random.default_rng(c), c)
    got = np.array(sectors._propagator(rows.tolist(), tau))
    np.testing.assert_allclose(got, expm(tau * rows) - np.eye(c), rtol=0, atol=1e-14)


@pytest.mark.parametrize("c, depth", [(1, 1), (1, 13), (2, 8), (3, 37)])
def test_stack_holds_the_powers_of_the_propagator(c, depth):
    rows = random_generator_rows(np.random.default_rng(depth), c)
    p = sectors._propagator(rows.tolist(), 0.1)
    stack = sectors._stack(p, depth)
    power = np.eye(c)
    for j in range(depth):
        power = power @ (np.eye(c) + np.array(p))
        got = np.array([[stack[a][b][j] for b in range(c)] for a in range(c)])
        np.testing.assert_allclose(got, power - np.eye(c), rtol=0, atol=1e-14)


@pytest.mark.parametrize("c", [3, 4, 6, 9])
def test_jacobi_matches_eigvalsh(c):
    rng = np.random.default_rng(c)
    for _ in range(20):
        a = rng.normal(size=(c, c))
        a = a + a.T
        assert abs(limits._jacobi_min(a.tolist()) - np.linalg.eigvalsh(a)[0]) <= 1e-13


def test_jacobi_and_lapack_give_the_same_column(monkeypatch):
    jacobi = simulated_columns(COMPONENT_FILTER)
    monkeypatch.setattr(limits, "JACOBI_PRICE", 0)
    lapack = simulated_columns(COMPONENT_FILTER)
    assert jacobi[:-1] == lapack[:-1]
    np.testing.assert_allclose(jacobi[-1], lapack[-1], rtol=0, atol=1e-15)


def evolve_error(table, n1, d, config):
    """The exception that ``evolve`` raises on the numpy couplings of `table`."""
    state = product_state(basis_projector(d, 0), [1.0] + [0.0] * (n1 - 1))
    with pytest.raises((ValueError, OverflowError)) as raised:
        evolve(state, couplings=table_couplings(table, n1, d), config=config)
    return raised.value


@pytest.mark.parametrize("table", [
    # one column, two rows: sum V V* gets an off-diagonal block (0, 1)
    ((((0, 1), {0: 1.0, 1: 0.5}), ((1, 1), {0: 2.0, 1: 3.0})),),
    # one row, two columns, twice: the sandwich leaks, and the worse wins
    ((((0, 1), {0: 1.0}), ((0, 2), {0: 0.5})), (((1, 0), {1: 3.0}), ((1, 2), {0: 1.0, 1: 1.0}))),
    # both rules in one coupling: the gain block is the worse
    ((((0, 0), {1: 0.2}), ((1, 0), {1: 0.3}), ((1, 2), {0: 0.1})),),
], ids=["gain", "sandwich", "both"])
def test_cp_refusal_is_evolve_s(table):
    config = EvolutionConfig(step=0.1, duration=1.0)
    with pytest.raises(ValueError) as raised:
        sectors.sector_columns(table, {(0, 0): 1.0}, (3, 2), config)
    assert str(raised.value) == str(evolve_error(table, 3, 2, config))
    assert str(raised.value).startswith("coupling operators fail CP conditions: ")


def test_an_infinite_kappa_is_evolve_s_overflow():
    table = ((((0, 1), {0: 1e200}), ((1, 0), {0: 0.0})),)
    config = EvolutionConfig(step=0.1, duration=1.0)
    with pytest.raises(OverflowError) as raised:
        sectors.sector_columns(table, {(0, 0): 1.0}, (2, 2), config)
    assert str(raised.value) == str(evolve_error(table, 2, 2, config))


def test_an_infinite_sector_entry_is_an_overflow():
    # kappa_0[0] = -1.5e308 is finite, but the sector (0, 0) doubles it
    v = math.sqrt(1.5e308)
    table = ((((0, 1), {0: v}),), (((0, 2), {0: v}),))
    with pytest.raises(OverflowError, match=r"^sector \(0, 0\) of L is not finite"):
        sectors.sector_columns(table, {(0, 0): 1.0}, (3, 1), EvolutionConfig(0.1, 1.0))


def test_a_sector_whose_norm_overflows_drifts_as_evolve_does():
    # k1 = 1e154: kappa and every entry are finite, but the column sums of the
    # sector's 1-norm overflow, the propagator is not finite and the first
    # record's trace is lost, in both propagators alike
    text = FAMILY_CONFIGS["binary"].replace("k1 = 1.0", "k1 = 1e154")
    couplings, state, config = config_system(text)
    with pytest.raises(TraceDriftError) as expected:
        evolve(state, couplings=couplings, config=config)
    with pytest.raises(TraceDriftError) as raised:
        simulated_columns(text)
    assert str(raised.value) == str(expected.value)


def test_positivity_error_names_the_first_negative_record(monkeypatch):
    # a propagator 12 times the exact change keeps the trace, but takes p_0 to
    # 1 + 12 (e^{-0.1} - 1), about -0.142, at the first record
    exact = sectors._propagator
    monkeypatch.setattr(sectors, "_propagator",
                        lambda rows, tau: [[12 * x for x in row] for row in exact(rows, tau)])
    table = ((((0, 1), {0: 1.0}),),)
    config = EvolutionConfig(step=0.1, duration=1.0)
    with pytest.raises(PositivityError, match=r"^record 1 at t=0\.1 has block eigenvalue "
                                              r"-0\.142, below -1e-09; "):
        sectors.sector_columns(table, {(0, 0): 1.0}, (2, 1), config)


def test_a_coherence_that_is_not_finite_trips_the_trace_guard():
    # the trace reads only the diagonal sectors, but a NaN coherence makes the
    # guarded trace NaN, as evolve's dot product with every entry of a record does
    values = {(0, 0): {0: [1.0, 1.0, 1.0]}, (0, 1): {0: [0.1, 0.1, math.nan]}}
    with pytest.raises(TraceDriftError, match=r"^trace drift nan at t=0\.2 exceeds 1e-08; "):
        sectors._check_trace(values, [1.0] * 3, [0.0] * 3, [0.0, 0.1, 0.2],
                             EvolutionConfig(0.1, 0.2))


def test_every_coherence_component_size_meets_eigvalsh():
    # one block of dim 6 whose coherences join {0, 1}, {2, 3, 4} and leave 5 alone
    rng = np.random.default_rng(5)
    weights = rng.dirichlet(np.ones(6))
    coherences = {(0, 1): 0.1, (2, 3): -0.05, (3, 4): 0.04, (2, 4): 0.02}
    matrix = np.diag(weights)
    for (i, j), c in coherences.items():
        matrix[i, j] = matrix[j, i] = c * min(weights[i], weights[j])
    values = {(i, j): {0: [matrix[i, j]] * 3} for i, j in itertools.product(range(6), repeat=2)
              if matrix[i, j]}
    got = limits.min_eigenvalues(values, 1, 6, 3)
    assert got == [got[0]] * 3
    assert abs(got[0] - np.linalg.eigvalsh(matrix)[0]) <= 1e-15
