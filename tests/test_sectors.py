"""The sector propagator of ``simulate`` against ``evolve``, the closed forms and numpy."""

import functools
import itertools
import math
import operator
import pathlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
        family.couplings(), limits.signal_entries(family.weights, family.coherences),
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
    blocks, kappa = sectors._gather(table)
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


def test_records_are_sized_as_the_floats_they_hold(monkeypatch):
    # one sector of 2 states and 5 columns: 7 floats of 32 bytes a record
    table = ((((0, 1), {0: 1.0}), ((1, 0), {0: 0.5})),)
    config = EvolutionConfig(step=0.01, duration=1.0)
    monkeypatch.setattr(limits, "MAX_RECORD_BYTES", 101 * 7 * 32)
    assert len(sectors.sector_columns(table, {(0, 0): 1.0}, (2, 1), config)[0]) == 101
    monkeypatch.setattr(limits, "MAX_RECORD_BYTES", 101 * 7 * 32 - 1)
    with pytest.raises(ValueError, match=r"^101 records need more than .*MAX_RECORD_BYTES"):
        sectors.sector_columns(table, {(0, 0): 1.0}, (2, 1), config)


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


# The per-record layer before the map chains, comprehension and ``sum``, kept
# as the bit-for-bit reference of ``_stack``, ``_advance``, the columns and
# the guards.  ``sum`` of floats adds left to right from the int 0 on Python
# 3.11; 3.12 compensates, so the reference spells the 3.11 order out.
def plain_sum(terms):
    return functools.reduce(operator.add, terms, 0)


def reference_stack(p, depth):
    c = len(p)
    cols = [[[x] for x in row] for row in p]
    j = 1
    while j < depth:
        k = min(j, depth - j)
        last = [[col[j - 1] for col in row] for row in cols]
        heads = [[col[:k] for col in row] for row in cols]
        for a, b in itertools.product(range(c), repeat=2):
            products = zip(*(heads[t][b] for t in range(c)))
            cols[a][b] += [plain_sum(map(operator.mul, last[a], ts)) + s + last[a][b]
                           for ts, s in zip(products, heads[a][b])]
        j += k
    return cols


def reference_advance(stack, v, n):
    out = []
    for row, va in zip(stack, v):
        terms = [[s * x for s in col[:n]] for col, x in zip(row, v)]
        out.append([plain_sum(t) + va for t in zip(*terms)])
    return out


def reference_propagate(states, rows, starts, config):
    c = len(states)
    records = [[[x0]] + [[0.0] for _ in range(c - 1)] for x0 in starts]
    for q, count in config.intervals():
        depth = max(1, min(count // c, sectors.STACK_DEPTH))
        stack = reference_stack(sectors._propagator(rows, q * config.step), depth)
        for columns in records:
            for j in range(0, count, depth):
                chunk = reference_advance(stack, [col[-1] for col in columns],
                                          min(depth, count - j))
                for col, new in zip(columns, chunk):
                    col += new
    return records


def reference_min_eigenvalues(values, n1, d, n_records):
    zeros = [0.0] * n_records
    columns = []
    for alpha in range(n1):
        at = {pos: by_state[alpha] for pos, by_state in values.items() if alpha in by_state}
        indices = {i for pos in at for i in pos}
        if len(indices) < d:
            columns.append(zeros)
        for comp in limits._components(indices, [pos for pos in at if pos[0] != pos[1]]):
            if len(comp) == 1:
                columns.append(at[comp[0], comp[0]])
            else:  # the draws below reach components of two indices at most
                m, w = comp
                a, c = at.get((m, m), zeros), at.get((w, w), zeros)
                b = map(lambda x, y: 0.5 * (x + y), at.get((m, w), zeros), at.get((w, m), zeros))
                columns.append([0.5 * (x + z) - math.hypot(0.5 * (x - z), y)
                                for x, y, z in zip(a, b, c)])
    return [min(t) for t in zip(*columns)]


def reference_columns(couplings, signal, shape, config):
    n1, d = shape
    blocks, kappa = sectors._gather(couplings)
    found = {}
    for (m, w), x0 in signal.items():
        found.setdefault(sectors._sector(m, w, blocks, kappa), []).append(((m, w), x0))
    values = {}
    for (states, rows), members in found.items():
        records = reference_propagate(states, rows, [x for _, x in members], config)
        for (pos, _), by_state in zip(members, records):
            values[pos] = dict(zip(states, by_state))
    n = config.n_steps
    times = [k * config.step for k in (*range(0, n, config.record_every), n)]
    zeros = [0.0] * len(times)
    diagonal = sorted(pos for pos in values if pos[0] == pos[1])
    probs = []
    for alpha in range(n1):
        cols = [values[pos][alpha] for pos in diagonal if alpha in values[pos]]
        probs.append([plain_sum(t) for t in zip(*cols)] if cols else zeros)
    traces = [plain_sum(t) for t in zip(*probs)]
    drift = [abs(x - 1.0) for x in traces]
    off = [cols for pos, by_state in values.items() if pos[0] != pos[1]
           for cols in by_state.values()]
    guard = [abs(x + 0.0 * plain_sum(t) - 1.0) for x, *t in zip(traces, *off)] if off else drift
    r = next((r for r in range(1, len(guard)) if not guard[r] <= config.trace_tol), None)
    if r is not None:
        raise TraceDriftError(guard[r], times[r], config.trace_tol)
    min_eig = reference_min_eigenvalues(values, n1, d, len(times))
    k = next((r for r, x in enumerate(min_eig) if x < -limits.POSITIVITY_TOL), None)
    if k is not None:
        raise PositivityError(k, times[k], min_eig[k])
    return [times, *probs, drift, min_eig], values


def as_bytes(columns):
    """Each column as the bytes of its doubles, so that 0.0 and -0.0 differ."""
    return [struct.pack(f"{len(col)}d", *col) for col in columns]


RATES = st.one_of(st.just(0.0), st.floats(0.05, 40.0))


@st.composite
def sector_runs(draw):
    """A chain of binary couplings on 1 to 3 classical states, each on basis index 0 or 1,
    a d = 2 signal with a coherence of either sign, and a grid with or without a leftover
    interval, up to times where the records underflow."""
    n1 = draw(st.integers(1, 3))
    couplings = tuple((((g, g + 1), {m: draw(RATES)}), ((g + 1, g), {m: draw(RATES)}))
                      for g, m in enumerate(draw(st.lists(st.integers(0, 1), min_size=n1 - 1,
                                                          max_size=n1 - 1))))
    w0 = draw(st.floats(0.05, 0.95))
    coherence = draw(st.sampled_from([-0.99, 0.99])) * draw(st.floats(0.0, 1.0))
    coherence *= math.sqrt(w0 * (1.0 - w0))
    signal = limits.signal_entries({0: w0, 1: 1.0 - w0}, [((0, 1), coherence),
                                                          ((1, 0), coherence)])
    step = draw(st.sampled_from([0.01, 0.05, 0.25, 0.5]))
    config = EvolutionConfig(step, draw(st.integers(1, 600)) * step,
                             draw(st.integers(1, 9)))
    return couplings, signal, (n1, 2), config


def outcome(run, *args):
    """The value of run(*args), or the type and text of what it raised."""
    try:
        return run(*args)
    except (TraceDriftError, PositivityError) as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(sector_runs())
def test_the_chains_match_the_comprehensions_bit_for_bit(run):
    expected = outcome(reference_columns, *run)
    got = outcome(sectors.sector_columns, *run)
    if isinstance(expected[0], type):
        assert got == expected
        return
    columns, values = expected
    assert as_bytes(got) == as_bytes(columns)
    # the chains start at their first term, not at 0.0: no record is -0.0
    records = [col for by_state in values.values() for col in by_state.values()]
    assert not any(x == 0 and math.copysign(1.0, x) < 0 for col in records for x in col)


@st.composite
def block_values(draw):
    """Record columns on up to 6 blocks of d <= 2, each position in a few of the blocks,
    with 0.0, -0.0 and NaN among the entries, so that the order of ``min`` shows."""
    n1, d, n_records = draw(st.integers(1, 6)), draw(st.integers(1, 2)), draw(st.integers(1, 4))
    entry = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, -0.0, math.nan]))
    positions = [(m, w) for m in range(d) for w in range(d)]
    values = {}
    for pos in draw(st.lists(st.sampled_from(positions), min_size=1, unique=True)):
        blocks = draw(st.lists(st.integers(0, n1 - 1), min_size=1, unique=True))
        values[pos] = {alpha: draw(st.lists(entry, min_size=n_records, max_size=n_records))
                       for alpha in blocks}
    return values, n1, d, n_records


@settings(max_examples=200, deadline=None)
@given(block_values())
def test_min_eigenvalues_meet_the_walk_over_every_block_bit_for_bit(run):
    # only the blocks with an entry are visited, and the zeros column of the
    # blocks that lack an index comes once, where the first of them comes
    assert as_bytes([limits.min_eigenvalues(*run)]) == as_bytes([reference_min_eigenvalues(*run)])
