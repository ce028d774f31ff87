"""``limits.check_signal`` against numpy's product_state and validate_state."""

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from eeqt import limits, states
from eeqt.limits import POSITIVITY_TOL, TRACE_TOL, check_signal, signal_entries
from eeqt.states import product_state, validate_state


def numpy_verdict(dim, classical_dim, weights, coherences):
    """(message, eigenvalue): numpy's refusal of the signal, or None when it accepts it, and
    the smallest block eigenvalue of ``validate_state``, or None when it is not reached."""
    rho_q = np.zeros((dim, dim), dtype=complex)
    for pos, value in signal_entries(weights, coherences).items():
        rho_q[pos] = value
    try:
        state = product_state(rho_q, np.eye(classical_dim)[0])
    except ValueError as exc:
        return str(exc), None
    report = validate_state(state)
    if report.ok:
        return None, report.min_eigenvalue
    return (f"signal is not a density matrix: Hermiticity deviation "
            f"{report.hermiticity_deviation:.3g}, min eigenvalue {report.min_eigenvalue:.3g}",
            report.min_eigenvalue)


def check_message(dim, classical_dim, weights, coherences):
    """The message ``check_signal`` refuses the signal with, or None when it accepts it."""
    try:
        check_signal(dim, classical_dim, weights, coherences)
    except ValueError as exc:
        return str(exc)
    return None


@st.composite
def signals(draw):
    """(dim, classical_dim, weights, coherences) of a real signal near trace 1.

    The weights are nonnegative and sum to 1 before a shift between two of
    them and a change of the trace, so every partial sum stays below 2.  Each
    coherence is a multiple of the geometric mean of its two weights, either
    with its mirror or alone; one value may be replaced by one that is not
    finite.
    """
    dim = draw(st.integers(1, 7))
    classical_dim = draw(st.integers(1, 3))
    raw = draw(st.lists(st.floats(0, 1), min_size=1, max_size=dim))
    assume(math.fsum(raw) > 0.1)
    weights = [r / math.fsum(raw) for r in raw]
    if len(weights) > 1 and draw(st.booleans()):  # a negative weight
        shift = draw(st.floats(0, 0.5))
        weights[0] -= shift
        weights[-1] += shift
    weights[0] += draw(st.sampled_from([0.0, 0.0, 0.0, -0.1, 2e-9, -2e-9, 5e-10, -5e-10]))
    weights = dict(enumerate(weights))
    coherences = {}
    pairs = [(i, j) for i in range(dim) for j in range(dim) if i != j]
    for i, j in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=6) if pairs
                     else st.just([])):
        value = draw(st.floats(-1.5, 1.5)) * math.sqrt(abs(weights.get(i, 0.0)
                                                           * weights.get(j, 0.0)) or 0.1)
        coherences[i, j] = value
        if draw(st.booleans()):
            coherences[j, i] = value
    if draw(st.integers(0, 9)) == 0:
        bad = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        if coherences and draw(st.booleans()):
            coherences[next(iter(coherences))] = bad
        else:
            weights[0] = bad
    return dim, classical_dim, weights, tuple(coherences.items())


@settings(max_examples=400, deadline=None)
@given(signals())
def test_signal_check_is_numpy_s_verdict_and_message(signal):
    """The same verdict and message, but for the rounding of the eigenvalue.

    Jacobi, the 2 x 2 closed form and LAPACK each find the eigenvalues of a
    matrix A to within a few d eps ||A||, so an eigenvalue at that distance
    from 0 may be printed differently; a verdict may differ only within that
    distance of -POSITIVITY_TOL, and for a trace within rounding of 1 +- TRACE_TOL.
    """
    dim, classical_dim, weights, coherences = signal
    entries = signal_entries(weights, coherences)
    trace = math.fsum(v for (m, w), v in entries.items() if m == w)
    assume(not any(abs(trace - edge) <= 4 * math.ulp(1.0)
                   for edge in (1 - TRACE_TOL, 1 + TRACE_TOL)))
    expected, eigenvalue = numpy_verdict(*signal)
    rounding = 4 * dim * sys.float_info.epsilon * math.hypot(*entries.values())
    assume(eigenvalue is None or abs(eigenvalue + POSITIVITY_TOL) > rounding)
    got = check_message(*signal)
    if got != expected:
        assert got is not None and expected is not None
        head, _, value = got.rpartition(" ")
        expected_head, _, expected_value = expected.rpartition(" ")
        assert head == expected_head and head.endswith(" min eigenvalue")
        assert abs(float(value) - float(expected_value)) <= rounding


def test_a_45_index_component_goes_to_block_eigenvalues(monkeypatch):
    # a tridiagonal signal whose coherences join all 45 indices: 45^3 records
    # of Jacobi cost more than importing numpy, so its eigenvalue is LAPACK's
    assert 45 ** 3 > limits.JACOBI_PRICE
    calls = []
    block_eigenvalues = states.block_eigenvalues

    def counted(blocks):
        calls.append(np.shape(blocks))
        return block_eigenvalues(blocks)

    monkeypatch.setattr(states, "block_eigenvalues", counted)
    weights = dict.fromkeys(range(45), 1 / 45)
    coherences = tuple(((i + s, i + 1 - s), 0.02) for i in range(44) for s in (0, 1))
    message = check_message(45, 2, weights, coherences)
    assert calls == [(1, 45, 45)]
    assert message == numpy_verdict(45, 2, weights, coherences)[0]
    assert message.startswith("signal is not a density matrix: Hermiticity deviation 0, ")


def test_the_signal_check_does_not_grow_with_the_classical_dim():
    # one entry in block 0 of 10^12: the blocks without an entry count once
    check_signal(2, 10 ** 12, {0: 1.0}, ())
    assert limits.min_eigenvalues({(0, 0): {0: [1.0, -0.5]}}, 10 ** 12, 1, 2) == [0.0, -0.5]


@pytest.mark.parametrize("dim, weights, coherences, eigenvalue", [
    # coherences whose squares overflow
    (3, {0: 0.5, 1: 0.3, 2: 0.2},
     (((0, 1), 1e200), ((1, 0), 1e200), ((1, 2), 1e200), ((2, 1), 1e200)), "-1.41e+200"),
    # coherences whose squares underflow, on a zero diagonal, refused by a
    # one-sided coherence elsewhere
    (5, {0: 0.5, 4: 0.5},
     (((1, 2), 1e-200), ((2, 1), 1e-200), ((2, 3), 1e-200), ((3, 2), 1e-200),
      ((0, 4), 0.5)), "-1.41e-200"),
], ids=["huge", "tiny"])
def test_jacobi_meets_numpy_far_from_unit_scale(dim, weights, coherences, eigenvalue):
    message = check_message(dim, 1, weights, coherences)
    assert message == numpy_verdict(dim, 1, weights, coherences)[0]
    assert message.endswith(f"min eigenvalue {eigenvalue}")
