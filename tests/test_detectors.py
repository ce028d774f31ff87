import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from eeqt import detectors
from eeqt.detectors import (
    BinaryDetectorSpec,
    FilterSpec,
    NStateDetectorSpec,
    SignalDecomposition,
    TwoStateDetectorSpec,
    balance_residual,
    binary_trajectory,
    filter_classical_output,
    filter_quantum_marginal,
    filter_quantum_output,
    n_state_trajectory,
    two_state_trajectory,
)
from eeqt.evolution import EvolutionConfig, evolve
from eeqt.states import HybridState, basis_projector, product_state, quantum_marginal

from conftest import dense_blocks

E0 = basis_projector(2, 0)
E1 = basis_projector(2, 1)

ks = st.floats(0.2, 1.5)


def evolve_binary(spec, sig, duration, step=0.005, record_every=100):
    rho_q = sig.a0 * E0 + sig.b0 * E1
    state = product_state(rho_q, [1.0, 0.0])
    return evolve(state, couplings=[spec.coupling()],
                  config=EvolutionConfig(step=step, duration=duration,
                                         record_every=record_every))


class TestBinary:
    def test_perfect_detector_asymptotics(self):
        spec = BinaryDetectorSpec(1.0, 0.0, E0)
        assert binary_trajectory(spec, SignalDecomposition(1.0, 0.0), math.inf) == (0.0, 1.0)

    def test_balanced_constants_split_evenly(self):
        spec = BinaryDetectorSpec(0.7, 0.7, E0)
        p0, p1 = binary_trajectory(spec, SignalDecomposition(1.0, 0.0), math.inf)
        assert p1 == pytest.approx(0.5)
        assert p0 == pytest.approx(0.5)

    def test_one_to_two_ratio_and_integration(self):
        spec = BinaryDetectorSpec(1.0, 2.0, E0)
        _, p1_inf = binary_trajectory(spec, SignalDecomposition(1.0, 0.0), math.inf)
        assert p1_inf == pytest.approx(0.2)
        traj = evolve_binary(spec, SignalDecomposition(1.0, 0.0), 20.0)
        assert traj.probabilities()[-1, 1] == pytest.approx(0.2, abs=1e-6)

    def test_trajectory_initial_condition(self):
        spec = BinaryDetectorSpec(1.0, 0.5, E0)
        assert binary_trajectory(spec, SignalDecomposition(0.6, 0.4), 0.0) == (1.0, 0.0)

    def test_trajectory_ln10_reaches_ninety_percent(self):
        spec = BinaryDetectorSpec(1.0, 0.0, E0)
        _, p1 = binary_trajectory(spec, SignalDecomposition(1.0, 0.0), math.log(10.0))
        assert p1 == pytest.approx(0.9)

    def test_trajectory_approaches_asymptote(self):
        spec = BinaryDetectorSpec(1.0, 1.0, E0)
        sig = SignalDecomposition(1.0, 0.0)
        p0, p1 = binary_trajectory(spec, sig, 50.0)
        assert (p0, p1) == pytest.approx(binary_trajectory(spec, sig, math.inf), abs=1e-12)

    def test_orthogonal_weight_is_inert(self):
        spec = BinaryDetectorSpec(1.0, 0.0, E0)
        sig = SignalDecomposition(0.3, 0.7)
        _, p1 = binary_trajectory(spec, sig, 100.0)
        assert p1 == pytest.approx(0.3, abs=1e-12)
        traj = evolve_binary(spec, sig, 8.0)
        assert traj.probabilities()[-1, 1] == pytest.approx(
            binary_trajectory(spec, sig, 8.0)[1], abs=1e-6)

    @given(ks, ks, st.floats(0.0, 1.0), st.floats(0.1, 5.0), st.floats(0.0, 3.0))
    def test_p1_nondecreasing_and_conserving(self, k1, k2, a0, t, dt):
        spec = BinaryDetectorSpec(k1, k2, E0)
        sig = SignalDecomposition(a0, 1.0 - a0)
        p0, p1 = binary_trajectory(spec, sig, t)
        assert p0 + p1 == pytest.approx(1.0, abs=1e-12)
        assert binary_trajectory(spec, sig, t + dt)[1] >= p1 - 1e-12

    def test_spec_rejections(self):
        with pytest.raises(ValueError):
            BinaryDetectorSpec(0.0, 0.0, E0)
        with pytest.raises(ValueError):
            BinaryDetectorSpec(1.0, -0.1, E0)
        with pytest.raises(ValueError):
            BinaryDetectorSpec(1.0, 0.0, np.eye(2))  # trace 2
        with pytest.raises(ValueError):
            SignalDecomposition(0.8, 0.3)


class TestBalanceResidual:
    def test_stationary_after_long_integration(self):
        spec = BinaryDetectorSpec(1.0, 0.8, E0)
        traj = evolve_binary(spec, SignalDecomposition(1.0, 0.0), 50.0)
        assert abs(balance_residual(spec, traj.state(-1))) <= 1e-6

    def test_initial_residual_with_pure_gain(self):
        spec = BinaryDetectorSpec(0.9, 0.0, E0)
        state = product_state(E0, [1.0, 0.0])
        assert balance_residual(spec, state) == pytest.approx(-0.81)

    def test_symmetric_state_balances(self):
        spec = BinaryDetectorSpec(1.0, 1.0, E0)
        state = product_state(E0, [0.5, 0.5])
        assert balance_residual(spec, state) == 0.0

    def test_dimension_checks(self):
        spec = BinaryDetectorSpec(1.0, 1.0, E0)
        with pytest.raises(ValueError):
            balance_residual(spec, product_state(E0, [1.0, 0.0, 0.0]))


class TestTwoState:
    def spec(self, k1=1.0, k2=0.0, n1=1.0, n2=0.0, dim=3):
        return TwoStateDetectorSpec(k1, k2, n1, n2,
                                    basis_projector(dim, 0), basis_projector(dim, 1))

    def test_single_channel_cases(self):
        spec = self.spec(k1=1.0, k2=0.5, n1=0.8, n2=0.3)
        _, p1, p2 = two_state_trajectory(spec, 1.0, 0.0, math.inf)
        assert p2 == 0.0
        assert p1 == pytest.approx(1.0 / 1.25)
        _, p1, p2 = two_state_trajectory(spec, 0.0, 1.0, math.inf)
        assert p1 == 0.0
        assert p2 == pytest.approx(0.64 / 0.73)

    def test_even_split_with_lossless_channels(self):
        _, p1, p2 = two_state_trajectory(self.spec(), 0.5, 0.5, math.inf)
        assert (p1, p2) == pytest.approx((0.5, 0.5))
        assert p1 + p2 == pytest.approx(1.0)

    def test_unit_efficiency_requires_lossless_channels(self):
        _, p1, p2 = two_state_trajectory(self.spec(k2=1.0, n2=1.0), 0.5, 0.5, math.inf)
        assert p1 + p2 == pytest.approx(0.5)
        _, p1, p2 = two_state_trajectory(self.spec(), 0.0, 0.0, math.inf)
        assert (p1, p2, p1 + p2) == (0.0, 0.0, 0.0)

    def test_trajectory_conserves_and_matches_integration(self):
        spec = self.spec(k1=1.0, k2=0.4, n1=0.6, n2=0.9)
        a0, b0 = 0.55, 0.25
        rho_q = a0 * spec.e2 + b0 * spec.e3 + 0.2 * basis_projector(3, 2)
        state = product_state(rho_q, [1.0, 0.0, 0.0])
        traj = evolve(state, couplings=spec.couplings(),
                      config=EvolutionConfig(step=0.01, duration=6.0,
                                             record_every=100))
        for t, row in zip(traj.times, traj.probabilities()):
            closed = two_state_trajectory(spec, a0, b0, t)
            assert sum(closed) == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(row, closed, atol=1e-6)

    def test_weighted_channel_with_zero_constants_rejected(self):
        spec = TwoStateDetectorSpec(1.0, 0.0, 0.0, 0.0,
                                    basis_projector(3, 0), basis_projector(3, 1))
        with pytest.raises(ValueError):
            two_state_trajectory(spec, 0.5, 0.5, 1.0)

    def test_projectors_must_be_orthogonal(self):
        with pytest.raises(ValueError, match="orthogonal"):
            TwoStateDetectorSpec(1.0, 0.0, 1.0, 0.0, E0, E0)


class TestNState:
    def make(self, n, k=1.0):
        return NStateDetectorSpec(k, tuple(basis_projector(5, i) for i in range(n)))

    def test_first_overlapping_pair_is_named(self):
        # e2 = e5 and e3 = e4 overlap; (e2, e5) comes first among the pairs
        # in combinations order, (e3, e4) first by column
        e = [basis_projector(5, i) for i in (0, 1, 2, 2, 1)]
        with pytest.raises(ValueError, match=r"^projectors e2 and e5 are not orthogonal: "
                                             r"\|tr\(e2 e5\)\| = 1$"):
            NStateDetectorSpec(1.0, tuple(e))

    def test_initial_condition(self):
        p = n_state_trajectory(self.make(3), 1, 0.0)
        assert p[0] == 1.0 and sum(p[1:]) == 0.0

    def test_half_life(self):
        p = n_state_trajectory(self.make(2), 0, math.log(2.0))
        assert p[1] == pytest.approx(0.5)

    def test_unit_efficiency_for_any_channel_count(self):
        for n in (1, 2, 5):
            p = n_state_trajectory(self.make(n), 0, 40.0)
            assert p[1] == pytest.approx(1.0, abs=1e-12)

    def test_curves_do_not_depend_on_channel_count(self):
        times = np.linspace(0.0, 6.0, 25)
        reference = [n_state_trajectory(self.make(1), 0, t)[:2] for t in times]
        for n in (2, 5):
            curves = [n_state_trajectory(self.make(n), 0, t)[:2] for t in times]
            np.testing.assert_allclose(curves, reference, atol=1e-10)

    def test_rejections(self):
        with pytest.raises(ValueError):
            n_state_trajectory(self.make(2), 2, 1.0)
        with pytest.raises(ValueError):
            NStateDetectorSpec(0.0, (E0,))
        with pytest.raises(ValueError):
            NStateDetectorSpec(1.0, (E0, E0))


class TestFilter:
    def test_aligned_input_passes_unchanged(self):
        spec = FilterSpec(0.8, E0)
        diag, off = filter_quantum_output({0: 1.0}, {}, spec, 7.0)
        assert diag == {0: 1.0} and off == {}
        np.testing.assert_allclose(filter_quantum_marginal(E0, spec, 7.0), E0,
                                   atol=1e-15)

    def test_cross_coherence_halves_at_two_log_two(self):
        spec = FilterSpec(1.0, E0)
        t = 2.0 * math.log(2.0)  # k t = 2 ln 2, decay factor exactly 1/2
        _, off = filter_quantum_output({0: 0.5, 1: 0.5}, {(0, 1): 0.4}, spec, t)
        assert off[(0, 1)] == pytest.approx(0.2)

    def test_time_zero_is_identity(self):
        spec = FilterSpec(1.3, E0)
        diag, off = filter_quantum_output({0: 0.3, 2: 0.7}, {(1, 2): 0.1}, spec, 0.0)
        assert diag == {0: 0.3, 2: 0.7}
        assert off == {(1, 2): 0.1}

    def test_orthogonal_coherences_pass_through(self):
        spec = FilterSpec(2.0, basis_projector(3, 0))
        _, off = filter_quantum_output({1: 0.5, 2: 0.5}, {(1, 2): 0.3}, spec, 9.0)
        assert off[(1, 2)] == 0.3

    def test_classical_output_aligned_case(self):
        for k, t in ((0.5, 1.0), (1.0, 3.0)):
            p0, p1 = filter_classical_output(1.0, 0.0, 1.0, k, t)
            assert p1 == pytest.approx(0.5 * (1.0 - math.exp(-2.0 * k * t)))
            assert p0 + p1 == pytest.approx(1.0, abs=1e-12)

    def test_classical_output_scales_with_aligned_weight(self):
        rho1 = 0.8
        _, p1 = filter_classical_output(1.0, 0.0, rho1, 1.0, 2.0)
        assert p1 == pytest.approx(0.5 * (1.0 - math.exp(-4.0)) * rho1)

    def test_classical_output_inert_without_aligned_weight(self):
        assert filter_classical_output(1.0, 0.0, 0.0, 1.0, 5.0) == (1.0, 0.0)
        p0, p1 = filter_classical_output(0.4, 0.6, 0.0, 1.0, 5.0)
        assert (p0, p1) == pytest.approx((0.4, 0.6))

    def test_quantum_marginal_matches_numeric_evolution(self):
        spec = FilterSpec(0.7, basis_projector(3, 0))
        rho_q = np.array([[0.5, 0.2, 0.0],
                          [0.2, 0.3, 0.1],
                          [0.0, 0.1, 0.2]], dtype=complex)
        state = product_state(rho_q, [1.0, 0.0])
        traj = evolve(state, couplings=[spec.coupling()],
                      config=EvolutionConfig(step=0.005, duration=4.0,
                                             record_every=200))
        for k in range(len(traj)):
            predicted = filter_quantum_marginal(rho_q, spec, traj.times[k])
            np.testing.assert_allclose(quantum_marginal(traj.state(k)), predicted,
                                       atol=1e-7)

    @pytest.mark.parametrize("rho_q, match", [
        (np.full((2, 2), np.nan), "non-finite"),
        (np.array([0.5, 0.5]), "shape"),
        (np.eye(3) / 3, "projector"),
    ], ids=["nan", "one-dimensional", "wrong-dimension"])
    def test_quantum_marginal_rejects_malformed_input(self, rho_q, match):
        with pytest.raises(ValueError, match=match):
            filter_quantum_marginal(rho_q, FilterSpec(1.0, E0), 1.0)


def test_specs_keep_read_only_copies_of_their_projectors():
    e, f = basis_projector(3, 0), basis_projector(3, 1)
    specs = [BinaryDetectorSpec(1.0, 0.5, e), TwoStateDetectorSpec(1.0, 0.5, 1.0, 0.5, e, f),
             NStateDetectorSpec(1.0, (e, f)), FilterSpec(1.0, e)]

    def blocks(spec):
        couplings = spec.couplings() if hasattr(spec, "couplings") else [spec.coupling()]
        return [dense_blocks(v) for v in couplings]

    before = [blocks(spec) for spec in specs]
    e[0, 0] = f[1, 1] = 0.0
    for spec, old in zip(specs, before):
        for new, expected in zip(blocks(spec), old, strict=True):
            np.testing.assert_array_equal(new, expected)
    assert not specs[0].e.flags.writeable


def test_oracle_equivalence_small_sample(rng):
    # light version of the 50-draw comparison in the acceptance suite
    for _ in range(5):
        k1, k2 = rng.uniform(0.3, 1.2, size=2)
        a0 = rng.uniform(0.2, 0.8)
        spec = BinaryDetectorSpec(k1, k2, E0)
        sig = SignalDecomposition(a0, 1.0 - a0)
        traj = evolve_binary(spec, sig, 3.0, step=0.01, record_every=30)
        for t, row in zip(traj.times, traj.probabilities()):
            np.testing.assert_allclose(row, binary_trajectory(spec, sig, t),
                                       atol=1e-6)


# Each classical closed form as t -> its n+1 channel values, with the
# constants fixed.
CLOSED_FORMS = {
    "binary": lambda t: binary_trajectory(BinaryDetectorSpec(0.9, 0.4, E0),
                                          SignalDecomposition(0.7, 0.3), t),
    "two_state": lambda t: two_state_trajectory(
        TwoStateDetectorSpec(1.1, 0.3, 0.6, 0.0, basis_projector(3, 0), basis_projector(3, 1)),
        0.45, 0.35, t),
    "two_state-idle-channel": lambda t: two_state_trajectory(
        TwoStateDetectorSpec(1.1, 0.3, 0.0, 0.0, basis_projector(3, 0), basis_projector(3, 1)),
        0.6, 0.0, t),
    "n_state": lambda t: n_state_trajectory(
        NStateDetectorSpec(0.8, tuple(basis_projector(4, i) for i in range(3))), 1, t),
    "filter": lambda t: filter_classical_output(0.9, 0.1, 0.7, 1.3, t),
}


def numpy_decay(rate, t):
    """The decay on a time array, by ``np.exp``, as the closed forms computed it before math.exp."""
    t = np.asarray(t, dtype=float)
    if (t < 0).any():
        raise ValueError("time must be non-negative")
    with np.errstate(over="ignore", invalid="ignore"):
        return np.exp(-rate * t)


@pytest.mark.parametrize("closed_form", CLOSED_FORMS.values(), ids=CLOSED_FORMS)
def test_array_call_equals_scalar_calls_bitwise(closed_form, monkeypatch):
    # Each scalar closed form on math.exp against the numpy array formula it
    # replaced: the same %.12g text, and within one ulp of probability 1.  The
    # two exp differ by at most an ulp; two_state's p0 = 1 - p1 - p2 sums two
    # of them, and there 2 of the 1215 values differ by 2 ulps of their own.
    times = np.concatenate([[0.0, 5e-324, math.log(2.0), 1e3, math.inf],
                            np.random.default_rng(3).uniform(0.0, 30.0, 400)])
    scalars = np.array([closed_form(t) for t in times.tolist()])
    assert all(type(p) is float for p in closed_form(0.5))
    monkeypatch.setattr(detectors, "_decay", numpy_decay)
    arrays = np.array([np.broadcast_to(p, times.shape) for p in closed_form(times)]).T
    assert [[f"{p:.12g}" for p in row] for row in scalars.tolist()] == \
        [[f"{p:.12g}" for p in row] for row in arrays.tolist()]
    np.testing.assert_allclose(scalars, arrays, rtol=0, atol=np.spacing(1.0))


@pytest.mark.parametrize("closed_form", CLOSED_FORMS.values(), ids=CLOSED_FORMS)
def test_negative_time_anywhere_in_the_array_is_rejected(closed_form):
    for t in (-1.0, -1e-300):
        with pytest.raises(ValueError, match="non-negative"):
            closed_form(t)


def test_quantum_filter_outputs_reject_negative_time():
    spec = FilterSpec(1.0, E0)
    with pytest.raises(ValueError, match="non-negative"):
        filter_quantum_output({0: 1.0}, {}, spec, -1.0)
    with pytest.raises(ValueError, match="non-negative"):
        filter_quantum_marginal(E0, spec, -1.0)


@given(ks, ks, ks, ks, st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_infinite_time_is_the_asymptotic_formula(k1, k2, n1, n2, a0, split):
    # the long-time limits as the removed asymptotic functions wrote them
    b0 = 1.0 - a0
    p0, p1 = binary_trajectory(BinaryDetectorSpec(k1, k2, E0), SignalDecomposition(a0, b0),
                               math.inf)
    p1_inf = k1 ** 2 / (k1 ** 2 + k2 ** 2) * (1.0 - b0)
    assert abs(p1 - p1_inf) <= 1e-15 and abs(p0 - (1.0 - p1_inf)) <= 1e-15
    spec = TwoStateDetectorSpec(k1, k2, n1, n2, basis_projector(3, 0), basis_projector(3, 1))
    a2, b2 = split * a0, (1.0 - split) * a0
    _, p1, p2 = two_state_trajectory(spec, a2, b2, math.inf)
    p1_inf = a2 * k1 ** 2 / (k1 ** 2 + k2 ** 2)
    p2_inf = b2 * n1 ** 2 / (n1 ** 2 + n2 ** 2)
    assert abs(p1 - p1_inf) <= 1e-15 and abs(p2 - p2_inf) <= 1e-15
    assert abs((p1 + p2) - (p1_inf + p2_inf)) <= 1e-15
