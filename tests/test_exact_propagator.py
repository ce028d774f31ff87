"""Both propagation paths and the closed forms against the exact propagator e^{tL}.

The generator L is constant, so the record at time t is exactly e^{tL} rho0.
Here e^{tL} is computed with numpy alone, not with the library's kernel, by
scaling and squaring (Moler and Van Loan, SIAM Rev. 45, 2003), and the
long-time state from the kernel of L.
"""

import math
import pathlib

import numpy as np
import pytest

from eeqt import evolution
from eeqt.detectors import (FAMILIES, SignalDecomposition, binary_trajectory,
                            two_state_trajectory)
from eeqt.evolution import Generator, evolve
from eeqt.specs import BinaryDetectorSpec, TwoStateDetectorSpec
from eeqt.states import basis_projector, product_state

from conftest import load_system


def expm(a: np.ndarray) -> np.ndarray:
    """e^a: a degree-20 Taylor sum of a / 2^s, where ||a / 2^s||_1 <= 1/2, squared s times.

    The truncation error of the sum is below (1/2)^21 / 21!, about 1e-26.
    """
    norm = np.linalg.norm(a, 1)
    s = max(0, math.ceil(math.log2(norm)) + 1) if norm > 0 else 0
    a = a / 2 ** s
    term = np.eye(len(a), dtype=a.dtype)
    out = term.copy()
    for k in range(1, 21):
        term = term @ a / k
        out += term
    for _ in range(s):
        out = out @ out
    return out


def test_expm_matches_known_exponentials():
    rotation = np.array([[0.0, -3.0], [3.0, 0.0]])
    np.testing.assert_allclose(expm(rotation), [[math.cos(3), -math.sin(3)],
                                                [math.sin(3), math.cos(3)]], atol=1e-14)
    np.testing.assert_allclose(expm(np.diag([-40.0, 0.5])),
                               np.diag([math.exp(-40.0), math.exp(0.5)]), rtol=1e-13, atol=0)


def exact_records(lv: np.ndarray, rho: np.ndarray, config) -> np.ndarray:
    """e^{t L} rho on the record grid, L = `lv`, one exact propagator per distinct gap of steps."""
    steps = np.array([*range(0, config.n_steps, config.record_every), config.n_steps])
    propagators = {gap: expm(gap * config.step * lv) for gap in set(np.diff(steps))}
    v = rho.ravel()
    records = [v]
    for gap in np.diff(steps):
        v = propagators[gap] @ v
        records.append(v)
    return np.array(records).reshape(-1, *rho.shape)


# One config per detectors.FAMILIES entry: the shipped configs, and a free system
# with a coherent signal.
FAMILY_CONFIGS = {path.stem: path.read_text()
                  for path in sorted((pathlib.Path(__file__).parents[1] / "configs").glob("*.ini"))}
FAMILY_CONFIGS["none"] = """\
[detector]
family = none
dim = 2

[signal]
weights = 0.6,0.4
offdiag_0_1 = 0.3
offdiag_1_0 = 0.3

[evolution]
step = 0.1
duration = 1.0
record_every = 3
"""


def test_family_configs_cover_every_family():
    assert set(FAMILY_CONFIGS) == set(FAMILIES)


# The name predates the 1e-12 bound; it is kept so that the test ids stay stable.
@pytest.mark.parametrize("path", ["dense", "matrix_free"])
@pytest.mark.parametrize("text", FAMILY_CONFIGS.values(), ids=FAMILY_CONFIGS)
def test_every_record_is_within_1e_10_of_the_exact_propagator(tmp_path, monkeypatch, text, path):
    monkeypatch.setattr(evolution, "_dense_pays", lambda gen, n_steps: path == "dense")
    (tmp_path / "case.ini").write_text(text)
    couplings, state, config = load_system(tmp_path / "case.ini")
    traj = evolve(state, couplings=couplings, config=config)
    lv = Generator.prepare(couplings, state=state).liouvillian()
    exact = exact_records(lv, state.blocks, config)
    assert np.abs(traj.blocks - exact).max() <= 1e-12


def null_space(a: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the kernel of `a`."""
    _, sv, vh = np.linalg.svd(a)
    return vh[sv <= 1e-10 * sv[0]].conj().T


def stationary_probabilities(couplings, state) -> np.ndarray:
    """Classical marginal of lim e^{tL} rho0, the projection onto ker L along range L.

    The semigroup is bounded, so 0 is a semisimple eigenvalue of L and the
    projection is R (W* R)^-1 W*, with R spanning ker L and W ker L*.
    """
    lv = Generator.prepare(couplings, state=state).liouvillian()
    right, left = null_space(lv), null_space(lv.conj().T)
    rho = right @ np.linalg.solve(left.conj().T @ right, left.conj().T @ state.blocks.ravel())
    return np.trace(rho.reshape(state.blocks.shape), axis1=1, axis2=2).real


@pytest.mark.parametrize("k1, k2, a0", [(1.0, 0.0, 1.0), (1.0, 2.0, 1.0), (0.7, 0.7, 0.6),
                                        (1.3, 0.4, 0.25)])
def test_kernel_of_l_is_the_binary_closed_form_at_infinity(k1, k2, a0):
    e0, e1 = basis_projector(2, 0), basis_projector(2, 1)
    spec, sig = BinaryDetectorSpec(k1, k2, e0), SignalDecomposition(a0, 1.0 - a0)
    state = product_state(a0 * e0 + (1.0 - a0) * e1, [1.0, 0.0])
    np.testing.assert_allclose(stationary_probabilities([spec.coupling()], state),
                               binary_trajectory(spec, sig, math.inf), rtol=0, atol=1e-10)


@pytest.mark.parametrize("constants, a0, b0", [((1.0, 0.0, 1.0, 0.0), 0.5, 0.5),
                                               ((1.0, 0.5, 0.8, 0.3), 0.55, 0.25),
                                               ((0.9, 1.2, 0.0, 0.0), 0.7, 0.0)])
def test_kernel_of_l_is_the_two_state_closed_form_at_infinity(constants, a0, b0):
    e2, e3, inert = (basis_projector(3, i) for i in range(3))
    spec = TwoStateDetectorSpec(*constants, e2, e3)
    state = product_state(a0 * e2 + b0 * e3 + (1.0 - a0 - b0) * inert, [1.0, 0.0, 0.0])
    np.testing.assert_allclose(stationary_probabilities(spec.couplings(), state),
                               two_state_trajectory(spec, a0, b0, math.inf), rtol=0, atol=1e-10)
