import numpy as np
import pytest
from hypothesis import given, strategies as st

from eeqt.states import (
    HybridState,
    basis_projector,
    block_eigenvalues,
    check_probability_vector,
    check_projector,
    classical_marginal,
    offdiagonal_element,
    operator_array,
    product_state,
    quantum_marginal,
    random_projector,
    validate_state,
    vector_projector,
)

from conftest import random_hybrid_state


def test_product_state_degenerate_distribution():
    w = basis_projector(2, 0)
    state = product_state(w, [1.0, 0.0])
    np.testing.assert_array_equal(state.blocks[0], w)
    np.testing.assert_array_equal(state.blocks[1], np.zeros((2, 2)))


def test_product_state_maximally_mixed():
    state = product_state(0.5 * np.eye(2), [0.5, 0.5])
    for block in state.blocks:
        np.testing.assert_allclose(block, 0.25 * np.eye(2))


def test_product_state_matches_scalar_multiplication(rng):
    # independent oracle: multiply out p_alpha * w entry by entry
    w = random_projector(3, rng)
    p = np.array([0.3, 0.7])
    state = product_state(w, p)
    for alpha in range(2):
        expected = np.array([[p[alpha] * w[i, j] for j in range(3)]
                             for i in range(3)])
        np.testing.assert_allclose(state.blocks[alpha], expected, atol=1e-15)
    np.testing.assert_allclose(classical_marginal(state), p, atol=1e-15)


def test_quantum_marginal_of_direct_sum():
    blocks = np.stack([0.3 * basis_projector(2, 0), 0.7 * basis_projector(2, 1)])
    marg = quantum_marginal(HybridState(blocks))
    np.testing.assert_allclose(marg, np.diag([0.3, 0.7]))


def test_marginals_recompute_blockwise(rng):
    state = random_hybrid_state(3, 4, rng)
    expected_q = sum(state.blocks[a] for a in range(3))
    np.testing.assert_allclose(quantum_marginal(state), expected_q, atol=1e-15)
    expected_c = [np.trace(state.blocks[a]).real for a in range(3)]
    np.testing.assert_allclose(classical_marginal(state), expected_c, atol=1e-15)


@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 4), st.integers(1, 3))
def test_product_state_marginal_roundtrip(seed, n_classical, dim):
    rng = np.random.default_rng(seed)
    w = np.asarray(random_projector(dim, rng))
    p = rng.dirichlet(np.ones(n_classical))
    state = product_state(w, p)
    np.testing.assert_allclose(classical_marginal(state), p, atol=1e-12)
    np.testing.assert_allclose(quantum_marginal(state), w, atol=1e-12)


@given(st.integers(0, 2 ** 31 - 1))
def test_quantum_marginal_preserves_trace(seed):
    rng = np.random.default_rng(seed)
    state = random_hybrid_state(3, 3, rng)
    tr = np.trace(quantum_marginal(state)).real
    assert abs(tr - sum(classical_marginal(state))) < 1e-12


def test_validate_state_passes_on_valid_input(rng):
    report = validate_state(random_hybrid_state(2, 3, rng))
    assert report.ok
    assert report.total_trace_deviation <= 1e-12


def test_validate_state_flags_subnormalized_trace():
    blocks = np.stack([0.9 * basis_projector(2, 0), np.zeros((2, 2))])
    report = validate_state(HybridState(blocks))
    assert not report.trace_ok
    assert report.total_trace_deviation == pytest.approx(0.1)
    assert report.hermitian_ok and report.positive_ok


def test_validate_state_flags_non_hermitian_block():
    blocks = np.stack([basis_projector(2, 0) + 0.01 * offdiagonal_element(2, 0, 1),
                       np.zeros((2, 2))])
    report = validate_state(HybridState(blocks))
    assert not report.hermitian_ok
    assert report.hermiticity_deviation == pytest.approx(0.01)


def test_projector_constructors_satisfy_projector_checks(rng):
    e = basis_projector(4, 2)
    checked = check_projector(e)
    np.testing.assert_array_equal(checked, e)
    assert not checked.flags.writeable
    check_projector(vector_projector([1.0, 1.0j, 0.0]))
    for _ in range(20):
        check_projector(random_projector(5, rng))


def test_offdiagonal_element_is_not_a_projector():
    m = offdiagonal_element(3, 0, 2)
    assert m[0, 2] == 1.0 and np.count_nonzero(m) == 1
    with pytest.raises(ValueError):
        check_projector(m)
    with pytest.raises(ValueError):
        offdiagonal_element(3, 1, 1)


def test_probability_vector_rejections():
    with pytest.raises(ValueError):
        check_probability_vector([0.5, 0.6])
    with pytest.raises(ValueError):
        check_probability_vector([1.2, -0.2])
    with pytest.raises(ValueError):
        product_state(2.0 * basis_projector(2, 0), [1.0, 0.0])


def test_hybrid_state_blocks_are_write_protected(rng):
    state = random_hybrid_state(2, 2, rng)
    with pytest.raises(ValueError):
        state.blocks[0, 0, 0] = 5.0


@pytest.mark.parametrize("a, ndim", [
    (np.eye(2)[None], 2),
    (np.zeros((0, 2, 2)), 3),
    (np.zeros((2, 2, 3)), 3),
    (np.array([[1.0, np.nan], [0.0, 1.0]]), 2),
    (np.array([[1.0, 0.0], [np.inf, 1.0]]), 2),
], ids=["axes", "empty-axis", "non-square", "nan", "inf"])
def test_operator_array_rejects_malformed_operators(a, ndim):
    with pytest.raises(ValueError, match="thing"):
        operator_array(a, "thing", ndim)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_block_eigenvalues_match_eigvalsh_bit_for_bit(d, rng):
    # a (3, 4) grid of blocks: random matrices, diagonal ones with repeated,
    # zero and negative entries and an imaginary diagonal part (which the
    # Hermitian part drops), and all-zero ones
    shape = (12, d, d)
    full = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    diagonal = np.zeros(shape, dtype=complex)
    values = rng.choice([-0.5, 0.0, 0.25, 0.25, 1.0, 3.0], size=(12, d))
    diagonal[:, np.arange(d), np.arange(d)] = values + 1j * rng.normal(size=(12, d))
    kind = np.arange(12) % 3
    blocks = np.where(kind[:, None, None] == 0, full,
                      np.where(kind[:, None, None] == 1, diagonal, 0)).reshape(3, 4, d, d)
    hermitian = 0.5 * (blocks + np.swapaxes(blocks.conj(), -1, -2))
    expected = np.linalg.eigvalsh(hermitian)
    got = block_eigenvalues(blocks)
    assert got.shape == (3, 4, d)
    assert got.tobytes() == expected.tobytes()


def test_block_eigenvalues_of_a_tiny_diagonal_block_are_its_diagonal():
    # LAPACK scales a matrix of norm below about 1e-146 up and its eigenvalues
    # back down, which may round them (numpy 2.4's OpenBLAS returns
    # 3.6999999999999995e-150 here); the diagonal is the exact answer
    diag = np.array([3.7e-150, -1.3e-150, 1.5e-150])
    got = block_eigenvalues(np.diag(diag).astype(complex)[None])
    assert got.tolist() == [sorted(diag.tolist())]
