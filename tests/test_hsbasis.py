"""Operator bases and the (r, s, T) decomposition."""

import numpy as np
import pytest

from sepscope.hsbasis import (
    PAULI,
    SIGMA_X,
    SIGMA_Z,
    decompose,
    spin_basis,
    spin_matrix,
    t_trace_norm,
)
from sepscope.linalg import (
    DensityMatrix,
    DimensionError,
    InvariantError,
    partial_trace,
    tensor,
    trace_norm,
)
from sepscope.realign import ccn_value, realign
from sepscope.states import (
    Counterexample,
    MaxDisordered,
    PureSchmidt,
    Werner,
    make_state,
    random_density_matrix,
    random_max_disordered,
)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_spin_matrix_identity(d):
    np.testing.assert_allclose(spin_matrix(d, 0, 0), np.eye(d), atol=0)


def test_spin_matrix_d2_recovers_paulis():
    np.testing.assert_allclose(spin_matrix(2, 1, 0), SIGMA_Z, atol=0)
    np.testing.assert_allclose(spin_matrix(2, 0, 1), SIGMA_X, atol=0)
    # the remaining member is i * sigma_y
    np.testing.assert_allclose(
        spin_matrix(2, 1, 1), np.array([[0, 1], [-1, 0]]), atol=1e-15
    )


def test_spin_matrix_d3_phases():
    omega = np.exp(2j * np.pi / 3)
    got = spin_matrix(3, 1, 1)
    expected = np.zeros((3, 3), dtype=complex)
    for r in range(3):
        expected[r, (r + 1) % 3] = omega**r
    np.testing.assert_allclose(got, expected, atol=1e-15)


def test_spin_matrix_range_errors():
    with pytest.raises(ValueError):
        spin_matrix(3, 3, 0)
    with pytest.raises(ValueError):
        spin_matrix(3, 0, -1)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_spin_basis_orthogonality_and_trace(d):
    basis = spin_basis(d)
    assert basis.shape == (d * d, d, d)
    # Hilbert-Schmidt Gram matrix tr(S_a^dag S_b)
    gram = np.einsum("aij,bij->ab", basis.conj(), basis)
    np.testing.assert_allclose(gram, d * np.eye(d * d), rtol=0, atol=1e-12)
    assert np.max(np.abs(np.trace(basis[1:], axis1=1, axis2=2))) < 1e-12


def test_spin_basis_ordering():
    basis = spin_basis(3)
    np.testing.assert_allclose(basis[1], spin_matrix(3, 0, 1), atol=0)
    np.testing.assert_allclose(basis[2], spin_matrix(3, 0, 2), atol=0)
    np.testing.assert_allclose(basis[3], spin_matrix(3, 1, 0), atol=0)
    np.testing.assert_allclose(basis[8], spin_matrix(3, 2, 2), atol=0)


def test_shared_arrays_are_read_only(rng):
    # spin_basis hands out its cached stack, so a write would reach every
    # later decomposition
    dec = decompose(random_density_matrix(3, 3, rng=rng))
    shared = (spin_basis(3), DensityMatrix(2, 2, np.eye(4) / 4).mat, dec.t_mat)
    for arr in shared:
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            arr *= 2


@pytest.mark.parametrize("d,basis", [(2, "pauli"), (2, "spin"), (3, "spin")])
def test_decompose_maximally_mixed(d, basis):
    dec = decompose(np.eye(d * d) / (d * d), basis=basis)
    assert np.max(np.abs(dec.r_vec)) < 1e-13
    assert np.max(np.abs(dec.s_vec)) < 1e-13
    assert np.max(np.abs(dec.t_mat)) < 1e-13


def test_decompose_counterexample_coefficients():
    s, r, t = 0.5, 0.25, 0.0625
    dec = decompose(make_state(Counterexample(s, r, t)))
    assert dec.basis == "pauli"
    np.testing.assert_allclose(dec.r_vec, [0, 0, r], atol=1e-13)
    np.testing.assert_allclose(dec.s_vec, [0, 0, s], atol=1e-13)
    np.testing.assert_allclose(dec.t_mat, np.diag([t, -t, 1 + r - s]), atol=1e-13)


def test_decompose_psi_plus_correlations():
    dec = decompose(make_state(PureSchmidt((0.5, 0.5))))
    np.testing.assert_allclose(dec.r_vec, np.zeros(3), atol=1e-13)
    np.testing.assert_allclose(dec.s_vec, np.zeros(3), atol=1e-13)
    np.testing.assert_allclose(dec.t_mat, np.diag([1.0, -1.0, 1.0]), atol=1e-13)


def test_decompose_pauli_coefficients_real(rng):
    for _ in range(10):
        dec = decompose(random_density_matrix(2, 2, rng=rng))
        assert np.max(np.abs(dec.r_vec.imag)) < 1e-12
        assert np.max(np.abs(dec.s_vec.imag)) < 1e-12
        assert np.max(np.abs(dec.t_mat.imag)) < 1e-12


def test_reconstruct_diagonal_t_normal_form():
    t = (0.3, -0.5, 0.4)
    rho = make_state(MaxDisordered(t))
    expected = np.eye(4, dtype=complex)
    for tm, sigma in zip(t, PAULI):
        expected += tm * tensor(sigma, sigma)
    np.testing.assert_allclose(rho.mat, expected / 4, atol=1e-13)
    dec = decompose(rho)
    np.testing.assert_allclose(dec.r_vec, np.zeros(3), atol=1e-13)
    np.testing.assert_allclose(dec.s_vec, np.zeros(3), atol=1e-13)
    np.testing.assert_allclose(dec.t_mat, np.diag(t), atol=1e-13)


def test_t_trace_norm_examples():
    dec = decompose(make_state(PureSchmidt((0.5, 0.5))))
    assert t_trace_norm(dec) == pytest.approx(3.0, abs=1e-12)
    for p in (0.0, 0.3, 0.7, 1.0):
        dec = decompose(make_state(Werner(2, p)))
        assert t_trace_norm(dec) == pytest.approx(3 * p, abs=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_max_disordered_tau_identity(rng, d):
    # (1 + ||T||_1)/d against the realignment SVD route
    for _ in range(10):
        rho = random_max_disordered(d, rng)
        dec = decompose(rho)
        assert (1 + t_trace_norm(dec)) / d == pytest.approx(
            ccn_value(rho), abs=1e-10
        )


def _scaled_coefficients(dec):
    """C/d assembled from decompose's (r, s, T): the realigned matrix written
    in the orthonormal local operator frames."""
    return np.block([[np.ones((1, 1)), dec.s_vec[None]],
                     [dec.r_vec[:, None], dec.t_mat.T]]) / dec.dim


@pytest.mark.parametrize("d,basis", [(2, "pauli"), (2, "spin"), (3, "spin"), (4, "spin")])
def test_realigned_from_decomposition_matches_realign(rng, d, basis):
    # C/d is realign(rho) in unitary frames, so it has the same singular values
    for _ in range(10):
        rho = random_density_matrix(d, d, rng=rng)
        sv = np.linalg.svd(_scaled_coefficients(decompose(rho, basis=basis)), compute_uv=False)
        np.testing.assert_allclose(sv, realign(rho).singular_values, rtol=0, atol=1e-12)


def test_realigned_block_structure_for_disordered_states():
    t1, t2, t3 = 0.5, -0.4, 0.3
    got = np.sort(realign(make_state(MaxDisordered((t1, t2, t3)))).singular_values)
    expected = np.sort([0.5, abs(t1) / 2, abs(t2) / 2, abs(t3) / 2])
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_realigned_maximally_mixed_single_singular_value():
    sv = realign(np.eye(9) / 9).singular_values
    assert sv[0] == pytest.approx(1 / 3, abs=1e-12)
    assert np.all(sv[1:] < 1e-13)


def test_realigned_operator_basis_counterexample_matrix():
    s, r, t = 0.5, 0.25, 0.0625
    rho = make_state(Counterexample(s, r, t))
    got = _scaled_coefficients(decompose(rho))
    # [2, 2] is -t, where W_a^dag realign(rho) W_b has +t: conj(sigma_y) is
    # -sigma_y, so the Pauli frame has W_b^T W_b != I
    expected = 0.5 * np.array(
        [[1, 0, 0, s], [0, t, 0, 0], [0, 0, -t, 0], [r, 0, 0, 1 + r - s]]
    )
    np.testing.assert_allclose(got, expected, atol=1e-13)
    np.testing.assert_allclose(
        np.linalg.svd(got, compute_uv=False), realign(rho).singular_values, atol=1e-12
    )


def _stacks(d, basis):
    """(bra_a, bra_b, ket_a, ket_b) as the module docstring defines them,
    identity first: c_nm = tr((bra_a[n] (x) bra_b[m]) rho) and rho is the
    sum of c_nm ket_a[n] (x) ket_b[m] / d^2."""
    if basis == "pauli":
        stack = np.stack([np.eye(2), *PAULI])
        return stack, stack, stack, stack
    kets = spin_basis(d)
    return kets.conj().transpose(0, 2, 1), kets.transpose(0, 2, 1), kets, kets.conj()


@pytest.mark.parametrize("d,basis", [(2, "pauli"), (2, "spin"), (3, "spin"), (4, "spin")])
def test_decompose_matches_explicit_coefficients(rng, d, basis):
    bra_a, bra_b, ket_a, ket_b = _stacks(d, basis)
    for _ in range(3):
        rho = random_density_matrix(d, d, rng=rng)
        coeff = np.empty((d * d, d * d), dtype=complex)
        rebuilt = np.zeros((d * d, d * d), dtype=complex)
        for n in range(d * d):
            for m in range(d * d):
                coeff[n, m] = np.trace(np.kron(bra_a[n], bra_b[m]) @ rho.mat)
                rebuilt += coeff[n, m] * np.kron(ket_a[n], ket_b[m]) / d**2
        assert coeff[0, 0] == pytest.approx(1.0, abs=1e-12)
        dec = decompose(rho, basis=basis)
        np.testing.assert_allclose(dec.r_vec, coeff[1:, 0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(dec.s_vec, coeff[0, 1:], rtol=0, atol=1e-12)
        np.testing.assert_allclose(dec.t_mat, coeff[1:, 1:].T, rtol=0, atol=1e-12)
        np.testing.assert_allclose(rebuilt, rho.mat, rtol=0, atol=1e-12)


@pytest.mark.parametrize("d,basis", [(2, "pauli"), (3, "spin")])
def test_bloch_vectors_are_reduction_data(rng, d, basis):
    for _ in range(5):
        rho = random_density_matrix(d, d, rng=rng)
        dec = decompose(rho, basis=basis)
        ket_a, ket_b = (stack[1:] for stack in _stacks(d, basis)[2:])
        red_a = (np.eye(d) + np.tensordot(dec.r_vec, ket_a, axes=(0, 0))) / d
        red_b = (np.eye(d) + np.tensordot(dec.s_vec, ket_b, axes=(0, 0))) / d
        np.testing.assert_allclose(red_a, partial_trace(rho, "second"), atol=1e-12)
        np.testing.assert_allclose(red_b, partial_trace(rho, "first"), atol=1e-12)


def test_pauli_and_spin_paths_agree_at_d2(rng):
    rho = random_density_matrix(2, 2, rng=rng)
    tau_pauli = trace_norm(_scaled_coefficients(decompose(rho, basis="pauli")))
    tau_spin = trace_norm(_scaled_coefficients(decompose(rho, basis="spin")))
    assert tau_pauli == pytest.approx(tau_spin, abs=1e-12)


def test_decompose_errors(rng):
    with pytest.raises(InvariantError, match="trace"):
        decompose(np.eye(4), basis="pauli")
    with pytest.raises(DimensionError):
        decompose(random_density_matrix(2, 3, rng=rng))
    with pytest.raises(ValueError, match="pauli"):
        decompose(np.eye(9) / 9, basis="pauli")
