"""Realignment map and CCN value."""

import numpy as np
import pytest

from sepscope.criteria import tensor_pair
from sepscope.linalg import TOL_FLAG, DimensionError, frobenius_norm, tensor, trace_norm
from sepscope.realign import ccn_value, realign
from sepscope.states import (
    Counterexample,
    Isotropic,
    MaxDisordered,
    PureSchmidt,
    Werner,
    counterexample_matrix,
    counterexample_spectra,
    make_state,
    psi_plus,
    random_density_matrix,
    random_unitary,
)


def _entrywise_realign_oracle(mat, da, db):
    """Direct loop over <ik|rho|jl> as an independent reference."""
    out = np.zeros((da * da, db * db), dtype=complex)
    for i in range(da):
        for j in range(da):
            for k in range(db):
                for l in range(db):
                    out[i * da + j, k * db + l] = mat[i * db + k, j * db + l]
    return out


def test_realign_matches_entrywise_oracle(rng):
    for da, db in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        rho = random_density_matrix(da, db, rng=rng)
        got = realign(rho)
        np.testing.assert_allclose(
            got.mat, _entrywise_realign_oracle(rho.mat, da, db), atol=0
        )
        assert got.mat.shape == (da * da, db * db)
        assert got.singular_values.shape == (min(da * da, db * db),)
        assert np.all(np.diff(got.singular_values) <= 0)


def test_realign_simple_tensor_is_outer_product(rng):
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    got = realign(tensor(x, y), dims=(2, 3))
    np.testing.assert_allclose(got.mat, np.outer(x.ravel(), y.ravel()), atol=1e-14)
    assert got.singular_values[0] == pytest.approx(
        np.linalg.norm(x) * np.linalg.norm(y), abs=1e-12
    )
    assert np.all(got.singular_values[1:] < 1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_realign_psi_plus_is_scaled_identity(d):
    proj = np.outer(psi_plus(d), psi_plus(d).conj())
    got = realign(proj, dims=(d, d))
    np.testing.assert_allclose(got.mat, np.eye(d * d) / d, atol=1e-14)
    np.testing.assert_allclose(got.singular_values, np.full(d * d, 1 / d), atol=1e-14)


def test_realign_counterexample_canonical_form():
    s, r, t = 0.5, 0.25, 0.0625
    got = realign(counterexample_matrix(s, r, t), dims=(2, 2))
    expected = np.array(
        [
            [(1 + r) / 2, 0, 0, 0],
            [0, t / 2, 0, 0],
            [0, 0, t / 2, 0],
            [(s - r) / 2, 0, 0, (1 - s) / 2],
        ]
    )
    np.testing.assert_allclose(got.mat, expected, atol=0)
    spec = counterexample_spectra(Counterexample(s, r, t))
    assert got.trace_norm == pytest.approx(spec.g + abs(t), abs=1e-12)


def test_realign_entry_permutation_preserves_frobenius(rng):
    for _ in range(20):
        rho = random_density_matrix(3, 2, rng=rng)
        aligned = realign(rho)
        assert frobenius_norm(aligned.mat) == pytest.approx(
            frobenius_norm(rho.mat), abs=1e-12
        )
        assert np.sum(aligned.singular_values**2) == pytest.approx(
            np.sum(np.abs(rho.mat) ** 2), abs=1e-12
        )


def test_realign_dimension_errors():
    with pytest.raises(DimensionError):
        realign(np.eye(6))  # side not a perfect square, dims required
    with pytest.raises(DimensionError):
        realign(np.eye(4), dims=(2, 3))


def test_ccn_value_pure_product():
    rho = make_state(PureSchmidt((1.0, 0.0)))
    assert ccn_value(rho) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_ccn_value_psi_plus(d):
    proj = np.outer(psi_plus(d), psi_plus(d).conj())
    assert ccn_value(proj, dims=(d, d)) == pytest.approx(d, abs=1e-10)


def test_ccn_value_pure_schmidt_closed_form(rng):
    for d in (2, 3, 4):
        for _ in range(10):
            alpha = rng.dirichlet(np.ones(d))
            rho = make_state(PureSchmidt(tuple(alpha)))
            assert ccn_value(rho) == pytest.approx(
                np.sum(np.sqrt(alpha)) ** 2, abs=1e-10
            )


def test_ccn_local_unitary_invariance(rng):
    for _ in range(20):
        rho = random_density_matrix(2, 3, rng=rng)
        u = tensor(random_unitary(2, rng), random_unitary(3, rng))
        rotated = u @ rho.mat @ u.conj().T
        assert ccn_value(rotated, dims=(2, 3)) == pytest.approx(
            ccn_value(rho), abs=1e-10
        )


def test_ccn_subcross_inequality(rng):
    for _ in range(25):
        h1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h1 = (h1 + h1.conj().T) / 2
        h2 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h2 = (h2 + h2.conj().T) / 2
        assert ccn_value(tensor(h1, h2), dims=(2, 3)) <= (
            trace_norm(h1) * trace_norm(h2) + 1e-10
        )


def test_ccn_multiplicative_under_regrouping(rng):
    for _ in range(10):
        rho1 = random_density_matrix(2, 2, rng=rng)
        rho2 = random_density_matrix(2, 2, rng=rng)
        pair = tensor_pair(rho1, rho2)
        assert ccn_value(pair.state) == pytest.approx(
            ccn_value(rho1) * ccn_value(rho2), abs=1e-10
        )


def test_ccn_variational_upper_bound(rng):
    # rho = sum_ij E_ij (x) block_ij gives sum_ij ||block_ij||_2 >= tau
    for _ in range(10):
        rho = random_density_matrix(2, 3, rng=rng)
        blocks = rho.mat.reshape(2, 3, 2, 3)
        bound = sum(
            frobenius_norm(blocks[i, :, j, :]) for i in range(2) for j in range(2)
        )
        assert ccn_value(rho) <= bound + 1e-10


def test_ccn_entangled_separable_fixtures():
    for spec in (Werner(2, 0.2), Isotropic(3, 0.1), MaxDisordered((0.4, -0.3, 0.2))):
        tau = ccn_value(make_state(spec))
        assert not tau > 1 + TOL_FLAG
        assert tau - 1 <= 1e-9


def test_ccn_entangled_psi_plus():
    tau = ccn_value(make_state(PureSchmidt((0.5, 0.5))))
    assert tau > 1 + TOL_FLAG
    assert tau - 1 == pytest.approx(1.0, abs=1e-10)


def test_ccn_entangled_counterexample_is_missed():
    # entangled (PPT violated) yet tau < 1: the criterion stays silent
    tau = ccn_value(make_state(Counterexample(0.5, 0.25, 0.0625)))
    assert not tau > 1 + TOL_FLAG
    assert tau - 1 == pytest.approx(-0.0536165235168156, abs=1e-12)
