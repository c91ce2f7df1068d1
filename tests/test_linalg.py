"""Core linear algebra: norms, partial trace/transpose, tensor structure."""

import dataclasses
import re
import tokenize
from pathlib import Path

import numpy as np
import pytest

from sepscope.hsbasis import SIGMA_X, SIGMA_Z
from sepscope.linalg import (
    DensityMatrix,
    DimensionError,
    InvariantError,
    NumericError,
    TraceClassOperator,
    frobenius_norm,
    partial_trace,
    partial_transpose,
    permute_subsystems,
    tensor,
    trace_norm,
    trace_out,
    _check_states,
    _partial_transpose,
    _trace_norms,
)
from sepscope.criteria import realigned_trace
from sepscope.realign import _reshuffle, ccn_value, realign
from sepscope.states import (
    counterexample_matrix,
    counterexample_spectra,
    Counterexample,
    psi_plus,
    random_density_matrix,
    random_unitary,
)

I2 = np.eye(2, dtype=complex)
E = [[np.zeros((2, 2), dtype=complex) for _ in range(2)] for _ in range(2)]
for _i in range(2):
    for _j in range(2):
        E[_i][_j][_i, _j] = 1.0


@pytest.mark.parametrize("d", [2, 3, 4])
def test_trace_norm_identity(d):
    assert trace_norm(np.eye(d)) == pytest.approx(d)


def test_trace_norm_absolute_eigenvalues():
    assert trace_norm(np.diag([1.0, -2.0])) == pytest.approx(3.0)


def test_trace_norm_realigned_counterexample_matrix():
    # explicit 4x4 realigned form of the counterexample family, trace norm
    # g(s, r) + |t| with g computed from the printed eigenvalue formulas
    s, r, t = 0.5, 0.25, 0.0625
    mat = 0.5 * np.array(
        [[1, 0, 0, r], [0, t, 0, 0], [0, 0, t, 0], [s, 0, 0, 1 + r - s]]
    )
    g = counterexample_spectra(Counterexample(s, r, t)).g
    assert g == pytest.approx(5 / (4 * np.sqrt(2)), abs=1e-14)
    assert trace_norm(mat) == pytest.approx(g + abs(t), abs=1e-12)
    assert trace_norm(mat) == pytest.approx(0.9463834764831844, abs=1e-12)


def test_frobenius_norm_examples():
    assert frobenius_norm(I2) == pytest.approx(np.sqrt(2))
    assert frobenius_norm(SIGMA_X) == pytest.approx(np.sqrt(2))
    assert frobenius_norm(E[0][1] + E[1][0]) == pytest.approx(np.sqrt(2))


def test_svd_failure_names_the_matrix_or_the_stack(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    with pytest.raises(NumericError, match=r"^SVD did not converge for 2x2 matrix "
                                           r"\(frobenius norm 2\.000e\+00\)$"):
        trace_norm(2 * E[0][0])
    stack = np.stack([np.eye(2), 3 * np.eye(2), np.zeros((2, 2))])
    with pytest.raises(NumericError, match=r"^SVD did not converge for a stack of 3 2x2 "
                                           r"matrices \(largest frobenius norm 4\.243e\+00\)$"):
        _trace_norms(stack)
    # realignment SVDs go through the same wrapper; the realigned matrix of a
    # 2x2 operator is 4x4 with the operator's frobenius norm
    for call in (ccn_value, realign):
        with pytest.raises(NumericError, match=r"^SVD did not converge for 4x4 matrix "
                                               r"\(frobenius norm 5\.000e-01\)$"):
            call(np.eye(4) / 4)


def test_trace_norm_invariant_under_isometries(rng):
    for _ in range(25):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        u = random_unitary(4, rng)
        v = random_unitary(4, rng)
        assert trace_norm(u @ m @ v) == pytest.approx(trace_norm(m), abs=1e-10)
        assert trace_norm(m) >= frobenius_norm(m) - 1e-12


def test_partial_transpose_product_state(rng):
    rho_a = random_density_matrix(2, 1, rng=rng).mat
    rho_b = random_density_matrix(3, 1, rng=rng).mat
    prod = tensor(rho_a, rho_b)
    pt = partial_transpose(prod, "second", dims=(2, 3))
    np.testing.assert_allclose(pt, tensor(rho_a, rho_b.T), atol=1e-14)
    assert np.linalg.eigvalsh(pt)[0] >= -1e-12


def test_partial_transpose_psi_plus_min_eigenvalue():
    proj = np.outer(psi_plus(2), psi_plus(2).conj())
    pt = partial_transpose(proj, "second", dims=(2, 2))
    eigs = np.linalg.eigvalsh(pt)
    assert eigs[0] == pytest.approx(-0.5, abs=1e-12)


def test_partial_transpose_counterexample_min_eigenvalue():
    s, r, t = 0.5, 0.25, 0.0625
    pt = partial_transpose(counterexample_matrix(s, r, t), "second", dims=(2, 2))
    eigs = np.linalg.eigvalsh(pt)
    closed = (s - r) / 4 - 0.5 * np.sqrt((s - r) ** 2 / 4 + t * t)
    assert eigs[0] == pytest.approx(closed, abs=1e-12)
    assert eigs[0] == pytest.approx(-0.007377124296868, abs=1e-12)


def test_partial_transpose_involution_and_full_transpose(rng):
    rho = random_density_matrix(2, 3, rng=rng)
    for side in ("first", "second"):
        pt = partial_transpose(rho, side)
        np.testing.assert_allclose(
            partial_transpose(pt, side, dims=(2, 3)), rho.mat, atol=0
        )
    both = partial_transpose(partial_transpose(rho, "first"), "second", dims=(2, 3))
    np.testing.assert_allclose(both, rho.mat.T, atol=0)


def test_stacked_index_maps_act_matrix_by_matrix(rng):
    for da, db in ((2, 3), (3, 2), (2, 2)):
        mats = np.stack([random_density_matrix(da, db, rng=rng).mat for _ in range(5)])
        stack = mats.reshape(5, 1, da * db, da * db)
        for side in ("first", "second"):
            got = _partial_transpose(stack, da, db, side)
            for k, mat in enumerate(mats):
                want = partial_transpose(mat, side, dims=(da, db))
                np.testing.assert_array_equal(got[k, 0], want)
        aligned = _reshuffle(stack, da, db)
        assert aligned.shape == (5, 1, da * da, db * db)
        for k, mat in enumerate(mats):
            np.testing.assert_array_equal(aligned[k, 0], realign(mat, dims=(da, db)).mat)


def test_partial_trace_product_state(rng):
    rho_a = random_density_matrix(2, 1, rng=rng).mat
    rho_b = random_density_matrix(3, 1, rng=rng).mat
    prod = tensor(rho_a, rho_b)
    np.testing.assert_allclose(
        partial_trace(prod, "second", dims=(2, 3)), rho_a, atol=1e-14
    )
    np.testing.assert_allclose(
        partial_trace(prod, "first", dims=(2, 3)), rho_b, atol=1e-14
    )


@pytest.mark.parametrize("d", [2, 3])
def test_partial_trace_psi_plus_maximally_mixed(d):
    proj = np.outer(psi_plus(d), psi_plus(d).conj())
    np.testing.assert_allclose(
        partial_trace(proj, "second", dims=(d, d)), np.eye(d) / d, atol=1e-14
    )


def test_partial_trace_counterexample_reductions():
    s, r, t = 0.5, 0.25, 0.0625
    mat = counterexample_matrix(s, r, t)
    # index-summation oracle
    expect_a = np.zeros((2, 2), dtype=complex)
    expect_b = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            expect_a[i, j] = sum(mat[i * 2 + k, j * 2 + k] for k in range(2))
            expect_b[i, j] = sum(mat[k * 2 + i, k * 2 + j] for k in range(2))
    np.testing.assert_allclose(partial_trace(mat, "second", dims=(2, 2)), expect_a, atol=0)
    np.testing.assert_allclose(partial_trace(mat, "first", dims=(2, 2)), expect_b, atol=0)
    np.testing.assert_allclose(expect_a, np.diag([(1 + r) / 2, (1 - r) / 2]), atol=1e-14)
    np.testing.assert_allclose(expect_b, np.diag([(1 + s) / 2, (1 - s) / 2]), atol=1e-14)


def test_partial_trace_normalisation(rng):
    for _ in range(10):
        rho = random_density_matrix(3, 2, rng=rng)
        for side in ("first", "second"):
            assert np.trace(partial_trace(rho, side)) == pytest.approx(1.0, abs=1e-12)


def test_tensor_examples():
    np.testing.assert_allclose(tensor(I2, I2), np.eye(4), atol=0)
    np.testing.assert_allclose(
        tensor(SIGMA_Z, SIGMA_Z), np.diag([1.0, -1.0, -1.0, 1.0]), atol=0
    )
    unit = tensor(E[0][0], E[1][1])
    expected = np.zeros((4, 4))
    expected[1, 1] = 1.0  # composite index (0, 1) on rows and columns
    np.testing.assert_allclose(unit, expected, atol=0)


def test_permute_subsystems_identity_and_swap(rng):
    rho_a = random_density_matrix(2, 1, rng=rng).mat
    rho_b = random_density_matrix(3, 1, rng=rng).mat
    prod = tensor(rho_a, rho_b)
    np.testing.assert_allclose(
        permute_subsystems(prod, [2, 3], (0, 1)), prod, atol=0
    )
    np.testing.assert_allclose(
        permute_subsystems(prod, [2, 3], (1, 0)), tensor(rho_b, rho_a), atol=1e-14
    )


def test_permute_subsystems_regroup_preserves_spectrum(rng):
    # four-factor product regrouped from (A1 B1 A2 B2) to (A1 A2 B1 B2)
    parts = [random_density_matrix(2, 1, rng=rng).mat for _ in range(4)]
    prod = tensor(tensor(parts[0], parts[1]), tensor(parts[2], parts[3]))
    regrouped = permute_subsystems(prod, [2, 2, 2, 2], (0, 2, 1, 3))
    before = np.sort(np.linalg.eigvalsh(prod))
    after = np.sort(np.linalg.eigvalsh(regrouped))
    np.testing.assert_allclose(before, after, atol=1e-10)
    assert np.trace(regrouped) == pytest.approx(np.trace(prod))


def test_permute_subsystems_errors():
    with pytest.raises(DimensionError):
        permute_subsystems(np.eye(6), [2, 2], (0, 1))
    with pytest.raises(DimensionError):
        permute_subsystems(np.eye(4), [2, 2], (0, 0))


def test_trace_out_multi_factor(rng):
    parts = [random_density_matrix(2, 1, rng=rng).mat for _ in range(3)]
    prod = tensor(tensor(parts[0], parts[1]), parts[2])
    reduced = trace_out(prod, [2, 2, 2], [1])
    np.testing.assert_allclose(reduced, tensor(parts[0], parts[2]), atol=1e-14)


def test_density_matrix_validation(rng):
    good = random_density_matrix(2, 2, rng=rng)
    assert good.dim == 2

    with pytest.raises(InvariantError, match="Hermitian"):
        DensityMatrix(2, 1, np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(InvariantError, match="trace"):
        DensityMatrix(2, 1, np.eye(2))
    with pytest.raises(InvariantError, match="positive semidefinite"):
        DensityMatrix(2, 1, np.diag([1.5, -0.5]))
    with pytest.raises(DimensionError):
        DensityMatrix(2, 2, np.eye(2) / 2)
    with pytest.raises(InvariantError, match="NaN"):
        DensityMatrix(2, 1, np.array([[np.nan, 0], [0, 1.0]]))


def _error_of(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


def test_stacked_states_reject_like_density_matrix(rng):
    # the first failing matrix of a stack raises what DensityMatrix raises for it alone
    good = [random_density_matrix(2, 3, rng=rng).mat for _ in range(5)]
    skew = good[0].copy()
    skew[0, 1] += 1e-9
    heavy = good[1] * (1 + 1e-9)
    negative = np.diag([1.2, 0.0, 0.0, 0.0, 0.0, -0.2]).astype(complex)
    nan, inf = good[2].copy(), good[3].copy()
    nan[1, 1] = np.nan
    inf[2, 0] = np.inf
    for bad in (skew, heavy, negative, nan, inf):
        for k in (0, 2, 5):
            mats = np.stack(good[:k] + [bad] + good[k:])
            want = _error_of(lambda: DensityMatrix(2, 3, mats[k]))
            assert want[0] is InvariantError
            assert _error_of(lambda: _check_states(mats)) == want
    # an earlier failure wins over a later NaN, whichever check it fails
    for bad in (skew, heavy, negative):
        mats = np.stack([good[0], bad, nan, good[1]])
        assert _error_of(lambda: _check_states(mats)) == _error_of(
            lambda: DensityMatrix(2, 3, bad))
    eigs = _check_states(np.stack(good))
    for eig, mat in zip(eigs, good):
        assert eig.tobytes() == DensityMatrix(2, 3, mat)._eigs.tobytes()


def test_density_matrix_keeps_its_spectrum(rng):
    rho = random_density_matrix(3, 2, rng=rng)
    assert rho._eigs.tobytes() == np.linalg.eigvalsh(rho.mat).tobytes()
    assert not rho._eigs.flags.writeable
    with pytest.raises(AttributeError):
        rho._eigs = np.zeros(6)
    assert "_eigs" not in repr(rho)
    assert [f.name for f in dataclasses.fields(rho)] == ["dim_a", "dim_b", "mat"]


def test_trace_class_operator_relaxed():
    op = TraceClassOperator(2, 1, np.array([[0.5, 0.5], [0.0, 0.5]]))
    assert op.mat.shape == (2, 2)
    with pytest.raises(DimensionError):
        TraceClassOperator(2, 2, np.eye(2))


def test_density_matrix_is_a_trace_class_operator(rng):
    rho = random_density_matrix(2, 2, rng=rng)
    assert isinstance(rho, TraceClassOperator)
    assert not isinstance(TraceClassOperator(2, 2, rho.mat), DensityMatrix)


def test_trace_class_operator_rectangular_dim_property():
    op = TraceClassOperator(2, 3, np.eye(6))
    with pytest.raises(DimensionError, match="no common local dimension"):
        _ = op.dim
    assert TraceClassOperator(3, 3, np.eye(9)).dim == 3


_EYE4 = np.eye(4) / 4
_EMPTY = np.zeros((0, 0))


@pytest.mark.parametrize(
    "call",
    [
        lambda: ccn_value(_EYE4, dims=(-2, -2)),
        lambda: realign(_EYE4, dims=(-2, -2)),
        lambda: partial_transpose(_EYE4, dims=(-2, -2)),
        lambda: partial_trace(_EYE4, dims=(-2, -2)),
        lambda: trace_out(_EYE4, [-2, -2], [0]),
        lambda: permute_subsystems(_EYE4, [-2, -2], [1, 0]),
        lambda: ccn_value(_EMPTY, dims=(0, 0)),
        lambda: realigned_trace(_EMPTY),
        lambda: trace_out(_EMPTY, [0, 3], [0]),
    ],
    ids=[
        "ccn_value", "realign", "partial_transpose", "partial_trace", "trace_out",
        "permute_subsystems", "ccn_value-empty", "realigned_trace-empty", "trace_out-empty",
    ],
)
def test_nonpositive_dims_rejected_before_numerics(call):
    with pytest.raises(DimensionError, match="subsystem dimensions must be positive"):
        call()


def test_density_matrix_rectangular_dim_property(rng):
    rho = random_density_matrix(2, 3, rng=rng)
    with pytest.raises(DimensionError):
        _ = rho.dim


@pytest.mark.parametrize(
    "call",
    [
        lambda: ccn_value(_EYE4, dims=(2.9, 2.0)),
        lambda: partial_transpose(_EYE4, dims=(2.0, 2)),
        lambda: trace_out(_EYE4, [2.5, 2], [0]),
        lambda: permute_subsystems(_EYE4, [2, np.float64(2.0)], [1, 0]),
        lambda: TraceClassOperator(2.0, 2, _EYE4),
        lambda: DensityMatrix(2, 2.0, _EYE4),
        lambda: DensityMatrix(True, 4, _EYE4),
    ],
    ids=[
        "ccn_value", "partial_transpose", "trace_out", "permute_subsystems",
        "operator", "state", "state-bool",
    ],
)
def test_non_integer_dims_rejected(call):
    with pytest.raises(DimensionError, match="subsystem dimensions must be integers"):
        call()


@pytest.mark.parametrize("dims", [(4,), (2, 2, 1)])
def test_dims_of_the_wrong_length_rejected(dims):
    with pytest.raises(DimensionError, match="expected two subsystem dimensions"):
        ccn_value(_EYE4, dims=dims)


def test_numpy_integer_dims_accepted():
    rho = DensityMatrix(np.int64(2), np.int32(2), _EYE4)
    assert (type(rho.dim_a), type(rho.dim_b)) == (int, int)
    assert ccn_value(_EYE4, dims=(np.int64(2), 2)) == ccn_value(rho)
    assert trace_out(_EYE4, [np.int64(2), 2], [0]).shape == (2, 2)


def test_every_tolerance_lives_in_one_table():
    # a float literal with a negative exponent is a margin: only linalg's
    # TOL_* table and verify's per-check _*_TOLS tables may hold one
    # (docstrings and comments are tokens of their own and do not count)
    allowed = {"linalg.py": r"TOL_[A-Z_]+", "verify.py": r"_[A-Z]+_TOLS"}
    stray = []
    for path in sorted((Path(__file__).parents[1] / "src" / "sepscope").glob("*.py")):
        owner = ""  # the name a top-level statement starts with
        new_statement = True
        with tokenize.open(path) as f:
            for tok in tokenize.generate_tokens(f.readline):
                if tok.type in (tokenize.NL, tokenize.COMMENT, tokenize.INDENT, tokenize.DEDENT):
                    continue
                if new_statement:
                    owner = tok.string if tok.start[1] == 0 else ""
                new_statement = tok.type == tokenize.NEWLINE
                if tok.type == tokenize.NUMBER and re.search(r"[eE]-", tok.string):
                    table = allowed.get(path.name)
                    if table is None or not re.fullmatch(table, owner):
                        stray.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    assert not stray, stray
