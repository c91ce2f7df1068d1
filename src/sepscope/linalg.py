"""Dense complex linear algebra for bipartite operators.

Index convention (fixed package-wide)
-------------------------------------
An operator on C^dA (x) C^dB is a (dA*dB, dA*dB) complex array.  The
composite basis vector |i>(x)|k> sits at row i*dB + k (0-based): the
first factor is the slowest index.  Matrix elements therefore read

    rho[i*dB + k, j*dB + l] = <ik| rho |jl>

Every downstream formula (realignment, partial transpose, Hilbert-Schmidt
decompositions) relies on this convention; do not reorder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Every margin the package compares against; other modules import it by name.
# verify keeps its per-check acceptance tables beside the checks it prints.
TOL_HERM = 1e-12         # max-abs deviation of a state from Hermiticity
TOL_TRACE = 1e-12        # |tr(rho) - 1| of a state
TOL_PSD = 1e-10          # admissible negativity of a state's smallest eigenvalue
TOL_FLAG = 1e-9          # a criterion flag trips only this far above its threshold
TOL_PARAM = 1e-12        # slack of a family parameter, weight or eigenvalue at its bound
TOL_SIMPLEX = 1e-9       # |sum - 1| of a probability or Schmidt-coefficient vector
TOL_DISORDERED = 1e-10   # largest Bloch-vector entry of a "maximally disordered" state
TOL_STRUCTURE = 1e-10    # purity and isotropic notes; T Hermitian and PSD in t_psd
TOL_CLOSED_FORM = 1e-12  # off-diagonal and imaginary parts of T the two-qubit closed form ignores
TOL_UNITARY = 1e-10      # max-abs entry of U^H U - I of a local unitary
TOL_PROJECTOR = 1e-12    # projector Hermiticity, idempotence, orthogonality, completeness
TOL_DIRECTION = 1e-10    # tau change a monotonicity probe still calls invariant
TOL_ASCENT = 1e-10       # per-step gain at which a fidelity ascent stops
TOL_FLAT = 1e-300        # largest gradient entry below which an ascent stops as flat
TOL_CEILING = 1e-12      # distance below its certified ceiling at which an ascent stops
TOL_PREDICTED = 16 * 2.0**-52  # relative model gain at which an interior Newton step is rounding
TOL_BISECT = 1e-9        # bracket width at which the CCN threshold bisection stops


class DimensionError(ValueError):
    """Shapes or declared subsystem dimensions are inconsistent."""


class InvariantError(ValueError):
    """A structural invariant (Hermiticity, trace, positivity, ...) fails."""


class NumericError(RuntimeError):
    """A numerical routine (SVD, eigensolver) failed to converge."""


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-D complex array with finite entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise InvariantError("matrix contains NaN or Inf entries")
    return a


def _max_abs(mats: np.ndarray) -> np.ndarray:
    """The largest entry modulus of each matrix in a (..., r, c) stack."""
    return np.max(np.abs(mats), axis=(-2, -1))


def frobenius_norm(m) -> float:
    """Hilbert-Schmidt norm sqrt(tr(m^dag m))."""
    return float(_frobenius_norms(as_matrix(m)))


def _frobenius_norms(mats: np.ndarray) -> np.ndarray:
    """frobenius_norm of each matrix in a (..., r, c) stack: the real and
    imaginary parts of its row-major entries each enter one dot product, as
    in np.linalg.norm of a single matrix."""
    flat = mats.reshape(mats.shape[:-2] + (1, -1))
    re, im = flat.real, flat.imag
    sq = re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2)
    return np.sqrt(sq[..., 0, 0])


def trace_norm(m) -> float:
    """Sum of singular values of m."""
    return float(_trace_norms(as_matrix(m)))


def _trace_norms(mats: np.ndarray) -> np.ndarray:
    """trace_norm of each matrix in a (..., r, c) stack."""
    return _singular_values(mats).sum(axis=-1)


def _singular_values(mats: np.ndarray) -> np.ndarray:
    """Nonincreasing singular values of each matrix in a (..., r, c) stack."""
    try:
        return np.linalg.svd(mats, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        rows, cols = mats.shape[-2:]
        if mats.ndim == 2:
            what = f"{rows}x{cols} matrix (frobenius norm {np.linalg.norm(mats):.3e})"
        else:
            norms = np.linalg.norm(mats, axis=(-2, -1))
            what = (f"a stack of {norms.size} {rows}x{cols} matrices "
                    f"(largest frobenius norm {np.max(norms):.3e})")
        raise NumericError(f"SVD did not converge for {what}") from exc


def tensor(a, b) -> np.ndarray:
    """Kronecker product with the first argument as the slow index."""
    return _kron(as_matrix(a), as_matrix(b))


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """tensor of matching (..., r, c) stacks, matrix by matrix; either may be
    a single matrix.  One broadcast product, as np.kron forms it."""
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(prod.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def _check_dims(dims: Sequence[int]) -> tuple[int, ...]:
    """dims as Python ints, after rejecting any that is not an integer (a
    Python or numpy int; bools and floats such as 2.0 are refused) or is
    below 1, before numpy reshapes by it."""
    for d in dims:
        if isinstance(d, bool) or not isinstance(d, (int, np.integer)):
            raise DimensionError(f"subsystem dimensions must be integers, got {d!r}")
    if min(dims, default=1) < 1:
        raise DimensionError("subsystem dimensions must be positive")
    return tuple(int(d) for d in dims)


def _mat_and_dims(rho, dims: tuple[int, int] | None) -> tuple[np.ndarray, int, int]:
    """Accept a TraceClassOperator (or DensityMatrix) or a raw array plus dims."""
    if isinstance(rho, TraceClassOperator):
        return rho.mat, rho.dim_a, rho.dim_b
    mat = as_matrix(rho)
    if dims is None:
        side = mat.shape[0]
        d = round(np.sqrt(side))
        if mat.shape[0] != mat.shape[1] or d * d != side:
            raise DimensionError(
                "subsystem dimensions are required for a non-square-of-integer matrix"
            )
        dims = (d, d)
    if len(dims) != 2:
        raise DimensionError(f"expected two subsystem dimensions, got {len(dims)}")
    dim_a, dim_b = _check_dims(dims)
    if mat.shape != (dim_a * dim_b, dim_a * dim_b):
        raise DimensionError(
            f"matrix shape {mat.shape} does not match dims ({dim_a}, {dim_b})"
        )
    return mat, dim_a, dim_b


def partial_transpose(rho, side: str = "second", dims: tuple[int, int] | None = None) -> np.ndarray:
    """Transpose one tensor factor: <ik|out|jl> = <il|rho|jk> for side='second'."""
    mat, da, db = _mat_and_dims(rho, dims)
    return _partial_transpose(mat, da, db, side)


def _partial_transpose(mats: np.ndarray, da: int, db: int, side: str = "second") -> np.ndarray:
    """partial_transpose of a (..., da*db, da*db) stack, matrix by matrix."""
    lead = mats.shape[:-2]
    four = mats.reshape(lead + (da, db, da, db))
    if side == "second":
        out = four.swapaxes(-3, -1)
    elif side == "first":
        out = four.swapaxes(-4, -2)
    else:
        raise ValueError(f"side must be 'first' or 'second', got {side!r}")
    return out.reshape(lead + (da * db, da * db))


def partial_trace(rho, side: str = "second", dims: tuple[int, int] | None = None) -> np.ndarray:
    """Trace out one factor; side names the subsystem that is removed."""
    mat, da, db = _mat_and_dims(rho, dims)
    if side not in ("first", "second"):
        raise ValueError(f"side must be 'first' or 'second', got {side!r}")
    return trace_out(mat, (da, db), [0 if side == "first" else 1])


def _factor_dims(mat, dims: Sequence[int]) -> tuple[np.ndarray, list[int]]:
    """mat as a matrix and dims as a list of positive ints whose product is its side."""
    mat = as_matrix(mat)
    dims = list(_check_dims(dims))
    side = int(np.prod(dims))
    if mat.shape != (side, side):
        raise DimensionError(f"matrix shape {mat.shape} does not match dims {dims}")
    return mat, dims


def trace_out(mat, dims: Sequence[int], which: Iterable[int]) -> np.ndarray:
    """Trace out the listed tensor factors of a multi-factor operator.

    dims lists every factor dimension in order; which gives 0-based factor
    indices to remove.  The kept factors stay in their original order.
    """
    mat, dims = _factor_dims(mat, dims)
    n = len(dims)
    which = sorted(set(int(i) for i in which))
    if which and (which[0] < 0 or which[-1] >= n):
        raise DimensionError(f"factor index out of range for {n} factors: {which}")
    return _trace_out(mat, dims, which)


def _trace_out(mats: np.ndarray, dims: list[int], which: list[int]) -> np.ndarray:
    """trace_out of a (..., side, side) stack, for checked dims and sorted
    distinct factor indices."""
    lead = mats.shape[:-2]
    out = mats.reshape(lead + tuple(dims + dims))
    remaining = list(dims)
    for idx in reversed(which):
        axis = len(lead) + idx
        out = np.trace(out, axis1=axis, axis2=axis + len(remaining))
        del remaining[idx]
    kept = int(np.prod(remaining)) if remaining else 1
    return out.reshape(lead + (kept, kept))


def permute_subsystems(m, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Conjugate an operator by the permutation that reorders its factors.

    Output factor p is input factor perm[p]; trace and spectrum are preserved.
    """
    mat, dims = _factor_dims(m, dims)
    n = len(dims)
    perm = [int(p) for p in perm]
    if sorted(perm) != list(range(n)):
        raise DimensionError(f"perm {perm} is not a permutation of 0..{n - 1}")
    return _permute_subsystems(mat, dims, perm)


def _permute_subsystems(mats: np.ndarray, dims: list[int], perm: list[int]) -> np.ndarray:
    """permute_subsystems of a (..., side, side) stack, for checked dims and perm."""
    lead, side, n = mats.shape[:-2], mats.shape[-1], len(dims)
    axes = list(range(len(lead))) + [len(lead) + p for p in perm + [q + n for q in perm]]
    return mats.reshape(lead + tuple(dims + dims)).transpose(axes).reshape(lead + (side, side))


def _check_states(mats: np.ndarray) -> np.ndarray:
    """Check the DensityMatrix invariants on a (N, side, side) stack.

    Each matrix must have finite entries, be Hermitian within TOL_HERM,
    have unit trace within TOL_TRACE and no eigenvalue below -TOL_PSD.  The
    eigenvalues are solved only for the matrices before the first one that
    fails the first three checks.  The first failing matrix raises the
    InvariantError that DensityMatrix raises for it.  Returns the ascending
    eigenvalues (N, side).
    """
    finite = np.isfinite(mats).all(axis=(-2, -1))
    # |rho^H - rho| = |rho - rho^H| entry by entry, so the difference can go
    # in place into the conjugate-transposed copy
    herm = mats.conj().swapaxes(-1, -2)
    herm -= mats
    defects = _max_abs(herm)
    traces = np.trace(mats, axis1=-2, axis2=-1)
    bad = ~finite | (defects > TOL_HERM) | (np.abs(traces - 1.0) > TOL_TRACE)
    first_bad = int(np.argmax(bad)) if bad.any() else len(mats)
    eigs = np.linalg.eigvalsh(mats[:first_bad])
    negative = eigs[:, 0] < -TOL_PSD
    if negative.any():
        min_eig = eigs[np.argmax(negative), 0]
        raise InvariantError(
            f"not positive semidefinite: min eigenvalue {min_eig:.3e} < -{TOL_PSD}"
        )
    if first_bad < len(mats):
        if not finite[first_bad]:
            raise InvariantError("matrix contains NaN or Inf entries")
        if defects[first_bad] > TOL_HERM:
            raise InvariantError(
                f"not Hermitian: max deviation {defects[first_bad]:.3e} > {TOL_HERM}"
            )
        raise InvariantError(
            f"trace is {complex(traces[first_bad]):.15g}, not 1 within {TOL_TRACE}"
        )
    return eigs


def _frozen_copy(mat: np.ndarray) -> np.ndarray:
    out = np.array(mat, dtype=np.complex128)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class TraceClassOperator:
    """Arbitrary finite operator with declared bipartite dimensions.

    Only positive dimensions, finiteness and the matching square shape are
    enforced; used where Hermiticity/positivity/normalisation are not assumed.
    """

    dim_a: int
    dim_b: int
    mat: np.ndarray

    def __post_init__(self):
        dim_a, dim_b = _check_dims((self.dim_a, self.dim_b))
        object.__setattr__(self, "dim_a", dim_a)
        object.__setattr__(self, "dim_b", dim_b)
        mat = as_matrix(self.mat)
        side = self.dim_a * self.dim_b
        if mat.shape != (side, side):
            raise DimensionError(
                f"matrix shape {mat.shape} does not match dims ({self.dim_a}, {self.dim_b})"
            )
        object.__setattr__(self, "mat", _frozen_copy(mat))

    @property
    def dim(self) -> int:
        """Common local dimension; defined only for square bipartitions."""
        if self.dim_a != self.dim_b:
            raise DimensionError(
                f"state is {self.dim_a}x{self.dim_b}; no common local dimension"
            )
        return self.dim_a


@dataclass(frozen=True)
class DensityMatrix(TraceClassOperator):
    """Unit-trace Hermitian PSD operator: a TraceClassOperator that is a state.
    Its check's ascending eigenvalues stay read-only in ``_eigs``, not a field."""

    def __post_init__(self):
        super().__post_init__()
        eigs = _check_states(self.mat[None])
        eigs.flags.writeable = False
        object.__setattr__(self, "_eigs", eigs[0])

