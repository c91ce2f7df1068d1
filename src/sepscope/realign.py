"""The realignment map and the computable cross norm (CCN).

Realignment reshuffles the entries of a bipartite operator: with
rho[i*dB + k, j*dB + l] = <ik|rho|jl>, the realigned matrix is

    realigned[i*dA + j, k*dB + l] = <ik|rho|jl>

i.e. rows are labelled by Alice index pairs (i, j) and columns by Bob
pairs (k, l).  Equivalently, row (i, j) is the row-major flattening of
the (i, j) block of rho.  Worked 2x2 table (blocks are 2x2):

    rho = [[B00, B01],      realigned = [ vec(B00) ]
           [B10, B11]]                  [ vec(B01) ]
                                        [ vec(B10) ]
                                        [ vec(B11) ]

so for instance realigned[1, 2] = B01[1, 0] = rho[1, 2].  The map is a
bijective entry permutation, hence Frobenius-norm preserving.  The CCN
value is the trace norm of the realigned matrix; for a separable state
it cannot exceed 1, so a value above 1 certifies entanglement (the
converse fails -- the criterion is one-sided).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _frozen_copy, _mat_and_dims, _singular_values, _trace_norms


@dataclass(frozen=True)
class RealignedMatrix:
    """A realigned bipartite operator together with its singular values."""

    dim_a: int
    dim_b: int
    mat: np.ndarray               # shape (dim_a**2, dim_b**2)
    singular_values: np.ndarray   # nonincreasing, length min(dim_a**2, dim_b**2)

    def __post_init__(self):
        object.__setattr__(self, "mat", _frozen_copy(self.mat))
        sv = np.asarray(self.singular_values, dtype=np.float64)
        sv.flags.writeable = False
        object.__setattr__(self, "singular_values", sv)

    @property
    def trace_norm(self) -> float:
        return float(self.singular_values.sum())


def _reshuffle(mat: np.ndarray, da: int, db: int) -> np.ndarray:
    """The realigned (..., da^2, db^2) stack of a (..., da*db, da*db) stack.

    For da = db the reshuffle is its own inverse, so the same call maps a
    realigned matrix back to the operator.
    """
    lead = mat.shape[:-2]
    four = mat.reshape(lead + (da, db, da, db))
    return four.swapaxes(-3, -2).reshape(lead + (da * da, db * db))


def _ccn_values(mats: np.ndarray, da: int, db: int) -> np.ndarray:
    """The CCN value tau of each operator in a (..., da*db, da*db) stack."""
    return _trace_norms(_reshuffle(mats, da, db))


def realign(rho, dims: tuple[int, int] | None = None) -> RealignedMatrix:
    """Realign a bipartite operator; accepts wrapped or raw matrices."""
    mat, da, db = _mat_and_dims(rho, dims)
    aligned = _reshuffle(mat, da, db)
    return RealignedMatrix(da, db, aligned, _singular_values(aligned))


def ccn_value(rho, dims: tuple[int, int] | None = None) -> float:
    """Trace norm of the realigned operator (the CCN value tau)."""
    mat, da, db = _mat_and_dims(rho, dims)
    return float(_ccn_values(mat, da, db))
