"""Hilbert-Schmidt operator bases and Bloch-type state decompositions.

Two bases are supported:

* ``pauli`` (dimension 2 only): the expansion
  rho = (1/4)(I(x)I + sum_n r_n sigma_n(x)I + sum_m s_m I(x)sigma_m
  + sum_{m,n} t_mn sigma_n(x)sigma_m).  All coefficients are real for
  Hermitian input.  Note the index order: t_mn multiplies
  sigma_n (Alice) (x) sigma_m (Bob).

* ``spin`` (any dimension): the unitary shift-and-phase matrices
  S_jk = sum_r exp(2*pi*i*j*r/d) |r><r(+)k| with (+) addition mod d.
  The traceless ones are flattened row-major over (j, k), skipping
  (0, 0).  The expansion carries a complex conjugate on Bob's side:
  rho = (1/d^2)(I(x)I + sum r_n S_n(x)I + sum s_m I(x)S_m^*
  + sum t_mn S_n(x)S_m^*), with complex coefficients in general.

At d = 2 the spin matrices reproduce the Paulis up to order and phase:
(S_01, S_10, S_11) = (sigma_1, sigma_3, i*sigma_2), so the two paths are
related by the index map (1, 2, 3)_pauli -> (S_01, S_11/i, S_10) together
with the conjugation convention above.  The ``pauli`` path is the default
at d = 2 because the two-qubit closed forms are stated in it.

The r vector is the Bloch data of Alice's reduced state and s of Bob's:
tr_B(rho) = (I + sum r_n A_n)/d with A the Alice-side basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import (
    TOL_TRACE,
    DimensionError,
    InvariantError,
    _frozen_copy,
    _mat_and_dims,
    trace_norm,
)
from .realign import _reshuffle

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)


def spin_matrix(d: int, j: int, k: int) -> np.ndarray:
    """Shift-and-phase basis matrix: exp(2*pi*i*j*r/d) at (r, r+k mod d)."""
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    if not (0 <= j < d and 0 <= k < d):
        raise ValueError(f"indices (j, k) = ({j}, {k}) out of range for d = {d}")
    out = np.zeros((d, d), dtype=np.complex128)
    rows = np.arange(d)
    out[rows, (rows + k) % d] = np.exp(2j * np.pi * j * rows / d)
    return out


@lru_cache(maxsize=None)
def spin_basis(d: int) -> np.ndarray:
    """The cached, read-only (d^2, d, d) stack of shift-and-phase matrices:
    the identity first, then the traceless members in flattening order."""
    order = [(0, 0)] + [(j, k) for j in range(d) for k in range(d) if (j, k) != (0, 0)]
    return _frozen_copy(np.stack([spin_matrix(d, j, k) for j, k in order]))


def _local_frames(d: int, basis: str) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal vectorised operator frames (W_a, W_b), identity column first.

    Column n of W_a is vec(A_n)/sqrt(d) and column m of W_b is vec(B_m)/sqrt(d),
    with A_0 = B_0 = I and the traceless members A_n = sigma_n, B_m = sigma_m
    (pauli) or A_n = S_n, B_m = S_m^* (spin).
    """
    if basis == "pauli":
        if d != 2:
            raise ValueError(f"pauli basis requires d = 2, got d = {d}")
        alice = bob = np.concatenate([np.eye(2, dtype=np.complex128)[None], np.stack(PAULI)])
    elif basis == "spin":
        alice = spin_basis(d)
        bob = alice.conj()
    else:
        raise ValueError(f"basis must be 'pauli' or 'spin', got {basis!r}")
    w_a = alice.reshape(d * d, d * d).T / np.sqrt(d)
    w_b = bob.reshape(d * d, d * d).T / np.sqrt(d)
    return w_a, w_b


@dataclass(frozen=True)
class HSDecomposition:
    """Bloch vectors (r, s) and correlation matrix T of a bipartite operator."""

    dim: int
    basis: str                # 'pauli' or 'spin'
    r_vec: np.ndarray         # (d^2 - 1,) complex
    s_vec: np.ndarray
    t_mat: np.ndarray         # (d^2 - 1, d^2 - 1) complex

    def __post_init__(self):
        k = self.dim * self.dim - 1
        r = np.asarray(self.r_vec, dtype=np.complex128)
        s = np.asarray(self.s_vec, dtype=np.complex128)
        t = np.asarray(self.t_mat, dtype=np.complex128)
        if r.shape != (k,) or s.shape != (k,) or t.shape != (k, k):
            raise DimensionError(
                f"coefficient shapes {r.shape}, {s.shape}, {t.shape} do not match d = {self.dim}"
            )
        for name, arr in (("r_vec", r), ("s_vec", s), ("t_mat", t)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def decompose(rho, basis: str | None = None) -> HSDecomposition:
    """Extract (r, s, T) by Hilbert-Schmidt projection.

    Requires equal local dimensions and unit trace; the identity-pair
    coefficient then comes out as exactly 1 and is not stored.  The
    coefficients are the realigned matrix written in the local frames:
    C = d * W_a^dag @ realign(rho) @ conj(W_b), with r = C[1:, 0],
    s = C[0, 1:] and T = C[1:, 1:]^T.
    """
    mat, d, db = _mat_and_dims(rho, None)
    if d != db:
        raise DimensionError("decomposition requires equal local dimensions")
    tr = complex(np.trace(mat))
    if abs(tr - 1.0) > TOL_TRACE:
        raise InvariantError(f"trace is {tr:.15g}; decomposition requires unit trace")
    if basis is None:
        basis = "pauli" if d == 2 else "spin"
    coeff = _coefficients(mat, d, basis)
    return HSDecomposition(d, basis, coeff[1:, 0], coeff[0, 1:], coeff[1:, 1:].T)


def _coefficients(mats: np.ndarray, d: int, basis: str) -> np.ndarray:
    """The coefficient matrix C of each operator in a (..., d^2, d^2) stack,
    unchecked: r = C[..., 1:, 0], s = C[..., 0, 1:] and T = C[..., 1:, 1:]^T."""
    w_a, w_b = _local_frames(d, basis)
    return d * (w_a.conj().T @ _reshuffle(mats, d, d) @ w_b.conj())


def t_trace_norm(dec: HSDecomposition) -> float:
    """Trace norm of the correlation matrix T."""
    return trace_norm(dec.t_mat)

