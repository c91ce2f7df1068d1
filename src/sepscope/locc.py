"""Elementary trace-preserving local operations and a CCN monotonicity probe.

Supported operations: appending an uncorrelated local ancilla, tracing out
a declared local factor, local unitaries, and Lueders-von-Neumann (complete
projective) measurements on one side.  The CCN value is invariant under
local unitaries, non-increasing under ancillas and projective measurements,
and may move either way under local trace-outs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

import numpy as np

from .criteria import FactorizedState
from .linalg import (
    DensityMatrix,
    DimensionError,
    InvariantError,
    as_matrix,
    hermiticity_defect,
    permute_subsystems,
    tensor,
    trace_out,
)
from .realign import ccn_value

_SIDES = ("alice", "bob")
TOL_UNITARY = 1e-10
TOL_PROJECTOR = 1e-12
TOL_DIRECTION = 1e-10


def _check_side(side: str) -> str:
    if side not in _SIDES:
        raise ValueError(f"side must be 'alice' or 'bob', got {side!r}")
    return side


@dataclass(frozen=True)
class AddAncilla:
    """Append an uncorrelated local state as a new factor on one side."""

    side: str
    ancilla: np.ndarray

    def __post_init__(self):
        _check_side(self.side)
        anc = self.ancilla
        if not isinstance(anc, DensityMatrix):
            mat = as_matrix(anc)
            anc = DensityMatrix(mat.shape[0], 1, mat)  # validates it as a local state
        object.__setattr__(self, "ancilla", anc.mat)


@dataclass(frozen=True)
class TraceOutFactor:
    """Remove one declared factor from one side by partial trace."""

    side: str
    index: int

    def __post_init__(self):
        _check_side(self.side)


@dataclass(frozen=True)
class LocalUnitary:
    """Conjugation by U_a (x) U_b."""

    u_a: np.ndarray
    u_b: np.ndarray

    def __post_init__(self):
        for name in ("u_a", "u_b"):
            u = as_matrix(getattr(self, name))
            if u.shape[0] != u.shape[1]:
                raise DimensionError(f"{name} must be square")
            defect = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
            if defect > TOL_UNITARY:
                raise InvariantError(f"{name} is not unitary: defect {defect:.3e}")
            object.__setattr__(self, name, u)


@dataclass(frozen=True)
class LvnMeasurement:
    """Complete projective measurement sigma -> sum_k P_k sigma P_k on one side."""

    side: str
    projectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        _check_side(self.side)
        projs = tuple(as_matrix(p) for p in self.projectors)
        if not projs:
            raise InvariantError("measurement needs at least one projector")
        dim = projs[0].shape[0]
        total = np.zeros((dim, dim), dtype=np.complex128)
        for i, p in enumerate(projs):
            if p.shape != (dim, dim):
                raise DimensionError("projectors must share one square shape")
            if hermiticity_defect(p) > TOL_PROJECTOR:
                raise InvariantError(f"projector {i} is not Hermitian")
            if np.max(np.abs(p @ p - p)) > TOL_PROJECTOR:
                raise InvariantError(f"projector {i} is not idempotent")
            total += p
        for i in range(len(projs)):
            for j in range(i + 1, len(projs)):
                if np.max(np.abs(projs[i] @ projs[j])) > TOL_PROJECTOR:
                    raise InvariantError(f"projectors {i} and {j} are not orthogonal")
        if np.max(np.abs(total - np.eye(dim))) > TOL_PROJECTOR:
            raise InvariantError("projectors do not sum to the identity")
        object.__setattr__(self, "projectors", projs)


LocalOperation = Union[AddAncilla, TraceOutFactor, LocalUnitary, LvnMeasurement]


def pinching(sigma, projectors: Sequence[np.ndarray]) -> np.ndarray:
    """sum_k P_k sigma P_k for a complete orthogonal projector family."""
    sigma = as_matrix(sigma)
    out = np.zeros_like(sigma)
    for p in projectors:
        out += p @ sigma @ p
    return out


def apply(op: LocalOperation, fs: FactorizedState) -> FactorizedState:
    """Apply one elementary local operation, keeping the canonical
    (Alice factors)(Bob factors) layout."""
    state = fs.state
    if isinstance(op, AddAncilla):
        d_anc = op.ancilla.shape[0]
        mat = tensor(state.mat, op.ancilla)  # factors (A, B, anc)
        if op.side == "alice":
            mat = permute_subsystems(mat, [state.dim_a, state.dim_b, d_anc], (0, 2, 1))
            new = DensityMatrix(state.dim_a * d_anc, state.dim_b, mat)
            return FactorizedState(new, fs.alice_factors + (d_anc,), fs.bob_factors)
        new = DensityMatrix(state.dim_a, state.dim_b * d_anc, mat)
        return FactorizedState(new, fs.alice_factors, fs.bob_factors + (d_anc,))

    if isinstance(op, TraceOutFactor):
        factors = fs.alice_factors if op.side == "alice" else fs.bob_factors
        if len(factors) < 2:
            raise DimensionError(
                f"cannot trace out the only factor on the {op.side} side"
            )
        if not 0 <= op.index < len(factors):
            raise DimensionError(
                f"factor index {op.index} out of range for {len(factors)} factors"
            )
        offset = 0 if op.side == "alice" else len(fs.alice_factors)
        mat = trace_out(state.mat, fs.factor_dims, [offset + op.index])
        kept = tuple(d for i, d in enumerate(factors) if i != op.index)
        if op.side == "alice":
            new = DensityMatrix(int(np.prod(kept)), state.dim_b, mat)
            return FactorizedState(new, kept, fs.bob_factors)
        new = DensityMatrix(state.dim_a, int(np.prod(kept)), mat)
        return FactorizedState(new, fs.alice_factors, kept)

    if isinstance(op, LocalUnitary):
        if op.u_a.shape[0] != state.dim_a or op.u_b.shape[0] != state.dim_b:
            raise DimensionError(
                f"unitary dims ({op.u_a.shape[0]}, {op.u_b.shape[0]}) do not match "
                f"state dims ({state.dim_a}, {state.dim_b})"
            )
        u = tensor(op.u_a, op.u_b)
        new = DensityMatrix(state.dim_a, state.dim_b, u @ state.mat @ u.conj().T)
        return FactorizedState(new, fs.alice_factors, fs.bob_factors)

    if isinstance(op, LvnMeasurement):
        local_dim = state.dim_a if op.side == "alice" else state.dim_b
        if op.projectors[0].shape[0] != local_dim:
            raise DimensionError(
                f"projector dim {op.projectors[0].shape[0]} does not match the "
                f"{op.side} dimension {local_dim}"
            )
        lifted = [
            tensor(p, np.eye(state.dim_b)) if op.side == "alice" else tensor(np.eye(state.dim_a), p)
            for p in op.projectors
        ]
        new = DensityMatrix(state.dim_a, state.dim_b, pinching(state.mat, lifted))
        return FactorizedState(new, fs.alice_factors, fs.bob_factors)

    raise TypeError(f"unknown local operation {op!r}")


class ProbeResult(NamedTuple):
    tau_before: float
    tau_after: float
    direction: str  # 'decreased' | 'invariant' | 'increased'


def monotonicity_probe(op: LocalOperation, fs: FactorizedState) -> ProbeResult:
    """CCN value of the bipartite state before and after one operation."""
    before = ccn_value(fs.state)
    after = ccn_value(apply(op, fs).state)
    if after > before + TOL_DIRECTION:
        direction = "increased"
    elif after < before - TOL_DIRECTION:
        direction = "decreased"
    else:
        direction = "invariant"
    return ProbeResult(before, after, direction)
