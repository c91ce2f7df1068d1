"""Elementary trace-preserving local operations and a CCN monotonicity probe.

Supported operations: appending an uncorrelated local ancilla, tracing out
a declared local factor, local unitaries, and Lueders-von-Neumann (complete
projective) measurements on one side.  The CCN value is invariant under
local unitaries, non-increasing under ancillas and projective measurements,
and may move either way under local trace-outs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import prod
from typing import NamedTuple, Sequence, Union

import numpy as np

from .criteria import FactorizedState, _check_count, _tensor_pairs
from .linalg import (
    TOL_DIRECTION,
    TOL_PROJECTOR,
    TOL_UNITARY,
    DensityMatrix,
    DimensionError,
    InvariantError,
    as_matrix,
    trace_out,
    _kron,
    _max_abs,
)
from .realign import ccn_value

_SIDES = ("alice", "bob")


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
        _check_count("index", self.index)


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
            _check_unitaries(u[None], name)
            object.__setattr__(self, name, u)


def _check_unitaries(us: np.ndarray, name: str) -> None:
    """LocalUnitary's check of the field ``name`` on a (N, d, d) stack; the
    first failing matrix raises the InvariantError that LocalUnitary raises."""
    defects = _max_abs(us.conj().swapaxes(-1, -2) @ us - np.eye(us.shape[-1]))
    bad = defects > TOL_UNITARY
    if bad.any():
        raise InvariantError(f"{name} is not unitary: defect {defects[np.argmax(bad)]:.3e}")


def _local_unitary(mats: np.ndarray, u_a: np.ndarray, u_b: np.ndarray) -> np.ndarray:
    """The LocalUnitary branch of apply on (..., side, side) stacks: every
    matrix conjugated by its own U_a (x) U_b."""
    u = _kron(u_a, u_b)
    return u @ mats @ u.conj().swapaxes(-1, -2)


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
        if any(p.shape != (dim, dim) for p in projs):
            raise DimensionError("projectors must share one square shape")
        _check_projectors(np.stack(projs)[:, None])
        object.__setattr__(self, "projectors", projs)


def _check_projectors(projs: np.ndarray) -> None:
    """LvnMeasurement's checks on N projector families at once: projs is
    (K, N, d, d), holding projector k of family n at [k, n].  The first
    failing family raises the InvariantError that LvnMeasurement raises."""
    checks = []  # (defect of each family, message), in the order they are checked
    for i, p in enumerate(projs):
        checks.append((_max_abs(p - p.conj().swapaxes(-1, -2)), f"projector {i} is not Hermitian"))
        checks.append((_max_abs(p @ p - p), f"projector {i} is not idempotent"))
    for i, j in combinations(range(len(projs)), 2):
        checks.append((_max_abs(projs[i] @ projs[j]), f"projectors {i} and {j} are not orthogonal"))
    checks.append((_max_abs(sum(projs) - np.eye(projs.shape[-1])),
                   "projectors do not sum to the identity"))
    bad = np.array([defect > TOL_PROJECTOR for defect, _ in checks])
    if bad.any():
        family = np.argmax(bad.any(axis=0))
        raise InvariantError(checks[np.argmax(bad[:, family])][1])


LocalOperation = Union[AddAncilla, TraceOutFactor, LocalUnitary, LvnMeasurement]


def pinching(sigma, projectors: Sequence[np.ndarray]) -> np.ndarray:
    """sum_k P_k sigma P_k for a complete orthogonal projector family."""
    return _pinching(as_matrix(sigma), projectors)


def _pinching(sigmas: np.ndarray, projectors) -> np.ndarray:
    """pinching of a (..., d, d) stack, each P_k being one matrix or a
    matching stack; the terms are added in the order k = 0, 1, ..."""
    out = np.zeros_like(sigmas)
    for p in projectors:
        out += p @ sigmas @ p
    return out


def _measured(mats: np.ndarray, projs, side: str, dim_a: int, dim_b: int) -> np.ndarray:
    """The LvnMeasurement branch of apply on a (..., side, side) stack, each
    projector P_k being one local matrix or a matching stack."""
    if side == "alice":
        lifted = [_kron(p, np.eye(dim_b, dtype=np.complex128)) for p in projs]
    else:
        lifted = [_kron(np.eye(dim_a, dtype=np.complex128), p) for p in projs]
    return _pinching(mats, lifted)


def apply(op: LocalOperation, fs: FactorizedState) -> FactorizedState:
    """Apply one elementary local operation, keeping the canonical
    (Alice factors)(Bob factors) layout."""
    state = fs.state
    sides = {"alice": fs.alice_factors, "bob": fs.bob_factors}
    if isinstance(op, AddAncilla):
        # the ancilla is a d x 1 pair on Alice's side or 1 x d on Bob's, so it
        # goes last on its side
        d_anc = op.ancilla.shape[0]
        anc_dims = [d_anc, 1] if op.side == "alice" else [1, d_anc]
        mat = _tensor_pairs(state.mat, op.ancilla, [state.dim_a, state.dim_b] + anc_dims)
        sides[op.side] += (d_anc,)
    elif isinstance(op, TraceOutFactor):
        factors = sides[op.side]
        if len(factors) < 2:
            raise DimensionError(f"cannot trace out the only factor on the {op.side} side")
        if not 0 <= op.index < len(factors):
            raise DimensionError(f"factor index {op.index} out of range for {len(factors)} factors")
        offset = 0 if op.side == "alice" else len(fs.alice_factors)
        mat = trace_out(state.mat, fs.factor_dims, [offset + op.index])
        sides[op.side] = tuple(d for i, d in enumerate(factors) if i != op.index)
    elif isinstance(op, LocalUnitary):
        if op.u_a.shape[0] != state.dim_a or op.u_b.shape[0] != state.dim_b:
            raise DimensionError(
                f"unitary dims ({op.u_a.shape[0]}, {op.u_b.shape[0]}) do not match "
                f"state dims ({state.dim_a}, {state.dim_b})"
            )
        mat = _local_unitary(state.mat, op.u_a, op.u_b)
    elif isinstance(op, LvnMeasurement):
        local_dim = state.dim_a if op.side == "alice" else state.dim_b
        if op.projectors[0].shape[0] != local_dim:
            raise DimensionError(
                f"projector dim {op.projectors[0].shape[0]} does not match the "
                f"{op.side} dimension {local_dim}"
            )
        mat = _measured(state.mat, op.projectors, op.side, state.dim_a, state.dim_b)
    else:
        raise TypeError(f"unknown local operation {op!r}")
    alice, bob = sides.values()
    return FactorizedState(DensityMatrix(prod(alice), prod(bob), mat), alice, bob)


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
