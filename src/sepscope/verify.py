"""Seeded property suites behind ``sepscope verify``.

Each suite runs its checks over random instances (or, for the closed-form
spectra, a deterministic parameter grid) and reports the worst observed
slack per property and, for random instances, the instance it came from.
A check passes when its worst slack stays at or below the stated tolerance.

The random suites draw their instances one by one from the seeded
generator, so instance k is the same for every n > k; each instance draws
each run of consecutive Gaussian matrices in one call.  They then evaluate
instances of one shape together, in stacks of at most _STACK_ENTRIES
entries of their largest matrix, through the same stacked kernels the
library's public functions call.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .criteria import _haar_starts, _optimize_psd, _overlaps, _ppt_from_eigs, _tensor_pairs
from .linalg import (
    _check_states,
    _frobenius_norms,
    _kron,
    _max_abs,
    _partial_transpose,
    _permute_subsystems,
    _trace_norms,
    _trace_out,
)
from .locc import _check_projectors, _check_unitaries, _local_unitary, _measured, _pinching
from .realign import _ccn_values, _reshuffle, realign
from .states import (
    _counterexample_closed_forms,
    _counterexample_rules,
    _gram_states,
    _haar_unitaries,
    counterexample_matrix,
)

# states of one local dimension per batched ascent in suite_sandwich: enough
# to share the per-step dispatch, and memory stays bounded for any -n
_SANDWICH_CHUNK = 64
_SANDWICH_RESTARTS = 6

# entries of the largest matrix in a stack of suite_norms, suite_monotonicity
# or suite_spectra: a group of instances is evaluated once it holds
# _STACK_ENTRIES // side**2 of them, side x side being its largest stacked
# matrix, so memory stays bounded for any -n (12 of norms' 36 x 36 pair states)
_STACK_ENTRIES = 12 * 36 * 36

# every check of a suite with its tolerance, in the order of its results
_NORM_TOLS = {
    "trace norm unitary invariance": 1e-10,
    "trace norm >= frobenius norm": 1e-12,
    "partial transpose involution": 1e-14,
    "both-sided transpose = full transpose": 1e-14,
    "partial trace normalisation": 1e-12,
    "subsystem permutation spectrum": 1e-10,
    "realignment preserves frobenius norm": 1e-12,
    "ccn local-unitary invariance": 1e-10,
    "ccn multiplicativity under regrouping": 1e-10,
    "subcross bound on hermitian products": 1e-10,
    "explicit-decomposition upper bound on tau": 1e-10,
}
_SANDWICH_TOLS = {
    "fidelity lower bound holds": 1e-8,
    "fidelity upper bound holds": 1e-10,
    "realigned trace nonnegative": 1e-10,
    "realigned trace equals psi+ overlap": 1e-12,
}
_MONOTONICITY_TOLS = {
    "local unitaries leave tau invariant": 1e-10,
    "projective measurements never increase tau": 1e-10,
    "local ancillas never increase tau": 1e-10,
    "pinching never increases frobenius norm": 1e-12,
}
_SPECTRA_TOLS = {
    "closed-form state eigenvalues": 1e-12,
    "closed-form partial-transpose eigenvalues": 1e-12,
    "closed-form ccn value g + |t|": 1e-12,
    "ppt violation exactly when t != 0": 0.0,
}


class CheckResult(NamedTuple):
    name: str
    worst: float
    tol: float
    instance: int | None = None  # 0-based instance of the worst slack; None on a grid

    @property
    def passed(self) -> bool:
        return self.worst <= self.tol


def _results(slacks: np.ndarray, tols: dict[str, float]) -> list[CheckResult]:
    """One CheckResult per row of a (checks, n) slack array: the worst slack
    and its instance, the first NaN counting as the worst."""
    worst, at = np.max(slacks, axis=1), np.argmax(slacks, axis=1)
    return [
        CheckResult(name, float(w), tol, int(k))
        for (name, tol), w, k in zip(tols.items(), worst, at)
    ]


def _random_dims(rng: np.random.Generator) -> tuple[int, int]:
    # draws what rng.choice([2, 3], size=2) draws
    da, db = 2 + rng.integers(0, 2, size=2)
    return int(da), int(db)


def _ginibres(draws, shapes) -> list[np.ndarray]:
    """The (N, rows, cols) complex Gaussian stacks held by N instances'
    flat draws, each matrix of shapes drawn as _ginibre draws it: its real
    parts, then its imaginary parts."""
    z, at, out = np.stack(draws), 0, []
    for rows, cols in shapes:
        parts = z[:, at:at + 2 * rows * cols].reshape(-1, 2, rows, cols)
        out.append(parts[:, 0] + 1j * parts[:, 1])
        at += 2 * rows * cols
    return out


def _stacked_slacks(seed: int, n: int, draw, evaluate, checks: int, chunk) -> np.ndarray:
    """(checks, n) slacks of n instances drawn in order by draw(rng, k).

    draw returns instance k's group key and its draws; evaluate(key, *draws)
    returns the (checks, N) slacks of N instances of one group, each draw
    given as the tuple of its N values.  A group is evaluated whenever it
    holds chunk(key) instances, and what is left of each group at the end.
    """
    rng = np.random.default_rng(seed)
    slacks = np.empty((checks, n))
    groups: dict = {}

    def flush(key) -> None:
        ks, draws = zip(*groups.pop(key))
        slacks[:, list(ks)] = evaluate(key, *zip(*draws))

    for k in range(n):
        key, draws = draw(rng, k)
        groups.setdefault(key, []).append((k, draws))
        if len(groups[key]) == chunk(key):
            flush(key)
    for key in list(groups):
        flush(key)
    return slacks


def suite_norms(seed: int, n: int) -> list[CheckResult]:
    """Norm identities, partial transpose/trace structure, realignment basics."""
    slacks = _stacked_slacks(seed, n, _draw_norms, _norm_slacks, len(_NORM_TOLS),
                             lambda dims: _STACK_ENTRIES // (4 * dims[0] * dims[1]) ** 2)
    return _results(slacks, _NORM_TOLS)


def _norm_shapes(da: int, db: int) -> list[tuple[int, int]]:
    """The Gaussian matrices of a suite_norms instance in generator order:
    m, the Haar unitaries u, v, the random state, the Haar u_a, u_b, the
    2 x 2 random state and the Hermitian h1, h2."""
    return [(da * db, da * db)] * 4 + [(da, da), (db, db), (4, 4), (da, da), (db, db)]


def _draw_norms(rng: np.random.Generator, k: int):
    """A suite_norms instance: its dims and its Gaussian draws."""
    dims = _random_dims(rng)
    return dims, (rng.standard_normal(sum(2 * r * c for r, c in _norm_shapes(*dims))),)


def _norm_slacks(dims, draws) -> np.ndarray:
    """The suite_norms slacks of one group of (da, db) instances, in the
    order of _NORM_TOLS.  The states go through the public realign one at a
    time; its realigned matrices and their trace norms give the realignment
    check and tau."""
    da, db = dims
    m, u, v, g, ua, ub, g2, h1, h2 = _ginibres(draws, _norm_shapes(da, db))
    u, v, ua, ub = (_haar_unitaries(z) for z in (u, v, ua, ub))
    rho, rho2 = _gram_states(g), _gram_states(g2)
    eigs = _check_states(rho)
    _check_states(rho2)
    pair = _tensor_pairs(rho, rho2, [da, db, 2, 2])
    _check_states(pair)
    h1, h2 = ((h + h.conj().swapaxes(-1, -2)) / 2 for h in (h1, h2))

    trace_norm_m = _trace_norms(m)
    realigned = [realign(r, (da, db)) for r in rho]
    tau = np.array([r.trace_norm for r in realigned])
    involution = [
        _max_abs(_partial_transpose(_partial_transpose(rho, da, db, which), da, db, which) - rho)
        for which in ("first", "second")
    ]
    both = _partial_transpose(_partial_transpose(rho, da, db, "first"), da, db, "second")
    normalisation = [
        np.abs(np.trace(_trace_out(rho, [da, db], [i]), axis1=-2, axis2=-1) - 1.0)
        for i in (0, 1)
    ]
    swapped = np.linalg.eigvalsh(_permute_subsystems(rho, [da, db], [1, 0]))
    # rho = sum_ij E_ij (x) block_ij gives the bound sum_ij ||block_ij||_2
    block_norms = _frobenius_norms(rho.reshape(-1, da, db, da, db).swapaxes(2, 3))
    bound = sum(block_norms[:, i, j] for i in range(da) for j in range(da))
    return np.array([
        np.abs(_trace_norms(u @ m @ v) - trace_norm_m),
        _frobenius_norms(m) - trace_norm_m,
        np.maximum(*involution),
        _max_abs(both - rho.swapaxes(-1, -2)),
        np.maximum(*normalisation),
        np.max(np.abs(eigs - swapped), axis=-1),
        np.abs(_frobenius_norms(np.stack([r.mat for r in realigned])) - _frobenius_norms(rho)),
        np.abs(_ccn_values(_local_unitary(rho, ua, ub), da, db) - tau),
        np.abs(_ccn_values(pair, 2 * da, 2 * db) - tau * _ccn_values(rho2, 2, 2)),
        _ccn_values(_kron(h1, h2), da, db) - _trace_norms(h1) * _trace_norms(h2),
        tau - bound,
    ])


def suite_sandwich(seed: int, n: int) -> list[CheckResult]:
    """Fidelity sandwich tr(A)/d <= f <= tau/d plus the nonnegative trace.

    Instance k is a random d x d state, d = 2 for even k and 3 for odd k.
    At d = 2 the fidelity is exact; at d = 3 the instance's
    _SANDWICH_RESTARTS ascent starts are drawn from seed + k.  The states of
    each dimension are built and checked together, _SANDWICH_CHUNK at a time.
    """

    def draw(rng: np.random.Generator, k: int):
        d = 2 if k % 2 == 0 else 3
        return d, (seed + k, rng.standard_normal(2 * d**4))

    slacks = _stacked_slacks(
        seed, n, draw, _sandwich_slacks, len(_SANDWICH_TOLS), lambda d: _SANDWICH_CHUNK
    )
    return _results(slacks, _SANDWICH_TOLS)


def _sandwich_slacks(d: int, seeds, g) -> np.ndarray:
    """The sandwich slacks of the d x d states of the Gaussian draws g, each
    with its ascent seed, in the order of _SANDWICH_TOLS."""
    mats = _gram_states(_ginibres(g, [(d * d, d * d)])[0])
    eigs = _check_states(mats)
    starts = None if d == 2 else np.stack([
        _haar_starts(d, _SANDWICH_RESTARTS, np.random.default_rng(s)) for s in seeds
    ])
    # no tau in the ascent's ceiling, so the upper-bound slack checks tau
    # against an ascent that never saw it
    best = _optimize_psd(mats, eigs, np.full(len(mats), np.inf), starts)[0]
    tau = _ccn_values(mats, d, d)
    trace = np.trace(_reshuffle(mats, d, d), axis1=-2, axis2=-1).real
    lower = _overlaps(mats, d)
    return np.array([lower - best, best - tau / d, -trace, np.abs(trace / d - lower)])


def suite_monotonicity(seed: int, n: int) -> list[CheckResult]:
    """CCN behaviour under the elementary local operations."""
    slacks = _stacked_slacks(
        seed, n, _draw_monotonicity, _monotonicity_slacks, len(_MONOTONICITY_TOLS),
        lambda key: _STACK_ENTRIES // (2 * key[0] * key[1]) ** 2,  # the ancilla-extended states
    )
    return _results(slacks, _MONOTONICITY_TOLS)


def _draw_monotonicity(rng: np.random.Generator, k: int):
    """A suite_monotonicity instance: its dims and measured side, and its
    draws in generator order: the Gaussian random state, u_a and u_b, the
    Gaussian Haar frame of the measurement, its projector cut, and the
    Gaussian ancilla and pinched matrix."""
    da, db = _random_dims(rng)
    state = rng.standard_normal(2 * (da * db) ** 2 + 2 * da * da + 2 * db * db)
    side, dim = ("alice", da) if rng.integers(2) == 0 else ("bob", db)
    frame = rng.standard_normal(2 * dim * dim)
    cut = int(rng.integers(1, dim))
    return (da, db, side), (state, frame, cut, rng.standard_normal(8 + 2 * dim * dim))


def _monotonicity_slacks(key, state, frame, cuts, tail) -> np.ndarray:
    """The suite_monotonicity slacks of one group of instances sharing dims
    and measured side, in the order of _MONOTONICITY_TOLS.  The measurement
    projects onto the first cut columns of a Haar frame and onto the rest;
    the instances of each cut build their projectors together."""
    da, db, side = key
    dim = da if side == "alice" else db
    g, ua, ub = _ginibres(state, [(da * db, da * db), (da, da), (db, db)])
    [frame] = _ginibres(frame, [(dim, dim)])
    g_anc, sigma = _ginibres(tail, [(2, 2), (dim, dim)])
    rho, anc = _gram_states(g), _gram_states(g_anc)
    _check_states(rho)
    _check_states(anc)
    ua, ub, frame = _haar_unitaries(ua), _haar_unitaries(ub), _haar_unitaries(frame)
    _check_unitaries(ua, "u_a")
    _check_unitaries(ub, "u_b")
    projs = np.empty((2,) + frame.shape, dtype=frame.dtype)
    for cut in set(cuts):
        at = [i for i, c in enumerate(cuts) if c == cut]
        kept, rest = np.split(frame[at], [cut], axis=-1)
        projs[:, at] = kept @ kept.conj().swapaxes(-1, -2), rest @ rest.conj().swapaxes(-1, -2)
    _check_projectors(projs)

    tau = _ccn_values(rho, da, db)
    rotated = _local_unitary(rho, ua, ub)
    measured = _measured(rho, projs, side, da, db)
    extended = _tensor_pairs(rho, anc, [da, db, 2, 1])  # the ancilla joins alice
    for after in (rotated, measured, extended):
        _check_states(after)
    return np.array([
        np.abs(_ccn_values(rotated, da, db) - tau),
        _ccn_values(measured, da, db) - tau,
        _ccn_values(extended, 2 * da, db) - tau,
        _frobenius_norms(_pinching(sigma, projs)) - _frobenius_norms(sigma),
    ])


def suite_spectra(seed: int, n: int, per_axis: int = 20) -> list[CheckResult]:
    """Closed-form spectra and CCN value of the counterexample family on a
    deterministic grid; seed and n are accepted for interface uniformity.

    The valid (s, r, t) points of the grid, in s-major order, are validated
    as states and solved in stacks of at most _STACK_ENTRIES // 16 points,
    each spanning several values of s.
    """
    del seed, n
    s_vals = np.linspace(-0.95, 0.95, per_axis)
    r_vals = np.linspace(-0.95, 0.95, per_axis)
    t_vals = np.concatenate([np.linspace(-0.3, -0.05, per_axis // 2 - 1), [0.0],
                             np.linspace(0.05, 0.35, per_axis - per_axis // 2)])
    grid = [a.ravel() for a in np.meshgrid(s_vals, r_vals, t_vals, indexing="ij")]
    valid = np.logical_and.reduce(_counterexample_rules(*grid)[:3])
    if not valid.any():
        raise RuntimeError("spectra grid produced no valid parameter triples")
    s_all, r_all, t_all = (a[valid] for a in grid)
    worst_rho = worst_pt = worst_tau = -np.inf
    ppt_mismatches = 0
    step = _STACK_ENTRIES // 16
    for at in range(0, s_all.size, step):
        s, r, t = (a[at:at + step] for a in (s_all, r_all, t_all))
        closed = _counterexample_closed_forms(s, r, t)
        mats = counterexample_matrix(s, r, t)
        eig = _check_states(mats)
        closed_rho = np.sort(np.stack(closed.rho_eigs, axis=-1), axis=-1)
        worst_rho = np.maximum(worst_rho, np.max(np.abs(eig - closed_rho)))
        pt_eig = np.linalg.eigvalsh(_partial_transpose(mats, 2, 2))
        closed_pt = np.sort(np.stack(closed.pt_eigs, axis=-1), axis=-1)
        worst_pt = np.maximum(worst_pt, np.max(np.abs(pt_eig - closed_pt)))
        tau = _ccn_values(mats, 2, 2)
        worst_tau = np.maximum(worst_tau, np.max(np.abs(tau - (closed.g + np.abs(t)))))
        violated = _ppt_from_eigs(pt_eig)[2]
        ppt_mismatches += int(np.count_nonzero(violated != (t != 0.0)))
    worst = (worst_rho, worst_pt, worst_tau, ppt_mismatches)
    return [CheckResult(name, float(w), tol) for (name, tol), w in zip(_SPECTRA_TOLS.items(), worst)]


SUITES: dict[str, Callable[[int, int], list[CheckResult]]] = {
    "norms": suite_norms,
    "sandwich": suite_sandwich,
    "monotonicity": suite_monotonicity,
    "spectra": suite_spectra,
}

