"""Seeded property suites behind ``sepscope verify``.

Each suite runs its checks over random instances (or, for the closed-form
spectra, a deterministic parameter grid) and reports the worst observed
slack per property.  A check passes when its worst slack stays at or below
the stated tolerance.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .criteria import (
    _haar_starts,
    _optimize_psd,
    _ppt_from_eigs,
    fidelity_lower,
    single_factor,
    tensor_pair,
)
from .linalg import (
    DensityMatrix,
    _check_states,
    _partial_transpose,
    frobenius_norm,
    partial_trace,
    partial_transpose,
    permute_subsystems,
    tensor,
    trace_norm,
)
from .locc import AddAncilla, LocalUnitary, LvnMeasurement, monotonicity_probe, pinching
from .realign import _reshuffle, ccn_value, realign
from .states import (
    _counterexample_closed_forms,
    _counterexample_rules,
    counterexample_matrix,
    random_density_matrix,
    random_unitary,
)

# states of one local dimension per batched ascent in suite_sandwich: enough
# to share the per-step dispatch, and memory stays bounded for any -n
_SANDWICH_CHUNK = 32


class CheckResult(NamedTuple):
    name: str
    worst: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.worst <= self.tol


def _random_dims(rng: np.random.Generator) -> tuple[int, int]:
    da, db = rng.choice([2, 3], size=2)
    return int(da), int(db)


def _random_gaussian(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def suite_norms(seed: int, n: int) -> list[CheckResult]:
    """Norm identities, partial transpose/trace structure, realignment basics."""
    rng = np.random.default_rng(seed)
    w = dict.fromkeys(
        [
            "trace norm unitary invariance",
            "trace norm >= frobenius norm",
            "partial transpose involution",
            "both-sided transpose = full transpose",
            "partial trace normalisation",
            "subsystem permutation spectrum",
            "realignment preserves frobenius norm",
            "ccn local-unitary invariance",
            "ccn multiplicativity under regrouping",
            "subcross bound on hermitian products",
            "explicit-decomposition upper bound on tau",
        ],
        -np.inf,
    )

    def note(name: str, slack: float) -> None:
        w[name] = np.maximum(w[name], slack)  # a NaN slack stays NaN

    for _ in range(n):
        da, db = _random_dims(rng)
        side = da * db

        m = _random_gaussian(rng, side, side)
        u, v = random_unitary(side, rng), random_unitary(side, rng)
        note("trace norm unitary invariance", abs(trace_norm(u @ m @ v) - trace_norm(m)))
        note("trace norm >= frobenius norm", frobenius_norm(m) - trace_norm(m))

        rho = random_density_matrix(da, db, rng=rng)
        for which in ("first", "second"):
            pt = partial_transpose(rho, which)
            again = partial_transpose(pt, which, dims=(da, db))
            note("partial transpose involution", np.max(np.abs(again - rho.mat)))
        both = partial_transpose(
            partial_transpose(rho, "first"), "second", dims=(da, db)
        )
        note("both-sided transpose = full transpose", np.max(np.abs(both - rho.mat.T)))
        for which in ("first", "second"):
            red = partial_trace(rho, which)
            note("partial trace normalisation", abs(np.trace(red) - 1.0))

        perm = permute_subsystems(rho.mat, [da, db], (1, 0))
        eig_before = np.sort(np.linalg.eigvalsh(rho.mat))
        eig_after = np.sort(np.linalg.eigvalsh(perm))
        note("subsystem permutation spectrum", np.max(np.abs(eig_before - eig_after)))

        note(
            "realignment preserves frobenius norm",
            abs(frobenius_norm(realign(rho).mat) - frobenius_norm(rho.mat)),
        )

        ua, ub = random_unitary(da, rng), random_unitary(db, rng)
        local = tensor(ua, ub)
        rotated = local @ rho.mat @ local.conj().T
        note(
            "ccn local-unitary invariance",
            abs(ccn_value(rotated, dims=(da, db)) - ccn_value(rho)),
        )

        rho2 = random_density_matrix(2, 2, rng=rng)
        pair = tensor_pair(rho, rho2)
        note(
            "ccn multiplicativity under regrouping",
            abs(ccn_value(pair.state) - ccn_value(rho) * ccn_value(rho2)),
        )

        h1 = _random_gaussian(rng, da, da)
        h1 = (h1 + h1.conj().T) / 2
        h2 = _random_gaussian(rng, db, db)
        h2 = (h2 + h2.conj().T) / 2
        note(
            "subcross bound on hermitian products",
            ccn_value(tensor(h1, h2), dims=(da, db)) - trace_norm(h1) * trace_norm(h2),
        )

        # rho = sum_ij E_ij (x) block_ij gives the bound sum_ij ||block_ij||_2
        blocks = rho.mat.reshape(da, db, da, db)
        bound = sum(
            frobenius_norm(blocks[i, :, j, :]) for i in range(da) for j in range(da)
        )
        note("explicit-decomposition upper bound on tau", ccn_value(rho) - bound)

    tols = {
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
    return [CheckResult(name, float(w[name]), tols[name]) for name in w]


def suite_sandwich(seed: int, n: int, restarts: int = 6) -> list[CheckResult]:
    """Fidelity sandwich tr(A)/d <= f <= tau/d plus the nonnegative trace.

    Instance k is a random d x d state, d = 2 for even k and 3 for odd k,
    whose ascent starts from seed + k.  The states of each dimension ascend
    together, _SANDWICH_CHUNK at a time.
    """
    rng = np.random.default_rng(seed)
    worst = np.full(4, -np.inf)
    batches: dict[int, list[tuple[int, DensityMatrix]]] = {2: [], 3: []}
    for k in range(n):
        d = 2 if k % 2 == 0 else 3
        batches[d].append((seed + k, random_density_matrix(d, d, rng=rng)))
        if len(batches[d]) == _SANDWICH_CHUNK:
            worst = np.maximum(worst, _sandwich_slacks(batches[d], restarts))
            batches[d].clear()
    for batch in batches.values():
        if batch:
            worst = np.maximum(worst, _sandwich_slacks(batch, restarts))
    return [
        CheckResult("fidelity lower bound holds", float(worst[0]), 1e-8),
        CheckResult("fidelity upper bound holds", float(worst[1]), 1e-10),
        CheckResult("realigned trace nonnegative", float(worst[2]), 1e-10),
        CheckResult("realigned trace equals psi+ overlap", float(worst[3]), 1e-12),
    ]


def _sandwich_slacks(batch: list[tuple[int, DensityMatrix]], restarts: int) -> np.ndarray:
    """The worst slack of each sandwich check over (ascent seed, state) pairs
    of one local dimension, in the order of suite_sandwich's results."""
    seeds, states = zip(*batch)
    d = states[0].dim_a
    mats = np.stack([rho.mat for rho in states])
    starts = np.stack([_haar_starts(d, restarts, np.random.default_rng(s)) for s in seeds])
    best = np.array([opt.value for opt in _optimize_psd(mats, starts)])
    aligned = _reshuffle(mats, d, d)
    tau = np.linalg.svd(aligned, compute_uv=False).sum(axis=-1)
    trace = np.trace(aligned, axis1=-2, axis2=-1).real
    lower = np.array([fidelity_lower(rho) for rho in states])
    return np.array([
        np.max(lower - best),
        np.max(best - tau / d),
        np.max(-trace),
        np.max(np.abs(trace / d - lower)),
    ])


def suite_monotonicity(seed: int, n: int) -> list[CheckResult]:
    """CCN behaviour under the elementary local operations."""
    rng = np.random.default_rng(seed)
    worst_lu = worst_lvn = worst_anc = worst_pinch = -np.inf
    for _ in range(n):
        da, db = _random_dims(rng)
        fs = single_factor(random_density_matrix(da, db, rng=rng))

        op_lu = LocalUnitary(random_unitary(da, rng), random_unitary(db, rng))
        probe = monotonicity_probe(op_lu, fs)
        worst_lu = np.maximum(worst_lu, abs(probe.tau_after - probe.tau_before))

        side, dim = ("alice", da) if rng.integers(2) == 0 else ("bob", db)
        projs = _random_projector_family(dim, rng)
        probe = monotonicity_probe(LvnMeasurement(side, projs), fs)
        worst_lvn = np.maximum(worst_lvn, probe.tau_after - probe.tau_before)

        anc = random_density_matrix(2, 1, rng=rng).mat
        probe = monotonicity_probe(AddAncilla("alice", anc), fs)
        worst_anc = np.maximum(worst_anc, probe.tau_after - probe.tau_before)

        sigma = _random_gaussian(rng, dim, dim)
        pinched = pinching(sigma, projs)
        worst_pinch = np.maximum(worst_pinch, frobenius_norm(pinched) - frobenius_norm(sigma))
    return [
        CheckResult("local unitaries leave tau invariant", float(worst_lu), 1e-10),
        CheckResult("projective measurements never increase tau", float(worst_lvn), 1e-10),
        CheckResult("local ancillas never increase tau", float(worst_anc), 1e-10),
        CheckResult("pinching never increases frobenius norm", float(worst_pinch), 1e-12),
    ]


def _random_projector_family(dim: int, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """Complete orthogonal projectors from random blocks of a Haar frame."""
    u = random_unitary(dim, rng)
    cut = int(rng.integers(1, dim)) if dim > 1 else 1
    first = u[:, :cut] @ u[:, :cut].conj().T
    second = u[:, cut:] @ u[:, cut:].conj().T
    if dim == 1:
        return (np.eye(1, dtype=np.complex128),)
    return (first, second)


def suite_spectra(seed: int, n: int, per_axis: int = 20) -> list[CheckResult]:
    """Closed-form spectra and CCN value of the counterexample family on a
    deterministic grid; seed and n are accepted for interface uniformity.

    The grid runs one value of s at a time: the valid (r, t) points of that
    row are validated as states and solved as one stack.
    """
    del seed, n
    s_vals = np.linspace(-0.95, 0.95, per_axis)
    r_vals = np.linspace(-0.95, 0.95, per_axis)
    t_vals = np.concatenate([np.linspace(-0.3, -0.05, per_axis // 2 - 1), [0.0],
                             np.linspace(0.05, 0.35, per_axis - per_axis // 2)])
    r_row, t_row = (a.ravel() for a in np.meshgrid(r_vals, t_vals, indexing="ij"))
    worst_rho = worst_pt = worst_tau = -np.inf
    ppt_mismatches = 0
    checked = 0
    for s in s_vals:
        valid = np.logical_and.reduce(_counterexample_rules(s, r_row, t_row)[:3])
        if not valid.any():
            continue
        r, t = r_row[valid], t_row[valid]
        checked += r.size
        closed = _counterexample_closed_forms(s, r, t)
        mats = counterexample_matrix(s, r, t)
        eig = _check_states(mats, np.linalg.eigvalsh(mats))
        closed_rho = np.sort(np.stack(closed.rho_eigs, axis=-1), axis=-1)
        worst_rho = np.maximum(worst_rho, np.max(np.abs(eig - closed_rho)))
        pt_eig = np.linalg.eigvalsh(_partial_transpose(mats, 2, 2))
        closed_pt = np.sort(np.stack(closed.pt_eigs, axis=-1), axis=-1)
        worst_pt = np.maximum(worst_pt, np.max(np.abs(pt_eig - closed_pt)))
        tau = np.linalg.svd(_reshuffle(mats, 2, 2), compute_uv=False).sum(axis=-1)
        worst_tau = np.maximum(worst_tau, np.max(np.abs(tau - (closed.g + np.abs(t)))))
        violated = _ppt_from_eigs(pt_eig)[2]
        ppt_mismatches += int(np.count_nonzero(violated != (t != 0.0)))
    if checked == 0:
        raise RuntimeError("spectra grid produced no valid parameter triples")
    return [
        CheckResult("closed-form state eigenvalues", float(worst_rho), 1e-12),
        CheckResult("closed-form partial-transpose eigenvalues", float(worst_pt), 1e-12),
        CheckResult("closed-form ccn value g + |t|", float(worst_tau), 1e-12),
        CheckResult("ppt violation exactly when t != 0", float(ppt_mismatches), 0.0),
    ]


SUITES: dict[str, Callable[[int, int], list[CheckResult]]] = {
    "norms": suite_norms,
    "sandwich": suite_sandwich,
    "monotonicity": suite_monotonicity,
    "spectra": suite_spectra,
}


def run_suites(names: list[str], seed: int, n: int) -> list[tuple[str, list[CheckResult]]]:
    return [(name, SUITES[name](seed, n)) for name in names]
