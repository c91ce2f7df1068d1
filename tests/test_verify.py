"""The batched verify suites against per-instance reference loops."""

import numpy as np
import pytest

from sepscope import verify
from sepscope.criteria import fidelity_lower, fidelity_optimize, ppt_criterion, realigned_trace
from sepscope.linalg import DensityMatrix, InvariantError, _check_states, partial_transpose
from sepscope.realign import ccn_value
from sepscope.states import (
    Counterexample,
    counterexample_matrix,
    counterexample_spectra,
    make_state,
    psi_plus,
    random_density_matrix,
)


def _reference_sandwich(seed, n, restarts=6):
    """suite_sandwich as one loop over instances, each state on its own."""
    rng = np.random.default_rng(seed)
    worst_lower = worst_upper = worst_trace = worst_dual = -np.inf
    for k in range(n):
        d = 2 if k % 2 == 0 else 3
        rho = random_density_matrix(d, d, rng=rng)
        lower = fidelity_lower(rho)
        tau = ccn_value(rho)
        best = fidelity_optimize(rho, restarts=restarts, seed=seed + k).value
        worst_lower = max(worst_lower, lower - best)
        worst_upper = max(worst_upper, best - tau / d)
        worst_trace = max(worst_trace, -float(realigned_trace(rho).real))
        psi = psi_plus(d)
        overlap = float((psi.conj() @ rho.mat @ psi).real)
        worst_dual = max(worst_dual, abs(realigned_trace(rho).real / d - overlap))
    return [worst_lower, worst_upper, worst_trace, worst_dual]


def _reference_spectra(per_axis=20):
    """suite_spectra as one loop over the grid, each point on its own."""
    s_vals = np.linspace(-0.95, 0.95, per_axis)
    r_vals = np.linspace(-0.95, 0.95, per_axis)
    t_vals = np.concatenate([np.linspace(-0.3, -0.05, per_axis // 2 - 1), [0.0],
                             np.linspace(0.05, 0.35, per_axis - per_axis // 2)])
    worst_rho = worst_pt = worst_tau = -np.inf
    ppt_mismatches = 0
    for s in s_vals:
        for r in r_vals:
            for t in t_vals:
                try:
                    params = Counterexample(float(s), float(r), float(t))
                except ValueError:
                    continue
                closed = counterexample_spectra(params)
                mat = counterexample_matrix(s, r, t)
                eig = np.sort(np.linalg.eigvalsh(mat))
                worst_rho = max(
                    worst_rho, float(np.max(np.abs(eig - np.sort(closed.rho_eigs))))
                )
                pt = ppt_criterion(make_state(params))
                pt_eig = np.sort(
                    np.linalg.eigvalsh(partial_transpose(mat, "second", dims=(2, 2)))
                )
                worst_pt = max(
                    worst_pt, float(np.max(np.abs(pt_eig - np.sort(closed.pt_eigs))))
                )
                worst_tau = max(
                    worst_tau, abs(ccn_value(mat, dims=(2, 2)) - (closed.g + abs(t)))
                )
                if pt.violated != (t != 0.0):
                    ppt_mismatches += 1
    return [worst_rho, worst_pt, worst_tau, float(ppt_mismatches)]


@pytest.mark.parametrize(
    "seed, n", [(1, 1), (2, 1), (1, 7), (3, 7), (1, 100), (4, 100)]
)
def test_sandwich_matches_reference(seed, n):
    # n = 100 puts 50 states of each dimension in two chunks of unequal size
    assert 50 % verify._SANDWICH_CHUNK != 0
    worst = [check.worst for check in verify.suite_sandwich(seed, n)]
    assert worst == _reference_sandwich(seed, n)


@pytest.mark.parametrize("per_axis", [7, 20])
def test_spectra_matches_reference(per_axis):
    worst = [check.worst for check in verify.suite_spectra(0, 1, per_axis=per_axis)]
    assert worst == _reference_spectra(per_axis)


def _message(mat) -> str:
    with pytest.raises(InvariantError) as info:
        DensityMatrix(2, 2, mat)
    return str(info.value)


def test_state_stack_rejection_matches_density_matrix(rng):
    good = [random_density_matrix(2, 2, rng=rng).mat for _ in range(4)]
    skew = good[0].copy()
    skew[0, 1] += 1e-9
    heavy = good[1] * (1 + 1e-9)
    negative = np.diag([1.2, 0.0, 0.0, -0.2]).astype(complex)
    for bad in (skew, heavy, negative):
        stack = np.stack(good[:2] + [bad] + good[2:])
        with pytest.raises(InvariantError) as info:
            _check_states(stack)
        assert str(info.value) == _message(bad)
        with pytest.raises(InvariantError) as info:
            _check_states(stack, np.linalg.eigvalsh(stack))
        assert str(info.value) == _message(bad)
    # the first failing matrix decides, whichever invariant it breaks
    stack = np.stack([good[0], negative, skew])
    with pytest.raises(InvariantError) as info:
        _check_states(stack)
    assert str(info.value) == _message(negative)
    eigs = _check_states(np.stack(good))
    assert np.array_equal(eigs, np.linalg.eigvalsh(np.stack(good)))


def test_spectra_rejects_an_invalid_grid_state(monkeypatch):
    calls = []

    def off_trace(s, r, t):
        mats = counterexample_matrix(s, r, t)
        if not calls:
            mats[3, 1, 1] = 1e-9  # the fourth valid point of the first non-empty row
            calls.append(mats[3].copy())
        return mats

    monkeypatch.setattr(verify, "counterexample_matrix", off_trace)
    with pytest.raises(InvariantError) as info:
        verify.suite_spectra(0, 1)
    assert str(info.value) == _message(calls[0])


def _nan_first_result(fn, poison):
    """fn whose first result goes through poison, which makes it NaN."""
    calls = []

    def wrapped(*args, **kwargs):
        out = fn(*args, **kwargs)
        if not calls:
            calls.append(1)
            return poison(out)
        return out

    return wrapped


@pytest.mark.parametrize("suite, attr, poison, check", [
    ("norms", "partial_trace", lambda red: red * np.nan, "partial trace normalisation"),
    ("monotonicity", "frobenius_norm", lambda v: v * np.nan,
     "pinching never increases frobenius norm"),
    ("spectra", "_counterexample_closed_forms", lambda c: c._replace(g=c.g * np.nan),
     "closed-form ccn value g + |t|"),
])
def test_a_nan_slack_fails_its_check(monkeypatch, suite, attr, poison, check):
    # only the first instance (or grid row) is NaN; every later slack is finite,
    # and Python's max(worst, nan) would drop it
    monkeypatch.setattr(verify, attr, _nan_first_result(getattr(verify, attr), poison))
    results = {c.name: c for c in verify.SUITES[suite](3, 5)}
    assert np.isnan(results[check].worst)
    assert not results[check].passed
    assert all(c.passed for name, c in results.items() if name != check)
