"""The batched verify suites against per-instance reference loops."""

import numpy as np
import pytest

from sepscope import verify
from sepscope.criteria import (
    fidelity_lower,
    fidelity_optimize,
    ppt_criterion,
    realigned_trace,
    single_factor,
    tensor_pair,
)
from sepscope.linalg import (
    DensityMatrix,
    InvariantError,
    _check_states,
    frobenius_norm,
    partial_trace,
    partial_transpose,
    permute_subsystems,
    tensor,
    trace_norm,
)
from sepscope.locc import (
    AddAncilla,
    LocalUnitary,
    LvnMeasurement,
    _check_projectors,
    _check_unitaries,
    monotonicity_probe,
    pinching,
)
from sepscope.realign import ccn_value, realign
from sepscope.states import (
    Counterexample,
    counterexample_matrix,
    counterexample_spectra,
    make_state,
    psi_plus,
    random_density_matrix,
    random_unitary,
)


def _assert_matches(results, reference):
    """Each result is the worst slack of its row of the (checks, n) reference
    slacks, at the first instance that reaches it."""
    assert [c.worst for c in results] == [max(row) for row in reference]
    assert [c.instance for c in results] == [row.index(max(row)) for row in reference]


def _gaussian(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _reference_norms(seed, n):
    """suite_norms as one loop over instances through the public API, as
    (checks, n) slacks."""
    rng = np.random.default_rng(seed)
    slacks = []
    for _ in range(n):
        da, db = (int(d) for d in rng.choice([2, 3], size=2))
        m = _gaussian(rng, da * db, da * db)
        u, v = random_unitary(da * db, rng), random_unitary(da * db, rng)
        rho = random_density_matrix(da, db, rng=rng)
        involution = max(
            np.max(np.abs(partial_transpose(partial_transpose(rho, w), w, dims=(da, db)) - rho.mat))
            for w in ("first", "second")
        )
        both = partial_transpose(partial_transpose(rho, "first"), "second", dims=(da, db))
        normalisation = max(abs(np.trace(partial_trace(rho, w)) - 1.0) for w in ("first", "second"))
        perm = permute_subsystems(rho.mat, [da, db], (1, 0))
        spectrum = np.max(np.abs(np.linalg.eigvalsh(rho.mat) - np.linalg.eigvalsh(perm)))
        local = tensor(random_unitary(da, rng), random_unitary(db, rng))
        rotated = local @ rho.mat @ local.conj().T
        rho2 = random_density_matrix(2, 2, rng=rng)
        pair = tensor_pair(rho, rho2)
        h1, h2 = _gaussian(rng, da, da), _gaussian(rng, db, db)
        h1, h2 = (h1 + h1.conj().T) / 2, (h2 + h2.conj().T) / 2
        blocks = rho.mat.reshape(da, db, da, db)
        bound = sum(frobenius_norm(blocks[i, :, j, :]) for i in range(da) for j in range(da))
        slacks.append([
            abs(trace_norm(u @ m @ v) - trace_norm(m)),
            frobenius_norm(m) - trace_norm(m),
            involution,
            np.max(np.abs(both - rho.mat.T)),
            normalisation,
            spectrum,
            abs(frobenius_norm(realign(rho).mat) - frobenius_norm(rho.mat)),
            abs(ccn_value(rotated, dims=(da, db)) - ccn_value(rho)),
            abs(ccn_value(pair.state) - ccn_value(rho) * ccn_value(rho2)),
            ccn_value(tensor(h1, h2), dims=(da, db)) - trace_norm(h1) * trace_norm(h2),
            ccn_value(rho) - bound,
        ])
    return [list(map(float, row)) for row in zip(*slacks)]


def _reference_monotonicity(seed, n):
    """suite_monotonicity as one loop over instances through the public API,
    as (checks, n) slacks."""
    rng = np.random.default_rng(seed)
    slacks = []
    for _ in range(n):
        da, db = (int(d) for d in rng.choice([2, 3], size=2))
        fs = single_factor(random_density_matrix(da, db, rng=rng))
        op_lu = LocalUnitary(random_unitary(da, rng), random_unitary(db, rng))
        lu = monotonicity_probe(op_lu, fs)
        side, dim = ("alice", da) if rng.integers(2) == 0 else ("bob", db)
        frame = random_unitary(dim, rng)
        cut = int(rng.integers(1, dim))
        projs = (frame[:, :cut] @ frame[:, :cut].conj().T, frame[:, cut:] @ frame[:, cut:].conj().T)
        lvn = monotonicity_probe(LvnMeasurement(side, projs), fs)
        anc = random_density_matrix(2, 1, rng=rng).mat
        ancilla = monotonicity_probe(AddAncilla("alice", anc), fs)
        sigma = _gaussian(rng, dim, dim)
        slacks.append([
            abs(lu.tau_after - lu.tau_before),
            lvn.tau_after - lvn.tau_before,
            ancilla.tau_after - ancilla.tau_before,
            frobenius_norm(pinching(sigma, projs)) - frobenius_norm(sigma),
        ])
    return [list(map(float, row)) for row in zip(*slacks)]


def _reference_sandwich(seed, n, restarts=6):
    """suite_sandwich as one loop over instances, each state on its own, as
    (checks, n) slacks."""
    rng = np.random.default_rng(seed)
    slacks = []
    for k in range(n):
        d = 2 if k % 2 == 0 else 3
        rho = random_density_matrix(d, d, rng=rng)
        lower = fidelity_lower(rho)
        tau = ccn_value(rho)
        best = fidelity_optimize(rho, restarts=restarts, seed=seed + k).value
        trace = float(realigned_trace(rho).real)
        psi = psi_plus(d)
        overlap = float((psi.conj() @ rho.mat @ psi).real)
        slacks.append([lower - best, best - tau / d, -trace, abs(trace / d - overlap)])
    return [list(row) for row in zip(*slacks)]


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
    "seed, n", [(1, 1), (2, 1), (1, 7), (3, 7), (1, 100), (4, 100), (2, 150)]
)
def test_sandwich_matches_reference(seed, n):
    # n = 100 puts the 50 states of each dimension in one chunk, and n = 150
    # puts 75 in two chunks of unequal size
    assert 50 <= verify._SANDWICH_CHUNK < 75
    _assert_matches(verify.suite_sandwich(seed, n), _reference_sandwich(seed, n))


# n = 1 and 7 leave some (da, db) groups, and most monotonicity groups, empty;
# n = 100 evaluates full groups and the partly filled rest
@pytest.mark.parametrize(
    "seed, n", [(1, 1), (2, 1), (1, 7), (3, 7), (1, 100), (4, 100)]
)
def test_norms_matches_reference(seed, n):
    _assert_matches(verify.suite_norms(seed, n), _reference_norms(seed, n))


@pytest.mark.parametrize(
    "seed, n", [(1, 1), (2, 1), (1, 7), (3, 7), (1, 100), (4, 100)]
)
def test_monotonicity_matches_reference(seed, n):
    _assert_matches(verify.suite_monotonicity(seed, n), _reference_monotonicity(seed, n))


@pytest.mark.parametrize("per_axis", [7, 20])
def test_spectra_matches_reference(per_axis):
    worst = [check.worst for check in verify.suite_spectra(0, 1, per_axis=per_axis)]
    assert worst == _reference_spectra(per_axis)


_STAGES = {  # the draw and the group evaluation of each random suite
    "norms": ("_draw_norms", "_norm_slacks"),
    "monotonicity": ("_draw_monotonicity", "_monotonicity_slacks"),
    "sandwich": (None, "_sandwich_slacks"),
}


def _recorded_run(monkeypatch, suite, seed, n):
    """The (checks, n) slacks a random suite takes its worst values from,
    the group key of each instance and the largest stack of each group."""
    slacks, keys, chunks = [], [], {}
    draw_name, evaluate_name = _STAGES[suite]
    with monkeypatch.context() as m:
        if draw_name is None:  # suite_sandwich alternates d = 2 and 3
            keys = [2 if k % 2 == 0 else 3 for k in range(n)]
        else:
            draw = getattr(verify, draw_name)

            def recording(rng, k):
                key, draws = draw(rng, k)
                keys.append(key)
                return key, draws

            m.setattr(verify, draw_name, recording)
        evaluate = getattr(verify, evaluate_name)

        def sized(key, *draws):
            chunks[key] = max(chunks.get(key, 0), len(draws[0]))
            return evaluate(key, *draws)

        m.setattr(verify, evaluate_name, sized)
        m.setattr(verify, "_results", lambda s, tols: slacks.append(s) or [])
        verify.SUITES[suite](seed, n)
    return slacks[0], keys, chunks


# monotonicity spreads its instances over 8 groups, so it first fills a
# (3, 3) stack of 48 at about n = 400
@pytest.mark.parametrize("suite, n, full_chunks", [
    ("norms", 300, {(2, 2): 60, (2, 3): 27, (3, 2): 27, (3, 3): 12}),
    ("monotonicity", 600, {(3, 3, "alice"): 48, (3, 3, "bob"): 48}),
    ("sandwich", 300, {2: 64, 3: 64}),
])
def test_instance_k_replays_at_n_k_plus_1(monkeypatch, suite, n, full_chunks):
    full, keys, chunks = _recorded_run(monkeypatch, suite, 5, n)
    assert chunks.items() >= full_chunks.items()
    # the last instance of each group's first full stack and the first of
    # its next, where the replay's stack ends and the full run's does not
    replayed, seen = {0, n - 1}, {}
    for k, key in enumerate(keys):
        seen[key] = seen.get(key, 0) + 1
        if key in full_chunks and seen[key] in (full_chunks[key], full_chunks[key] + 1):
            replayed.add(k)
    assert len(replayed) == 2 + 2 * len(full_chunks)
    for k in sorted(replayed):
        column = _recorded_run(monkeypatch, suite, 5, k + 1)[0][:, k]
        assert column.tobytes() == full[:, k].tobytes(), k


# norms, sandwich and spectra fill their largest stack by n = 300;
# monotonicity's 8 groups need about n = 400
@pytest.mark.parametrize("suite, ns", [
    ("norms", (300, 1000)), ("monotonicity", (1000, 3000)),
    ("sandwich", (300, 1000)), ("spectra", (300, 1000)),
])
def test_stacks_stay_within_the_entry_budget(monkeypatch, suite, ns):
    def largest(n):
        entries = []  # count x side^2 of each stack of states the suite checks
        with monkeypatch.context() as m:
            m.setattr(verify, "_check_states",
                      lambda mats: entries.append(mats.size) or _check_states(mats))
            verify.SUITES[suite](7, n)
        return max(entries)

    small, large = map(largest, ns)
    assert small == large <= verify._STACK_ENTRIES


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


def _spoil_call(fn, call, spoil):
    """fn whose result on its given 0-based call goes through spoil."""
    calls = []

    def wrapped(*args, **kwargs):
        out = fn(*args, **kwargs)
        calls.append(1)
        return spoil(out) if len(calls) == call + 1 else out

    return wrapped


def _nan_first(stack):
    """The stack with its first matrix, its group's first instance, NaN."""
    out = stack.copy()
    out[0] = np.nan
    return out


@pytest.mark.parametrize("suite, attr, poison, check", [
    ("norms", "_trace_out", _nan_first, "partial trace normalisation"),
    ("monotonicity", "_pinching", _nan_first, "pinching never increases frobenius norm"),
    ("spectra", "_counterexample_closed_forms", lambda c: c._replace(g=c.g * np.nan),
     "closed-form ccn value g + |t|"),
])
def test_a_nan_slack_fails_its_check(monkeypatch, suite, attr, poison, check):
    # only the first instance (or grid row) is NaN; every later slack is finite,
    # and Python's max(worst, nan) would drop it
    monkeypatch.setattr(verify, attr, _spoil_call(getattr(verify, attr), 0, poison))
    results = {c.name: c for c in verify.SUITES[suite](3, 5)}
    assert np.isnan(results[check].worst)
    assert not results[check].passed
    assert results[check].instance == (None if suite == "spectra" else 0)
    assert all(c.passed for name, c in results.items() if name != check)


def _raised(fn, *args) -> str:
    with pytest.raises(InvariantError) as info:
        fn(*args)
    return str(info.value)


def test_stacked_unitary_check_matches_local_unitary(rng):
    good = np.stack([random_unitary(3, rng) for _ in range(4)])
    bad = good.copy()
    bad[2] *= 1.001
    assert _raised(_check_unitaries, bad, "u_a") == _raised(LocalUnitary, bad[2], good[0])
    assert _raised(_check_unitaries, bad, "u_b") == _raised(LocalUnitary, good[0], bad[2])
    _check_unitaries(good, "u_a")


def test_stacked_projector_check_matches_lvn_measurement(rng):
    frame = random_unitary(3, rng)
    good = (frame[:, :1] @ frame[:, :1].conj().T, frame[:, 1:] @ frame[:, 1:].conj().T)
    skew = (good[0] + np.diag([1e-9, 0, 0]) @ np.ones((3, 3)), good[1])
    scaled = (1.001 * good[0], good[1] - 0.001 * good[0])
    e0, e01 = np.eye(3)[:, :1], (np.eye(3)[:, :1] + np.eye(3)[:, 1:2]) / np.sqrt(2)
    overlapping = (e0 @ e0.T, e01 @ e01.T)
    incomplete = (good[0], np.zeros((3, 3)))
    messages = []
    for bad in (skew, scaled, overlapping, incomplete):
        stack = np.stack([good, good, bad, good], axis=1)  # (K, N, d, d)
        messages.append(_raised(_check_projectors, stack))
        assert messages[-1] == _raised(LvnMeasurement, "alice", bad)
    assert messages == [
        "projector 0 is not Hermitian",
        "projector 0 is not idempotent",
        "projectors 0 and 1 are not orthogonal",
        "projectors do not sum to the identity",
    ]
    # the first failing family decides, whichever check it fails
    stack = np.stack([good, incomplete, skew], axis=1)
    assert _raised(_check_projectors, stack) == messages[3]
    _check_projectors(np.stack([good, good], axis=1))


def test_suites_validate_the_matrices_they_build(monkeypatch):
    # each time the first instance of the first group is spoiled
    spoiled = []

    def first(change):
        def spoil(stack):
            out = stack.copy()
            out[0] = change(out[0])
            spoiled.append(out[0])
            return out
        return spoil

    non_psd = first(lambda mat: np.diag([1.2] + [0.0] * (len(mat) - 2) + [-0.2]))
    non_unitary = first(lambda u: 1.001 * u)
    with monkeypatch.context() as m:  # its state
        m.setattr(verify, "_gram_states", _spoil_call(verify._gram_states, 0, non_psd))
        message = _raised(verify.suite_norms, 3, 7)
        assert message == _raised(DensityMatrix, 1, len(spoiled[-1]), spoiled[-1])
    with monkeypatch.context() as m:  # its u_a
        m.setattr(verify, "_haar_unitaries", _spoil_call(verify._haar_unitaries, 0, non_unitary))
        message = _raised(verify.suite_monotonicity, 3, 7)
        assert message == _raised(LocalUnitary, spoiled[-1], np.eye(2))
    checked = []
    with monkeypatch.context() as m:  # its Haar frame, which scales both its projectors
        m.setattr(verify, "_haar_unitaries", _spoil_call(verify._haar_unitaries, 2, non_unitary))
        m.setattr(verify, "_check_projectors",
                  lambda projs: _check_projectors(checked.append(projs) or projs))
        message = _raised(verify.suite_monotonicity, 3, 7)
        assert message == _raised(LvnMeasurement, "alice", tuple(checked[0][:, 0]))
        assert message == "projector 0 is not idempotent"
