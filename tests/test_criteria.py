"""Decision layer: PPT, fidelity bounds, closed forms, extended CCN."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from sepscope import criteria
from sepscope.criteria import (
    FactorizedState,
    ccn_max_disordered,
    distillable_by_fidelity,
    extended_ccn,
    fidelity_lower,
    fidelity_optimize,
    fidelity_two_qubit_max_disordered,
    full_report,
    full_reports,
    ppt_criterion,
    realigned_trace,
    single_factor,
    tensor_pair,
)
from sepscope.hsbasis import decompose
from sepscope.linalg import DimensionError, TraceClassOperator, tensor
from sepscope.realign import ccn_value, realign
from sepscope.states import (
    BellDiagonal,
    Counterexample,
    Isotropic,
    MaxDisordered,
    PureSchmidt,
    RhoP,
    Werner,
    make_state,
    psi_plus,
    random_density_matrix,
    random_unitary,
    rho_p_threshold,
)


def _entangled_bell_diagonal(rng):
    while True:
        p = rng.dirichlet(np.ones(4))
        if p.max() > 0.52:
            return make_state(BellDiagonal(tuple(p)))


# --- ppt ----------------------------------------------------------------------


def test_ppt_separable_product(rng):
    rho_a = random_density_matrix(2, 1, rng=rng).mat
    rho_b = random_density_matrix(2, 1, rng=rng).mat
    from sepscope.linalg import DensityMatrix

    rho = DensityMatrix(2, 2, tensor(rho_a, rho_b))
    res = ppt_criterion(rho)
    assert not res.violated
    assert res.min_eig >= -1e-12


def test_ppt_counterexample_detected():
    res = ppt_criterion(make_state(Counterexample(0.5, 0.25, 0.0625)))
    assert res.violated
    assert res.min_eig < 0


def test_ppt_werner_singlet():
    res = ppt_criterion(make_state(Werner(2, 1.0)))
    assert res.min_eig == pytest.approx(-0.5, abs=1e-12)


def test_ppt_flag_forms_agree(rng):
    for _ in range(20):
        rho = random_density_matrix(2, 2, rng=rng)
        res = ppt_criterion(rho)
        assert res.violated == (res.min_eig < -1e-9 / 2)
        # trace norm and eigenvalue forms are linked: ||pt||_1 = 1 + 2|neg part|
        neg = -np.clip(np.linalg.eigvalsh(
            rho.mat.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
        ), None, 0).sum()
        assert res.trace_norm == pytest.approx(1 + 2 * neg, abs=1e-12)


# --- fidelity lower bound -------------------------------------------------------


def test_fidelity_lower_psi_plus():
    assert fidelity_lower(make_state(PureSchmidt((0.5, 0.5)))) == pytest.approx(1.0)


def test_fidelity_lower_maximally_mixed_d3():
    assert fidelity_lower(make_state(Isotropic(3, 1 / 9))) == pytest.approx(1 / 9)


def test_fidelity_lower_equals_overlap(rng):
    for d in (2, 3):
        for _ in range(10):
            rho = random_density_matrix(d, d, rng=rng)
            psi = psi_plus(d)
            overlap = float((psi.conj() @ rho.mat @ psi).real)
            assert fidelity_lower(rho) == pytest.approx(overlap, abs=1e-12)
            assert realigned_trace(rho).real == pytest.approx(d * overlap, abs=1e-12)


def test_fidelity_lower_rejects_rectangular(rng):
    with pytest.raises(DimensionError):
        fidelity_lower(random_density_matrix(2, 3, rng=rng))


# --- fidelity optimizer ---------------------------------------------------------


def test_fidelity_optimize_psi_plus():
    res = fidelity_optimize(make_state(PureSchmidt((0.5, 0.5))), restarts=4)
    assert res.value == pytest.approx(1.0, abs=1e-10)
    assert res.converged


def test_fidelity_optimize_unitary_reproduces_value(rng):
    rho = random_density_matrix(3, 3, rng=rng)
    res = fidelity_optimize(rho, restarts=8)
    d = 3
    psi = (res.unitary.T / np.sqrt(d)).reshape(-1)
    assert float((psi.conj() @ rho.mat @ psi).real) == pytest.approx(
        res.value, abs=1e-10
    )
    # defect of unitarity stays at rounding level
    assert np.max(np.abs(res.unitary.conj().T @ res.unitary - np.eye(d))) < 1e-12


def test_fidelity_optimize_matches_signature_unitary_all_negative():
    # diag(T) = (-p, -p, -p): the compensating maximally entangled state is
    # built from [[0, i], [-i, 0]]
    rho = make_state(Werner(2, 0.9))
    u = np.array([[0, 1j], [-1j, 0]])
    psi = (u.T / np.sqrt(2)).reshape(-1)
    closed = float((psi.conj() @ rho.mat @ psi).real)
    res = fidelity_optimize(rho, restarts=8)
    assert res.value == pytest.approx(closed, abs=1e-10)
    assert closed == pytest.approx(
        fidelity_two_qubit_max_disordered(decompose(rho), True), abs=1e-12
    )


def test_fidelity_optimize_never_below_lower_bound(rng):
    for _ in range(15):
        rho = random_density_matrix(2, 2, rng=rng)
        res = fidelity_optimize(rho, restarts=4)
        assert res.value >= fidelity_lower(rho) - 1e-9


def test_fidelity_optimize_deterministic(rng):
    rho = random_density_matrix(3, 3, rng=rng)
    a = fidelity_optimize(rho, restarts=6, seed=5)
    b = fidelity_optimize(rho, restarts=6, seed=5)
    assert a.value == b.value
    np.testing.assert_array_equal(a.unitary, b.unitary)


def test_fidelity_optimize_argument_errors(rng):
    with pytest.raises(ValueError):
        fidelity_optimize(make_state(Werner(2, 0.5)), restarts=0)
    with pytest.raises(DimensionError):
        fidelity_optimize(random_density_matrix(2, 3, rng=rng))
    with pytest.raises(TypeError):
        fidelity_optimize(np.eye(4) / 4)


def _overlap(mat, u):
    """<psi_U|mat|psi_U> with |psi_U> = (I (x) U)|psi+>."""
    v = np.kron(np.eye(len(u)), u) @ psi_plus(len(u))
    return v.conj() @ mat @ v


def _serial_ascent(mat, d, u, tol=1e-10, max_iter=2000):
    """One restart of the fixed-point ascent, as the criteria._ascend docstring states it."""

    def objective(u):
        return float(_overlap(mat, u).real)

    four = mat.reshape(d, d, d, d)
    value = objective(u)
    for _ in range(max_iter):
        grad = np.tensordot(four, u, axes=([2, 3], [1, 0])).T / d
        if np.linalg.norm(grad) < 1e-300:
            return value, u, True
        w, _, vh = np.linalg.svd(grad)
        nxt = objective(w @ vh)
        if nxt < value:
            return value, u, True
        gain = nxt - value
        value, u = nxt, w @ vh
        if gain <= tol:
            return value, u, True
    return value, u, False


def _phase_matrices(mat, phases):
    """The shifted Hermitian combinations the trace-class ascent runs on."""
    herm, skew = (mat + mat.conj().T) / 2, (mat - mat.conj().T) / 2j
    combos = [np.cos(t) * herm + np.sin(t) * skew for t in phases]
    return [c + max(0.0, -np.linalg.eigvalsh(c)[0]) * np.eye(len(mat)) for c in combos]


def _assert_engine_matches_serial(mats, starts, d, max_iter=2000):
    values, us, converged = criteria._ascend(np.stack(mats), starts, 1e-10, max_iter)
    for k, mat in enumerate(mats):
        ref = [_serial_ascent(mat, d, u0, max_iter=max_iter)
               for u0 in np.broadcast_to(starts, us.shape)[k]]
        ref_values = np.array([r[0] for r in ref])
        np.testing.assert_allclose(values[k], ref_values, rtol=0, atol=1e-12)
        assert list(converged[k]) == [r[2] for r in ref]
        for u, value in zip(us[k], values[k]):
            assert _overlap(mat, u).real == pytest.approx(value, abs=1e-12)
        # the winning restart agrees unless the reference has a tie at 1e-12
        win, ref_win = int(np.argmax(values[k])), int(np.argmax(ref_values))
        assert win == ref_win or ref_values[win] >= ref_values[ref_win] - 1e-12


@pytest.mark.parametrize("max_iter", [8, 2000])  # 8 stops most mixed-state restarts early
@pytest.mark.parametrize("d", [2, 3, 4])
def test_batched_ascent_matches_serial_reference(d, max_iter):
    rng = np.random.default_rng(40 + d)
    mats = [random_density_matrix(d, d, rank=r, rng=rng).mat for r in (1, 2, d * d)]
    starts = criteria._haar_starts(d, 5, rng)
    _assert_engine_matches_serial(mats, starts[None], d, max_iter)


def test_batched_ascent_matches_serial_reference_trace_class():
    d, restarts = 2, 3
    rng = np.random.default_rng(44)
    mat = (rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))) / 4
    phases = [2 * np.pi * k / 24 for k in range(24)]
    mats = _phase_matrices(mat, phases)
    starts = np.stack([criteria._haar_starts(d, restarts, rng) for _ in phases])
    _assert_engine_matches_serial(mats, starts, d)
    # the public path: phase-major starts from one generator, best overlap modulus
    draws = np.random.default_rng(5)
    best = None
    for shifted in mats:
        for trial in range(restarts):
            u0 = np.eye(d, dtype=complex) if trial == 0 else random_unitary(d, draws)
            _, u, conv = _serial_ascent(shifted, d, u0)
            overlap = abs(_overlap(mat, u))
            if best is None or overlap > best[0]:
                best = (overlap, u, conv)
    res = fidelity_optimize(TraceClassOperator(d, d, mat), restarts=restarts, seed=5)
    assert res.value == pytest.approx(best[0], abs=1e-12)
    assert res.converged == best[2]
    np.testing.assert_allclose(res.unitary, best[1], atol=1e-6)


def test_full_reports_mixed_batch_matches_full_report(rng):
    # two groups of d = 3 around a rectangular state, then d = 2; the first
    # group spans a chunk boundary
    states = [make_state(Isotropic(3, f)) for f in np.linspace(0.1, 0.9, 18)]
    states += [random_density_matrix(2, 3, rng=rng), make_state(Isotropic(3, 0.5))]
    states += [random_density_matrix(2, 2, rng=rng) for _ in range(3)]
    batched = full_reports(iter(states), restarts=4, seed=3)
    assert len(batched) == len(states)
    for rho, got in zip(states, batched):
        want = full_report(rho, restarts=4, seed=3)
        assert replace(got, fidelity_best=None) == replace(want, fidelity_best=None)
        if want.fidelity_best is not None:
            assert got.fidelity_best == pytest.approx(want.fidelity_best, abs=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_ascent_values_never_decrease_with_max_iter(d):
    # on isotropic states the ascent reaches its optimum within a few steps,
    # after which rounding can make the next value lower; the ascent must then
    # keep the previous unitary, so more steps never return a lower value
    mats = np.stack([make_state(Isotropic(d, f)).mat for f in np.linspace(0, 1, 41)])
    starts = criteria._haar_starts(d, 16, np.random.default_rng(0))
    previous = None
    for max_iter in range(1, 13):
        values, _, _ = criteria._ascend(mats, starts, criteria._ASCENT_TOL, max_iter)
        if previous is not None:
            assert np.all(values >= previous), f"a value fell at max_iter = {max_iter}"
        previous = values


def _complex_gaussian(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _svd_polar(g):
    w, _, vh = np.linalg.svd(g)
    return w @ vh


def _unitarity_defect(us):
    return np.max(np.abs(us.conj().swapaxes(-1, -2) @ us - np.eye(us.shape[-1])))


def test_polar_closed_form_matches_svd():
    rng = np.random.default_rng(50)
    gauss = _complex_gaussian(rng, (200, 2, 2))
    psd = gauss @ gauss.conj().swapaxes(-1, -2) + 0.1 * np.eye(2)
    # the polar factor of a complex matrix has condition number 1/s2, so the
    # near-singular stack is upper triangular: there det = m00 m11 is exact
    # and both methods resolve the phase of the tiny singular value
    tiny = _complex_gaussian(rng, (200, 2, 2))
    tiny[:, 1, 0] = 0.0
    tiny[:, 1, 1] = 1e-17 * np.exp(2j * np.pi * rng.random(200))
    assert np.all(np.abs(np.linalg.det(tiny)) < 1e-15)
    for stack in (gauss, psd, tiny, 1e200 * gauss, 1e-200 * gauss):
        np.testing.assert_allclose(criteria._polar(stack), _svd_polar(stack), rtol=0, atol=1e-14)


def test_polar_rank_deficient_stacks_are_unitary():
    rng = np.random.default_rng(51)
    rank1 = _complex_gaussian(rng, (100, 2, 1)) @ _complex_gaussian(rng, (100, 1, 2))
    rank1[:10] = np.array([[1.0, 2.0], [2.0, 4.0]])  # real, det exactly 0
    zero = np.zeros((5, 2, 2), dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        us, zero_us = criteria._polar(rank1), criteria._polar(zero)
    assert _unitarity_defect(us) < 1e-14
    assert _unitarity_defect(zero_us) < 1e-14
    # a polar factor: U^H M is Hermitian positive semidefinite
    h = us.conj().swapaxes(-1, -2) @ rank1
    assert np.max(np.abs(h - h.conj().swapaxes(-1, -2))) < 1e-13
    assert np.min(np.linalg.eigvalsh(h)) > -1e-13


def test_ascent_is_exactly_scale_equivariant_at_d2():
    # trace-class input is not normalised; scaling it and the tolerance by a
    # power of two scales every value exactly, also where det M of a 2 x 2
    # gradient is subnormal (about 1e-320) and would lose its phase unscaled
    scale = 2.0**-530
    rng = np.random.default_rng(52)
    mats = np.stack([random_density_matrix(2, 2, rng=rng).mat for _ in range(3)])
    starts = criteria._haar_starts(2, 4, rng)
    values, us, converged = criteria._ascend(mats, starts, 1e-10, 2000)
    scaled = criteria._ascend(scale * mats, starts, scale * 1e-10, 2000)
    np.testing.assert_array_equal(scaled[0], scale * values)
    np.testing.assert_array_equal(scaled[1], us)
    np.testing.assert_array_equal(scaled[2], converged)


@pytest.mark.parametrize("d", [2, 3])
def test_ascent_problems_leaving_the_product_match_solo_runs(d, monkeypatch):
    # isotropic F = 0 and F = 1 stop within two steps (at F = 0 the identity
    # restart's gradient is zero), the other states after many more: the live
    # set shrinks while other problems still ascend
    rng = np.random.default_rng(60 + d)
    mats = [make_state(Isotropic(d, f)).mat for f in (0.0, 0.11, 1.0)]
    mats += [random_density_matrix(d, d, rank=r, rng=rng).mat for r in (1, 2, d * d, d * d)]
    mats = np.stack(mats)
    starts = criteria._haar_starts(d, 6, rng)

    steps = []
    polar = criteria._polar

    def counted(g):
        steps[-1] += 1
        return polar(g)

    monkeypatch.setattr(criteria, "_polar", counted)
    solo = []
    for mat in mats:
        steps.append(0)
        solo.append(criteria._ascend(mat[None], starts, criteria._ASCENT_TOL, 2000))
    assert max(steps) >= 5 * max(1, min(steps)), steps
    values, us, converged = criteria._ascend(mats, starts, criteria._ASCENT_TOL, 2000)

    if d == 2:
        _assert_engine_matches_serial(list(mats), starts[None], d)
    for k, (v, u, c) in enumerate(solo):
        if d == 2:
            np.testing.assert_allclose(values[k], v[0], rtol=0, atol=1e-12)
        else:
            np.testing.assert_array_equal(values[k], v[0])
            np.testing.assert_array_equal(us[k], u[0])
        np.testing.assert_array_equal(converged[k], c[0])


# --- prop-4-style closed form ----------------------------------------------------


def test_two_qubit_closed_form_singlet_like():
    rho = make_state(Werner(2, 1.0))  # diag(T) = (-1, -1, -1)
    assert fidelity_two_qubit_max_disordered(decompose(rho), True) == pytest.approx(
        1.0, abs=1e-12
    )


def test_two_qubit_closed_form_psi_plus():
    dec = decompose(make_state(PureSchmidt((0.5, 0.5))))  # diag(T) = (1, -1, 1)
    assert fidelity_two_qubit_max_disordered(dec, True) == pytest.approx(1.0, abs=1e-12)


def test_two_qubit_closed_form_equals_half_tau(rng):
    for _ in range(20):
        rho = _entangled_bell_diagonal(rng)
        dec = decompose(rho)
        f = fidelity_two_qubit_max_disordered(dec, True)
        assert 2 * f == pytest.approx(ccn_value(rho), abs=1e-10)


def test_two_qubit_closed_form_refuses_separable_hint():
    # two non-positive correlation values: the closed form would overshoot
    dec = decompose(make_state(MaxDisordered((-0.3, -0.3, 0.2))))
    with pytest.raises(ValueError, match="entangled"):
        fidelity_two_qubit_max_disordered(dec, False)
    with pytest.raises(ValueError, match="signature"):
        fidelity_two_qubit_max_disordered(dec, True)


def test_two_qubit_closed_form_requires_diagonal_t(rng):
    from sepscope.states import random_max_disordered

    while True:
        rho = random_max_disordered(2, rng)
        dec = decompose(rho)
        off = dec.t_mat - np.diag(np.diagonal(dec.t_mat))
        if np.max(np.abs(off)) > 1e-6:
            break
    with pytest.raises(ValueError, match="diagonal"):
        fidelity_two_qubit_max_disordered(dec, True)


def test_two_qubit_closed_form_requires_disordered():
    dec = decompose(make_state(Counterexample(0.5, 0.25, 0.0625)))
    with pytest.raises(ValueError, match="disordered"):
        fidelity_two_qubit_max_disordered(dec, True)


# --- disordered ccn closed form ---------------------------------------------------


def test_ccn_max_disordered_values():
    dec = decompose(np.eye(4) / 4, basis="pauli")
    assert ccn_max_disordered(dec) == pytest.approx(0.5, abs=1e-13)
    for probs in [(0.7, 0.1, 0.1, 0.1), (0.4, 0.3, 0.2, 0.1)]:
        rho = make_state(BellDiagonal(probs))
        dec = decompose(rho)
        assert ccn_max_disordered(dec) == pytest.approx(ccn_value(rho), abs=1e-10)
        t_abs = np.abs(np.diagonal(dec.t_mat.real))
        assert ccn_max_disordered(dec) == pytest.approx((1 + t_abs.sum()) / 2, abs=1e-12)


def test_ccn_max_disordered_isotropic_d3():
    rho = make_state(Isotropic(3, 0.7))
    dec = decompose(rho)
    assert ccn_max_disordered(dec) == pytest.approx(ccn_value(rho), abs=1e-10)


def test_ccn_max_disordered_rejects_biased_states():
    dec = decompose(make_state(Counterexample(0.5, 0.25, 0.0625)))
    with pytest.raises(ValueError, match="disordered"):
        ccn_max_disordered(dec)


# --- distillability ----------------------------------------------------------------


def test_distillable_psi_plus():
    report = full_report(make_state(PureSchmidt((0.5, 0.5))), restarts=2)
    assert report.realigned_trace == pytest.approx(2.0, abs=1e-12)
    assert distillable_by_fidelity(report)
    assert report.distillable_flag


def test_distillable_maximally_mixed_not_certified():
    report = full_report(make_state(Werner(2, 0.0)), restarts=2)
    assert not distillable_by_fidelity(report)


def test_distillable_isotropic_threshold():
    above = full_report(make_state(Isotropic(3, 0.4)), restarts=2)
    assert above.realigned_trace == pytest.approx(3 * 0.4, abs=1e-12)
    assert above.distillable_flag
    below = full_report(make_state(Isotropic(3, 0.32)), restarts=2)
    assert not below.distillable_flag


def test_distillable_psd_correlation_route_branch():
    # in the conjugated convention the sigma_y coefficient flips sign, so
    # pauli diag (0.3, -0.2, 0.4) has PSD correlation matrix diag (0.3, 0.2, 0.4)
    from dataclasses import replace

    base = full_report(make_state(MaxDisordered((0.3, -0.2, 0.4))), restarts=2)
    assert base.max_disordered and base.t_psd
    # with a PSD correlation matrix the realigned trace equals tau exactly
    assert base.realigned_trace == pytest.approx(base.tau, abs=1e-12)
    assert not distillable_by_fidelity(base)
    tweaked = replace(base, realigned_trace=0.99, tau=1.02)
    assert distillable_by_fidelity(tweaked)
    not_psd = replace(tweaked, t_psd=False)
    assert not distillable_by_fidelity(not_psd)
    # flipped sign pattern: correlation matrix not PSD in that convention
    other = full_report(make_state(MaxDisordered((0.3, 0.2, 0.4))), restarts=2)
    assert not other.t_psd


# --- extended ccn -------------------------------------------------------------------


def test_extended_ccn_product_witness():
    noise = make_state(Werner(2, 0.0))        # tau = 1/2
    strong = make_state(Werner(2, 0.8))       # tau = 1.7
    pair = tensor_pair(noise, strong)
    assert ccn_value(pair.state) == pytest.approx(0.85, abs=1e-10)
    res = extended_ccn(pair)
    assert res.value == pytest.approx(1.7, abs=1e-10)
    assert res.traced_alice == (0,)
    assert res.traced_bob == (0,)


def test_extended_ccn_single_factor_is_plain_ccn(rng):
    rho = random_density_matrix(2, 2, rng=rng)
    res = extended_ccn(single_factor(rho))
    assert res.value == pytest.approx(ccn_value(rho), abs=1e-12)
    assert res.traced_alice == () and res.traced_bob == ()


def test_extended_ccn_separable_product_stays_below_one(rng):
    sep1 = make_state(Werner(2, 0.2))
    sep2 = make_state(RhoP((0.8, 0.2), 0.3))
    res = extended_ccn(tensor_pair(sep1, sep2))
    assert res.value <= 1 + 1e-9


def test_extended_ccn_never_below_plain(rng):
    for _ in range(5):
        pair = tensor_pair(
            random_density_matrix(2, 2, rng=rng), random_density_matrix(2, 2, rng=rng)
        )
        assert extended_ccn(pair).value >= ccn_value(pair.state) - 1e-12


def test_factorized_state_validation(rng):
    rho = random_density_matrix(4, 2, rng=rng)
    fs = FactorizedState(rho, (2, 2), (2,))
    assert fs.factor_dims == (2, 2, 2)
    with pytest.raises(DimensionError):
        FactorizedState(rho, (3, 2), (2,))


# --- sandwich and variational identities ---------------------------------------------


@pytest.mark.parametrize("d", [2, 3])
def test_fidelity_sandwich_random_states(rng, d):
    for k in range(25):
        rho = random_density_matrix(d, d, rng=rng)
        lower = fidelity_lower(rho)
        best = fidelity_optimize(rho, restarts=6, seed=k).value
        tau = ccn_value(rho)
        assert lower <= best + 1e-8
        assert best <= tau / d + 1e-10
        assert realigned_trace(rho).real >= -1e-10


def test_variational_trace_identity(rng):
    # d * f(U) equals the realigned trace of the state rotated into the
    # frame of the optimizing maximally entangled vector (I (x) U)|psi+>
    for d in (2, 3):
        rho = random_density_matrix(d, d, rng=rng)
        res = fidelity_optimize(rho, restarts=4)
        u = tensor(np.eye(d), res.unitary)
        rotated = u.conj().T @ rho.mat @ u
        tr_rotated = np.trace(realign(rotated, dims=(d, d)).mat)
        assert abs(tr_rotated) == pytest.approx(d * res.value, abs=1e-9)


@pytest.mark.parametrize("d", [2, 3])
def test_pure_state_fidelity_equality(rng, d):
    for _ in range(5):
        alpha = rng.dirichlet(np.ones(d))
        rho = make_state(PureSchmidt(tuple(alpha)))
        res = fidelity_optimize(rho, restarts=16)
        assert d * res.value == pytest.approx(ccn_value(rho), abs=1e-7)


@pytest.mark.parametrize("d", [2, 3])
def test_isotropic_fidelity_equality(rng, d):
    # equality d*f = tau holds from F = 1/d^2 (maximally mixed) upward
    for fid in np.linspace(1 / (d * d), 1.0, 5):
        rho = make_state(Isotropic(d, float(fid)))
        res = fidelity_optimize(rho, restarts=16)
        assert d * res.value == pytest.approx(ccn_value(rho), abs=1e-7)


# --- trace-class fidelity (relaxed inputs) ---------------------------------------------


def test_trace_class_product_fidelity_matches_pairing_oracle(rng):
    d = 2
    for k in range(8):
        h1 = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h1 = (h1 + h1.conj().T) / 2
        h2 = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h2 = (h2 + h2.conj().T) / 2
        # max_U |tr(h1^T U h2 U^dag)| pairs sorted spectra directly or crossed
        a = np.sort(np.linalg.eigvalsh(h1.T))
        b = np.sort(np.linalg.eigvalsh(h2))
        closed = max(abs(np.dot(a, b)), abs(np.dot(a, b[::-1]))) / d
        op = TraceClassOperator(d, d, tensor(h1, h2))
        got = fidelity_optimize(op, restarts=8, seed=k).value
        assert got == pytest.approx(closed, abs=1e-6)


def test_trace_class_fidelity_below_ccn(rng):
    for k in range(8):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = (m + m.conj().T) / 2
        op = TraceClassOperator(2, 2, m)
        f = fidelity_optimize(op, restarts=6, seed=k).value
        assert 2 * f <= ccn_value(op) + 1e-8


# --- full report -------------------------------------------------------------------


def test_full_report_counterexample_flags():
    report = full_report(make_state(Counterexample(0.5, 0.25, 0.0625)), restarts=4)
    assert not report.ccn_flag
    assert report.ppt_flag
    assert report.fidelity_lower <= report.fidelity_best + 1e-8
    assert report.fidelity_best <= report.fidelity_upper + 1e-8


def test_full_report_rho_p_above_threshold():
    alpha = (0.7, 0.3)
    p_star = rho_p_threshold(alpha)
    report = full_report(make_state(RhoP(alpha, p_star + 1e-3)), restarts=2)
    assert report.ccn_flag
    below = full_report(make_state(RhoP(alpha, p_star - 1e-3)), restarts=2)
    assert not below.ccn_flag


def test_full_report_maximally_mixed():
    report = full_report(make_state(Werner(2, 0.0)), restarts=2)
    assert not (report.ccn_flag or report.ppt_flag or report.distillable_flag)
    assert report.max_disordered
    assert any("maximally disordered" in note for note in report.notes)
    assert any("isotropic" in note for note in report.notes)


def test_full_report_pure_note():
    report = full_report(make_state(PureSchmidt((0.7, 0.3))), restarts=2)
    assert any("pure state" in note for note in report.notes)


def test_ccn_flag_never_contradicts_two_qubit_ppt(rng):
    # at 2x2 the partial transpose test is exact, so a CCN detection must
    # always be accompanied by a PPT detection
    for _ in range(40):
        report = full_report(random_density_matrix(2, 2, rank=2, rng=rng), restarts=2)
        if report.ccn_flag:
            assert report.ppt_flag


def test_full_report_rectangular(rng):
    report = full_report(random_density_matrix(2, 3, rng=rng), restarts=2)
    assert report.fidelity_lower is None
    assert report.tau > 0
    assert any("unequal" in note for note in report.notes)
