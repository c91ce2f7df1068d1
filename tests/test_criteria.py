"""Decision layer: PPT, fidelity bounds, closed forms, extended CCN."""

import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from sepscope import criteria
from sepscope.criteria import (
    CriterionReport,
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
from sepscope.linalg import (
    TOL_FLAG,
    DensityMatrix,
    DimensionError,
    TraceClassOperator,
    tensor,
)
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
    parse_family,
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


@pytest.mark.parametrize("func", [realigned_trace, fidelity_lower, fidelity_optimize, decompose])
@pytest.mark.parametrize(
    "wrap",
    [lambda rho: rho, lambda rho: TraceClassOperator(2, 3, rho.mat)],
    ids=["state", "operator"],
)
def test_square_only_functions_reject_rectangular_operators(rng, func, wrap):
    with pytest.raises(DimensionError):
        func(wrap(random_density_matrix(2, 3, rng=rng)))


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
    # bools, non-integers and negative seeds are refused by name before any
    # numerics run, in the state, relaxed and report paths alike
    rho = make_state(Werner(3, 0.5))
    relaxed = TraceClassOperator(3, 3, rho.mat)
    for kwargs, match in (
        (dict(restarts=2.5), "restarts must be an integer, got 2.5"),
        (dict(restarts=2.0), "restarts must be an integer, got 2.0"),
        (dict(restarts=True), "restarts must be an integer, got True"),
        (dict(restarts=np.bool_(True)), "restarts must be an integer"),
        (dict(seed=1.5), "seed must be an integer, got 1.5"),
        (dict(seed=False), "seed must be an integer, got False"),
        (dict(seed=None), "seed must be an integer, got None"),
        (dict(seed=-1), "seed must be a non-negative integer, got -1"),
        (dict(seed=np.int64(-2)), "seed must be a non-negative integer, got -2"),
    ):
        for func, op in ((fidelity_optimize, rho), (fidelity_optimize, relaxed),
                         (full_report, rho), (full_reports, [rho])):
            with pytest.raises(ValueError, match=match):
                func(op, **kwargs)
    # numpy integers are integers
    want = fidelity_optimize(rho, restarts=3, seed=4)
    got = fidelity_optimize(rho, restarts=np.int64(3), seed=np.uint8(4))
    assert got.value == want.value
    assert full_report(rho, restarts=np.int32(3), seed=np.int64(4)) == full_report(rho, 3, 4)
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


def _serial_newton_ascent(mat, d, u, tol=1e-10, max_iter=2000):
    """One restart of criteria._ascend as its docstring states it: _PLAIN
    plain polar steps, then trust-region Newton steps by truncated CG,
    retracted by the Cayley transform, each kept only if its gain exceeds
    _ACCEPT times the model's.  An interior Newton step whose model predicted
    at most TOL_PREDICTED times the value, or a rejected one whose model
    predicted at most tol, stops the restart where it is, converged; a kept
    step on the trust boundary never counts as converged."""
    four = mat.reshape(d, d, d, d)

    def objective(u):
        return float(_overlap(mat, u).real)

    def g_of(z):  # G(Z) = reshape(rho vec(Z^T))^T / d, linear in Z
        return np.tensordot(four, z, axes=([2, 3], [1, 0])).T / d

    def skew0(w):
        s = (w - w.conj().T) / 2
        return s - np.trace(s) / d * np.eye(d)

    def inner(a, b):
        return float(np.vdot(a, b).real)

    def newton_step(u, radius):
        """Omega, predicted gain and boundary flag of Steihaug-Toint CG on
        -Hess Omega = grad over traceless skew-Hermitian Omega."""
        a = u.conj().T @ (2 * g_of(u))
        s = (a + a.conj().T) / 2
        grad = skew0(a)

        def minus_hess(om):
            return skew0(om @ s - u.conj().T @ (2 * g_of(u @ om)))

        eta, r, p = np.zeros((d, d), dtype=complex), -grad, grad
        rr = inner(r, r)
        goal = rr * min(criteria._CG_KAPPA**2, np.sqrt(np.sqrt(rr / inner(a, a))))
        cut = False
        for _ in range(d * d - 1 if rr > goal else 0):
            hp = minus_hess(p)
            kap = inner(p, hp)
            alpha = rr / kap if kap > 0 else 0.0
            if kap <= 0 or inner(eta + alpha * p, eta + alpha * p) >= radius**2:
                e_p, p_p = inner(eta, p), inner(p, p)
                tau = (np.sqrt(e_p**2 + p_p * (radius**2 - inner(eta, eta))) - e_p) / p_p
                eta, r, cut = eta + tau * p, r + tau * hp, True
                break
            eta, r = eta + alpha * p, r + alpha * hp
            rr_next = inner(r, r)
            if rr_next <= goal:
                break
            p, rr = rr_next / rr * p - r, rr_next
        return eta, inner(eta, grad - r) / 2, cut

    value, radius = objective(u), criteria._RADIUS * np.sqrt(d)
    for it in range(max_iter):
        grad = g_of(u)
        if np.abs(grad).max() < 1e-300:
            return value, u, True
        newton = it >= criteria._PLAIN
        if newton:
            omega, pred, cut = newton_step(u, radius)
            if not cut and pred <= criteria.TOL_PREDICTED * abs(value):
                return value, u, True
            # the Cayley transform U (I - Omega/2)^{-1} (I + Omega/2)
            u_next = u @ np.linalg.solve(np.eye(d) - omega / 2, np.eye(d) + omega / 2)
        else:
            w, _, vh = np.linalg.svd(grad)
            u_next = w @ vh
        nxt = objective(u_next)
        gain = nxt - value
        if newton:
            ratio = gain / pred if pred > 0 else 0.0
            if ratio < 0.25:
                radius /= 4
            elif ratio > 0.75 and cut:
                radius = min(2 * radius, np.sqrt(d))
            if ratio <= criteria._ACCEPT:  # rejected: U stays, Newton again at radius/4
                if pred <= tol:  # unless the model promised no more than tol
                    return value, u, True
                continue
        elif nxt < value:
            return value, u, True
        value, u = nxt, u_next
        if gain <= tol and not (newton and cut):  # a boundary step's gain measures the radius
            return value, u, True
    return value, u, False


def _assert_engine_matches_serial(mats, starts, d, max_iter=2000):
    values, us, converged = criteria._ascend(np.stack(mats), starts, np.inf, 1e-10, max_iter)
    for k, mat in enumerate(mats):
        ref = [_serial_newton_ascent(mat, d, u0, max_iter=max_iter)
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


def test_radius_cut_steps_do_not_count_as_converged(monkeypatch):
    # with a trust radius far below any Newton step, every Newton step ends
    # on the boundary, gaining at most tol: such a step does not stop the
    # pair, and the ratio rule doubles the radius until the steps reach, so
    # each restart still climbs to where the plain ascent ends
    monkeypatch.setattr(criteria, "_RADIUS", 1e-12)
    d = 4
    rng = np.random.default_rng(44)
    mats = [random_density_matrix(d, d, rank=r, rng=rng).mat for r in (2, d * d)]
    starts = criteria._haar_starts(d, 5, rng)
    _assert_engine_matches_serial(mats, starts[None], d)
    values = criteria._ascend(np.stack(mats), starts, np.inf, 1e-10, 2000)[0]
    for mat, got in zip(mats, values):
        plain = [_serial_ascent(mat, d, u0)[0] for u0 in starts]
        np.testing.assert_allclose(got, plain, rtol=0, atol=1e-9)


def _count_steps(monkeypatch, record, kinds=None):
    """Call record(rows) on each batched polar factor and Cayley retraction
    of the ascent, and append its kind, "P" or "C", to the list ``kinds``,
    if given: a step makes exactly one of them."""
    kinds = [] if kinds is None else kinds
    polar, cayley = criteria._polar, criteria._cayley
    monkeypatch.setattr(criteria, "_polar", lambda g: kinds.append("P") or record(len(g)) or polar(g))
    monkeypatch.setattr(criteria, "_cayley",
                        lambda xs, om: kinds.append("C") or record(len(xs)) or cayley(xs, om))


@pytest.mark.parametrize("radius", [criteria._RADIUS, 1e-12])
def test_every_pair_takes_polar_steps_then_newton_steps(monkeypatch, radius):
    # every step before the _PLAIN-th is a polar step and every later one a
    # Newton step, whatever the trust radius: at 1e-12 every Newton step ends
    # on the boundary, gaining at most tol, and its pair still takes Newton
    # steps after it
    monkeypatch.setattr(criteria, "_RADIUS", radius)
    d = 4
    rng = np.random.default_rng(44)
    mats = [random_density_matrix(d, d, rank=r, rng=rng).mat for r in (2, d * d)]
    starts = criteria._haar_starts(d, 5, rng)
    kinds = []
    _count_steps(monkeypatch, lambda rows: None, kinds)
    criteria._ascend(np.stack(mats), starts, np.inf, 1e-10, 2000)
    steps = "".join(kinds)
    assert len(steps) > criteria._PLAIN
    assert steps == "P" * criteria._PLAIN + "C" * (len(steps) - criteria._PLAIN), steps


@pytest.mark.parametrize("promised", ["model", "nothing", "rounding"])
def test_rejected_newton_steps_retry_in_place_or_stop_where_the_model_promised_at_most_tol(
        monkeypatch, promised):
    # the first Newton step is sent the wrong way, so its gain is negative and
    # it is rejected.  With the model's own prediction, far above tol, the pair
    # takes another Newton step on the next iteration from the same U with a
    # quartered radius; with a prediction of 0 on the trust boundary it stops,
    # converged, at the U it started from.  So does an interior step
    # predicting 0, whatever its actual gain
    d = 4
    rng = np.random.default_rng(44)
    mat = random_density_matrix(d, d, rng=rng).mat
    starts = criteria._haar_starts(d, 1, rng)
    calls, steps = [], []
    newton = criteria._newton_step

    def step(us, egrads, product, unit, radius):
        omega, pred, cut = newton(us, egrads, product, unit, radius)
        calls.append((len(steps), us.copy(), radius.copy(), cut.copy()))
        if len(calls) == 1:
            if promised == "rounding":
                return omega, 0 * pred, np.zeros_like(cut)
            return -omega, pred if promised == "model" else 0 * pred, cut
        return omega, pred, cut

    monkeypatch.setattr(criteria, "_newton_step", step)
    _count_steps(monkeypatch, steps.append)
    _, us_end, converged = criteria._ascend(mat[None], starts, np.inf, criteria.TOL_ASCENT, 2000)
    assert converged.all() and calls[0][3].all()  # the first step ends on the boundary
    if promised != "model":
        assert len(calls) == 1
        np.testing.assert_array_equal(us_end[0, 0], calls[0][1][0])
        return
    assert len(calls) >= 2
    (first, us, radius, _), (second, us_next, radius_next, _) = calls[:2]
    assert second == first + 1
    np.testing.assert_array_equal(us_next, us)
    np.testing.assert_array_equal(radius_next, radius / 4)


def _serial_joint_ascent(mat, d, u, tol=1e-10):
    """One restart of the relaxed ascent as criteria._optimize_trace_class
    states it: on m = mat / max|mat|, rounds of _RELAX_ROUND steps of
    _serial_newton_ascent on (conj(phi) m + phi m^H)/2 shifted by its
    lambda_min, phi = z/|z| for z = <psi_U|m|psi_U>, until a round gains at
    most tol; then the secant solve of arg z(U(theta)) = theta, each U(theta)
    an ascent to TOL_PREDICTED at the phase theta, kept if it raises |z|.
    Returns |z| on mat, U and whether the rounds converged."""
    scale = np.abs(mat).max()
    m = mat / scale
    eps = criteria.TOL_PREDICTED

    def ascend(theta, u, max_iter, tol):
        phi = np.exp(1j * theta)
        h = (np.conj(phi) * m + phi * m.conj().T) / 2
        h -= np.linalg.eigvalsh(h)[0] * np.eye(d * d)
        return _serial_newton_ascent(h, d, u, tol=tol, max_iter=max_iter)[1]

    z, converged = _overlap(m, u), False
    for _ in range(2000 // criteria._RELAX_ROUND):
        u = ascend(np.angle(z), u, criteria._RELAX_ROUND, tol)
        z_next = _overlap(m, u)
        gain, z = abs(z_next) - abs(z), z_next
        if gain <= tol:
            converged = True
            break
    theta, last, u_best = np.angle(z), None, u
    for _ in range(criteria._RELAX_FINISH):
        u = ascend(theta, u, 2000 // criteria._RELAX_FINISH, eps)
        z_next = _overlap(m, u)
        rise = abs(z_next) - abs(z)
        if rise > 0:
            u_best, z = u, z_next
        r = np.angle(z_next * np.exp(-1j * theta))
        step = r if last is None or r == last[1] else r * (theta - last[0]) / (last[1] - r)
        last, theta = (theta, r), theta + step
        if rise <= eps * abs(z):
            break
    return abs(z) * scale, u_best, converged


def test_batched_ascent_matches_serial_reference_trace_class():
    # the public path: one set of starts from the seed, each restart its own
    # joint ascent, the best overlap modulus, the first restart winning ties.
    # The operators are drawn so that the restarts reach maxima more than
    # 1e-12 apart: restarts meeting one maximum, up to a global phase of U,
    # would leave the winner to rounding
    rng = np.random.default_rng(54)
    for d, restarts in ((2, 3), (3, 3)):
        mat = _complex_gaussian(rng, (d * d, d * d)) / 4
        starts = criteria._haar_starts(d, restarts, np.random.default_rng(5))
        ref = [_serial_joint_ascent(mat, d, u0) for u0 in starts]
        assert np.diff(sorted(r[0] for r in ref)).min() > 1e-12, [r[0] for r in ref]
        best = ref[int(np.argmax([r[0] for r in ref]))]
        res = fidelity_optimize(TraceClassOperator(d, d, mat), restarts=restarts, seed=5)
        assert res.value == pytest.approx(best[0], abs=1e-12)
        assert res.converged == best[2]
        np.testing.assert_allclose(res.unitary, best[1], atol=1e-6)


def test_relaxed_fidelity_reaches_the_local_maximum_of_its_modulus():
    # the finish converges the phase as well as U: from the returned U, 40
    # more rounds of phi = z/|z| and a full ascent at phi raise |z| by no more
    # than rounding.  Without the finish they rise by up to 4e-10 here
    rng = np.random.default_rng(6)
    for d in (2, 3, 4):
        mat = _complex_gaussian(rng, (d * d, d * d)) / 4
        u = fidelity_optimize(TraceClassOperator(d, d, mat)).unitary
        m = mat / np.abs(mat).max()
        z0 = z = _overlap(m, u)
        for _ in range(40):
            phi = z / abs(z)
            h = (np.conj(phi) * m + phi * m.conj().T) / 2
            h -= np.linalg.eigvalsh(h)[0] * np.eye(d * d)
            u = _serial_newton_ascent(h, d, u, tol=criteria.TOL_PREDICTED)[1]
            z = _overlap(m, u)
        assert abs(z) - abs(z0) <= 1e-13, (d, abs(z) - abs(z0))


def test_relaxed_finish_keeps_only_what_raises_the_modulus(monkeypatch):
    # every finish evaluation is sent to a random unitary, which lowers |z|:
    # the finish must then return exactly what the rounds reached
    rng = np.random.default_rng(8)
    d = 3
    op = TraceClassOperator(d, d, _complex_gaussian(rng, (d * d, d * d)) / 4)
    monkeypatch.setattr(criteria, "_RELAX_FINISH", 0)
    rounds = fidelity_optimize(op)
    monkeypatch.setattr(criteria, "_RELAX_FINISH", 6)
    ascent, calls = criteria._phase_ascent, []

    def scramble(m, theta, us, max_iter, tol):
        if tol != criteria.TOL_PREDICTED:
            return ascent(m, theta, us, max_iter, tol)
        calls.append(len(us))
        return criteria._haar_starts(d, len(us), rng)

    monkeypatch.setattr(criteria, "_phase_ascent", scramble)
    res = fidelity_optimize(op)
    assert calls and res.value == rounds.value and res.converged == rounds.converged
    np.testing.assert_array_equal(res.unitary, rounds.unitary)


def test_full_reports_mixed_batch_matches_full_report(rng):
    # two groups of d = 3 around a rectangular state, then d = 2, then 2 x 3,
    # 3 x 2 and d = 2 again; the first d = 3 and the 2 x 3 group span a chunk
    # boundary, so their tau and PPT fields come from stacks of 16 and of 2
    states = [make_state(Isotropic(3, f)) for f in np.linspace(0.1, 0.9, 18)]
    states += [random_density_matrix(2, 3, rng=rng), make_state(Isotropic(3, 0.5))]
    states += [random_density_matrix(2, 2, rng=rng) for _ in range(3)]
    states += [random_density_matrix(2, 3, rng=rng) for _ in range(18)]
    states += [random_density_matrix(3, 2, rng=rng, rank=r) for r in (1, 3, 6)]
    states += [random_density_matrix(2, 2, rng=rng)]
    batched = full_reports(iter(states), restarts=4, seed=3)
    assert len(batched) == len(states)
    for rho, got in zip(states, batched):
        want = full_report(rho, restarts=4, seed=3)
        assert replace(got, fidelity_best=None) == replace(want, fidelity_best=None)
        if want.fidelity_best is not None:
            assert got.fidelity_best == pytest.approx(want.fidelity_best, abs=1e-12)
        # the stacked tau and PPT fields equal the one-state public calls
        assert got.tau == ccn_value(rho)
        assert (got.ppt_min_eig, got.ppt_trace_norm, got.ppt_flag) == ppt_criterion(rho)


def _reference_report(rho, fidelity_best, fidelity_converged) -> CriterionReport:
    """The report of one state, every field rebuilt from the public one-state
    calls as the per-state report loop built it.  The ascent's value and
    converged flag are given: the batched ascent is checked against
    full_report above."""
    da, db = rho.dim_a, rho.dim_b
    tau = ccn_value(rho)
    ppt = ppt_criterion(rho)
    notes = []
    tr_a = fid_low = fid_up = max_dis = t_psd = None
    if da != db:
        notes.append("unequal local dimensions: fidelity bounds not defined")
    else:
        d = da
        overlap = fidelity_lower(rho)
        tr_a, fid_up = d * overlap, tau / d
        fid_low = min(overlap, fid_up)
        dec = decompose(rho, basis="spin")
        t = dec.t_mat
        t_psd = bool(
            np.max(np.abs(t - t.conj().T), initial=0.0) <= 1e-10
            and np.all(np.linalg.eigvalsh((t + t.conj().T) / 2) >= -1e-10)
        )
        try:
            value = ccn_max_disordered(dec)
        except ValueError:
            max_dis = False
        else:
            max_dis = True
            notes.append(f"maximally disordered subsystems: tau = (1 + ||T||_1)/d = {value:.12g}")
        if float(np.trace(rho.mat @ rho.mat).real) >= 1.0 - 1e-10:
            notes.append(f"pure state: tau = (sum sqrt Schmidt)^2 = {criteria._schmidt_tau(rho.mat, da, db):.12g}")
        if d > 1:
            proj = np.outer(psi_plus(d), psi_plus(d).conj())
            iso = overlap * proj + (1 - overlap) * (np.eye(d * d) - proj) / (d * d - 1)
            if np.max(np.abs(iso - rho.mat)) <= 1e-10:
                notes.append(f"isotropic state with fidelity F = {overlap:.12g}")
    report = CriterionReport(
        dim_a=da, dim_b=db, tau=tau, ppt_min_eig=ppt.min_eig, ppt_trace_norm=ppt.trace_norm,
        realigned_trace=tr_a, fidelity_lower=fid_low, fidelity_best=fidelity_best,
        fidelity_upper=fid_up, fidelity_converged=fidelity_converged,
        ccn_flag=tau > 1.0 + TOL_FLAG, ppt_flag=ppt.violated, distillable_flag=False,
        max_disordered=max_dis, t_psd=t_psd, notes=tuple(notes),
    )
    return replace(report, distillable_flag=distillable_by_fidelity(report))


def test_full_reports_match_the_per_state_reference(rng):
    # 25 states at d = 3 cross the 16-state chunk boundary; then the d = 2,
    # d = 1 and 2 x 3 groups.  The d = 2 group holds a pure and a nearly pure
    # state, maximally disordered states whose T is PSD, not PSD, and PSD in
    # its Hermitian part only (a local rotation of the first), states with
    # only one Bloch vector zero, and a generic state
    states = [make_state(Isotropic(3, f)) for f in np.linspace(0.0, 1.0, 21)]
    states += [make_state(Werner(3, p)) for p in (-0.5, 0.0, 0.6)]
    states += [random_density_matrix(3, 3, rank=1, rng=rng)]
    families = ("pure:a=0.3,0.7", "rhop:a=0.7,0.3;p=0.999", "werner:d=2,p=0.7")
    states += [make_state(parse_family(f)) for f in families]
    states += [make_state(MaxDisordered(t)) for t in ((0.3, -0.2, 0.4), (-0.5, -0.2, -0.3))]
    rotate = tensor(np.diag(np.exp([-0.15j, 0.15j])), np.eye(2))
    states += [DensityMatrix(2, 2, rotate @ states[-2].mat @ rotate.conj().T)]
    mixed, biased = np.eye(2) / 2, np.diag([0.8, 0.2])
    states += [DensityMatrix(2, 2, tensor(mixed, biased)), DensityMatrix(2, 2, tensor(biased, mixed))]
    states += [random_density_matrix(2, 2, rng=rng)]
    states += [make_state(parse_family(f)) for f in ("pure:a=1", "random:da=1,db=1")]
    states += [random_density_matrix(2, 3, rng=rng)]
    reports = full_reports((rho for rho in states), restarts=4, seed=3)
    assert len(reports) == len(states)
    for k, (rho, got) in enumerate(zip(states, reports)):
        want = _reference_report(rho, got.fidelity_best, got.fidelity_converged)
        for field in fields(CriterionReport):
            mine, theirs = getattr(got, field.name), getattr(want, field.name)
            assert (mine, type(mine)) == (theirs, type(theirs)), (k, field.name)
    # every note and both T >= 0 outcomes of a maximally disordered state occur
    notes = " ".join(note for rep in reports for note in rep.notes)
    for text in ("maximally disordered", "pure state", "isotropic state", "unequal local"):
        assert text in notes
    assert {rep.t_psd for rep in reports if rep.max_disordered} == {True, False}


@pytest.mark.parametrize("d", [2, 3])
def test_ascent_values_never_decrease_with_max_iter(d):
    # on isotropic states the ascent reaches its optimum within a few steps,
    # after which rounding can make the next value lower; the ascent must then
    # keep the previous unitary, so more steps never return a lower value
    mats = np.stack([make_state(Isotropic(d, f)).mat for f in np.linspace(0, 1, 41)])
    starts = criteria._haar_starts(d, 16, np.random.default_rng(0))
    previous = None
    for max_iter in range(1, 13):
        values, _, _ = criteria._ascend(mats, starts, np.inf, criteria.TOL_ASCENT, max_iter)
        if previous is not None:
            assert np.all(values >= previous), f"a value fell at max_iter = {max_iter}"
        previous = values


def _complex_gaussian(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _unitarity_defect(us):
    return np.max(np.abs(us.conj().swapaxes(-1, -2) @ us - np.eye(us.shape[-1])))


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


def test_ascent_is_scale_equivariant():
    # trace-class input is not normalised; scaling it and the tolerance by a
    # power of two scales every value, up to the rounding of the SVD polar
    # factor.  At 2^570 squared gradient entries overflow and at 2^-570 they
    # underflow, so the flat rule must not square them.
    for d in (2, 3):
        rng = np.random.default_rng(52)
        mats = np.stack([random_density_matrix(d, d, rng=rng).mat for _ in range(3)])
        starts = criteria._haar_starts(d, 4, rng)
        values, us, converged = criteria._ascend(mats, starts, np.inf, 1e-10, 2000)
        for exponent in (-530, -570, 570):
            scale = 2.0**exponent
            scaled = criteria._ascend(scale * mats, starts, np.inf, scale * 1e-10, 2000)
            np.testing.assert_allclose(scaled[0] / scale, values, rtol=1e-14, atol=0)
            np.testing.assert_allclose(scaled[1], us, rtol=0, atol=1e-13)
            np.testing.assert_array_equal(scaled[2], converged)


@pytest.mark.parametrize("d", [2, 3])
def test_ascent_problems_leaving_the_product_match_solo_runs(d, monkeypatch):
    # isotropic F = 0 and F = 1 stop within two steps (at F = 0 the identity
    # restart's gradient is zero), the other states after many more: the live
    # set shrinks while other problems still ascend.  At d = 2 the second
    # rank-2 state and the full-rank ones take 10-11 steps, the others at most 6
    rng = np.random.default_rng(60 + d)
    mats = [make_state(Isotropic(d, f)).mat for f in (0.0, 0.11, 1.0)]
    mats += [random_density_matrix(d, d, rank=r, rng=rng).mat for r in (1, 2, 2, d * d, d * d)]
    mats = np.stack(mats)
    starts = criteria._haar_starts(d, 6, rng)

    steps = []
    _count_steps(monkeypatch, lambda rows: steps.append(steps.pop() + 1))
    solo = []
    for mat in mats:
        steps.append(0)
        solo.append(criteria._ascend(mat[None], starts, np.inf, criteria.TOL_ASCENT, 2000))
    assert max(steps) >= 5 * max(1, min(steps)), steps
    values, us, converged = criteria._ascend(mats, starts, np.inf, criteria.TOL_ASCENT, 2000)

    for k, (v, u, c) in enumerate(solo):
        np.testing.assert_array_equal(values[k], v[0])
        np.testing.assert_array_equal(us[k], u[0])
        np.testing.assert_array_equal(converged[k], c[0])


def _full_batch_ascend(mats, starts, tol, max_iter):
    """The ascent loop that multiplied every restart of each live problem at
    every step, Newton steps' Hessian-vector products included, and scattered
    the stepping pairs back into (P, R) arrays; kept as the bit-for-bit
    reference for criteria._ascend.  Each pair follows the rule
    _serial_newton_ascent states; the Newton step is criteria._newton_step."""
    p, d = mats.shape[0], starts.shape[-1]
    mats = np.ascontiguousarray(mats)
    x = criteria._vec_t(np.broadcast_to(starts, (p,) + starts.shape[-3:])).copy()
    y = x @ mats.swapaxes(-1, -2)
    values = np.sum(x.conj() * y, axis=-1).real / d
    converged = np.zeros(values.shape, dtype=bool)
    active = np.ones(values.shape, dtype=bool)
    radius = np.full(values.shape, criteria._RADIUS * np.sqrt(d))
    live = np.arange(p)
    live_t = mats.swapaxes(-1, -2)
    act = active
    for it in range(max_iter):
        li, ri = np.nonzero(act)
        if li.size == 0:
            break
        pi = live[li]
        grad = y[pi, ri].reshape(-1, d, d).swapaxes(-1, -2) / d
        big = np.abs(grad).max(axis=(-2, -1))
        flat = big < criteria.TOL_FLAT
        newton = it >= criteria._PLAIN
        if newton:  # retracted by the Cayley transform
            scale = np.ldexp(1.0, np.frexp(big)[1])

            def product(k):
                lk, rk = li[k], ri[k]

                def hvp(xk):
                    trial = x[live]
                    trial[lk, rk] = xk
                    return (trial @ live_t)[lk, rk]
                return hvp

            x_next = x[pi, ri]
            omega, pred, cut = criteria._newton_step(
                x_next.reshape(-1, d, d).swapaxes(-1, -2), grad * (2 / scale[:, None, None]),
                product, 2 / (d * scale), radius[pi, ri])
            pred *= scale
            x_next = criteria._cayley(x_next, omega)
        else:
            x_next = criteria._vec_t(criteria._polar(grad))
        trial = x[live]
        trial[li, ri] = x_next
        y_next = (trial @ live_t)[li, ri]
        nxt = np.sum(x_next.conj() * y_next, axis=-1).real / d
        gain = nxt - values[pi, ri]
        small = gain <= tol
        stop = flat | (nxt < values[pi, ri])
        step = ~stop
        if newton:
            ratio = gain / np.where(pred > 0, pred, np.inf)
            rad = radius[pi, ri]
            radius[pi, ri] = np.where(ratio < 0.25, rad / 4, np.where(
                (ratio > 0.75) & cut, np.minimum(2 * rad, np.sqrt(d)), rad))
            rej = ratio <= criteria._ACCEPT
            rounding = ~cut & (pred <= criteria.TOL_PREDICTED * np.abs(values[pi, ri]))
            stop = flat | rounding | (rej & (pred <= tol))
            step = ~stop & ~rej
            small &= ~rej & ~cut
        x[pi[step], ri[step]] = x_next[step]
        y[pi[step], ri[step]] = y_next[step]
        values[pi[step], ri[step]] = nxt[step]
        done = stop | small
        converged[pi[done], ri[done]] = True
        active[pi[done], ri[done]] = False
        if done.any():
            act = active[live]
            keep = act.any(axis=1)
            if not keep.all():
                live, act = live[keep], act[keep]
                live_t = mats[live].swapaxes(-1, -2)
    us = x.reshape(values.shape + (d, d)).swapaxes(-1, -2)
    return values, us, converged


def _mixed_problems(d, rng):
    """Ascent problems that stop at different steps: random full rank and
    rank 1, isotropic F = 0 (the identity restart's gradient is zero) and
    F = 0.11, and two shifted phase combinations of a random operator."""
    isotropic = [make_state(Isotropic(d, f)).mat for f in (0.0, 0.11)] if d > 1 else []
    op = _complex_gaussian(rng, (d * d, d * d)) / 4
    combos = [(np.conj(phi) * op + phi * op.conj().T) / 2 for phi in (1, np.exp(7j * np.pi / 12))]
    mats = [random_density_matrix(d, d, rng=rng).mat, *isotropic[:1],
            random_density_matrix(d, d, rank=1, rng=rng).mat, *isotropic[1:],
            *[c - np.linalg.eigvalsh(c)[0] * np.eye(d * d) for c in combos],
            random_density_matrix(d, d, rng=rng).mat]
    return np.stack(mats)


@pytest.mark.parametrize("max_iter", [1, 8, 2000])
@pytest.mark.parametrize("d", [1, 3, 5])
def test_ascent_matches_the_full_batch_loop_bit_for_bit(d, max_iter):
    # only the unfinished pairs are multiplied, each problem's packed to the
    # front; every value, unitary and flag stays what the full batch gives,
    # also where a problem has one unfinished restart left
    rng = np.random.default_rng(70 + d)
    pool = _mixed_problems(d, rng)
    for p in (1, 3, 7):
        mats = pool[np.arange(p) % len(pool)]
        for r in (1, 2, 5, 16):
            shared = criteria._haar_starts(d, r, rng)
            own = np.stack([criteria._haar_starts(d, r, rng) for _ in range(p)])
            for starts in (shared, own):
                got = criteria._ascend(mats, starts, np.inf, criteria.TOL_ASCENT, max_iter)
                want = _full_batch_ascend(mats, starts, criteria.TOL_ASCENT, max_iter)
                for got_a, want_a in zip(got, want):
                    np.testing.assert_array_equal(got_a, want_a)


@pytest.mark.parametrize("d", [3, 5])
def test_ascent_matches_the_full_batch_loop_on_steps_of_both_kinds(d, monkeypatch):
    # with a trust radius of 1e-9 every Newton step ends on the boundary, so
    # the pairs' radii grow, and their problems end, at different steps; the
    # polar steps and the many Cayley steps after them must each match
    monkeypatch.setattr(criteria, "_RADIUS", 1e-9)
    rng = np.random.default_rng(70 + d)
    mats = _mixed_problems(d, rng)
    starts = criteria._haar_starts(d, 5, rng)
    want = _full_batch_ascend(mats, starts, criteria.TOL_ASCENT, 2000)
    kinds = []
    _count_steps(monkeypatch, lambda rows: None, kinds)
    got = criteria._ascend(mats, starts, np.inf, criteria.TOL_ASCENT, 2000)
    assert kinds.count("P") == criteria._PLAIN and kinds.count("C") >= 10, kinds
    for got_a, want_a in zip(got, want):
        np.testing.assert_array_equal(got_a, want_a)


def _masked_newton_step(us, egrads, product, unit, radius):
    """criteria._newton_step as it ran every CG iteration on all k pairs,
    product(xs) taking all k rows, with alpha and the direction's update
    masked to 0 for the pairs that had stopped; kept as the bit-for-bit
    reference for the step that carries only the pairs still in CG."""
    d = us.shape[-1]
    uh = us.conj().swapaxes(-1, -2)
    a = uh @ egrads
    s = a + a.conj().swapaxes(-1, -2)
    s *= 0.5
    grad = criteria._skew(a)
    e, r, p = np.zeros_like(grad), -grad, grad.copy()
    rho = criteria._dot(r, r)
    goal = rho * np.minimum(criteria._CG_KAPPA**2, np.sqrt(np.sqrt(rho / criteria._dot(a, a))))
    stopped, cut = rho <= goal, np.zeros(len(us), dtype=bool)
    ut, uh = us.swapaxes(-1, -2), uh * unit[:, None, None]
    rad2 = radius**2
    for _ in range(0 if stopped.all() else d * d - 1):
        y = product((p.swapaxes(-1, -2) @ ut).reshape(-1, d * d))
        hp = criteria._skew(p @ s - uh @ y.reshape(-1, d, d).swapaxes(-1, -2))
        kap = criteria._dot(p, hp)
        alpha = np.where(stopped, 0.0, rho / np.where(kap > 0, kap, 1.0))
        e_next = e + alpha[:, None, None] * p
        out = ((kap <= 0) | (criteria._dot(e_next, e_next) >= rad2)) & ~stopped
        if out.any():
            eo, po = e[out], p[out]
            e_p, p_p = criteria._dot(eo, po), criteria._dot(po, po)
            alpha[out] = (np.sqrt(e_p**2 + p_p * (rad2[out] - criteria._dot(eo, eo))) - e_p) / p_p
            e_next[out] = eo + alpha[out, None, None] * po
            cut |= out
        e = e_next
        r += alpha[:, None, None] * hp
        rho_next = criteria._dot(r, r)
        stopped |= out | (rho_next <= goal)
        if stopped.all():
            break
        p *= np.divide(rho_next, rho, out=np.zeros_like(rho), where=~stopped)[:, None, None]
        p -= r
        rho = rho_next
    return e, criteria._dot(e, grad - r) / 2, cut


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_newton_step_matches_the_masked_loop_bit_for_bit(d):
    # iterates of a full-rank and a rank-1 state after 0, 3 and 30 ascent
    # steps, at radii 10 and 0.05, leave CG by negative curvature, on the
    # trust boundary and on the residual goal at different iterations, and at
    # d = 2 and 4 some reach the d^2 - 1 cap (at d = 4 only the rank-1
    # state's); the identity with a Hermitian gradient never enters CG.  The
    # pairs run as one problem's restarts, multiplied directly, as one lone
    # pair, padded to two rows, and as two problems' restarts in the packed
    # layout; the masked loop multiplies every pair's row at every iteration
    rng = np.random.default_rng(120 + d)
    mats = np.stack([random_density_matrix(d, d, rank=r, rng=rng).mat for r in (d * d, 1)])
    mat_t = mats.swapaxes(-1, -2)
    starts = criteria._haar_starts(d, 4, rng)
    lk, rk = np.repeat([0, 1], 4), np.tile(np.arange(4), 2)
    iterations, cut_any = set(), False
    for steps in (0, 3, 30):
        us = criteria._ascend(mats, starts, np.inf, 1e-10, steps)[1]
        us[0, 0] = np.eye(d)
        grads = (criteria._vec_t(us) @ mat_t).reshape(2, 4, d, d).swapaxes(-1, -2) / d
        grads[0, 0] = (grads[0, 0] + grads[0, 0].conj().T) / 2
        scale = np.ldexp(1.0, np.frexp(np.abs(grads).max(axis=(-2, -1)))[1])
        egrads = grads * (2 / scale[..., None, None])
        for pairs in (lk == 0, lk == 1, (lk == 1) & (rk == 2), np.ones(8, dtype=bool)):
            (held,) = np.nonzero(np.bincount(lk[pairs], minlength=2))
            buf, mt = np.zeros((held.size, 4, d * d), dtype=complex), mat_t[held]
            pl, pr = np.searchsorted(held, lk[pairs]), rk[pairs]

            def masked(xs):
                calls.append(len(xs))
                buf[pl, pr] = xs
                return (buf[:, :max(pr.max() + 1, 2)] @ mt)[pl, pr]

            def product(k):
                if held.size == 1:
                    return lambda xk: criteria._times(xk, mt[0], 2)
                pl_k, pr_k = pl[k], pr[k]

                def hvp(xk):
                    buf[pl_k, pr_k] = xk
                    return (buf[:, :max(pr_k.max() + 1, 2)] @ mt)[pl_k, pr_k]
                return hvp

            args = us[lk[pairs], rk[pairs]], egrads[lk[pairs], rk[pairs]]
            unit = 2 / (d * scale[lk[pairs], rk[pairs]])
            for radius in (10.0, 0.05):
                calls = []
                radii = np.full(pairs.sum(), radius)
                want = _masked_newton_step(*args, masked, unit, radii)
                got = criteria._newton_step(*args, product, unit, radii)
                for got_a, want_a in zip(got, want):
                    np.testing.assert_array_equal(got_a, want_a)
                iterations.add(len(calls))
                cut_any |= want[2].any()
                if pairs[0]:
                    assert not got[0][0].any()
    assert cut_any
    assert d in (3, 5) or d * d - 1 in iterations, iterations


def _cayley_retraction(u, omega):
    """U (I - Omega/2)^{-1} (I + Omega/2) through criteria._cayley's rows."""
    d = len(u)
    return criteria._cayley(criteria._vec_t(u)[None], omega[None])[0].reshape(d, d).T


def test_cayley_retraction_is_unitary_and_second_order():
    # unitary for any skew-Hermitian Omega, however large, and within
    # O(||Omega||^3) of U exp(Omega), the exponential's second-order term included
    rng = np.random.default_rng(94)
    for d in (1, 2, 3, 8):
        u = criteria._haar_starts(d, 2, rng)[1]
        a = _complex_gaussian(rng, (d, d))
        omega = (a - a.conj().T) / 2
        vals, vecs = np.linalg.eigh(-1j * omega)  # omega = i vecs diag(vals) vecs^H
        for t in (1e3, 1.0, 1e-2, 1e-3):
            got = _cayley_retraction(u, t * omega)
            assert _unitarity_defect(got[None]) < 1e-14
            exp = u @ (vecs * np.exp(1j * t * vals)) @ vecs.conj().T
            if t <= 1e-2:
                assert np.abs(got - exp).max() <= 0.1 * (t * np.abs(vals).max()) ** 3


@pytest.mark.parametrize("d", [2, 3, 5])
def test_newton_step_model_matches_finite_differences(d):
    # the predicted gain of each returned step Omega is phi'(0) + phi''(0)/2
    # along phi(t) = f(R_U(t Omega)) for either second-order retraction R,
    # polar(U + t U Omega) or the Cayley transform the ascent takes, so the
    # gradient and Hessian of _newton_step are those of f on U(d); an
    # interior step stays inside the radius, a cut one ends on it
    rng = np.random.default_rng(95 + d)
    mat = random_density_matrix(d, d, rng=rng).mat
    us = criteria._ascend(mat[None], criteria._haar_starts(d, 4, rng), np.inf, 1e-10, 3)[1][0]
    grads = (criteria._vec_t(us) @ mat.T).reshape(-1, d, d).swapaxes(-1, -2) / d
    scale = np.ldexp(1.0, np.frexp(np.abs(grads).max(axis=(-2, -1)))[1])
    for radius in (10.0, 1e-3):
        omega, pred, cut = criteria._newton_step(
            us, grads * (2 / scale[:, None, None]), lambda k: lambda xk: xk @ mat.T,
            2 / (d * scale), np.full(len(us), radius))
        for u, om, gain, boundary, unit in zip(us, omega, pred * scale, cut, scale):
            norm = np.linalg.norm(om)
            assert np.max(np.abs(om + om.conj().T)) == 0 and abs(np.trace(om)) < 1e-13 * norm
            assert norm == pytest.approx(radius, rel=1e-12) if boundary else norm < radius

            for retract in (lambda t: criteria._polar(u + t * u @ om),
                            lambda t: _cayley_retraction(u, t * om)):

                def phi(t):
                    return _overlap(mat, retract(t)).real

                def model(h):  # central differences, accurate to O(h^2)
                    return ((phi(h) - phi(-h)) / (2 * h)
                            + (phi(h) - 2 * phi(0.0) + phi(-h)) / (2 * h * h))

                h = 1e-3 / norm
                assert gain == pytest.approx((4 * model(h / 2) - model(h)) / 3, rel=1e-5)


def test_newton_ascent_never_ends_below_the_plain_ascent():
    # full-rank and rank-2 states at d = 3, 4 and 6 from the same starts: the
    # reported best is never below the best of the plain polar ascent, whose
    # slow restarts stop short or creep past saddles, and the winner converged
    rng = np.random.default_rng(98)
    for d in (3, 4, 6):
        states = [random_density_matrix(d, d, rank=r, rng=rng) for r in (d * d, d * d, 2, 2)]
        starts = criteria._haar_starts(d, 6, rng)
        best, _, converged = criteria._optimize_psd(
            np.stack([rho.mat for rho in states]), np.stack([rho._eigs for rho in states]),
            np.array([ccn_value(rho) for rho in states]), starts)
        assert converged.all()
        for rho, value in zip(states, best):
            shifted = rho.mat - max(rho._eigs[0], 0.0) * np.eye(d * d)
            plain = max(_overlap(rho.mat, _serial_ascent(shifted, d, u0)[1]).real for u0 in starts)
            assert value >= plain - 1e-12, (d, value - plain)


def test_newton_steps_end_the_saddle_creep(monkeypatch):
    # in random:da=8,db=8,seed=11 the plain ascent ran 756 batched polar steps
    # (4621 rows), held by restarts creeping past saddles at gain ratios near
    # 1; the Newton phase ends every restart within 100 steps
    rows = []
    _count_steps(monkeypatch, rows.append)
    report = full_report(make_state(parse_family("random:da=8,db=8,seed=11")))
    assert report.fidelity_converged
    assert len(rows) <= 100 and sum(rows) <= 800, (len(rows), sum(rows))


def test_ascent_stops_each_problem_at_its_ceiling():
    rng = np.random.default_rng(90)
    mats = _mixed_problems(3, rng)
    starts = criteria._haar_starts(3, 6, rng)
    tol = criteria.TOL_ASCENT
    plain = criteria._ascend(mats, starts, np.inf, tol, 2000)
    best = plain[0].max(axis=1)
    # a ceiling out of reach changes no bit
    far = criteria._ascend(mats, starts, best + 1e-6, tol, 2000)
    for got, want in zip(far, plain):
        np.testing.assert_array_equal(got, want)
    # at each problem's best value: one pair reaches it and stops converged;
    # every pair walks its plain path, so it ends at most where that path ends
    values, us, converged = criteria._ascend(mats, starts, best, tol, 2000)
    reached = values >= best[:, None] - criteria.TOL_CEILING
    assert reached.any(axis=1).all()
    assert converged[reached].all()
    assert np.all(values <= plain[0])
    assert not converged.all()
    for u, mat, value in zip(us.reshape(-1, 3, 3), np.repeat(mats, 6, axis=0), values.ravel()):
        assert _overlap(mat, u).real == pytest.approx(value, abs=1e-13)
    # a problem whose identity start is at its ceiling runs no step: that
    # restart converged, the others unconverged at their starts
    start = criteria._ascend(mats, starts, np.inf, tol, 0)[0]
    ceiling = np.full(len(mats), np.inf)
    ceiling[0] = start[0, 0]
    values, us, converged = criteria._ascend(mats, starts, ceiling, tol, 2000)
    np.testing.assert_array_equal(values[0], start[0])
    np.testing.assert_array_equal(us[0], starts)
    np.testing.assert_array_equal(converged[0], start[0] >= start[0, 0] - criteria.TOL_CEILING)
    for got, want in zip((values, us, converged), plain):
        np.testing.assert_array_equal(got[1:], want[1:])


@pytest.mark.parametrize("d, restarts", [(1, 4), (3, 6), (12, 16), (3, 1)])
def test_haar_starts_match_one_draw_per_restart(d, restarts):
    # one stacked draw gives the starts that drawing each Ginibre matrix in
    # turn gave, and leaves the generator where that loop left it
    rng, ref = np.random.default_rng(80), np.random.default_rng(80)
    starts = criteria._haar_starts(d, restarts, rng)
    want = [np.eye(d, dtype=complex)]
    want += [random_unitary(d, ref) for _ in range(restarts - 1)]
    np.testing.assert_array_equal(starts, np.stack(want))
    np.testing.assert_array_equal(rng.standard_normal(5), ref.standard_normal(5))


# --- exact two-qubit fidelity and the shifted ascent ----------------------------------


def _two_qubit_cases():
    rng = np.random.default_rng(70)
    states = [random_density_matrix(2, 2, rng=rng) for _ in range(20)]
    states += [random_density_matrix(2, 2, rank=1, rng=rng) for _ in range(10)]
    states += [make_state(Werner(2, p)) for p in np.linspace(0, 1, 11)]
    states += [make_state(Counterexample(0.5, 0.25, t)) for t in np.linspace(-0.2, 0.2, 9)]
    return states


def test_two_qubit_fidelity_is_exact():
    states = _two_qubit_cases()
    mats = np.stack([rho.mat for rho in states])
    # many restarts of the ascent, none of which may beat the exact value
    starts = criteria._haar_starts(2, 32, np.random.default_rng(71))
    ascended, _, _ = criteria._ascend(mats, starts, np.inf, criteria.TOL_ASCENT, 2000)
    for rho, climbed in zip(states, ascended):
        res = fidelity_optimize(rho)
        assert res.converged
        assert _unitarity_defect(res.unitary) < 1e-12
        assert _overlap(rho.mat, res.unitary).real == pytest.approx(res.value, abs=1e-13)
        assert climbed.max() <= res.value + 1e-12
        assert res.value >= fidelity_lower(rho) - 1e-12
        assert res.value <= ccn_value(rho) / 2 + 1e-12


def test_two_qubit_fidelity_matches_closed_form_on_bell_diagonal_states(rng):
    for _ in range(10):
        rho = _entangled_bell_diagonal(rng)
        value = fidelity_optimize(rho).value
        assert value == pytest.approx(
            fidelity_two_qubit_max_disordered(decompose(rho), True), abs=1e-12
        )
        assert value == pytest.approx(ccn_value(rho) / 2, abs=1e-12)


def test_full_reports_draw_no_starts_at_d2(monkeypatch, rng):
    states = [random_density_matrix(2, 2, rng=rng) for _ in range(3)]
    want = [fidelity_optimize(rho).value for rho in states]

    def refuse(d, restarts, rng):
        raise AssertionError("Haar starts drawn at d = 2")

    monkeypatch.setattr(criteria, "_haar_starts", refuse)
    reports = full_reports(states)
    for value, report in zip(want, reports):
        assert report.fidelity_best == min(value, report.fidelity_upper)
    assert all(r.fidelity_converged for r in reports)
    with pytest.raises(ValueError, match="restarts"):
        full_reports(states, restarts=0)


def test_shifted_ascent_leaves_the_flat_isotropic_point_fast(monkeypatch):
    # isotropic F = 0.11 at d = 3 is nearly I/9, so the plain ascent's steps are
    # damped by lambda_min U/d and it crawled for over a thousand of them; the
    # exact value there is (1 - F)/(d^2 - 1).  The relaxed path, which ascends
    # on Hermitian combinations of the operator, must leave it as fast.
    steps = []
    _count_steps(monkeypatch, lambda rows: steps.append(steps.pop() + 1))
    rho = make_state(Isotropic(3, 0.11))

    def state():
        report = full_report(rho)
        return report.fidelity_best, report.fidelity_converged

    def relaxed():
        res = fidelity_optimize(TraceClassOperator(3, 3, rho.mat))
        return res.value, res.converged

    for run in (state, relaxed):
        steps.append(0)
        value, converged = run()
        assert value == pytest.approx(0.89 / 8, abs=1e-10)
        assert converged
        assert steps[-1] < 100, steps


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_reports_stop_at_the_certified_ceiling(d, monkeypatch):
    # isotropic F >= 1/d^2 has f = lambda_max = F and a pure state in Schmidt
    # form f = tau/d; the identity restart starts at both, so no polar step
    # runs.  Even-d Werner p > 0 reaches f = lambda_max on its first step
    steps = []

    def run(func, *args):
        steps.append(0)
        return func(*args)

    _count_steps(monkeypatch, lambda rows: steps.append(steps.pop() + 1))
    fids = np.linspace(1 / d**2, 1.0, 9)
    alpha = np.random.default_rng(d).dirichlet(np.ones(d))
    states = [make_state(Isotropic(d, float(f))) for f in fids]
    states += [make_state(PureSchmidt(tuple(alpha)))]
    exact = [*fids, np.sqrt(alpha).sum() ** 2 / d]
    reports = run(full_reports, states)
    assert steps == [0]
    if d % 2 == 0:
        werner = [make_state(Werner(d, p)) for p in (0.05, 0.3, 0.6, 1.0)]
        reports += run(full_reports, werner)
        assert steps[-1] == 1
        states += werner
        exact += [rho._eigs[-1] for rho in werner]
    for rho, value, report in zip(states, exact, reports):
        assert report.fidelity_converged
        assert report.fidelity_best == pytest.approx(value, abs=1e-12)
        res = run(fidelity_optimize, rho)
        assert res.converged
        # clamped to tau/d as the report is, at the pure state too
        assert res.value == report.fidelity_best


def test_report_shifts_by_the_kept_spectrum(monkeypatch, rng):
    # the ascent's shift comes from the spectrum the state's check solved, so
    # no report eigensolve sees the state's own matrix
    rho = random_density_matrix(3, 3, rng=rng)
    want = full_report(rho)
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        seen.append(np.array(a, copy=True))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    assert full_report(rho) == want
    fidelity_optimize(rho)
    assert seen and not any(a.shape[-2:] == rho.mat.shape and np.any(
        np.all(a.reshape(-1, 9, 9) == rho.mat, axis=(-2, -1))) for a in seen)


@pytest.mark.parametrize("d", [3, 4])
def test_shifted_ascent_reports_the_unshifted_value(d):
    rng = np.random.default_rng(72 + d)
    states = [random_density_matrix(d, d, rank=r, rng=rng) for r in (1, 2, d * d, d * d)]
    states += [make_state(Isotropic(d, f)) for f in (0.0, 1 / d**2, 0.5)]
    for rho in states:
        res = fidelity_optimize(rho, restarts=4)
        assert _overlap(rho.mat, res.unitary).real == pytest.approx(res.value, abs=1e-13)
        assert res.value >= fidelity_lower(rho) - 1e-12
        assert res.value <= ccn_value(rho) / d + 1e-10


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


@pytest.mark.parametrize("d", [3, 4])
def test_distillable_flag_is_local_unitary_invariant(d):
    # f > 1/d certifies distillability whichever maximally entangled state
    # attains it, and after U_A (x) U_B that is rarely psi+
    rng = np.random.default_rng(d)
    states = []
    for fidelity in (1 / d + 0.02, 0.5, 1.0):
        rho = make_state(Isotropic(d, fidelity))
        states.append(rho)
        for _ in range(3):
            local = tensor(random_unitary(d, rng), random_unitary(d, rng))
            states.append(DensityMatrix(d, d, local @ rho.mat @ local.conj().T))
    reports = full_reports(states)
    assert all(report.distillable_flag for report in reports)
    assert sum(report.realigned_trace > 1 for report in reports) == 3


def test_distillable_psd_correlation_states_via_realigned_trace():
    # a maximally disordered state with T >= 0 has a PSD realigned operator,
    # so tr A(rho) = ||A(rho)||_1 = tau, and the realigned trace alone
    # certifies it exactly when tau > 1 does.  In the conjugated convention
    # the sigma_y coefficient flips sign, so pauli diag (0.3, -0.2, 0.4) has
    # PSD correlation matrix diag (0.3, 0.2, 0.4); tau = 1.1 for
    # (0.4, -0.4, 0.4), and isotropic states near F = 1/d have T >= 0 too
    base = full_report(make_state(MaxDisordered((0.3, -0.2, 0.4))), restarts=2)
    states = [make_state(MaxDisordered((0.4, -0.4, 0.4)))]
    states += [make_state(Isotropic(d, 1 / d + s)) for d in (3, 4, 5) for s in (-0.02, 0.02)]
    reports = [base, *full_reports(states, restarts=2)]
    assert reports[1].tau == pytest.approx(1.1, abs=1e-12)
    for report in reports:
        assert report.max_disordered and report.t_psd
        assert report.realigned_trace == pytest.approx(report.tau, abs=1e-12)
        assert report.distillable_flag == (report.tau > 1 + TOL_FLAG)
    assert [report.distillable_flag for report in reports] == [False, True] + [False, True] * 3
    # with the realigned trace at most 1 and fidelity_best at most 1/d,
    # tau above 1 certifies nothing
    assert not distillable_by_fidelity(replace(base, realigned_trace=0.99, tau=1.02))
    # flipped sign pattern: correlation matrix not PSD in that convention
    other = full_report(make_state(MaxDisordered((0.3, 0.2, 0.4))), restarts=2)
    assert not other.t_psd


def test_distillable_column_matches_the_report_rule(monkeypatch, rng):
    # the kernel's column and distillable_by_fidelity apply one rule: on a
    # batch at d = 1, 2 and 3 and at unequal local dimensions, certified by
    # the realigned trace, by fidelity_best alone (a locally rotated
    # isotropic state) or not at all, the column equals the rule on each report
    columns = []

    def spy(*args):
        out = chunk_columns(*args)
        columns.append(out[0]["distillable_flag"])
        return out

    chunk_columns = criteria._chunk_columns
    monkeypatch.setattr(criteria, "_chunk_columns", spy)
    families = ("random:da=1,db=1", "pure:a=0.5,0.5", "werner:d=2,p=0", "werner:d=2,p=0.9",
                "isotropic:d=3,F=0.4", "isotropic:d=3,F=0.32", "random:da=2,db=3,seed=1",
                "random:da=3,db=2,rank=1,seed=2", "maxdis:t=0.3,-0.2,0.4")
    states = [make_state(parse_family(f)) for f in families]
    local = tensor(random_unitary(3, rng), random_unitary(3, rng))
    states.append(DensityMatrix(3, 3, local @ make_state(Isotropic(3, 0.5)).mat @ local.conj().T))
    reports = full_reports(states, restarts=4)
    flags = np.concatenate(columns).tolist()
    assert flags == [distillable_by_fidelity(r) for r in reports] == [
        r.distillable_flag for r in reports]
    assert set(flags) == {True, False} and not reports[-1].realigned_trace > 1 and flags[-1]


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
    with pytest.raises(DimensionError, match="subsystem dimensions must be positive"):
        FactorizedState(rho, (-2, -2), (2,))
    with pytest.raises(DimensionError, match="subsystem dimensions must be integers"):
        FactorizedState(rho, (2.0, 2), (2,))


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


def _exact_fidelity_cases(d, rng):
    """(state, closed-form fidelity, largest allowed shortfall) of isotropic,
    Werner and pure states at d.  Isotropic F < 1/d^2 converges at a gain
    ratio near 0.1; its restarts take Newton steps after four plain steps and
    ended within 6.7e-16 (the plain steps' TOL_ASCENT stop left 1.2e-11, the
    switch on settled gain ratios 3.7e-13), so 1e-11 leaves a wide margin.
    Werner and pure states ended within 4.5e-16,
    so 1e-12 leaves a wide margin, and is the ceiling exit's TOL_CEILING."""
    for fid in (0.05, 0.3, 0.9):
        yield make_state(Isotropic(d, fid)), max(fid, (1 - fid) / (d * d - 1)), 1e-11
    # m_d = min_U tr(U conj(U))/d, replaced by its maximum 1 for p < 0
    m_d = -1.0 if d % 2 == 0 else -(d - 2) / d
    for p in (-(d - 1) / (d + 1), -0.1, 0.3, 1.0):
        m = 1.0 if p < 0 else m_d
        yield make_state(Werner(d, p)), p * (1 - m) / (d * (d - 1)) + (1 - p) / (d * d), 1e-12
    alpha = rng.dirichlet(np.ones(d))
    yield make_state(PureSchmidt(tuple(alpha))), np.sqrt(alpha).sum() ** 2 / d, 1e-12


def test_full_reports_reach_the_exact_fidelities(rng):
    # each state as given and under a seeded U_A (x) U_B, which keeps f; odd
    # and even d up to 12 (d = 16 would add over a second to the suite)
    cases = []
    for d in range(3, 13):
        for rho, exact, short in _exact_fidelity_cases(d, rng):
            u = tensor(random_unitary(d, rng), random_unitary(d, rng))
            rotated = DensityMatrix(d, d, u @ rho.mat @ u.conj().T)
            cases += [(rho, exact, short), (rotated, exact, short)]
    reports = full_reports([rho for rho, _, _ in cases])
    for (rho, exact, short), report in zip(cases, reports):
        assert -1e-12 <= exact - report.fidelity_best <= short, (rho.dim, exact)


# --- trace-class fidelity (relaxed inputs) ---------------------------------------------


def test_trace_class_product_fidelity_matches_pairing_oracle(rng):
    for d in (2, 3):
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


def test_relaxed_fidelity_ignores_global_phase_and_scale():
    # the joint ascent follows the phase of <psi|op|psi> and runs on op over
    # its largest entry modulus, so neither a global phase nor the scale moves
    # the value; a power-of-two scale changes no bit, and nothing over- or
    # underflows, as this suite makes RuntimeWarnings errors
    rng = np.random.default_rng(123)
    for d in (2, 3):
        mat = _complex_gaussian(rng, (d * d, d * d)) / 4

        def relaxed(m):
            return fidelity_optimize(TraceClassOperator(d, d, m)).value

        want = relaxed(mat)
        for theta in (0.3, 2.0):
            assert relaxed(np.exp(1j * theta) * mat) == pytest.approx(want, abs=1e-12)
        assert relaxed(1e-14 * mat) / 1e-14 == pytest.approx(want, abs=1e-12)
        for s in (2.0**-700, 2.0**700):
            assert relaxed(s * mat) == want * s


@pytest.mark.parametrize("d", [3, 4])
def test_relaxed_fidelity_of_a_state_reaches_its_report(d):
    # on a state the relaxed ascent keeps phi = 1, so it climbs what the
    # state's own ascent climbs and ends no lower
    for seed in range(4):
        rho = make_state(parse_family(f"random:da={d},db={d},seed={seed}"))
        relaxed = fidelity_optimize(TraceClassOperator(d, d, rho.mat)).value
        assert relaxed >= full_report(rho).fidelity_best - 1e-12, seed


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
