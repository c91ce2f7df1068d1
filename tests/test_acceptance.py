"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line (visible under ``pytest -s``) and then
asserts, so a red test pinpoints the violated bound.
"""

import time

import numpy as np
import pytest

from sepscope.cli import ccn_threshold
from sepscope.criteria import (
    extended_ccn,
    fidelity_lower,
    fidelity_optimize,
    fidelity_two_qubit_max_disordered,
    ppt_criterion,
    realigned_trace,
    single_factor,
    tensor_pair,
)
from sepscope.hsbasis import decompose, t_trace_norm
from sepscope.linalg import TOL_FLAG, partial_transpose
from sepscope.locc import LocalUnitary, LvnMeasurement, TraceOutFactor, apply, monotonicity_probe
from sepscope.realign import ccn_value
from sepscope.states import (
    BellDiagonal,
    Counterexample,
    RhoP,
    Werner,
    counterexample_matrix,
    counterexample_spectra,
    make_state,
    psi_plus,
    random_density_matrix,
    random_max_disordered,
    random_unitary,
    rho_p_threshold,
)


def _announce(number, description, ok, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number} ({description}): {status}  [{elapsed:.2f}s]")


def test_criterion_1_counterexample_reproduction():
    start = time.perf_counter()
    params = Counterexample(0.5, 0.25, 0.0625)
    rho = make_state(params)
    tau_svd = ccn_value(rho)
    tau_closed = counterexample_spectra(params).g + abs(params.t)
    pt_min = ppt_criterion(rho).min_eig
    elapsed = time.perf_counter() - start
    ok = abs(tau_svd - tau_closed) < 1e-10 and tau_svd < 1.0 and pt_min < 0.0
    _announce(1, "counterexample invisible to ccn, caught by ppt", ok and elapsed < 1.0, elapsed)
    assert abs(tau_svd - tau_closed) < 1e-10
    assert tau_svd < 1.0
    assert pt_min < 0.0
    assert elapsed < 1.0


def test_criterion_2_closed_form_spectra_grid():
    start = time.perf_counter()
    s_vals = np.linspace(-0.95, 0.95, 20)
    r_vals = np.linspace(-0.95, 0.95, 20)
    t_vals = np.concatenate(
        [np.linspace(-0.3, -0.04, 9), [0.0], np.linspace(0.04, 0.35, 10)]
    )
    assert len(t_vals) == 20 and 0.0 in t_vals
    worst_rho = worst_pt = worst_tau = 0.0
    ppt_iff_ok = True
    valid = 0
    for s in s_vals:
        for r in r_vals:
            for t in t_vals:
                try:
                    params = Counterexample(float(s), float(r), float(t))
                except ValueError:
                    continue
                valid += 1
                closed = counterexample_spectra(params)
                mat = counterexample_matrix(params.s, params.r, params.t)
                worst_rho = max(worst_rho, float(np.max(np.abs(
                    np.sort(np.linalg.eigvalsh(mat)) - np.sort(closed.rho_eigs)
                ))))
                pt = partial_transpose(mat, "second", dims=(2, 2))
                pt_eigs = np.linalg.eigvalsh(pt)
                worst_pt = max(worst_pt, float(np.max(np.abs(
                    np.sort(pt_eigs) - np.sort(closed.pt_eigs)
                ))))
                worst_tau = max(worst_tau, abs(
                    ccn_value(mat, dims=(2, 2)) - (closed.g + abs(params.t))
                ))
                violated = ppt_criterion(make_state(params)).violated
                ppt_iff_ok = ppt_iff_ok and (violated == (params.t != 0.0))
    elapsed = time.perf_counter() - start
    ok = (
        valid > 1000
        and worst_rho < 1e-12
        and worst_pt < 1e-12
        and worst_tau < 1e-12
        and ppt_iff_ok
        and elapsed < 10.0
    )
    _announce(2, f"closed-form spectra on {valid} grid points", ok, elapsed)
    assert valid > 1000
    assert worst_rho < 1e-12
    assert worst_pt < 1e-12
    assert worst_tau < 1e-12
    assert ppt_iff_ok
    assert elapsed < 10.0


def test_criterion_3_disordered_tau_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    worst = 0.0
    for d, count in ((2, 200), (3, 50)):
        for _ in range(count):
            rho = random_max_disordered(d, rng)
            dec = decompose(rho)
            worst = max(worst, abs(ccn_value(rho) - (1 + t_trace_norm(dec)) / d))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 30.0
    _announce(3, "tau = (1 + ||T||_1)/d on disordered states", ok, elapsed)
    assert worst < 1e-10
    assert elapsed < 30.0


def test_criterion_4_fidelity_sandwich():
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    worst_lower = worst_upper = worst_dual = 0.0
    for d in (2, 3):
        for k in range(200):
            rho = random_density_matrix(d, d, rng=rng)
            lower = fidelity_lower(rho)
            best = fidelity_optimize(rho, restarts=16, seed=k).value
            tau = ccn_value(rho)
            worst_lower = max(worst_lower, lower - best)
            worst_upper = max(worst_upper, best - tau / d)
            psi = psi_plus(d)
            overlap = float((psi.conj() @ rho.mat @ psi).real)
            worst_dual = max(worst_dual, abs(realigned_trace(rho).real / d - overlap))
    elapsed = time.perf_counter() - start
    ok = worst_lower < 1e-8 and worst_upper < 1e-10 and worst_dual < 1e-12 and elapsed < 120.0
    _announce(4, "fidelity sandwich on 400 random states", ok, elapsed)
    assert worst_lower < 1e-8
    assert worst_upper < 1e-10
    assert worst_dual < 1e-12
    assert elapsed < 120.0


def test_criterion_5_two_qubit_fidelity_equality():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    worst_closed = worst_opt = 0.0
    produced = 0
    while produced < 100:
        probs = rng.dirichlet(np.ones(4))
        if probs.max() <= 0.52:
            continue  # entangled bell-diagonal states have a dominant weight
        produced += 1
        rho = make_state(BellDiagonal(tuple(probs)))
        dec = decompose(rho)
        f_closed = fidelity_two_qubit_max_disordered(dec, True)
        tau = ccn_value(rho)
        worst_closed = max(worst_closed, abs(2 * f_closed - tau))
        f_opt = fidelity_optimize(rho, restarts=16, seed=produced).value
        worst_opt = max(worst_opt, abs(f_opt - f_closed))
    elapsed = time.perf_counter() - start
    ok = worst_closed < 1e-8 and worst_opt < 1e-6
    _announce(5, "2f = tau with signature unitaries and optimizer", ok, elapsed)
    assert worst_closed < 1e-8
    assert worst_opt < 1e-6


def test_criterion_6_rho_p_thresholds():
    start = time.perf_counter()
    worst = 0.0
    crossings = {}
    for alpha in ((0.5, 0.5), (0.7, 0.3), (0.9, 0.1)):
        template = RhoP(alpha, 0.0)
        crossing = ccn_threshold(template, "p", 0.0, 1.0)
        crossings[alpha] = crossing
        worst = max(worst, abs(crossing - rho_p_threshold(alpha)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and abs(crossings[(0.5, 0.5)] - 1 / 3) < 1e-6
    _announce(6, "noise-threshold bisection matches closed form", ok, elapsed)
    assert worst < 1e-6
    assert abs(crossings[(0.5, 0.5)] - 1 / 3) < 1e-6


def test_criterion_7_local_operation_behaviour():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_lu = 0.0
    for _ in range(100):
        da, db = (2, 2) if int(rng.integers(2)) else (2, 3)
        fs = single_factor(random_density_matrix(da, db, rng=rng))
        op = LocalUnitary(random_unitary(da, rng), random_unitary(db, rng))
        probe = monotonicity_probe(op, fs)
        worst_lu = max(worst_lu, abs(probe.tau_after - probe.tau_before))

    worst_lvn = -np.inf
    for _ in range(200):
        da, db = (2, 3) if int(rng.integers(2)) else (3, 2)
        fs = single_factor(random_density_matrix(da, db, rng=rng))
        side, dim = ("alice", da) if int(rng.integers(2)) else ("bob", db)
        u = random_unitary(dim, rng)
        cut = int(rng.integers(1, dim))
        projs = (u[:, :cut] @ u[:, :cut].conj().T, u[:, cut:] @ u[:, cut:].conj().T)
        probe = monotonicity_probe(LvnMeasurement(side, projs), fs)
        worst_lvn = max(worst_lvn, probe.tau_after - probe.tau_before)

    noise = make_state(Werner(2, 0.0))    # tau = 1/2
    strong = make_state(Werner(2, 0.8))   # tau = 1.7
    pair = tensor_pair(noise, strong)
    flag_before = ccn_value(pair.state) > 1 + TOL_FLAG
    reduced = apply(TraceOutFactor("bob", 0), apply(TraceOutFactor("alice", 0), pair))
    flag_after = ccn_value(reduced.state) > 1 + TOL_FLAG
    ext = extended_ccn(pair)
    flip_ok = (
        not flag_before
        and flag_after
        and ext.value > 1.0
        and ext.value == pytest.approx(1.7, abs=1e-10)
        and (ext.traced_alice, ext.traced_bob) == ((0,), (0,))
    )
    elapsed = time.perf_counter() - start
    ok = worst_lu < 1e-10 and worst_lvn < 1e-10 and flip_ok
    _announce(7, "local unitaries invariant, pinchings monotone, trace-out flips flag", ok, elapsed)
    assert worst_lu < 1e-10
    assert worst_lvn < 1e-10
    assert flip_ok


def test_criterion_8_multiplicativity():
    start = time.perf_counter()
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(50):
        rho1 = random_density_matrix(2, 2, rng=rng)
        rho2 = random_density_matrix(2, 2, rng=rng)
        pair = tensor_pair(rho1, rho2)
        worst = max(worst, abs(ccn_value(pair.state) - ccn_value(rho1) * ccn_value(rho2)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10
    _announce(8, "ccn multiplicativity on regrouped products", ok, elapsed)
    assert worst < 1e-10


def test_criterion_9_realigned_trace_nonnegative():
    start = time.perf_counter()
    rng = np.random.default_rng(9)
    worst = -np.inf
    count = 0
    while count < 1000:
        d = int(rng.choice([2, 3, 4]))
        rho = random_density_matrix(d, d, rng=rng)
        worst = max(worst, -float(realigned_trace(rho).real))
        count += 1
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10
    _announce(9, "realigned trace nonnegative on 1000 random states", ok, elapsed)
    assert worst < 1e-10
