"""Elementary local operations and CCN monotonicity."""

import numpy as np
import pytest

from sepscope.criteria import extended_ccn, single_factor, tensor_pair
from sepscope.linalg import (
    TOL_FLAG,
    DimensionError,
    InvariantError,
    frobenius_norm,
    tensor,
)
from sepscope.locc import (
    AddAncilla,
    LocalUnitary,
    LvnMeasurement,
    TraceOutFactor,
    apply,
    monotonicity_probe,
    pinching,
)
from sepscope.realign import ccn_value
from sepscope.states import (
    Isotropic,
    PureSchmidt,
    Werner,
    make_state,
    random_density_matrix,
    random_unitary,
)


def _canonical_projectors(d):
    return tuple(np.diag([1.0 if i == k else 0.0 for i in range(d)]) for k in range(d))


def test_local_unitary_then_inverse(rng):
    fs = single_factor(random_density_matrix(2, 3, rng=rng))
    u_a, u_b = random_unitary(2, rng), random_unitary(3, rng)
    forward = apply(LocalUnitary(u_a, u_b), fs)
    back = apply(LocalUnitary(u_a.conj().T, u_b.conj().T), forward)
    assert np.max(np.abs(back.state.mat - fs.state.mat)) < 1e-12


def test_add_ancilla_then_trace_out_round_trip(rng):
    fs = single_factor(random_density_matrix(2, 2, rng=rng))
    sigma_a = random_density_matrix(2, 1, rng=rng).mat
    sigma_b = random_density_matrix(3, 1, rng=rng).mat
    grown = apply(AddAncilla("alice", sigma_a), fs)
    grown = apply(AddAncilla("bob", sigma_b), grown)
    assert grown.alice_factors == (2, 2) and grown.bob_factors == (2, 3)
    shrunk = apply(TraceOutFactor("alice", 1), grown)
    shrunk = apply(TraceOutFactor("bob", 1), shrunk)
    assert np.max(np.abs(shrunk.state.mat - fs.state.mat)) < 1e-12


def test_add_ancilla_layout(rng):
    # appending on alice regroups so the ancilla sits inside alice's block;
    # on bob it is already last, so the product needs no regrouping
    from sepscope.linalg import permute_subsystems

    fs = single_factor(random_density_matrix(2, 2, rng=rng))
    sigma = random_density_matrix(3, 1, rng=rng).mat
    grown = apply(AddAncilla("alice", sigma), fs)
    assert grown.alice_factors == (2, 3) and grown.bob_factors == (2,)
    expected = permute_subsystems(tensor(fs.state.mat, sigma), [2, 2, 3], (0, 2, 1))
    assert grown.state.mat.tobytes() == expected.tobytes()
    grown = apply(AddAncilla("bob", sigma), fs)
    assert grown.alice_factors == (2,) and grown.bob_factors == (2, 3)
    assert grown.state.mat.tobytes() == tensor(fs.state.mat, sigma).tobytes()


def test_lvn_measurement_on_psi_plus():
    fs = single_factor(make_state(PureSchmidt((0.5, 0.5))))
    op = LvnMeasurement("alice", _canonical_projectors(2))
    out = apply(op, fs)
    # direct computation of sum_k (P_k (x) I) rho (P_k (x) I)
    expected = np.zeros((4, 4), dtype=complex)
    for p in _canonical_projectors(2):
        full = tensor(p, np.eye(2))
        expected += full @ fs.state.mat @ full
    np.testing.assert_allclose(out.state.mat, expected, atol=1e-14)
    np.testing.assert_allclose(out.state.mat, np.diag([0.5, 0, 0, 0.5]), atol=1e-14)
    assert ccn_value(out.state) == pytest.approx(1.0, abs=1e-12)


def test_probe_local_unitary_invariant(rng):
    for _ in range(20):
        fs = single_factor(random_density_matrix(2, 2, rng=rng))
        op = LocalUnitary(random_unitary(2, rng), random_unitary(2, rng))
        probe = monotonicity_probe(op, fs)
        assert probe.direction == "invariant"
        assert abs(probe.tau_after - probe.tau_before) < 1e-10


def test_probe_lvn_never_increases(rng):
    for _ in range(50):
        da, db = (2, 3) if int(rng.integers(2)) else (3, 2)
        fs = single_factor(random_density_matrix(da, db, rng=rng))
        side, dim = ("alice", da) if int(rng.integers(2)) else ("bob", db)
        u = random_unitary(dim, rng)
        cut = int(rng.integers(1, dim))
        projs = (
            u[:, :cut] @ u[:, :cut].conj().T,
            u[:, cut:] @ u[:, cut:].conj().T,
        )
        probe = monotonicity_probe(LvnMeasurement(side, projs), fs)
        assert probe.tau_after <= probe.tau_before + 1e-10
        assert probe.direction in ("decreased", "invariant")


def test_probe_add_ancilla_multiplies_by_purity_norm(rng):
    for _ in range(10):
        fs = single_factor(random_density_matrix(2, 2, rng=rng))
        sigma = random_density_matrix(2, 1, rng=rng).mat
        probe = monotonicity_probe(AddAncilla("alice", sigma), fs)
        assert probe.tau_after <= probe.tau_before + 1e-10
        assert probe.tau_after == pytest.approx(
            probe.tau_before * frobenius_norm(sigma), abs=1e-10
        )


def test_probe_trace_out_can_increase():
    noise = make_state(Werner(2, 0.0))   # tau = 1/2
    strong = make_state(Werner(2, 0.8))  # tau = 1.7
    pair = tensor_pair(noise, strong)
    probe = monotonicity_probe(TraceOutFactor("alice", 0), pair)
    assert probe.direction == "increased"
    # tracing out the strong component instead decreases the value
    probe_down = monotonicity_probe(TraceOutFactor("alice", 1), pair)
    assert probe_down.direction == "decreased"


def test_ccn_flag_flip_after_local_trace_out():
    noise = make_state(Werner(2, 0.0))
    strong = make_state(Werner(2, 0.8))
    pair = tensor_pair(noise, strong)
    assert ccn_value(pair.state) == pytest.approx(0.85, abs=1e-10)
    assert not ccn_value(pair.state) > 1 + TOL_FLAG
    reduced = apply(
        TraceOutFactor("bob", 0), apply(TraceOutFactor("alice", 0), pair)
    )
    assert ccn_value(reduced.state) > 1 + TOL_FLAG
    assert ccn_value(reduced.state) == pytest.approx(1.7, abs=1e-10)
    res = extended_ccn(pair)
    assert res.value == pytest.approx(1.7, abs=1e-10)
    assert (res.traced_alice, res.traced_bob) == ((0,), (0,))


def test_trace_out_index_must_be_an_integer():
    # a bool or float index is refused, not read as the factor it equals
    pair = tensor_pair(make_state(Werner(2, 0.5)), make_state(Isotropic(3, 0.5)))
    for index in (True, 1.0, 0.5):
        with pytest.raises(ValueError, match=f"index must be an integer, got {index!r}"):
            TraceOutFactor("alice", index)
    reduced = apply(TraceOutFactor("alice", np.int64(1)), pair)
    assert reduced.alice_factors == (2,)
    np.testing.assert_array_equal(reduced.state.mat, apply(TraceOutFactor("alice", 1), pair).state.mat)


def test_pinching_frobenius_inequality(rng):
    for _ in range(50):
        d = int(rng.choice([2, 3, 4]))
        sigma = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        u = random_unitary(d, rng)
        cut = int(rng.integers(1, d))
        projs = (u[:, :cut] @ u[:, :cut].conj().T, u[:, cut:] @ u[:, cut:].conj().T)
        assert frobenius_norm(pinching(sigma, projs)) <= frobenius_norm(sigma) + 1e-12


def test_lvn_validation_errors():
    eye = np.eye(2)
    with pytest.raises(InvariantError, match="idempotent"):
        LvnMeasurement("alice", (0.5 * eye, 0.5 * eye))
    with pytest.raises(InvariantError, match="orthogonal"):
        LvnMeasurement("alice", (eye, eye))
    with pytest.raises(InvariantError, match="sum"):
        LvnMeasurement("alice", (np.diag([1.0, 0.0]),))
    with pytest.raises(InvariantError, match="Hermitian"):
        LvnMeasurement("alice", (np.array([[0, 1], [0, 0]]), np.eye(2)))
    with pytest.raises(ValueError, match="side"):
        LvnMeasurement("charlie", _canonical_projectors(2))


def test_apply_dimension_errors(rng):
    fs = single_factor(random_density_matrix(2, 2, rng=rng))
    with pytest.raises(DimensionError, match="only factor"):
        apply(TraceOutFactor("alice", 0), fs)
    with pytest.raises(DimensionError):
        apply(LocalUnitary(np.eye(3), np.eye(2)), fs)
    with pytest.raises(DimensionError):
        apply(LvnMeasurement("alice", _canonical_projectors(3)), fs)
    with pytest.raises(InvariantError, match="unitary"):
        LocalUnitary(np.eye(2) * 2, np.eye(2))
    with pytest.raises(InvariantError, match="trace"):
        AddAncilla("alice", np.eye(2))
    with pytest.raises(DimensionError):
        AddAncilla("bob", np.full((2, 3), 0.5))
