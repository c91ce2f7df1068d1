"""State family constructors, closed-form spectra, and the textual grammar."""

import math

import numpy as np
import pytest

from sepscope.criteria import ppt_criterion
from sepscope.hsbasis import decompose
from sepscope.linalg import partial_transpose
from sepscope.realign import ccn_value
from sepscope.states import (
    _counterexample_closed_forms,
    _counterexample_rules,
    _square,
    BellDiagonal,
    Counterexample,
    Isotropic,
    MaxDisordered,
    PureSchmidt,
    RandomState,
    RhoP,
    Werner,
    bell_vectors,
    counterexample_matrix,
    counterexample_spectra,
    format_family,
    make_state,
    param_kind,
    parse_family,
    psi_plus,
    random_density_matrix,
    replace_param,
    rho_p_threshold,
    scannable_params,
    swap_operator,
)


def test_counterexample_matrix_placement():
    s, r, t = 0.5, 0.25, 0.0625
    mat = make_state(Counterexample(s, r, t)).mat
    expected = 0.5 * np.array(
        [[1 + r, 0, 0, t], [0, 0, 0, 0], [0, 0, s - r, 0], [t, 0, 0, 1 - s]]
    )
    np.testing.assert_allclose(mat, expected, atol=0)


def test_counterexample_spectra_reference_point():
    spec = counterexample_spectra(Counterexample(0.5, 0.25, 0.0625))
    assert spec.psi == pytest.approx(1.875, abs=1e-15)
    assert spec.g == pytest.approx(5 / (4 * np.sqrt(2)), abs=1e-14)
    assert min(spec.pt_eigs) == pytest.approx(1 / 16 - np.sqrt(5) / 32, abs=1e-15)


def _valid_counterexample_grid(num):
    values = np.linspace(-0.9, 0.9, num)
    t_values = np.concatenate([[-0.2, 0.0, 0.1], np.linspace(0.02, 0.3, num - 3)])
    for s in values:
        for r in values:
            for t in t_values:
                try:
                    yield Counterexample(float(s), float(r), float(t))
                except ValueError:
                    continue


def test_counterexample_closed_forms_match_eigensolver():
    count = 0
    for params in _valid_counterexample_grid(7):
        spec = counterexample_spectra(params)
        mat = counterexample_matrix(params.s, params.r, params.t)
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(mat)), np.sort(spec.rho_eigs), atol=1e-12
        )
        pt = partial_transpose(mat, "second", dims=(2, 2))
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(pt)), np.sort(spec.pt_eigs), atol=1e-12
        )
        assert ccn_value(mat, dims=(2, 2)) == pytest.approx(
            spec.g + abs(params.t), abs=1e-12
        )
        count += 1
    assert count > 50


def test_counterexample_ppt_iff_t_nonzero():
    for params in _valid_counterexample_grid(5):
        flagged = ppt_criterion(make_state(params)).violated
        assert flagged == (params.t != 0.0)


def test_counterexample_validation():
    with pytest.raises(ValueError, match="s > r"):
        Counterexample(0.25, 0.5, 0.0)
    with pytest.raises(ValueError, match="not a state"):
        Counterexample(0.9, -0.9, 0.9)


def test_counterexample_array_forms_match_scalar_forms():
    # boundary points included: s = r, |s| = 1, |r| = 1 and t = 0
    grid = np.linspace(-1.0, 1.0, 9)
    s, r, t = (a.ravel() for a in np.meshgrid(grid, grid, grid / 2, indexing="ij"))
    valid = np.logical_and.reduce(_counterexample_rules(s, r, t)[:3])
    closed = _counterexample_closed_forms(s[valid], r[valid], t[valid])
    mats = counterexample_matrix(s, r, t)
    kept = 0
    for k in range(s.size):
        try:
            params = Counterexample(float(s[k]), float(r[k]), float(t[k]))
        except ValueError:
            assert not valid[k]
            continue
        assert valid[k]
        want = counterexample_spectra(params)
        got = [tuple(float(x[kept]) for x in closed.rho_eigs),
               tuple(float(x[kept]) for x in closed.pt_eigs),
               float(closed.psi[kept]), float(closed.g[kept])]
        assert got == list(want)
        np.testing.assert_array_equal(mats[k], counterexample_matrix(s[k], r[k], t[k]))
        kept += 1
    assert 0 < kept < s.size


def test_array_squares_match_python_float_squares():
    # the closed forms square with Python's float ** before they were
    # vectorised; numpy's array x ** 2 may round differently in the last bit
    x = np.random.default_rng(5).uniform(-2.0, 2.0, 20000)
    assert _square(x).tolist() == [v ** 2 for v in x.tolist()]


def test_rho_p_threshold_values():
    assert rho_p_threshold((0.5, 0.5)) == pytest.approx(1 / 3, abs=1e-15)
    assert rho_p_threshold((1.0, 0.0)) == pytest.approx(1.0, abs=1e-15)
    assert rho_p_threshold((0.9, 0.1)) == pytest.approx(1 / 2.2, abs=1e-12)
    with pytest.raises(ValueError, match="simplex"):
        rho_p_threshold((0.7, 0.7))


def test_rho_p_threshold_matches_bisection():
    alpha = (0.9, 0.1)
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2
        if ccn_value(make_state(RhoP(alpha, mid))) > 1.0:
            hi = mid
        else:
            lo = mid
    assert (lo + hi) / 2 == pytest.approx(rho_p_threshold(alpha), abs=1e-6)


def test_werner_two_qubit_normal_form():
    p = 0.6
    _, _, _, psi_m = bell_vectors()
    expected = p * np.outer(psi_m, psi_m.conj()) + (1 - p) / 4 * np.eye(4)
    np.testing.assert_allclose(make_state(Werner(2, p)).mat, expected, atol=1e-14)


def test_isotropic_endpoint_is_psi_plus():
    proj = np.outer(psi_plus(3), psi_plus(3).conj())
    np.testing.assert_allclose(make_state(Isotropic(3, 1.0)).mat, proj, atol=1e-14)


def test_pure_schmidt_product_state():
    rho = make_state(PureSchmidt((1.0, 0.0)))
    assert ccn_value(rho) == pytest.approx(1.0, abs=1e-12)


def test_families_are_maximally_disordered():
    for spec in (
        Werner(2, 0.7),
        Werner(3, 0.5),
        BellDiagonal((0.4, 0.3, 0.2, 0.1)),
        MaxDisordered((0.2, -0.6, 0.4)),
    ):
        dec = decompose(make_state(spec))
        assert np.max(np.abs(dec.r_vec)) < 1e-12
        assert np.max(np.abs(dec.s_vec)) < 1e-12


def test_all_families_build_valid_states():
    specs = [
        Werner(3, -0.4),
        Isotropic(4, 0.25),
        BellDiagonal((0.25, 0.25, 0.25, 0.25)),
        PureSchmidt((0.2, 0.3, 0.5)),
        RhoP((0.6, 0.4), -1 / 3),
        Counterexample(0.5, 0.25, 0.0625),
        MaxDisordered((-1.0, -1.0, -1.0)),
        RandomState(2, 3, rank=4, seed=11),
    ]
    for spec in specs:
        make_state(spec)  # DensityMatrix invariants enforced on construction


def test_family_range_errors():
    with pytest.raises(ValueError, match="outside"):
        Werner(2, 1.2)
    with pytest.raises(ValueError, match="outside"):
        Werner(2, -0.4)  # below -(d-1)/(d+1) = -1/3
    with pytest.raises(ValueError, match="outside"):
        Isotropic(3, 1.01)
    with pytest.raises(ValueError, match="sum"):
        BellDiagonal((0.5, 0.5, 0.5, 0.5))
    with pytest.raises(ValueError, match=">= 0"):
        PureSchmidt((1.2, -0.2))
    with pytest.raises(ValueError, match="outside"):
        RhoP((0.5, 0.5), -0.5)
    with pytest.raises(ValueError, match="not a state"):
        MaxDisordered((1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="rank"):
        RandomState(2, 2, rank=5)
    # a negative seed is refused with the field named, before numpy sees it
    with pytest.raises(ValueError, match="^random seed = -1 violates seed >= 0$"):
        RandomState(2, 2, seed=-1)
    # a dimension whose complex matrix is above numpy's maximum array size is
    # refused by the family, with the field named
    for spec, field in (
        (lambda: Werner(10**18, 0.0), "werner d = 1000000000000000000"),
        (lambda: Isotropic(10**18, 0.5), "isotropic d = 1000000000000000000"),
        (lambda: Werner(10**5, 0.0), "werner d = 100000 "),
        (lambda: RandomState(10**12, 1), "random da = 1000000000000, db = 1"),
        (lambda: RandomState(1, 10**10), "random da = 1, db = 10000000000"),
        (lambda: Werner(np.int64(10**10), 0.0), "werner d = 10000000000"),
    ):
        with pytest.raises(ValueError, match=f"^{field}.*too large"):
            spec()
    # the largest accepted d is exact; the spec is only validated, never built
    d_max = math.isqrt(math.isqrt(np.iinfo(np.intp).max // 16))
    assert Werner(d_max, 0.0).d == d_max
    with pytest.raises(ValueError, match="too large"):
        Werner(d_max + 1, 0.0)


def test_random_state_reproducible():
    a = make_state(RandomState(3, 3, rank=9, seed=42))
    b = make_state(RandomState(3, 3, rank=9, seed=42))
    c = make_state(RandomState(3, 3, rank=9, seed=43))
    assert np.array_equal(a.mat, b.mat)
    assert not np.array_equal(a.mat, c.mat)


def test_random_density_matrix_rank(rng):
    rho = random_density_matrix(2, 2, rank=1, rng=rng)
    eigs = np.linalg.eigvalsh(rho.mat)
    assert np.sum(eigs > 1e-10) == 1


def test_swap_operator_and_bells():
    swap = swap_operator(3)
    np.testing.assert_allclose(swap @ swap, np.eye(9), atol=0)
    vecs = bell_vectors()
    gram = np.array([[np.vdot(u, v) for v in vecs] for u in vecs])
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-15)


def test_parse_family_round_trips():
    texts = [
        "counterexample:s=0.5,r=0.25,t=0.0625",
        "werner:d=2,p=0.4",
        "isotropic:d=3,F=0.5",
        "pure:a=0.7,0.3",
        "rhop:a=0.7,0.3;p=0.5",
        "belldiag:p=0.6,0.2,0.1,0.1",
        "maxdis:t=0.5,-0.5,0.5",
        "random:da=3,db=3,rank=9,seed=42",
    ]
    for text in texts:
        spec = parse_family(text)
        again = parse_family(format_family(spec))
        assert again == spec


def test_parse_family_mixed_group_keys():
    # comma both separates vector entries and starts new key=value tokens
    spec = parse_family("rhop:a=0.7,0.3,p=0.5")
    assert spec == RhoP((0.7, 0.3), 0.5)


def test_parse_family_defaults_and_errors():
    spec = parse_family("random:da=2,db=2")
    assert spec.rank is None and spec.seed == 0
    with pytest.raises(ValueError, match="unknown family"):
        parse_family("foo:x=1")
    with pytest.raises(ValueError, match="unknown key"):
        parse_family("werner:d=2,q=0.3")
    with pytest.raises(ValueError, match="missing"):
        parse_family("werner:d=2")
    with pytest.raises(ValueError, match="integer"):
        parse_family("werner:d=2.5,p=0.3")
    with pytest.raises(ValueError, match="stray value"):
        parse_family("werner:2,p=0.3")
    with pytest.raises(ValueError, match="not numeric"):
        parse_family("werner:d=2,p=x")


@pytest.mark.parametrize(
    "text, where",
    [
        ("belldiag:p=nan,0,0,1", "belldiag: value for 'p'"),
        ("pure:a=nan,0.5", "pure: value for 'a'"),
        ("werner:d=2,p=inf", "werner: value for 'p'"),
        ("isotropic:d=3,F=-inf", "isotropic: value for 'F'"),
        ("random:da=2,db=2,seed=inf", "random: value for 'seed'"),
        ("werner:d=nan,p=0.5", "werner: value for 'd'"),
    ],
)
def test_parse_family_rejects_non_finite(text, where):
    with pytest.raises(ValueError, match=f"^{where} must be finite"):
        parse_family(text)


def test_replace_param():
    spec = parse_family("werner:d=2,p=0.1")
    assert replace_param(spec, "p", 0.9) == Werner(2, 0.9)
    assert scannable_params(spec) == {"d": "d", "p": "p"}
    assert param_kind(spec, "d") is int and param_kind(spec, "p") is float
    with pytest.raises(ValueError, match="no scalar parameter"):
        replace_param(spec, "a", 0.5)
    with pytest.raises(ValueError, match="no scalar parameter"):
        replace_param(parse_family("pure:a=0.5,0.5"), "a", 0.5)
