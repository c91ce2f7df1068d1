"""Entanglement criteria: PPT, CCN, fidelity bounds, and their closed forms.

The fidelity f of a state is its maximal overlap with a maximally
entangled pure state.  Three quantities sandwich it:

    tr(A(rho))/d  <=  f(rho)  <=  ||A(rho)||_1 / d

with A the realignment map.  The lower end equals <psi+|rho|psi+> exactly;
the middle is estimated by a monotone ascent over local unitaries and is
always reported as a certified lower bound, never as the global optimum.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import groupby, islice
from typing import NamedTuple

import numpy as np

from .hsbasis import PAULI, HSDecomposition, decompose, t_trace_norm
from .linalg import (
    DensityMatrix,
    DimensionError,
    TraceClassOperator,
    hermiticity_defect,
    partial_transpose,
    permute_subsystems,
    tensor,
    trace_out,
    _mat_and_dims,
)
from .realign import TOL_FLAG, _reshuffle, ccn_value
from .states import psi_plus, random_unitary

TOL_DISORDERED = 1e-10  # max allowed Bloch-vector norm for "maximally disordered"


class PptResult(NamedTuple):
    min_eig: float
    trace_norm: float
    violated: bool


def ppt_criterion(rho: DensityMatrix) -> PptResult:
    """Evaluate the partial-transpose test in both spectral and norm form.

    A trace norm above 1 (equivalently a negative eigenvalue) certifies
    entanglement.
    """
    eigs = np.linalg.eigvalsh(partial_transpose(rho, "second"))
    min_eig, tn, violated = _ppt_from_eigs(eigs)
    return PptResult(float(min_eig), float(tn), bool(violated))


def _ppt_from_eigs(eigs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(min_eig, trace_norm, violated) from ascending partial-transpose
    eigenvalues (..., side), for one matrix or a stack."""
    tn = np.abs(eigs).sum(axis=-1)
    return eigs[..., 0], tn, tn > 1.0 + TOL_FLAG


def realigned_trace(op) -> complex:
    """Trace of the realigned operator (requires equal local dimensions)."""
    if isinstance(op, (DensityMatrix, TraceClassOperator)) and op.dim_a != op.dim_b:
        raise DimensionError("realigned trace requires equal local dimensions")
    mat, da, db = _mat_and_dims(op, None)
    return complex(np.trace(_reshuffle(mat, da, db)))


def fidelity_lower(rho: DensityMatrix) -> float:
    """Fidelity lower bound tr(A(rho))/d = <psi+|rho|psi+>.

    Returns the overlap; ``verify sandwich`` checks it against the realigned
    trace.
    """
    if rho.dim_a != rho.dim_b:
        raise DimensionError("fidelity is defined for equal local dimensions only")
    psi = psi_plus(rho.dim_a)
    return float((psi.conj() @ rho.mat @ psi).real)


class FidelityResult(NamedTuple):
    value: float
    unitary: np.ndarray
    converged: bool


_ASCENT_TOL = 1e-10
_ASCENT_MAX_ITER = 2000

# At most this many states share one ascent in full_reports.  Batching them
# removes the per-state Python dispatch; larger batches gain little more,
# while their stacked d^2 x d^2 matrices and iterates grow with every state.
_CHUNK_POINTS = 16


def _haar_starts(d: int, restarts: int, rng: np.random.Generator) -> np.ndarray:
    """(restarts, d, d) starts: the identity, then Haar-random draws in order."""
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    draws = [random_unitary(d, rng) for _ in range(restarts - 1)]
    return np.stack([np.eye(d, dtype=np.complex128)] + draws)


def _vec_t(us: np.ndarray) -> np.ndarray:
    """x = vec(U^T) of a stack of d x d matrices, so that x[i*d + k] = U[k, i]."""
    d = us.shape[-1]
    return us.swapaxes(-1, -2).reshape(us.shape[:-2] + (d * d,))


_ADJ_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _polar(g: np.ndarray) -> np.ndarray:
    """Unitary polar factor W V^H of each matrix W S V^H in a stack (..., d, d).

    At d = 2 it is closed-form: M + phi adj(M)^H = (s1 + s2) W V^H with
    phi = det M / |det M| (any unit phi when det M = 0, here 1), normalised
    by its Frobenius norm over sqrt(2).  M is first scaled by a power of two,
    exactly, so that its largest entry modulus lies in [0.5, 1) and det M can
    neither overflow nor underflow; a zero M gets the identity.  Other d use
    the SVD.
    """
    if g.shape[-1] != 2:
        w, _, vh = np.linalg.svd(g)
        return w @ vh
    _, exp = np.frexp(np.abs(g).max(axis=(-2, -1)))
    g = g * np.ldexp(1.0, -exp)[..., None, None]
    det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]
    mod = np.abs(det)
    phi = np.divide(det, mod, out=np.ones_like(det), where=mod > 0)
    # adj(M)^H = [[conj m11, -conj m10], [-conj m01, conj m00]]
    n = g + (phi[..., None, None] * _ADJ_SIGNS) * g[..., ::-1, ::-1].conj()
    scale = np.linalg.norm(n, axis=(-2, -1)) / np.sqrt(2.0)
    zero = scale == 0.0
    n[zero] = np.eye(2)
    scale[zero] = 1.0
    return n / scale[..., None, None]


def _ascend(mats: np.ndarray, starts: np.ndarray, tol: float, max_iter: int):
    """Monotone fixed-point ascent of <psi_U|rho|psi_U> for a stack of PSD rho.

    ``mats`` is (P, d^2, d^2) and ``starts`` (P, R, d, d), or broadcastable
    to it: R restarts for each of P problems, all run as one batch.  With
    x = vec(U^T) the objective is <x|rho|x>/d and its gradient in U is
    reshape(rho x)^T/d, so one batched product y = x rho^T gives both.  Each
    step replaces U by the polar factor of the gradient, which cannot
    decrease the objective.  Each (problem, restart) pair stops on its own:
    converged when the gradient norm is below 1e-300, when the next value is
    lower (only reachable through rounding noise; the previous U is kept) or
    when the gain is at most tol; unconverged after max_iter steps.  A
    problem leaves the product once all its restarts have stopped.

    Returns the values (P, R), the unitaries (P, R, d, d) and the converged
    flags (P, R).
    """
    p, d = mats.shape[0], starts.shape[-1]
    # mats[live] below gathers C-contiguous copies; start from that layout so a
    # problem's product, and so its result, stays the same when others leave
    mats = np.ascontiguousarray(mats)
    x = _vec_t(np.broadcast_to(starts, (p,) + starts.shape[-3:])).copy()
    y = x @ mats.swapaxes(-1, -2)
    values = np.sum(x.conj() * y, axis=-1).real / d
    converged = np.zeros(values.shape, dtype=bool)
    active = np.ones(values.shape, dtype=bool)
    live = np.arange(p)  # the problems with a restart still ascending
    live_t = mats.swapaxes(-1, -2)
    act = active  # active[live]
    for _ in range(max_iter):
        li, ri = np.nonzero(act)
        if li.size == 0:
            break
        pi = live[li]
        grad = y[pi, ri].reshape(-1, d, d).swapaxes(-1, -2) / d
        flat = np.linalg.norm(grad, axis=(-2, -1)) < 1e-300
        x_next = _vec_t(_polar(grad))
        # the product runs over the live problems; their finished pairs are discarded
        trial = x[live]
        trial[li, ri] = x_next
        y_next = (trial @ live_t)[li, ri]
        nxt = np.sum(x_next.conj() * y_next, axis=-1).real / d
        gain = nxt - values[pi, ri]
        stop = flat | (nxt < values[pi, ri])
        step = ~stop
        x[pi[step], ri[step]] = x_next[step]
        y[pi[step], ri[step]] = y_next[step]
        values[pi[step], ri[step]] = nxt[step]
        done = stop | (gain <= tol)
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


def _optimize_psd(mats: np.ndarray, starts: np.ndarray, tol=_ASCENT_TOL,
                  max_iter=_ASCENT_MAX_ITER) -> list[FidelityResult]:
    """Best restart of each PSD matrix in the stack.

    ``starts`` is (R, d, d), shared by every matrix, or (P, R, d, d), one set
    per matrix.
    """
    values, us, converged = _ascend(mats, starts, tol, max_iter)
    best = np.argmax(values, axis=1)  # the first restart wins ties
    return [
        FidelityResult(float(values[k, b]), us[k, b], bool(converged[k, b]))
        for k, b in enumerate(best)
    ]


def fidelity_optimize(
    rho,
    restarts: int = 16,
    tol: float = _ASCENT_TOL,
    max_iter: int = _ASCENT_MAX_ITER,
    seed: int = 0,
) -> FidelityResult:
    """Best found overlap with a maximally entangled state (I (x) U)|psi+>.

    Restart 0 starts from the identity (so the result is never below the
    realigned-trace lower bound); further restarts draw Haar-random seeds.
    The returned value is a certified lower bound on the fidelity, and the
    returned unitary reproduces it.  Restarts are merged deterministically
    (first restart wins ties), so results are reproducible for fixed seed.

    For a non-PSD trace-class operator the fidelity is max |<psi|op|psi>|;
    the ascent then runs on shifted Hermitian combinations over a phase
    grid and reports the best modulus found.
    """
    if not isinstance(rho, (DensityMatrix, TraceClassOperator)):
        raise TypeError("expected a DensityMatrix or TraceClassOperator")
    if rho.dim_a != rho.dim_b:
        raise DimensionError("fidelity is defined for equal local dimensions only")
    d, rng = rho.dim_a, np.random.default_rng(seed)
    if isinstance(rho, DensityMatrix):
        return _optimize_psd(rho.mat[None], _haar_starts(d, restarts, rng), tol, max_iter)[0]
    return _optimize_trace_class(rho.mat, d, restarts, tol, max_iter, rng)


def _optimize_trace_class(mat, d, restarts, tol, max_iter, rng) -> FidelityResult:
    herm = (mat + mat.conj().T) / 2.0
    skew = (mat - mat.conj().T) / 2.0j
    hermitian_input = np.linalg.norm(skew) <= 1e-13 * max(1.0, np.linalg.norm(herm))
    phases = (0.0, np.pi) if hermitian_input else tuple(2 * np.pi * k / 24 for k in range(24))
    combos = [np.cos(theta) * herm + np.sin(theta) * skew for theta in phases]
    shifts = [max(0.0, -float(np.linalg.eigvalsh(c)[0])) for c in combos]
    mats = np.stack([c + shift * np.eye(d * d) for c, shift in zip(combos, shifts)])
    starts = np.stack([_haar_starts(d, restarts, rng) for _ in phases])  # phase-major draws
    _, us, converged = _ascend(mats, starts, tol, max_iter)
    x = _vec_t(us).reshape(-1, d * d)
    overlaps = np.abs(np.sum(x.conj() * (x @ mat.T), axis=-1)) / d
    best = int(np.argmax(overlaps))  # phase-major, the first restart wins ties
    unitary = us.reshape(-1, d, d)[best]
    return FidelityResult(float(overlaps[best]), unitary, bool(converged.flat[best]))


# the maximally entangled state compensating a given diagonal-correlation
# signature; valid signatures have an odd number of negative entries
_SIGNATURE_UNITARIES = {
    (-1, -1, -1): np.array([[0, 1j], [-1j, 0]], dtype=np.complex128),
    (1, 1, -1): np.array([[0, 1], [1, 0]], dtype=np.complex128),
    (1, -1, 1): np.eye(2, dtype=np.complex128),
    (-1, 1, 1): np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def _max_disordered(dec: HSDecomposition) -> bool:
    """Both Bloch vectors vanish (always so at d = 1, where they are empty)."""
    bloch = np.concatenate([dec.r_vec, dec.s_vec])
    return bool(np.all(np.abs(bloch) <= TOL_DISORDERED))


def fidelity_two_qubit_max_disordered(dec: HSDecomposition, entangled_hint: bool) -> float:
    """Closed-form fidelity of an entangled two-qubit state with zero Bloch
    vectors and diagonal correlation matrix.

    Picks the compensating unitary for the sign pattern of diag(T) and
    evaluates f = 1/4 + sum_n t_n tr(sigma_n^T U sigma_n U^dag)/8, which
    equals tau/2 for entangled inputs.  Refuses separable inputs: there the
    sign pattern need not be compensable and the closed form can exceed the
    true fidelity.
    """
    if dec.dim != 2 or dec.basis != "pauli":
        raise ValueError("closed form requires a two-qubit pauli decomposition")
    if not _max_disordered(dec):
        raise ValueError("state is not maximally disordered (nonzero Bloch vector)")
    t = dec.t_mat
    off = t - np.diag(np.diagonal(t))
    if np.max(np.abs(off)) > 1e-12:
        raise ValueError("correlation matrix is not diagonal; rotate the state first")
    if np.max(np.abs(np.diagonal(t).imag)) > 1e-12:
        raise ValueError("correlation matrix has non-real diagonal")
    if not entangled_hint:
        raise ValueError("closed form is only valid for entangled states")
    t_diag = np.diagonal(t).real
    signature = tuple(1 if v >= 0 else -1 for v in t_diag)
    if signature.count(-1) % 2 == 0:
        raise ValueError(
            f"signature {signature} has an even number of negative entries; "
            "no entangled maximally disordered state matches it"
        )
    u = _SIGNATURE_UNITARIES[signature]
    total = 0.25
    for t_n, sigma in zip(t_diag, PAULI):
        total += t_n * np.trace(sigma.T @ u @ sigma @ u.conj().T).real / 8.0
    return float(total)


def ccn_max_disordered(dec: HSDecomposition) -> float:
    """CCN value (1 + ||T||_1)/d for states with maximally mixed reductions."""
    if not _max_disordered(dec):
        raise ValueError("state is not maximally disordered (nonzero Bloch vector)")
    return (1.0 + t_trace_norm(dec)) / dec.dim


@dataclass(frozen=True)
class FactorizedState:
    """A state with declared local tensor factorisations on each side.

    The underlying matrix is laid out with all Alice factors before all
    Bob factors, each block in the declared order.
    """

    state: DensityMatrix
    alice_factors: tuple[int, ...]
    bob_factors: tuple[int, ...]

    def __post_init__(self):
        alice = tuple(int(d) for d in self.alice_factors)
        bob = tuple(int(d) for d in self.bob_factors)
        object.__setattr__(self, "alice_factors", alice)
        object.__setattr__(self, "bob_factors", bob)
        if not alice or not bob:
            raise DimensionError("each side needs at least one factor")
        if min(alice + bob) < 1:
            raise DimensionError("factor dimensions must be positive")
        if int(np.prod(alice)) != self.state.dim_a or int(np.prod(bob)) != self.state.dim_b:
            raise DimensionError(
                f"factors {alice} x {bob} do not multiply to the state dims "
                f"({self.state.dim_a}, {self.state.dim_b})"
            )

    @property
    def factor_dims(self) -> tuple[int, ...]:
        return self.alice_factors + self.bob_factors


def single_factor(state: DensityMatrix) -> FactorizedState:
    """Wrap a state with the trivial one-factor-per-side factorisation."""
    return FactorizedState(state, (state.dim_a,), (state.dim_b,))


def tensor_pair(rho1: DensityMatrix, rho2: DensityMatrix) -> FactorizedState:
    """Product of two bipartite states, regrouped to (A1 A2 | B1 B2)."""
    mat = tensor(rho1.mat, rho2.mat)  # factor order (A1, B1, A2, B2)
    dims = [rho1.dim_a, rho1.dim_b, rho2.dim_a, rho2.dim_b]
    regrouped = permute_subsystems(mat, dims, (0, 2, 1, 3))
    state = DensityMatrix(rho1.dim_a * rho2.dim_a, rho1.dim_b * rho2.dim_b, regrouped)
    return FactorizedState(state, (rho1.dim_a, rho2.dim_a), (rho1.dim_b, rho2.dim_b))


class ExtendedCcnResult(NamedTuple):
    value: float
    traced_alice: tuple[int, ...]
    traced_bob: tuple[int, ...]


def extended_ccn(fs: FactorizedState) -> ExtendedCcnResult:
    """CCN value maximised over local trace-outs of declared tensor factors.

    Every pair of proper factor subsets (one per side, possibly empty) is
    removed in turn; at least one factor must survive on each side so the
    reduction stays bipartite.  The empty pair reproduces the plain CCN
    value, so the result is never smaller.  Ties keep the earliest
    (smallest) subset pair in enumeration order.
    """
    n_a, n_b = len(fs.alice_factors), len(fs.bob_factors)
    dims = list(fs.factor_dims)
    best: ExtendedCcnResult | None = None
    for mask_a in range(2**n_a - 1):
        for mask_b in range(2**n_b - 1):
            traced_a = tuple(i for i in range(n_a) if mask_a >> i & 1)
            traced_b = tuple(i for i in range(n_b) if mask_b >> i & 1)
            traced = list(traced_a) + [n_a + i for i in traced_b]
            reduced = trace_out(fs.state.mat, dims, traced)
            kept_a = int(np.prod([d for i, d in enumerate(fs.alice_factors) if i not in traced_a]))
            kept_b = int(np.prod([d for i, d in enumerate(fs.bob_factors) if i not in traced_b]))
            value = ccn_value(reduced, dims=(kept_a, kept_b))
            if best is None or value > best.value:
                best = ExtendedCcnResult(value, traced_a, traced_b)
    return best


@dataclass(frozen=True)
class CriterionReport:
    """Every computed scalar and flag for one analysed state."""

    dim_a: int
    dim_b: int
    tau: float
    ppt_min_eig: float
    ppt_trace_norm: float
    realigned_trace: float | None
    fidelity_lower: float | None
    fidelity_best: float | None
    fidelity_upper: float | None
    fidelity_converged: bool | None
    ccn_flag: bool
    ppt_flag: bool
    distillable_flag: bool
    max_disordered: bool | None
    t_psd: bool | None
    notes: tuple[str, ...]


def distillable_by_fidelity(report: CriterionReport) -> bool:
    """One-sided distillability certificate.

    True when the realigned trace exceeds 1, or when a maximally disordered
    state with PSD correlation matrix violates the CCN bound.  False means
    "not certified", never "not distillable".
    """
    if report.realigned_trace is not None and report.realigned_trace > 1.0 + TOL_FLAG:
        return True
    if report.max_disordered and report.t_psd and report.tau > 1.0 + TOL_FLAG:
        return True
    return False


def _schmidt_tau(rho: DensityMatrix) -> float:
    """tau of a pure state from its Schmidt spectrum, (sum_i sqrt(a_i))^2."""
    _, vecs = np.linalg.eigh(rho.mat)
    amp = vecs[:, -1].reshape(rho.dim_a, rho.dim_b)
    sv = np.linalg.svd(amp, compute_uv=False)
    return float(sv.sum() ** 2)


def _square_dim(rho: DensityMatrix) -> int | None:
    return rho.dim_a if rho.dim_a == rho.dim_b else None


def full_reports(states, restarts: int = 16, seed: int = 0) -> list[CriterionReport]:
    """full_report of every state, in order, with the fidelity ascents batched.

    Consecutive square states of one local dimension form a group: its Haar
    starts are drawn once, as full_report would draw them for each state,
    and its states ascend together, at most _CHUNK_POINTS at a time.
    ``states`` may be a generator; it is consumed one chunk at a time.
    """
    reports: list[CriterionReport] = []
    for d, group in groupby(states, key=_square_dim):
        if d is None:
            reports += [_report(rho, None) for rho in group]
            continue
        starts = _haar_starts(d, restarts, np.random.default_rng(seed))
        while chunk := list(islice(group, _CHUNK_POINTS)):
            opts = _optimize_psd(np.stack([rho.mat for rho in chunk]), starts)
            reports += [_report(rho, opt) for rho, opt in zip(chunk, opts)]
    return reports


def full_report(rho: DensityMatrix, restarts: int = 16, seed: int = 0) -> CriterionReport:
    """Run every criterion on one state and collect the results."""
    return full_reports([rho], restarts, seed)[0]


def _report(rho: DensityMatrix, opt: FidelityResult | None) -> CriterionReport:
    """The report of one state, given its fidelity ascent when it is square."""
    tau = ccn_value(rho)
    ppt = ppt_criterion(rho)
    notes: list[str] = []

    tr_a = fid_low = fid_best = fid_up = None
    fid_conv = None
    max_dis = t_psd = None
    if opt is not None:
        d = rho.dim_a
        overlap = fidelity_lower(rho)
        tr_a = d * overlap
        fid_up = tau / d
        # rounding can lift a lower bound just past tau/d at a pure endpoint;
        # a reported lower bound never exceeds its upper bound
        fid_low, fid_best = min(overlap, fid_up), min(opt.value, fid_up)
        fid_conv = opt.converged
        # positivity of the correlation matrix is meaningful in the conjugated
        # (spin-basis) convention, where T >= 0 iff the realigned operator is PSD;
        # the other checks do not depend on the basis
        dec = decompose(rho, basis="spin")
        max_dis = _max_disordered(dec)
        t_spin = dec.t_mat
        t_psd = bool(
            hermiticity_defect(t_spin) <= 1e-10
            and np.all(np.linalg.eigvalsh((t_spin + t_spin.conj().T) / 2) >= -1e-10)
        )
        if max_dis:
            notes.append(
                f"maximally disordered subsystems: tau = (1 + ||T||_1)/d = "
                f"{ccn_max_disordered(dec):.12g}"
            )
        purity = float(np.trace(rho.mat @ rho.mat).real)
        if purity >= 1.0 - 1e-10:
            notes.append(f"pure state: tau = (sum sqrt Schmidt)^2 = {_schmidt_tau(rho):.12g}")
        if d > 1:  # the isotropic family needs d >= 2
            proj = np.outer(psi_plus(d), psi_plus(d).conj())
            iso = overlap * proj + (1 - overlap) * (np.eye(d * d) - proj) / (d * d - 1)
            if np.max(np.abs(iso - rho.mat)) <= 1e-10:
                notes.append(f"isotropic state with fidelity F = {overlap:.12g}")
    else:
        notes.append("unequal local dimensions: fidelity bounds not defined")

    report = CriterionReport(
        dim_a=rho.dim_a,
        dim_b=rho.dim_b,
        tau=tau,
        ppt_min_eig=ppt.min_eig,
        ppt_trace_norm=ppt.trace_norm,
        realigned_trace=tr_a,
        fidelity_lower=fid_low,
        fidelity_best=fid_best,
        fidelity_upper=fid_up,
        fidelity_converged=fid_conv,
        ccn_flag=tau > 1.0 + TOL_FLAG,
        ppt_flag=ppt.violated,
        distillable_flag=False,
        max_disordered=max_dis,
        t_psd=t_psd,
        notes=tuple(notes),
    )
    return replace(report, distillable_flag=distillable_by_fidelity(report))
