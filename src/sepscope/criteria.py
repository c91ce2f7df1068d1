"""Entanglement criteria: PPT, CCN, fidelity bounds, and their closed forms.

The fidelity f of a state is its maximal overlap with a maximally
entangled pure state.  Three quantities sandwich it:

    tr(A(rho))/d  <=  f(rho)  <=  ||A(rho)||_1 / d

with A the realignment map.  The lower end equals <psi+|rho|psi+> exactly.
At d = 2 the middle is exact: the top eigenvalue of the state in the magic
basis.  Above, it is estimated by a monotone ascent over local unitaries on
rho - lambda_min I, which has the same maximisers, and is reported as a
certified lower bound, not as the global optimum.

Each restart of the ascent takes four polar steps, which converge linearly,
then trust-region Newton steps on U(d), retracted by the Cayley transform,
and keeps a Newton step only if its gain exceeds a tenth of the gain its
quadratic model predicted.  A rejected step keeps U and is tried again with
a quartered trust radius, unless its model predicted a gain of at most
TOL_ASCENT: then the restart stops where it is.  A report's
fidelity_converged means that the winning restart stopped on a kept step
that gained at most TOL_ASCENT (a Newton step cut short by its trust radius
does not count), at the certified ceiling, at a flat gradient, where a polar
step would have lowered its value, or where a Newton step's model predicted
a gain at rounding level (at most TOL_ASCENT for a rejected step).

Reports come from one numeric path in two layers.  The column kernel,
_chunk_columns, gives the bounds and flags as an array per field for a stack
of states of one shape: a scan prints them and computes no more.  The report
layer, full_reports, adds max_disordered, t_psd and the notes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby, islice
from typing import NamedTuple

import numpy as np

from .hsbasis import PAULI, HSDecomposition, _coefficients, t_trace_norm
from .linalg import (
    TOL_ASCENT,
    TOL_CEILING,
    TOL_CLOSED_FORM,
    TOL_DISORDERED,
    TOL_FLAG,
    TOL_FLAT,
    TOL_PREDICTED,
    TOL_STRUCTURE,
    DensityMatrix,
    DimensionError,
    TraceClassOperator,
    partial_transpose,
    trace_out,
    _check_dims,
    _kron,
    _mat_and_dims,
    _max_abs,
    _partial_transpose,
    _permute_subsystems,
    _trace_norms,
)
from .realign import _ccn_values, _reshuffle, ccn_value
from .states import _haar_unitaries, psi_plus


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
    mat, da, db = _mat_and_dims(op, None)
    if da != db:
        raise DimensionError("realigned trace requires equal local dimensions")
    return complex(np.trace(_reshuffle(mat, da, db)))


def fidelity_lower(rho: DensityMatrix) -> float:
    """Fidelity lower bound tr(A(rho))/d = <psi+|rho|psi+>.

    Returns the overlap; ``verify sandwich`` checks it against the realigned
    trace.
    """
    return float(_overlaps(rho.mat[None], rho.dim)[0])


def _overlaps(mats: np.ndarray, d: int) -> np.ndarray:
    """<psi+|rho|psi+> of each matrix in a stack, one product per matrix:
    a stacked product changes the last bit of some."""
    psi = psi_plus(d)
    return np.array([(psi.conj() @ mat @ psi).real for mat in mats])


class FidelityResult(NamedTuple):
    value: float
    unitary: np.ndarray
    converged: bool


_ASCENT_MAX_ITER = 2000

# At most this many states share one ascent chunk.  Batching them removes the
# per-state Python dispatch; larger batches gain little more, while the
# ascent's per-(state, restart) iterates grow with every state.
_CHUNK_POINTS = 16
# A chunk that runs no ascent (d = 2, or unequal local dimensions) holds only
# its stacked matrices, so it may hold as many entries as 16 states at d = 8.
_CHUNK_ENTRIES = 16 * 64**2


def _chunk_points(da: int, db: int) -> int:
    """The most states of local dimensions (da, db) in one chunk."""
    if da == db != 2:
        return _CHUNK_POINTS
    return max(_CHUNK_POINTS, _CHUNK_ENTRIES // (da * db) ** 2)


def _chunks(items, dims):
    """((da, db), chunk) for each run of consecutive items of one
    ``dims(item)``, cut into chunks of at most _chunk_points(da, db);
    ``items`` is consumed a chunk at a time."""
    for k, run in groupby(items, key=dims):
        size = _chunk_points(*k)
        while chunk := list(islice(run, size)):
            yield k, chunk


def _check_count(name: str, value) -> None:
    """Refuse a bool or non-integer ``value`` of the parameter ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_restarts(restarts: int) -> None:
    _check_count("restarts", restarts)
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")


def _check_seed(seed: int, name: str = "seed") -> None:
    _check_count(name, seed)
    if seed < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {seed}")


def _haar_starts(d: int, restarts: int, rng: np.random.Generator) -> np.ndarray:
    """(restarts, d, d) starts: the identity, then Haar-random draws in order,
    bit-identical to drawing random_unitary restarts - 1 times."""
    # one draw of every Ginibre matrix, each real part before its imaginary part
    gauss = rng.standard_normal((restarts - 1, 2, d, d))
    haar = _haar_unitaries(gauss[:, 0] + 1j * gauss[:, 1])
    return np.concatenate([np.eye(d, dtype=np.complex128)[None], haar])


def _vec_t(us: np.ndarray) -> np.ndarray:
    """x = vec(U^T) of a stack of d x d matrices, so that x[i*d + k] = U[k, i]."""
    d = us.shape[-1]
    return us.swapaxes(-1, -2).reshape(us.shape[:-2] + (d * d,))


def _polar(g: np.ndarray) -> np.ndarray:
    """Unitary polar factor W V^H of each matrix W S V^H in a stack (..., d, d),
    from the SVD at every d; the ascent calls it on each of its first _PLAIN
    steps."""
    w, _, vh = np.linalg.svd(g)
    return w @ vh


def _cayley(xs: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Rows x = vec(V^T) of the Cayley retractions V = U (I - Omega/2)^{-1}
    (I + Omega/2) of rows xs = vec(U^T) (k, d^2) along skew-Hermitian Omega
    (k, d, d), by one batched solve: V^T = 2 (I - Omega/2)^{-T} U^T - U^T.
    V agrees with U exp(Omega) to second order, and I - Omega/2 is never
    singular (Wen and Yin, Math. Program. 142, 397 (2013))."""
    ut = xs.reshape(omega.shape)
    return (2 * np.linalg.solve(np.eye(omega.shape[-1]) - omega.swapaxes(-1, -2) / 2, ut)
            - ut).reshape(xs.shape)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re tr(a^H b) of each pair of matrices in two C-contiguous (k, d, d) stacks."""
    k = len(a)
    return (a.view(np.float64).reshape(k, 1, -1) @ b.view(np.float64).reshape(k, -1, 1))[:, 0, 0]


def _times(xs: np.ndarray, mat_t: np.ndarray, min_rows: int) -> np.ndarray:
    """xs @ mat_t for rows xs (n, d^2), with a lone row padded to min_rows
    (1 or 2) rows: numpy sends a one-row product down its matrix-vector
    path, which rounds differently."""
    if len(xs) < min_rows:
        return (np.concatenate((xs, xs)) @ mat_t)[:1]
    return xs @ mat_t


def _skew(w: np.ndarray) -> np.ndarray:
    """The skew-Hermitian part of each matrix in a (k, d, d) stack."""
    s = w - w.conj().swapaxes(-1, -2)
    s *= 0.5
    return s


# The ascent takes Newton steps from its _PLAIN-th step on, and keeps one whose
# gain exceeds _ACCEPT times the model's.  The trust radius, in U-space,
# starts at _RADIUS * sqrt(d) and never exceeds sqrt(d).
# Truncated CG stops once its residual is min(_CG_KAPPA, (||rgrad|| /
# ||egrad||)^(1/4)) times its first, which converges with q-order 5/4 (Absil,
# Mahony and Sepulchre, 2008, 7.4); the exponent 1/2 (order 3/2) over-solved
# the last, confirming steps.
_PLAIN, _ACCEPT = 4, 0.1
_RADIUS, _CG_KAPPA = 0.125, 0.1
# A round of the relaxed ascent is _PLAIN steps, all polar: with rounds of 10,
# whose Newton steps jump to the maximiser of a phase that is still moving,
# 2 of 515 operators ended in a lower basin.  The finish's fixed-phase ascents
# take the Newton steps; most restarts need 2-4 of them.
_RELAX_ROUND, _RELAX_FINISH = _PLAIN, 6


def _newton_step(us: np.ndarray, egrads: np.ndarray, product, unit: np.ndarray,
                 radius: np.ndarray):
    """Truncated-CG trust-region Newton steps (Steihaug-Toint) for k pairs.

    ``us`` (k, d, d) are the iterates and ``egrads`` their Euclidean
    gradients 2 G(U), each scaled by a power of two.  product(idx), for the
    indices idx of the pairs still in CG, returns the function that takes
    their rows xs (len(idx), d^2) to xs times their rho^T; it is called again
    only when pairs leave CG.  ``unit`` (k,) turns a product y into the
    scaled 2 G = unit * reshape(y)^T.  With S = sym(U^H egrad) and
    rgrad = egrad - U S, the Riemannian Hessian on U(d) is
    Hess[xi] = P_U(2 G(xi) - xi S), P_U(Z) = Z - U sym(U^H Z) (Absil, Mahony
    and Sepulchre, 2008, ch. 5-7).  A step is U Omega with Omega
    skew-Hermitian, which _ascend retracts by _cayley, and CG minimises
    minus the model's gain inside ||Omega|| <= radius, until its residual is
    min(_CG_KAPPA, (||grad|| / ||egrad||)^(1/4)) times its first.  The
    objective is blind to a global phase: Hess maps iU to 0 and its range
    holds no iU part, nor does the gradient, as tr(U^H egrad) is real, so
    Omega holds none either.
    Returns Omega (k, d, d), the model's predicted gain (k,) in the scaled
    units, and whether each step stopped on the trust boundary (k,).
    """
    d = us.shape[-1]
    uh = us.conj().swapaxes(-1, -2)
    a = uh @ egrads
    grad = _skew(a)
    # each pair's step e and residual r, written out on the iteration it stops
    e_out, r_out, cut = np.zeros_like(grad), -grad, np.zeros(len(us), dtype=bool)
    rho = _dot(r_out, r_out)
    goal = rho * np.minimum(_CG_KAPPA**2, np.sqrt(np.sqrt(rho / _dot(a, a))))  # squared residual goal
    # the pairs still in CG, each with its step e, residual r, direction p and
    # squared residual rho; skew's 0.5 is folded into s and uh, so that
    # -Hess[p] = w - w^H with w = p s - uh reshape(y)^T
    (idx,) = np.nonzero(rho > goal)
    s = a[idx] + a[idx].conj().swapaxes(-1, -2)
    s *= 0.25
    ut, uh = us[idx].swapaxes(-1, -2), uh[idx] * (0.5 * unit[idx, None, None])
    e, r, p = e_out[idx], r_out[idx], grad[idx]
    rho, goal, rad2 = rho[idx], goal[idx], radius[idx] ** 2
    hvp = product(idx) if idx.size else None
    for _ in range(d * d - 1 if idx.size else 0):
        y = hvp((p.swapaxes(-1, -2) @ ut).reshape(-1, d * d))  # vec((U p)^T) rho^T
        w = p @ s - uh @ y.reshape(-1, d, d).swapaxes(-1, -2)
        hp = w - w.conj().swapaxes(-1, -2)  # -Hess[p]
        kap = _dot(p, hp)
        alpha = rho / np.where(kap > 0, kap, 1.0)
        e_next = e + alpha[:, None, None] * p
        out = (kap <= 0) | (_dot(e_next, e_next) >= rad2)
        if out.any():  # to the boundary along p instead
            eo, po = e[out], p[out]
            e_p, p_p = _dot(eo, po), _dot(po, po)
            alpha[out] = (np.sqrt(e_p**2 + p_p * (rad2[out] - _dot(eo, eo))) - e_p) / p_p
            e_next[out] = eo + alpha[out, None, None] * po
            cut[idx[out]] = True
        e = e_next
        r += alpha[:, None, None] * hp
        rho_next = _dot(r, r)
        stop = out | (rho_next <= goal)
        if stop.any():
            e_out[idx[stop]], r_out[idx[stop]] = e[stop], r[stop]
            if stop.all():
                break
            go = ~stop
            idx, e, r, p, s, ut, uh = idx[go], e[go], r[go], p[go], s[go], ut[go], uh[go]
            rho, rho_next, goal, rad2 = rho[go], rho_next[go], goal[go], rad2[go]
            hvp = product(idx)
        p *= (rho_next / rho)[:, None, None]
        p -= r
        rho = rho_next
    else:  # the pairs still in CG after d^2 - 1 iterations
        e_out[idx], r_out[idx] = e, r
    return e_out, _dot(e_out, grad - r_out) / 2, cut


def _ascend(mats: np.ndarray, starts: np.ndarray, ceiling, tol: float, max_iter: int):
    """Monotone ascent of <psi_U|rho|psi_U> for a stack of PSD rho.

    ``mats`` is (P, d^2, d^2) and ``starts`` (P, R, d, d), or broadcastable
    to it: R restarts for each of P problems, all run as one batch.  With
    x = vec(U^T) the objective is <x|rho|x>/d and its gradient in U is
    reshape(rho x)^T/d, so one batched product y = x rho^T gives both.  Each
    plain step replaces U by the polar factor of the gradient, which cannot
    decrease the objective.  Each (problem, restart) pair stops on its own:
    converged when the gradient's largest entry modulus is below TOL_FLAT (no
    squares, so no overflow or underflow at any scale), when the next value
    is lower (only reachable through rounding noise; the previous U is kept)
    or when the gain is at most tol; unconverged after max_iter steps.

    Plain steps converge linearly, Newton steps superlinearly near a
    nondegenerate maximum.  The first _PLAIN steps are plain, one batched
    SVD each (_polar); every later step is a trust-region Newton step
    (_newton_step) for every pair, retracted by the Cayley transform
    (_cayley) in one batched solve.  A Newton step is kept only if its gain
    exceeds _ACCEPT times the model's predicted gain, so the value still
    never falls.  The pair's trust radius shrinks by 4 below a ratio of 1/4
    and doubles, up to sqrt(d), above 3/4 on the boundary; a rejected step
    leaves U as it was, and the pair retries from it with the quartered
    radius (Absil, Baker and Gallivan, 2007, Alg. 1).  A step whose model
    predicted a rounding-level gain stops the pair, converged, where it is:
    an interior step predicting at most TOL_PREDICTED times the value, as
    the sign of its actual gain is noise, and a rejected step predicting at
    most tol, which would only be retried at such predictions.  Converged
    means one of these two stops or a gain of at most tol on a kept plain or
    interior Newton step.  A kept step on the trust boundary never counts,
    as its gain measures the radius, not the distance to the maximum.  Every
    threshold of the Newton phase is a ratio, TOL_PREDICTED included, or is
    tol, and the gradients are scaled by a power of two per pair, so the
    ascent stays scale equivariant.

    ``ceiling`` (P,), or a scalar, bounds each problem's objective from
    above; np.inf switches the bound off.  A pair whose value reaches
    ceiling - TOL_CEILING, at its start or after any step, is optimal to
    within TOL_CEILING and stops converged; its problem's other unfinished
    pairs then stop where they are, unconverged.

    Only the unfinished pairs are carried, problem-major, each with its
    iterate, product, value and ceiling; a pair is written to the results on
    the step it stops.  Each live problem multiplies just its unfinished
    restarts, packed to the front, padded to at least min(2, R) rows: numpy
    sends a one-row product down its matrix-vector path, which rounds
    differently.  A lone live problem's pairs are those rows in order, so it
    multiplies them directly (_times).  The step's value product and each
    Hessian-vector product, which takes only the pairs still in CG, share
    this layout.  On its matrix-matrix path BLAS computes each row of a
    product on its own, so which other rows share a product moves no bit.

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
    reach = np.broadcast_to(ceiling, (p,)) - TOL_CEILING
    converged = values >= reach[:, None]  # a problem that starts at its ceiling runs no step
    live = np.flatnonzero(~converged.any(axis=1))
    # act[i, r]: restart r of live problem i is unfinished
    act = np.ones((live.size, x.shape[1]), dtype=bool)
    li, ri = np.nonzero(act)  # the unfinished pairs, problem-major
    pi, row = live[li], ri
    xs, ys, vs, cs = x[pi, ri], y[pi, ri], values[pi, ri], reach[pi]
    live_t = (mats if live.size == p else mats[live]).swapaxes(-1, -2)
    trial, min_rows = np.zeros_like(x), min(2, x.shape[1])

    def product(k=slice(None)):
        """The function taking the rows xk of pairs k (all by default) to xk
        times their rho^T: pair k is row row[k] of live problem li[k] in
        ``trial``, whose product takes each live problem's rows up to the
        last of them."""
        if live.size == 1:
            return lambda xk: _times(xk, live_t[0], min_rows)
        lk, rk = li[k], row[k]
        rows = max(rk.max() + 1, min_rows)

        def times(xk):
            trial[lk, rk] = xk
            return (trial[:live.size, :rows] @ live_t)[lk, rk]
        return times

    radius = np.full(pi.size, _RADIUS * np.sqrt(d))  # each pair's trust radius
    for it in range(max_iter):
        if pi.size == 0:
            break
        grad = ys.reshape(-1, d, d).swapaxes(-1, -2) / d
        big = np.abs(grad).max(axis=(-2, -1))
        stop = big < TOL_FLAT
        if it < _PLAIN:
            x_next = _vec_t(_polar(grad))
        else:
            scale = np.ldexp(1.0, np.frexp(big)[1])  # a power of two near |G|
            omega, pred, cut = _newton_step(xs.reshape(-1, d, d).swapaxes(-1, -2),
                                            grad * (2 / scale[:, None, None]), product,
                                            2 / (d * scale), radius)
            pred *= scale
            x_next = _cayley(xs, omega)
        y_next = product()(x_next)
        nxt = np.sum(x_next.conj() * y_next, axis=-1).real / d
        gain = nxt - vs
        small = gain <= tol
        if it >= _PLAIN:
            ratio = gain / np.where(pred > 0, pred, np.inf)
            ok = ratio > _ACCEPT
            radius = np.where(ratio < 0.25, radius / 4, np.where(
                (ratio > 0.75) & cut, np.minimum(2 * radius, np.sqrt(d)), radius))
            rej = ~ok
            x_next[rej], y_next[rej], nxt[rej] = xs[rej], ys[rej], vs[rej]
            # the gain of a rejected step, or of a kept one on the trust
            # boundary, measures the radius
            small &= ok & ~cut
            # a model that promised a rounding-level gain stops the pair where
            # it is: an interior step's actual gain is noise in sign, and a
            # rejected step would only be retried at such predictions
            stop |= (~cut & (pred <= TOL_PREDICTED * np.abs(vs))) | (rej & (pred <= tol))
        stop |= nxt < vs
        at_top = nxt >= cs
        done = stop | at_top | small
        if done.any():
            x_next[stop], nxt[stop] = xs[stop], vs[stop]  # stopped pairs keep their U
            converged[pi[done], ri[done]] = True
            act[li[done], ri[done]] = False
            # a pair at its ceiling ends its problem; a stopped pair kept its
            # previous value, which lay below the ceiling
            act[li[at_top & ~stop]] = False
            out = ~act[li, ri]
            x[pi[out], ri[out]], values[pi[out], ri[out]] = x_next[out], nxt[out]
            go = ~out
            x_next, y_next, nxt, cs, radius = x_next[go], y_next[go], nxt[go], cs[go], radius[go]
            keep = act.any(axis=1)
            if not keep.all():
                live, act = live[keep], act[keep]
                live_t = mats[live].swapaxes(-1, -2)
            li, ri = np.nonzero(act)
            pi = live[li]
            # each live problem's unfinished pairs, packed from row 0
            row = np.cumsum(act, axis=1)[act] - 1
        xs, ys, vs = x_next, y_next, nxt
    x[pi, ri], values[pi, ri] = xs, vs  # the pairs still unfinished after max_iter
    us = x.reshape(values.shape + (d, d)).swapaxes(-1, -2)
    return values, us, converged


# columns: the magic basis |Phi+>, i|Phi->, i|Psi+>, |Psi-> of Hill and Wootters,
# in which every maximally entangled two-qubit state is real up to a phase
_MAGIC = np.array([[1, 1j, 0, 0], [0, 0, 1j, 1], [0, 0, 1j, -1], [1, -1j, 0, 0]]) / np.sqrt(2.0)


def _two_qubit_optimum(mats: np.ndarray):
    """The exact fidelity of each PSD matrix in a (P, 4, 4) stack, as the
    values (P,), unitaries (P, 2, 2) and converged flags (P,), all True.

    Every maximally entangled two-qubit state is M v for a real unit v, up to
    a phase, with M the magic basis.  So f = max_v v^T Re(M^H rho M) v, the
    top eigenvalue: the fully entangled fraction of Bennett, DiVincenzo,
    Smolin and Wootters.  Its eigenvector gives psi = M v, which is
    (I (x) U)|psi+> for U = sqrt(2) reshape(psi)^T.
    """
    vals, vecs = np.linalg.eigh((_MAGIC.conj().T @ mats @ _MAGIC).real)
    psi = vecs[..., -1] @ _MAGIC.T
    us = np.sqrt(2.0) * psi.reshape(-1, 2, 2).swapaxes(-1, -2)
    return vals[:, -1], us, np.ones(len(us), dtype=bool)


def _optimize_psd(mats: np.ndarray, eigs: np.ndarray, taus: np.ndarray,
                  starts: np.ndarray | None):
    """Best fidelity of each PSD matrix in the stack (P, d^2, d^2), whose
    ascending spectra are ``eigs`` (P, d^2) and CCN values ``taus`` (P,), as
    the values (P,), unitaries (P, d, d) and converged flags (P,).  Each
    value is capped at tau/d, which rounding could pass at a pure endpoint;
    taus = inf leaves the values uncapped.

    At d = 2 it is exact (_two_qubit_optimum), without ``eigs`` or ``starts``.
    Above, each matrix ascends from ``starts``, (R, d, d) shared by every
    matrix or (P, R, d, d) one set per matrix, and the best restart wins.
    The ascent runs on rho - s I with s = max(lambda_min, 0): that moves
    every value by exactly s, so it keeps the maximisers, and it removes the
    s U/d part of the gradient, which only damps each step.  Its ceiling is
    min(tau/d, lambda_max) - s: the sandwich's upper bound, and the bound of
    any unit vector's overlap.  The values are evaluated on rho itself.
    """
    side = mats.shape[-1]
    d = math.isqrt(side)
    if d == 2:
        values, us, converged = _two_qubit_optimum(mats)
    else:
        shift = np.maximum(eigs[:, 0], 0.0)
        shifted = mats - shift[:, None, None] * np.eye(side)
        ceiling = np.minimum(taus / d, eigs[:, -1]) - shift
        _, us, converged = _ascend(shifted, starts, ceiling, TOL_ASCENT, _ASCENT_MAX_ITER)
        x = _vec_t(us)
        values = np.sum(x.conj() * (x @ mats.swapaxes(-1, -2)), axis=-1).real / d
        best = np.arange(len(values)), np.argmax(values, axis=1)  # the first restart wins ties
        values, us, converged = values[best], us[best], converged[best]
    return np.minimum(values, taus / d), us, converged


def fidelity_optimize(rho, restarts: int = 16, seed: int = 0) -> FidelityResult:
    """Best found overlap with a maximally entangled state (I (x) U)|psi+>.

    For a state at d = 2 the value is exact: the top eigenvalue of the state
    in the magic basis.  Above, restart 0 starts from the identity (so the
    result is never below the realigned-trace lower bound); further restarts
    draw Haar-random seeds.  The returned value is a certified lower bound on
    the fidelity, at most tau/d, and the returned unitary reproduces it up
    to rounding.  Restarts are merged deterministically (first restart wins
    ties), so results are reproducible for fixed seed.  ``restarts`` must be
    a positive integer and ``seed`` a non-negative one.

    For a trace-class operator the fidelity is max |<psi|op|psi>|; the
    ascent then runs at every d, jointly in the unitary and in the phase of
    <psi|op|psi>, and reports the best modulus found, again at most tau/d.
    """
    if not isinstance(rho, TraceClassOperator):
        raise TypeError("expected a DensityMatrix or TraceClassOperator")
    _check_restarts(restarts)
    _check_seed(seed)
    d, rng = rho.dim, np.random.default_rng(seed)
    if isinstance(rho, DensityMatrix):
        starts = None if d == 2 else _haar_starts(d, restarts, rng)
        mats = rho.mat[None]
        best = _optimize_psd(mats, rho._eigs[None], _ccn_values(mats, d, d), starts)
        value, unitary, converged = (column[0] for column in best)
    else:
        value, unitary, converged = _optimize_trace_class(rho.mat, d, restarts, rng)
        value = min(value, ccn_value(rho) / d)  # rounding can pass tau/d, as for a state
    return FidelityResult(float(value), unitary, bool(converged))


def _optimize_trace_class(mat, d, restarts, rng):
    """Best found max |z|, z = <psi_U|mat|psi_U>, by one ascent per restart,
    joint in the phase and the unitary, on m = mat / max|mat|: so the value
    scales with mat, exactly for a power of two, and ignores a global phase.

    Each round sets phi = z/|z| (1 at z = 0) and runs _RELAX_ROUND polar
    steps of _ascend, without a ceiling, on H = (conj(phi) m + phi m^H)/2
    shifted by its lambda_min.  As <psi|H|psi> = Re(conj(phi) z) <= |z|,
    with equality at the round's start, |z| never falls.  A restart stops,
    converged, once a round gains at most TOL_ASCENT, and unconverged after
    _ASCENT_MAX_ITER steps of rounds.

    Both the phase and the polar steps converge linearly, so the rounds stop
    up to about 1e-9 short of the local maximum of |z|.  The finish closes
    that gap.  Let U(theta) be the maximiser of Re(exp(-i theta) z) that
    _ascend, Newton steps included, reaches from the current U at the phase
    theta, to a gain of at most TOL_PREDICTED (m's entries are at most 1 in
    modulus).  |z| is locally maximal where arg z(U(theta)) = theta.  The
    finish solves that equation by the secant method from the rounds' last
    phase, its first step the rounds' own update theta <- arg z, and keeps
    each U(theta) only where it raises |z|.  A restart leaves the finish once
    an evaluation raises |z| by at most TOL_PREDICTED |z|, and after
    _RELAX_FINISH evaluations of at most _ASCENT_MAX_ITER // _RELAX_FINISH
    steps each, so a restart takes at most 2 _ASCENT_MAX_ITER steps in all.
    The converged flag is the rounds'.  Returns the value, unitary and
    converged flag of the best restart, the first winning ties.
    """
    scale = np.abs(mat).max() or 1.0
    m = mat / scale
    us = _haar_starts(d, restarts, rng)
    z = _relaxed_overlaps(m, us)
    live = np.ones(restarts, dtype=bool)
    for _ in range(_ASCENT_MAX_ITER // _RELAX_ROUND):
        us[live] = _phase_ascent(m, np.angle(z[live]), us[live], _RELAX_ROUND, TOL_ASCENT)
        z_next = _relaxed_overlaps(m, us[live])
        gain = np.abs(z_next) - np.abs(z[live])
        z[live] = z_next
        live[live] = gain > TOL_ASCENT
        if not live.any():
            break
    theta, u, go, last = np.angle(z), us.copy(), np.arange(restarts), None
    for _ in range(_RELAX_FINISH):
        if go.size == 0:
            break
        u[go] = _phase_ascent(m, theta[go], u[go], _ASCENT_MAX_ITER // _RELAX_FINISH,
                              TOL_PREDICTED)
        z_next = _relaxed_overlaps(m, u[go])
        rise = np.abs(z_next) - np.abs(z[go])
        up = go[rise > 0]
        us[up], z[up] = u[up], z_next[rise > 0]
        r = np.angle(z_next * np.exp(-1j * theta[go]))  # arg z - theta
        step = r.copy()
        if last is not None:  # the secant through this and the last evaluation
            sec = r != last[1]
            step[sec] *= (theta[go] - last[0])[sec] / (last[1] - r)[sec]
        more = rise > TOL_PREDICTED * np.abs(z[go])
        last = theta[go][more], r[more]
        theta[go] += step
        go = go[more]
    best = int(np.argmax(np.abs(z)))  # the first restart wins ties
    return np.abs(z[best]) * scale, us[best], not live[best]


def _relaxed_overlaps(m, us):
    """z = <psi_U|m|psi_U> of each unitary in a stack (k, d, d)."""
    x = _vec_t(us)
    return np.sum(x.conj() * (x @ m.T), axis=-1) / us.shape[-1]


def _phase_ascent(m, theta, us, max_iter, tol):
    """The unitaries that _ascend reaches to ``tol`` from ``us`` (k, d, d)
    in at most max_iter steps on H = (conj(phi) m + phi m^H)/2, phi =
    exp(i theta) for each phase in ``theta`` (k,), shifted by its
    lambda_min."""
    phi = np.exp(1j * theta)[:, None, None]
    h = (phi.conj() * m + phi * m.conj().T) / 2
    h -= np.linalg.eigvalsh(h)[:, :1, None] * np.eye(len(m))
    return _ascend(h, us[:, None], np.inf, tol, max_iter)[1][:, 0]


# the maximally entangled state compensating a given diagonal-correlation
# signature; valid signatures have an odd number of negative entries
_SIGNATURE_UNITARIES = {
    (-1, -1, -1): np.array([[0, 1j], [-1j, 0]], dtype=np.complex128),
    (1, 1, -1): np.array([[0, 1], [1, 0]], dtype=np.complex128),
    (1, -1, 1): np.eye(2, dtype=np.complex128),
    (-1, 1, 1): np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def _disordered(r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Whether both Bloch vectors vanish, for each pair in (..., k) stacks
    (always so at d = 1, where they are empty)."""
    return np.all(np.abs(np.concatenate([r, s], axis=-1)) <= TOL_DISORDERED, axis=-1)


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
    if not _disordered(dec.r_vec, dec.s_vec):
        raise ValueError("state is not maximally disordered (nonzero Bloch vector)")
    t = dec.t_mat
    off = t - np.diag(np.diagonal(t))
    if np.max(np.abs(off)) > TOL_CLOSED_FORM:
        raise ValueError("correlation matrix is not diagonal; rotate the state first")
    if np.max(np.abs(np.diagonal(t).imag)) > TOL_CLOSED_FORM:
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
    if not _disordered(dec.r_vec, dec.s_vec):
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
        alice, bob = _check_dims(self.alice_factors), _check_dims(self.bob_factors)
        object.__setattr__(self, "alice_factors", alice)
        object.__setattr__(self, "bob_factors", bob)
        if not alice or not bob:
            raise DimensionError("each side needs at least one factor")
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
    dims = [rho1.dim_a, rho1.dim_b, rho2.dim_a, rho2.dim_b]
    regrouped = _tensor_pairs(rho1.mat, rho2.mat, dims)
    state = DensityMatrix(rho1.dim_a * rho2.dim_a, rho1.dim_b * rho2.dim_b, regrouped)
    return FactorizedState(state, (rho1.dim_a, rho2.dim_a), (rho1.dim_b, rho2.dim_b))


def _tensor_pairs(mats1: np.ndarray, mats2: np.ndarray, dims: list[int]) -> np.ndarray:
    """tensor_pair's regrouped matrix for stacks of the two states' matrices,
    dims being [dA1, dB1, dA2, dB2]."""
    # the product's factor order is (A1, B1, A2, B2)
    return _permute_subsystems(_kron(mats1, mats2), dims, [0, 2, 1, 3])


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

    True when the overlap with some maximally entangled state exceeds 1/d,
    which violates the reduction criterion (M. and P. Horodecki, PRA 59,
    4206 (1999)): at psi+ that is a realigned trace above 1, and at the
    ascent's unitary a fidelity_best above 1/d.  That covers a maximally
    disordered state with T >= 0, whose realigned operator is then PSD, so
    that tr A(rho) = ||A(rho)||_1 = tau.
    False means "not certified", never "not distillable".
    """
    if report.realigned_trace is None:  # unequal local dimensions
        return False
    return bool(_distillable(report.dim_a, report.realigned_trace, report.fidelity_best))


def _distillable(d, realigned_trace, fidelity_best):
    """distillable_by_fidelity from the report fields it reads, elementwise
    over scalars or the columns of a square chunk."""
    return (realigned_trace > 1.0 + TOL_FLAG) | (fidelity_best > 1.0 / d + TOL_FLAG)


def _schmidt_tau(mat: np.ndarray, da: int, db: int) -> float:
    """tau of a pure state from its Schmidt spectrum, (sum_i sqrt(a_i))^2."""
    _, vecs = np.linalg.eigh(mat)
    amp = vecs[:, -1].reshape(da, db)
    sv = np.linalg.svd(amp, compute_uv=False)
    return float(sv.sum() ** 2)


def full_reports(states, restarts: int = 16, seed: int = 0) -> list[CriterionReport]:
    """full_report of every state, in order: the report layer.  Each chunk
    of one shape from _chunks goes to _stacked_columns as its stacked
    matrices and spectra, and its columns to one report per state, with the
    structure columns and notes of _chunk_structure."""
    chunks = ((*key, np.stack([rho.mat for rho in c]), np.stack([rho._eigs for rho in c]))
              for key, c in _chunks(states, lambda rho: (rho.dim_a, rho.dim_b)))
    reports: list[CriterionReport] = []
    for da, db, mats, columns, overlaps in _stacked_columns(chunks, restarts, seed):
        max_dis, t_psd, notes = _chunk_structure(da, db, mats, overlaps)
        columns.update(max_disordered=max_dis, t_psd=t_psd)
        cells = [[None] * len(mats) if col is None else col.tolist() for col in columns.values()]
        reports += [CriterionReport(da, db, *row, notes=note) for *row, note in zip(*cells, notes)]
    return reports


def _stacked_columns(chunks, restarts: int, seed: int):
    """(da, db, mats, *_chunk_columns(...)) of each checked state stack (da,
    db, mats, eigs) of a chunk iterable, a chunk at a time.  Above d = 2 each
    local dimension's Haar starts are drawn once, as full_report draws them."""
    _check_restarts(restarts)
    _check_seed(seed)
    starts: dict[int, np.ndarray] = {}
    for da, db, mats, eigs in chunks:
        if da == db != 2 and da not in starts:
            starts[da] = _haar_starts(da, restarts, np.random.default_rng(seed))
        yield da, db, mats, *_chunk_columns(da, db, mats, eigs, starts.get(da))


def full_report(rho: DensityMatrix, restarts: int = 16, seed: int = 0) -> CriterionReport:
    """Run every criterion on one state and collect the results."""
    return full_reports([rho], restarts, seed)[0]


def _chunk_columns(da, db, mats, eigs, starts):
    """The column kernel of a checked (N, da*db, da*db) state stack with
    ascending spectra ``eigs`` (``starts`` is used only when square above
    d = 2): a dict from each CriterionReport field but the dims and notes,
    in field order, to its (N,) column, None where undefined at unequal
    local dimensions and for the structure fields, which _chunk_structure
    gives; and the overlaps <psi+|rho|psi+> (None at unequal dimensions).
    One stacked SVD and eigensolve give tau and the PPT columns; a square
    chunk runs its ascents as one batch, the overlap alone per state."""
    taus = _ccn_values(mats, da, db)
    min_eig, ppt_tn, ppt_flag = _ppt_from_eigs(np.linalg.eigvalsh(_partial_transpose(mats, da, db)))
    columns = dict(tau=taus, ppt_min_eig=min_eig, ppt_trace_norm=ppt_tn, realigned_trace=None,
                   fidelity_lower=None, fidelity_best=None, fidelity_upper=None,
                   fidelity_converged=None, ccn_flag=taus > 1.0 + TOL_FLAG, ppt_flag=ppt_flag,
                   distillable_flag=np.zeros(len(mats), dtype=bool), max_disordered=None,
                   t_psd=None)
    if da != db:
        return columns, None
    d = da
    best, _, converged = _optimize_psd(mats, eigs, taus, starts)
    overlaps = _overlaps(mats, d)
    tr_a, fid_up = d * overlaps, taus / d
    columns.update(realigned_trace=tr_a, fidelity_lower=np.minimum(overlaps, fid_up),
                   fidelity_best=best, fidelity_upper=fid_up, fidelity_converged=converged,
                   distillable_flag=_distillable(d, tr_a, best))
    return columns, overlaps


def _chunk_structure(da, db, mats, overlaps):
    """The report layer's part of a chunk: its max_disordered and t_psd
    columns (None at unequal local dimensions) and each state's notes, all
    stacked but for the rare pure points' Schmidt values."""
    if da != db:
        return None, None, [("unequal local dimensions: fidelity bounds not defined",)] * len(mats)
    d = da
    # positivity of the correlation matrix is meaningful in the conjugated
    # (spin-basis) convention, where T >= 0 iff the realigned operator is PSD;
    # the other checks do not depend on the basis.  T >= 0 means Hermitian
    # and PSD, both within TOL_STRUCTURE, as the empty T of d = 1 is
    coeff = _coefficients(mats, d, "spin")
    t_mats = coeff[:, 1:, 1:].swapaxes(-1, -2)
    max_dis = _disordered(coeff[:, 1:, 0], coeff[:, 0, 1:])
    t_herm = t_mats.conj().swapaxes(-1, -2)
    defects = np.abs(t_mats - t_herm).max(axis=(-2, -1), initial=0.0)
    t_eigs = np.linalg.eigvalsh((t_mats + t_herm) / 2)
    t_psd = (defects <= TOL_STRUCTURE) & np.all(t_eigs >= -TOL_STRUCTURE, axis=-1)
    notes: list[list[str]] = [[] for _ in mats]
    (dis,) = np.nonzero(max_dis)
    for k, value in zip(dis, (1.0 + _trace_norms(t_mats[dis])) / d):
        notes[k].append(f"maximally disordered subsystems: tau = (1 + ||T||_1)/d = {value:.12g}")
    purity = np.trace(mats @ mats, axis1=-2, axis2=-1).real
    for k in np.nonzero(purity >= 1.0 - TOL_STRUCTURE)[0]:
        notes[k].append(f"pure state: tau = (sum sqrt Schmidt)^2 = {_schmidt_tau(mats[k], d, d):.12g}")
    if d > 1:  # the isotropic family needs d >= 2
        psi = psi_plus(d)
        proj = np.outer(psi, psi.conj())
        ov = overlaps[:, None, None]
        # iso - rho, with iso = F proj + (1 - F)(I - proj)/(d^2 - 1), built in
        # place: numpy reuses a temporary only of the result's shape, so the
        # plain expression broadcast over the chunk allocates at every step
        iso = (1 - ov) * (np.eye(d * d) - proj)
        iso /= d * d - 1
        iso += ov * proj
        iso -= mats
        for k in np.nonzero(_max_abs(iso) <= TOL_STRUCTURE)[0]:
            notes[k].append(f"isotropic state with fidelity F = {overlaps[k]:.12g}")
    return max_dis, t_psd, [tuple(note) for note in notes]
