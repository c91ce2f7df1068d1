"""Constructors for the state families used by the criteria, plus their
closed-form spectra and thresholds.

Families and their textual forms (the CLI grammar is ``name:key=value,...``
with ``;`` separating vector-valued groups):

    counterexample:s=0.5,r=0.25,t=0.0625   two-qubit PPT-vs-CCN demonstrator
    werner:d=2,p=0.4                       antisymmetric-projector mixture
    isotropic:d=3,F=0.5                    maximally-entangled-state mixture
    belldiag:p=0.6,0.2,0.1,0.1             Bell basis mixture (phi+,phi-,psi+,psi-)
    pure:a=0.7,0.3                         pure state with given Schmidt coefficients
    rhop:a=0.7,0.3;p=0.5                   pure state mixed with white noise
    maxdis:t=0.5,-0.5,0.5                  two-qubit diagonal-correlation state
    random:da=3,db=3,rank=9,seed=42        seeded Wishart-type random state
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .hsbasis import PAULI, spin_basis
from .linalg import TOL_PARAM, TOL_SIMPLEX, DensityMatrix, tensor

__all__ = [
    "Werner",
    "Isotropic",
    "BellDiagonal",
    "PureSchmidt",
    "RhoP",
    "Counterexample",
    "MaxDisordered",
    "RandomState",
    "FamilySpec",
    "make_state",
    "parse_family",
    "format_family",
    "param_kind",
    "replace_param",
    "scannable_params",
    "werner_matrix",
    "isotropic_matrix",
    "rho_p_matrix",
    "counterexample_matrix",
    "counterexample_spectra",
    "CounterexampleSpectra",
    "rho_p_threshold",
    "psi_plus",
    "bell_vectors",
    "swap_operator",
    "random_unitary",
    "random_density_matrix",
    "random_max_disordered",
]


def psi_plus(d: int) -> np.ndarray:
    """Maximally entangled vector sum_i |ii> / sqrt(d)."""
    vec = np.zeros(d * d, dtype=np.complex128)
    vec[:: d + 1] = 1.0 / np.sqrt(d)
    return vec


def bell_vectors() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four Bell vectors in the order (phi+, phi-, psi+, psi-)."""
    s = 1.0 / np.sqrt(2.0)
    phi_p = np.array([s, 0, 0, s], dtype=np.complex128)
    phi_m = np.array([s, 0, 0, -s], dtype=np.complex128)
    psi_p = np.array([0, s, s, 0], dtype=np.complex128)
    psi_m = np.array([0, s, -s, 0], dtype=np.complex128)
    return phi_p, phi_m, psi_p, psi_m


def swap_operator(d: int) -> np.ndarray:
    """The operator exchanging the two d-dimensional factors."""
    out = np.zeros((d * d, d * d), dtype=np.complex128)
    for i in range(d):
        for k in range(d):
            out[i * d + k, k * d + i] = 1.0
    return out


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """A complex Gaussian matrix; the real parts are drawn before the imaginary."""
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR of a Ginibre matrix."""
    return _haar_unitaries(_ginibre(rng, d, d))


def _haar_unitaries(ginibre: np.ndarray) -> np.ndarray:
    """random_unitary of each Ginibre matrix in a (..., d, d) stack."""
    q, r = np.linalg.qr(ginibre / np.sqrt(2.0))
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (phases / np.abs(phases))[..., None, :]


def random_density_matrix(
    dim_a: int, dim_b: int, rank: int | None = None, rng: np.random.Generator | None = None
) -> DensityMatrix:
    """Normalised G G^dag with a complex Gaussian G of the given rank."""
    side = dim_a * dim_b
    if rank is None:
        rank = side
    if not 1 <= rank <= side:
        raise ValueError(f"rank = {rank} outside [1, {side}]")
    if rng is None:
        rng = np.random.default_rng()
    return DensityMatrix(dim_a, dim_b, _gram_states(_ginibre(rng, side, rank)))


def _gram_states(g: np.ndarray) -> np.ndarray:
    """The unvalidated random_density_matrix of each Gaussian G in a
    (..., side, rank) stack."""
    mats = g @ g.conj().swapaxes(-1, -2)
    mats = (mats + mats.conj().swapaxes(-1, -2)) / 2.0
    mats /= np.trace(mats, axis1=-2, axis2=-1).real[..., None, None]
    return mats


def random_max_disordered(d: int, rng: np.random.Generator) -> DensityMatrix:
    """Random state whose reductions are both maximally mixed.

    Mixes the d^2 shift-and-phase Bell-type projectors with Dirichlet
    weights, then applies a random local basis change on each side.
    """
    weights = rng.dirichlet(np.ones(d * d))
    mat = np.zeros((d * d, d * d), dtype=np.complex128)
    for w, op in zip(weights, spin_basis(d)):
        vec = op.T.reshape(-1) / np.sqrt(d)  # (I (x) op) acting on |psi+>
        mat += w * np.outer(vec, vec.conj())
    local = tensor(random_unitary(d, rng), random_unitary(d, rng))
    mat = local @ mat @ local.conj().T
    mat = (mat + mat.conj().T) / 2.0
    return DensityMatrix(d, d, mat)


# --- state families ---------------------------------------------------------


def _check_size(what: str, *dims) -> None:
    """Reject a family whose complex matrix on the product of dims (16 bytes an
    entry, in Python ints) is above numpy's maximum array size of intp-max
    bytes, before numpy sees it."""
    if 16 * math.prod(int(d) for d in dims) ** 2 > np.iinfo(np.intp).max:
        raise ValueError(f"{what} is too large: the state's matrix exceeds numpy's maximum size")


@dataclass(frozen=True)
class Werner:
    """p times the normalised antisymmetric projector plus white noise.

    At d = 2 this is p |psi-><psi-| + (1 - p) I/4.
    """

    d: int
    p: float

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"werner d = {self.d} violates d >= 2")
        _check_size(f"werner d = {self.d}", self.d, self.d)
        if not _werner_valid(self.d, self.p):
            raise ValueError(f"werner p = {self.p} outside [{-(self.d - 1) / (self.d + 1):.6g}, 1]")


@dataclass(frozen=True)
class Isotropic:
    """fidelity * |psi+><psi+| plus the normalised orthogonal complement."""

    d: int
    fidelity: float

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"isotropic d = {self.d} violates d >= 2")
        _check_size(f"isotropic d = {self.d}", self.d, self.d)
        if not _isotropic_valid(self.d, self.fidelity):
            raise ValueError(f"isotropic F = {self.fidelity} outside [0, 1]")


def _simplex(what: str, values) -> tuple[float, ...]:
    """values as floats, refused with ``what`` (the family and field) named
    unless each is >= 0 and they sum to 1."""
    values = tuple(float(v) for v in values)
    if min(values, default=0.0) < -TOL_PARAM:
        raise ValueError(f"{what} must be >= 0, got {min(values)}")
    if abs(sum(values) - 1.0) > TOL_SIMPLEX:
        raise ValueError(f"{what} sum to {sum(values)}, not 1")
    return values


@dataclass(frozen=True)
class BellDiagonal:
    """Mixture of the four Bell projectors in the order (phi+, phi-, psi+, psi-)."""

    probs: tuple[float, float, float, float]

    def __post_init__(self):
        if len(self.probs) != 4:
            raise ValueError(f"belldiag needs 4 probabilities, got {len(self.probs)}")
        object.__setattr__(self, "probs", _simplex("belldiag probabilities", self.probs))


@dataclass(frozen=True)
class PureSchmidt:
    """Pure state sum_i sqrt(a_i) |ii> with Schmidt coefficients a."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _simplex("pure Schmidt coefficients a", self.coeffs))


@dataclass(frozen=True)
class RhoP:
    """p |psi><psi| + (1 - p)/4 I(x)I for a two-qubit pure |psi>."""

    coeffs: tuple[float, float]
    p: float

    def __post_init__(self):
        coeffs = _simplex("rhop Schmidt coefficients a", self.coeffs)
        if len(coeffs) != 2:
            raise ValueError(f"rhop needs exactly 2 Schmidt coefficients a, got {len(coeffs)}")
        object.__setattr__(self, "coeffs", coeffs)
        if not _rho_p_valid(self.coeffs, self.p):
            raise ValueError(f"rhop p = {self.p} outside [-1/3, 1]")


@dataclass(frozen=True)
class Counterexample:
    """Two-qubit family that is entangled for t != 0 yet CCN-invisible for
    small t: (1/4)(I(x)I + s I(x)sz + r sz(x)I + t sx(x)sx - t sy(x)sy
    + (1 + r - s) sz(x)sz) with s > r."""

    s: float
    r: float
    t: float

    def __post_init__(self):
        ordered, bounded, psd, min_eig = _counterexample_rules(self.s, self.r, self.t)
        if not ordered:
            raise ValueError(f"counterexample requires s > r, got s = {self.s}, r = {self.r}")
        if not bounded:
            raise ValueError(
                f"counterexample requires |s| <= 1 and |r| <= 1, got s = {self.s}, r = {self.r}"
            )
        if not psd:
            raise ValueError(
                f"counterexample (s, r, t) = ({self.s}, {self.r}, {self.t}) is not a state: "
                f"min eigenvalue {min_eig:.3e}"
            )


@dataclass(frozen=True)
class MaxDisordered:
    """Two-qubit state (1/4)(I(x)I + sum_m t_m sigma_m(x)sigma_m)."""

    t_diag: tuple[float, float, float]

    def __post_init__(self):
        t = tuple(float(x) for x in self.t_diag)
        object.__setattr__(self, "t_diag", t)
        if len(t) != 3:
            raise ValueError(f"maxdis needs 3 correlation values, got {len(t)}")
        t1, t2, t3 = t
        eigs = [
            (1 + t1 - t2 + t3) / 4,
            (1 - t1 + t2 + t3) / 4,
            (1 + t1 + t2 - t3) / 4,
            (1 - t1 - t2 - t3) / 4,
        ]
        if min(eigs) < -TOL_PARAM:
            raise ValueError(
                f"maxdis t = {t} is not a state: min eigenvalue {min(eigs):.3e}"
            )


@dataclass(frozen=True)
class RandomState:
    """Seeded random state of the given local dimensions and rank."""

    dim_a: int
    dim_b: int
    rank: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.dim_a < 1 or self.dim_b < 1:
            raise ValueError("random state dimensions must be positive")
        side = self.dim_a * self.dim_b
        _check_size(f"random da = {self.dim_a}, db = {self.dim_b}", self.dim_a, self.dim_b)
        rank = side if self.rank is None else self.rank
        if not 1 <= rank <= side:
            raise ValueError(f"random rank = {self.rank} outside [1, {side}]")
        if self.seed < 0:
            raise ValueError(f"random seed = {self.seed} violates seed >= 0")


FamilySpec = Union[
    Werner,
    Isotropic,
    BellDiagonal,
    PureSchmidt,
    RhoP,
    Counterexample,
    MaxDisordered,
    RandomState,
]


def counterexample_matrix(s, r, t) -> np.ndarray:
    """Canonical-basis matrix of the counterexample family.

    Array parameters (broadcast together) give a stack of matrices.
    """
    s, r, t = np.broadcast_arrays(s, r, t)
    out = np.zeros(s.shape + (4, 4), dtype=np.complex128)
    out[..., 0, 0] = 1 + r
    out[..., 0, 3] = out[..., 3, 0] = t
    out[..., 2, 2] = s - r
    out[..., 3, 3] = 1 - s
    return 0.5 * out


class CounterexampleSpectra(NamedTuple):
    rho_eigs: tuple[float, float, float, float]
    pt_eigs: tuple[float, float, float, float]
    psi: float
    g: float


def _square(x):
    # pow(x, 2), as Python's float x ** 2 computes it; numpy's array x ** 2 is
    # x * x, which can differ from it in the last bit
    return np.float_power(x, 2.0)


def _rho_eigs(s, r, t) -> tuple:
    """The closed-form state eigenvalues of counterexample_spectra, elementwise."""
    s, r, t = np.broadcast_arrays(s, r, t)
    root = 0.5 * np.sqrt(t * t + _square(s + r) / 4.0)
    return (
        np.zeros_like(root),
        (s - r) / 2.0,
        0.5 + (r - s) / 4.0 + root,
        0.5 + (r - s) / 4.0 - root,
    )


def _counterexample_rules(s, r, t):
    """The validity rules of Counterexample, elementwise on scalars or arrays.

    Returns the masks (s > r, |s| <= 1 and |r| <= 1, closed-form spectrum
    above -TOL_PARAM) and the minimal closed-form eigenvalue; a point is valid
    where all three masks hold.
    """
    min_eig = np.minimum.reduce(_rho_eigs(s, r, t))
    bounded = (np.abs(s) <= 1) & (np.abs(r) <= 1)
    return np.greater(s, r), bounded, ~(min_eig < -TOL_PARAM), min_eig


def _counterexample_closed_forms(s, r, t) -> CounterexampleSpectra:
    """counterexample_spectra elementwise: each field holds arrays shaped like
    the broadcast parameters."""
    s, r, t = np.broadcast_arrays(s, r, t)
    pt_root = 0.5 * np.sqrt(_square(s - r) / 4.0 + t * t)
    pt_eigs = (
        (1 + r) / 2.0,
        (1 - s) / 2.0,
        (s - r) / 4.0 + pt_root,
        (s - r) / 4.0 - pt_root,
    )
    psi = _square(1 + r) + _square(s - r) + _square(1 - s)
    disc = np.sqrt(psi * psi - 4.0 * _square(1 + r) * _square(1 - s))
    lam_hi = (psi + disc) / 8.0
    lam_lo = (psi - disc) / 8.0
    g = np.sqrt(lam_hi) + np.sqrt(np.maximum(lam_lo, 0.0))
    return CounterexampleSpectra(_rho_eigs(s, r, t), pt_eigs, psi, g)


def counterexample_spectra(params: Counterexample) -> CounterexampleSpectra:
    """Closed-form spectra of the counterexample state and its partial
    transpose, plus the pieces of its CCN value tau = g + |t|."""
    closed = _counterexample_closed_forms(params.s, params.r, params.t)
    return CounterexampleSpectra(
        tuple(float(x) for x in closed.rho_eigs),
        tuple(float(x) for x in closed.pt_eigs),
        float(closed.psi),
        float(closed.g),
    )


def rho_p_threshold(schmidt: tuple[float, float]) -> float:
    """Largest noise-mixing weight p at which the CCN value stays at most 1:
    1 / (4 sqrt(a1 a2) + 1)."""
    a1, a2 = float(schmidt[0]), float(schmidt[1])
    if a1 < -TOL_PARAM or a2 < -TOL_PARAM or abs(a1 + a2 - 1.0) > TOL_SIMPLEX:
        raise ValueError(f"({a1}, {a2}) is not a point of the probability simplex")
    return 1.0 / (4.0 * np.sqrt(max(a1 * a2, 0.0)) + 1.0)


def _pure_schmidt_vector(coeffs: tuple[float, ...]) -> np.ndarray:
    d = len(coeffs)
    vec = np.zeros(d * d, dtype=np.complex128)
    vec[:: d + 1] = np.sqrt(np.maximum(np.asarray(coeffs, dtype=float), 0.0))
    return vec


# --- family matrices and rules, broadcast over array parameters -------------


def werner_matrix(d: int, p) -> np.ndarray:
    """Canonical-basis matrix of the Werner family; an array p gives a stack."""
    eye = np.eye(d * d, dtype=np.complex128)
    anti = (eye - swap_operator(d)) / (d * d - d)
    p = np.asarray(p)[..., None, None]
    return p * anti + (1 - p) / (d * d) * eye


def isotropic_matrix(d: int, fidelity) -> np.ndarray:
    """Canonical-basis matrix of the isotropic family; an array fidelity gives
    a stack."""
    proj = np.outer(psi_plus(d), psi_plus(d).conj())
    rest = (np.eye(d * d, dtype=np.complex128) - proj) / (d * d - 1)
    fidelity = np.asarray(fidelity)[..., None, None]
    return fidelity * proj + (1 - fidelity) * rest


def rho_p_matrix(coeffs: tuple[float, float], p) -> np.ndarray:
    """Canonical-basis matrix of the rho_p family; an array p gives a stack."""
    vec = _pure_schmidt_vector(coeffs)
    p = np.asarray(p)[..., None, None]
    return p * np.outer(vec, vec.conj()) + (1 - p) / 4.0 * np.eye(4)


def _up_to_one(x, lo: float):
    """lo - TOL_PARAM <= x <= 1 + TOL_PARAM, elementwise."""
    return (lo - TOL_PARAM <= x) & (x <= 1 + TOL_PARAM)


def _werner_valid(d: int, p):
    return _up_to_one(p, -(d - 1) / (d + 1))


def _isotropic_valid(d: int, fidelity):
    return _up_to_one(fidelity, 0.0)


def _rho_p_valid(coeffs: tuple[float, float], p):
    return _up_to_one(p, -1.0 / 3.0)


def _counterexample_valid(s, r, t):
    ordered, bounded, psd, _ = _counterexample_rules(s, r, t)
    return ordered & bounded & psd


# Each family with a float parameter: its matrix and the validity rule of its
# parameters, both functions of its fields by name that broadcast over array
# fields, to a stack of matrices and to a mask.  Each family is d x d, with d
# its field d, or two qubits.
_BROADCASTING = {
    Werner: (werner_matrix, _werner_valid),
    Isotropic: (isotropic_matrix, _isotropic_valid),
    RhoP: (rho_p_matrix, _rho_p_valid),
    Counterexample: (counterexample_matrix, _counterexample_valid),
}


def _broadcast_dims(fields: dict) -> tuple[int, int]:
    d = fields.get("d", 2)
    return d, d


def _broadcast(spec: FamilySpec, fields: dict) -> tuple[int, int, np.ndarray]:
    """(dim_a, dim_b, matrix) of a _BROADCASTING family with the given fields."""
    return *_broadcast_dims(fields), _BROADCASTING[type(spec)][0](**fields)


def _grid_fields(spec: FamilySpec, key: str, values: np.ndarray) -> dict:
    """spec's fields, with its float parameter key set to the array values."""
    return {**vars(spec), scannable_params(spec)[key]: values}


def _check_grid(spec: FamilySpec, key: str, values: np.ndarray) -> tuple[int, int]:
    """Raise replace_param's error for the first of the 1-D values that spec's
    float parameter key may not take, which the family's rule finds
    elementwise; else return their states' (dim_a, dim_b)."""
    fields = _grid_fields(spec, key, values)
    for value in values[~_BROADCASTING[type(spec)][1](**fields)]:
        replace_param(spec, key, float(value))
    return _broadcast_dims(fields)


def _family_stack(spec: FamilySpec, key: str, values: np.ndarray) -> tuple[int, int, np.ndarray]:
    """(dim_a, dim_b, stack) of spec with its float parameter key set to each
    of the 1-D values, which _check_grid has passed: the family's matrix
    broadcast once, the stack not yet checked.  Each matrix equals
    _family_matrix of replace_param(spec, key, value) bit for bit."""
    return _broadcast(spec, _grid_fields(spec, key, values))


def make_state(spec: FamilySpec) -> DensityMatrix:
    """Construct the density matrix described by a family spec."""
    return DensityMatrix(*_family_matrix(spec))


def _family_matrix(spec: FamilySpec) -> tuple[int, int, np.ndarray]:
    """(dim_a, dim_b, matrix) of a family spec, the matrix not yet checked."""
    if type(spec) in _BROADCASTING:
        return _broadcast(spec, vars(spec))
    if isinstance(spec, BellDiagonal):
        mat = np.zeros((4, 4), dtype=np.complex128)
        for p, vec in zip(spec.probs, bell_vectors()):
            mat += p * np.outer(vec, vec.conj())
        return 2, 2, mat
    if isinstance(spec, PureSchmidt):
        vec = _pure_schmidt_vector(spec.coeffs)
        d = len(spec.coeffs)
        return d, d, np.outer(vec, vec.conj())
    if isinstance(spec, MaxDisordered):
        mat = np.eye(4, dtype=np.complex128)
        for t_m, sigma in zip(spec.t_diag, PAULI):
            mat += t_m * tensor(sigma, sigma)
        return 2, 2, mat / 4.0
    if isinstance(spec, RandomState):
        side = spec.dim_a * spec.dim_b
        g = _ginibre(np.random.default_rng(spec.seed), side, spec.rank or side)
        return spec.dim_a, spec.dim_b, _gram_states(g)
    raise TypeError(f"unknown family spec {spec!r}")


# --- textual family grammar -------------------------------------------------

# name -> (class, {textual key -> (field, kind)}); kind is int, float or tuple
_REGISTRY: dict[str, tuple[type, dict[str, tuple[str, object]]]] = {
    "counterexample": (Counterexample, {"s": ("s", float), "r": ("r", float), "t": ("t", float)}),
    "werner": (Werner, {"d": ("d", int), "p": ("p", float)}),
    "isotropic": (Isotropic, {"d": ("d", int), "F": ("fidelity", float)}),
    "belldiag": (BellDiagonal, {"p": ("probs", tuple)}),
    "pure": (PureSchmidt, {"a": ("coeffs", tuple)}),
    "rhop": (RhoP, {"a": ("coeffs", tuple), "p": ("p", float)}),
    "maxdis": (MaxDisordered, {"t": ("t_diag", tuple)}),
    "random": (
        RandomState,
        {"da": ("dim_a", int), "db": ("dim_b", int), "rank": ("rank", int), "seed": ("seed", int)},
    ),
}

_CLASS_TO_NAME = {cls: name for name, (cls, _) in _REGISTRY.items()}


def _coerce(name: str, key: str, values: list[str], kind) -> object:
    try:
        floats = [float(v) for v in values]
    except ValueError as exc:
        raise ValueError(f"{name}: value for '{key}' is not numeric: {values}") from exc
    if not all(math.isfinite(f) for f in floats):
        raise ValueError(f"{name}: value for '{key}' must be finite: {values}")
    if kind is tuple:
        return tuple(floats)
    if len(floats) != 1:
        raise ValueError(f"{name}: '{key}' expects a single value, got {len(floats)}")
    if kind is int:
        if floats[0] != int(floats[0]):
            raise ValueError(f"{name}: '{key}' must be an integer, got {floats[0]}")
        return int(floats[0])
    return floats[0]


def parse_family(text: str) -> FamilySpec:
    """Parse the ``name:key=value,...`` textual form into a family spec."""
    head, sep, rest = text.strip().partition(":")
    name = head.strip().lower()
    if name not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown family '{name}' (known: {known})")
    cls, keys = _REGISTRY[name]
    raw: dict[str, list[str]] = {}
    current: str | None = None
    if sep and rest.strip():
        for group in rest.split(";"):
            current = None
            for token in group.split(","):
                token = token.strip()
                if not token:
                    continue
                if "=" in token:
                    current, first = (part.strip() for part in token.split("=", 1))
                    if current in raw:
                        raise ValueError(f"{name}: duplicate key '{current}'")
                    raw[current] = [first]
                elif current is None:
                    raise ValueError(f"{name}: stray value '{token}' before any key")
                else:
                    raw[current].append(token)
    kwargs = {}
    for key, values in raw.items():
        if key not in keys:
            known = ", ".join(keys)
            raise ValueError(f"{name}: unknown key '{key}' (expects: {known})")
        field, kind = keys[key]
        kwargs[field] = _coerce(name, key, values, kind)
    missing = [key for key, (field, _) in keys.items() if field not in kwargs and not _has_default(cls, field)]
    if missing:
        raise ValueError(f"{name}: missing required key(s): {', '.join(missing)}")
    return cls(**kwargs)


def _has_default(cls, field: str) -> bool:
    for f in dataclasses.fields(cls):
        if f.name == field:
            return f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING
    return False


def format_family(spec: FamilySpec) -> str:
    """Canonical textual form of a family spec (inverse of parse_family)."""
    name = _CLASS_TO_NAME[type(spec)]
    _, keys = _REGISTRY[name]
    groups = []
    for key, (field, kind) in keys.items():
        value = getattr(spec, field)
        if value is None:
            continue
        if kind is tuple:
            groups.append(f"{key}=" + ",".join(repr(float(v)) for v in value))
        elif kind is int:
            groups.append(f"{key}={int(value)}")
        else:
            groups.append(f"{key}={float(value)!r}")
    return name + ":" + ";".join(groups)


def scannable_params(spec: FamilySpec) -> dict[str, str]:
    """Scalar textual keys of a family, mapped to their field names."""
    name = _CLASS_TO_NAME[type(spec)]
    _, keys = _REGISTRY[name]
    return {key: field for key, (field, kind) in keys.items() if kind in (int, float)}


def param_kind(spec: FamilySpec, key: str) -> type:
    """The kind (int or float) of one scalar parameter of a family spec."""
    params = scannable_params(spec)
    if key not in params:
        name = _CLASS_TO_NAME[type(spec)]
        have = f"have: {', '.join(params)}" if params else "the family has none"
        raise ValueError(f"{name}: no scalar parameter '{key}' ({have})")
    _, keys = _REGISTRY[_CLASS_TO_NAME[type(spec)]]
    return keys[key][1]


def replace_param(spec: FamilySpec, key: str, value: float) -> FamilySpec:
    """Return a copy of a family spec with one scalar parameter replaced."""
    kind = param_kind(spec, key)
    field = scannable_params(spec)[key]
    if kind is int:
        if float(value) != int(value):
            raise ValueError(f"parameter '{key}' must be an integer, got {value}")
        value = int(value)
    return dataclasses.replace(spec, **{field: value})
