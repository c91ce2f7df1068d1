"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared host, other tenants slow every instruction of this process by up
to 2x, for seconds or for minutes, so the same command's time depends on
when it ran.  The kernel does the same kind of work as sepscope's hot loops
(small einsums and SVDs, an eigensolve, a validated value object) but shares
no code with the package, so a change to sepscope never changes its time.
Its median time over a run, against REFERENCE_S, is how much slower than
uncontended the machine ran during that run.
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(20021207)
_FOUR = _RNG.standard_normal((3, 3, 3, 3)) + 1j * _RNG.standard_normal((3, 3, 3, 3))
_HERM = _RNG.standard_normal((4, 4))
_HERM = _HERM + _HERM.T
ITERATIONS = 150
WARM_UP = 30
# The kernel's time, uncontended, on the machine the benchmark was defined on
# (a 2-core sandbox, numpy 2.4.6 with OpenBLAS 0.3.31 on one thread); times
# are reported at that speed.
REFERENCE_S = 0.0053


class _Checked:
    """A validated value object, like sepscope's state classes (written without
    dataclasses so that importing this module preloads nothing sepscope uses)."""

    __slots__ = ("mat",)

    def __init__(self, mat: np.ndarray):
        if np.abs(mat - mat.T).max() > 1e-9:
            raise ValueError("not symmetric")
        self.mat = mat


def _iterations(count: int) -> None:
    u = np.eye(3, dtype=np.complex128)
    for _ in range(count):
        w, _, vh = np.linalg.svd(np.einsum("ikjl,lj->ki", _FOUR, u) / 3.0)
        u = w @ vh
        np.einsum("ki,ikjl,lj->", u.conj(), _FOUR, u)
        np.linalg.eigvalsh(_HERM)
        _Checked(_HERM)


def kernel_s() -> float:
    """Seconds one run of the reference kernel takes now.

    A short untimed warm-up first brings back the caches the previous
    command evicted, so that only contention, not what ran before, shows.
    """
    _iterations(WARM_UP)
    start = time.perf_counter()
    _iterations(ITERATIONS)
    return time.perf_counter() - start
