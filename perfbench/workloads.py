"""The sepscope benchmark workloads: ``sepscope`` command lines drawn from a
seed, each with a check of the output it must print.

A check returns the problems it found (an empty list when the output is
correct).  Checks compare against the paper's identities and against this
module's own numpy computations, never against another sepscope output.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from sepscope.states import make_state, parse_family

# the acceptance tolerances of verify.suite_sandwich and the criterion flag margin
TOL_SANDWICH_LOWER = 1e-8
TOL_SANDWICH_UPPER = 1e-10
TOL_FLAG = 1e-9
TOL_EXACT = 1e-12
TOL_TAU = 1e-10         # sepscope's tau against this module's reshuffle-and-SVD
TOL_THRESHOLD = 1e-6    # bisected CCN threshold against rho_p_threshold
TOL_BOUNDARY = 1e-6     # grid points this close to a flag boundary are not checked


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Callable[[str], list[str]]

    @property
    def label(self) -> str:
        return " ".join(self.argv)


# --- scan-small --------------------------------------------------------------


def _report_problems(where, tau, fid_lower, fid_best, fid_upper, ccn_flag) -> list[str]:
    out = []
    if not fid_lower <= fid_best + TOL_SANDWICH_LOWER:
        out.append(f"{where}: fid_lower {fid_lower!r} > fid_best {fid_best!r}")
    if not fid_best <= fid_upper + TOL_SANDWICH_UPPER:
        out.append(f"{where}: fid_best {fid_best!r} > fid_upper {fid_upper!r}")
    if bool(ccn_flag) != (tau > 1.0 + TOL_FLAG):
        out.append(f"{where}: ccn_flag {ccn_flag!r} disagrees with tau {tau!r}")
    return out


def _counterexample_g(s: float, r: float) -> float:
    """Closed-form CCN value at t = 0 of the counterexample family (its tau is g + |t|)."""
    psi = (1 + r) ** 2 + (s - r) ** 2 + (1 - s) ** 2
    disc = math.sqrt(psi * psi - 4.0 * (1 + r) ** 2 * (1 - s) ** 2)
    return math.sqrt((psi + disc) / 8.0) + math.sqrt(max(psi - disc, 0.0) / 8.0)


def _no_problems(_) -> list[str]:
    return []


def _scan(family, param, lo, hi, points, row_check=_no_problems, comments_check=_no_problems):
    """A scan command; its rows are checked one by one, its '#' lines together."""
    grid = np.linspace(lo, hi, points)

    def check(text: str) -> list[str]:
        lines = text.splitlines()
        body = [line for line in lines if not line.startswith("#")]
        rows = [{key: float(value) for key, value in row.items()} for row in csv.DictReader(body)]
        if len(rows) != points:
            return [f"{len(rows)} rows, expected {points}"]
        out = []
        for value, row in zip(grid, rows):
            if row["param"] != float(value):
                out.append(f"row param {row['param']!r}, expected {float(value)!r}")
            out += _report_problems(
                f"{param} = {row['param']!r}", row["tau"], row["fid_lower"],
                row["fid_best"], row["fid_upper"], row["ccn_flag"],
            )
            out += row_check(row)
        return out + comments_check([line for line in lines if line.startswith("#")])

    return Command(("scan", family, "--param", param, f"--range={lo!r}:{hi!r}:{points}"), check)


def _isotropic_row(row) -> list[str]:
    if abs(row["fid_lower"] - row["param"]) > TOL_EXACT:
        return [f"F = {row['param']!r}: fid_lower {row['fid_lower']!r} != F"]
    return []


def _werner2_row(row) -> list[str]:
    p = row["param"]
    if abs(p - 1.0 / 3.0) > TOL_BOUNDARY and bool(row["ppt_flag"]) != (p > 1.0 / 3.0):
        return [f"p = {p!r}: ppt_flag {row['ppt_flag']!r}, expected p > 1/3"]
    return []


def _rhop_threshold(a: float, b: float):
    expected = 1.0 / (4.0 * math.sqrt(a * b) + 1.0)

    def check(comments) -> list[str]:
        found = [float(line.split("=")[-1]) for line in comments if "ccn-threshold" in line]
        if len(found) != 1:
            return [f"{len(found)} ccn-threshold lines, expected 1"]
        if abs(found[0] - expected) > TOL_THRESHOLD:
            return [f"ccn-threshold {found[0]!r}, expected {expected!r}"]
        return []

    return check


def _counterexample_row(s: float, r: float):
    g = _counterexample_g(s, r)

    def check(row) -> list[str]:
        t, out = row["param"], []
        if (t == 0.0 or abs(t) > TOL_BOUNDARY) and bool(row["ppt_flag"]) != (t != 0.0):
            out.append(f"t = {t!r}: ppt_flag {row['ppt_flag']!r}, expected t != 0")
        if abs(row["tau"] - (g + abs(t))) > TOL_EXACT:
            out.append(f"t = {t!r}: tau {row['tau']!r} != g + |t| = {g + abs(t)!r}")
        return out

    return check


def scan_small(rng: np.random.Generator, tiny: bool) -> list[Command]:
    """Four 101-point scans: the fidelity ascent at d = 2, 3 plus the CCN bisection."""
    points = 11 if tiny else 101
    # Narrow bands: the seed changes every output while the ascent's cost,
    # which jumps with the parameters, stays close to the same per seed.
    a = round(float(rng.uniform(0.69, 0.71)), 6)  # rhop Schmidt weight, inside (0.5, 0.95)
    b = round(1.0 - a, 6)
    s = round(float(rng.uniform(0.49, 0.51)), 6)
    r = round(float(rng.uniform(0.24, 0.26)), 6)  # s > r on every draw
    return [
        _scan("isotropic:d=3,F=0", "F", 0.0, 1.0, points, row_check=_isotropic_row),
        _scan("werner:d=2,p=0", "p", 0.0, 1.0, points, row_check=_werner2_row),
        _scan(f"rhop:a={a!r},{b!r};p=0", "p", 0.0, 1.0, points,
              comments_check=_rhop_threshold(a, b)),
        _scan(f"counterexample:s={s!r},r={r!r},t=0", "t", -0.2, 0.2, points,
              row_check=_counterexample_row(s, r)),
    ]


# --- analyze-large -----------------------------------------------------------


def _own_tau(mat: np.ndarray, d: int) -> float:
    aligned = mat.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    return float(np.linalg.svd(aligned, compute_uv=False).sum())


def _analyze(family: str, d: int, fidelity: float | None = None) -> Command:
    def check(text: str) -> list[str]:
        rep = json.loads(text)
        out = []
        if rep["dims"] != [d, d]:
            out.append(f"dims {rep['dims']}, expected {[d, d]}")
        tau = _own_tau(make_state(parse_family(family)).mat, d)
        if abs(rep["tau"] - tau) > TOL_TAU:
            out.append(f"tau {rep['tau']!r}, reshuffle-and-SVD gives {tau!r}")
        out += _report_problems(
            family, rep["tau"], rep["fidelity_lower"], rep["fidelity_best"],
            rep["fidelity_upper"], rep["ccn_flag"],
        )
        if fidelity is not None and abs(rep["fidelity_lower"] - fidelity) > TOL_EXACT:
            out.append(f"fidelity_lower {rep['fidelity_lower']!r} != F = {fidelity!r}")
        return out

    return Command(("analyze", family, "--json"), check)


def analyze_large(rng: np.random.Generator, tiny: bool) -> list[Command]:
    """analyze --json at d = 8 (full rank, rank 1, isotropic) and one full-rank state at d = 12.

    The full-rank states are fixed (state seed = d): the ascent's work on a
    random full-rank state varies 2.4x from one state to the next (3217 to
    7791 SVDs at d = 12 over workload seeds 1-8), far beyond any regression
    bound.  The seed picks the rank-1 state and the isotropic fidelity.
    """
    d, d_big = (3, 4) if tiny else (8, 12)
    rank1_seed = int(rng.integers(0, 2**31))
    fidelity = round(float(rng.uniform(0.05, 0.95)), 6)
    return [
        _analyze(f"random:da={d},db={d},seed={d}", d),
        _analyze(f"random:da={d},db={d},rank=1,seed={rank1_seed}", d),
        _analyze(f"isotropic:d={d},F={fidelity!r}", d, fidelity),
        _analyze(f"random:da={d_big},db={d_big},seed={d_big}", d_big),
    ]


# --- verify-all --------------------------------------------------------------


def _check_verify(text: str) -> list[str]:
    lines = text.splitlines()
    if not lines:
        return ["no output"]
    return [f"not PASS: {line}" for line in lines if ": PASS" not in line]


def verify_all(rng: np.random.Generator, tiny: bool) -> list[Command]:
    """verify all at the default -n 100: thousands of tiny-matrix calls."""
    seed = int(rng.integers(0, 2**31))
    argv = ("verify", "all", "--seed", str(seed)) + (("-n", "4") if tiny else ())
    return [Command(argv, _check_verify)]


WORKLOADS: dict[str, Callable[[np.random.Generator, bool], list[Command]]] = {
    "scan-small": scan_small,
    "analyze-large": analyze_large,
    "verify-all": verify_all,
}


def build(name: str, seed: int, tiny: bool = False) -> list[Command]:
    """The workload's command list; the same seed gives the same commands."""
    return WORKLOADS[name](np.random.default_rng(seed), tiny)
