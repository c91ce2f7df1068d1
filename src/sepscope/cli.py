"""Command-line interface: analyze states, sweep families, run verification.

Exit codes: 0 success, 1 verification-suite failure, 2 input or validation
error.  Numbers print with 12 significant digits; CSV cells use full
round-trip formatting so sweep output is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import fields
from itertools import chain

import numpy as np

from .criteria import (CriterionReport, _check_restarts, _check_seed, _chunk_points, _chunks,
                       _stacked_columns, fidelity_optimize, full_report, realigned_trace)
from .linalg import TOL_BISECT, TOL_FLAG, DensityMatrix, TraceClassOperator, _check_states
from .realign import _ccn_values, ccn_value
from .states import (FamilySpec, _check_grid, _family_matrix, _family_stack, make_state,
                     param_kind, parse_family, replace_param)
from .verify import SUITES


def _fmt(x: float) -> str:
    return f"{x:.12g}"


# --- state files -------------------------------------------------------------


def _is_number(value, kinds) -> bool:
    """isinstance(value, kinds), except that a JSON true or false is no number."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def load_state_file(path: str, relax: bool = False):
    """Load a JSON state file into a DensityMatrix (or, relaxed, a
    TraceClassOperator).

    Schema: {"dims": [dA, dB], "matrix": [[[re, im], ...], ...]} with the
    matrix row-major of size (dA*dB)^2 and every entry a two-element array.
    """
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or "dims" not in data or "matrix" not in data:
        raise ValueError("state file must be an object with 'dims' and 'matrix'")
    dims = data["dims"]
    if (
        not isinstance(dims, list)
        or len(dims) != 2
        or not all(_is_number(d, int) and d >= 1 for d in dims)
    ):
        raise ValueError("'dims' must be two positive integers")
    side = dims[0] * dims[1]
    rows = data["matrix"]
    if not isinstance(rows, list) or len(rows) != side:
        raise ValueError(f"'matrix' must have {side} rows")
    cls = TraceClassOperator if relax else DensityMatrix
    return cls(dims[0], dims[1], _state_matrix(rows, side))


def _state_matrix(rows: list, side: int) -> np.ndarray:
    """The (side, side) complex matrix of a state file's ``side`` rows.

    A well-formed matrix is checked and converted in bulk.  Otherwise the
    walk below, which checks the same conditions cell by cell, raises for the
    first bad row or cell in row-major order.
    """
    if all(isinstance(row, list) and len(row) == side for row in rows):
        cells = list(chain.from_iterable(rows))
        if set(map(type, cells)) <= {list} and set(map(len, cells)) <= {2}:
            values = list(chain.from_iterable(cells))
            # JSON gives exact types, so this refuses true and false as _is_number does
            if set(map(type, values)) <= {int, float}:
                try:
                    parts = np.array(values, dtype=np.float64)
                except OverflowError:  # an integer beyond any float, named below
                    pass
                else:
                    return parts.view(np.complex128).reshape(side, side)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != side:
            raise ValueError(f"matrix row {i} must have {side} entries")
        for j, cell in enumerate(row):
            if (
                not isinstance(cell, list)
                or len(cell) != 2
                or not all(_is_number(v, (int, float)) for v in cell)
            ):
                raise ValueError(
                    f"matrix entry ({i}, {j}) must be a two-element [re, im] array"
                )
            try:
                complex(cell[0], cell[1])
            except OverflowError:
                raise ValueError(f"matrix entry ({i}, {j}) is too large for a float") from None


def save_state_file(path: str, op) -> None:
    """Write a state (or trace-class operator) in the JSON schema above."""
    rows = np.stack([op.mat.real, op.mat.imag], axis=-1).tolist()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"dims": [op.dim_a, op.dim_b], "matrix": rows}, handle)


def _looks_like_path(text: str) -> bool:
    return text.endswith(".json") or os.sep in text or os.path.isfile(text)


# --- analyze -----------------------------------------------------------------


def _report_dict(report: CriterionReport) -> dict:
    """JSON form of a report: "dims" first, then every other field in order."""
    out = {"dims": [report.dim_a, report.dim_b]}
    for field in fields(report):
        if field.name not in ("dim_a", "dim_b"):
            out[field.name] = getattr(report, field.name)
    out["notes"] = list(report.notes)
    return out


def _print_report(report: CriterionReport) -> None:
    print(f"dims               = {report.dim_a} x {report.dim_b}")
    print(f"tau (ccn value)    = {_fmt(report.tau)}")
    print(f"ppt_min_eig        = {_fmt(report.ppt_min_eig)}")
    print(f"ppt_trace_norm     = {_fmt(report.ppt_trace_norm)}")
    if report.realigned_trace is not None:
        print(f"realigned_trace    = {_fmt(report.realigned_trace)}")
        print(f"fidelity_lower     = {_fmt(report.fidelity_lower)}")
        print(f"fidelity_best      = {_fmt(report.fidelity_best)}"
              + ("" if report.fidelity_converged else "  (not converged)"))
        print(f"fidelity_upper     = {_fmt(report.fidelity_upper)}")
    print(f"ccn_flag           = {str(report.ccn_flag).lower()}")
    print(f"ppt_flag           = {str(report.ppt_flag).lower()}")
    print(f"distillable_flag   = {str(report.distillable_flag).lower()}")
    for note in report.notes:
        print(f"note: {note}")


def cmd_analyze(args) -> int:
    _check_seed(args.seed, "--seed")
    _check_restarts(args.restarts)
    if _looks_like_path(args.input):
        op = load_state_file(args.input, relax=args.relax)
    else:
        spec = parse_family(args.input)
        op = make_state(spec)
        if args.relax:
            op = TraceClassOperator(op.dim_a, op.dim_b, op.mat)
    if args.relax:
        return _analyze_relaxed(op, args)
    report = full_report(op, restarts=args.restarts, seed=args.seed)
    if args.json:
        print(json.dumps(_report_dict(report), indent=2))
    else:
        _print_report(report)
    return 0


def _analyze_relaxed(op: TraceClassOperator, args) -> int:
    """Reduced report for operators that need not be states."""
    tau = ccn_value(op)
    out = {"dims": [op.dim_a, op.dim_b], "kind": "trace-class", "tau": tau}
    if op.dim_a == op.dim_b:
        tr = realigned_trace(op)
        opt = fidelity_optimize(op, restarts=args.restarts, seed=args.seed)
        out.update(
            realigned_trace_re=tr.real,
            realigned_trace_im=tr.imag,
            fidelity_best=opt.value,
            fidelity_upper=tau / op.dim_a,
            fidelity_converged=opt.converged,
        )
    if args.json:
        print(json.dumps(out, indent=2))
    else:
        print(f"dims               = {op.dim_a} x {op.dim_b}  (trace-class)")
        print(f"tau (ccn value)    = {_fmt(tau)}")
        if op.dim_a == op.dim_b:
            print(f"realigned_trace    = {_fmt(out['realigned_trace_re'])}"
                  f" + {_fmt(out['realigned_trace_im'])}i")
            print(f"fidelity_best      = {_fmt(out['fidelity_best'])}"
                  + ("" if opt.converged else "  (not converged)"))
            print(f"fidelity_upper     = {_fmt(out['fidelity_upper'])}")
    return 0


# --- scan --------------------------------------------------------------------


def _parse_range(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--range must be lo:hi:steps, got {text!r}")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError(
            f"--range needs numeric lo and hi and an integer step count, got {text!r}"
        ) from None
    # a finite span keeps np.linspace from overflowing
    if not np.isfinite([lo, hi, hi - lo]).all():
        raise ValueError(f"--range bounds must be finite with a finite span, got {text!r}")
    if steps < 1:
        raise ValueError(f"--range needs at least one step, got {steps}")
    return lo, hi, steps


# each scan CSV column after "param", with the CriterionReport field it holds
_CSV_FIELDS = {
    "tau": "tau", "ppt_min_eig": "ppt_min_eig", "fid_lower": "fidelity_lower",
    "fid_best": "fidelity_best", "fid_upper": "fidelity_upper", "ccn_flag": "ccn_flag",
    "ppt_flag": "ppt_flag", "distill_flag": "distillable_flag",
}


def _csv_cells(column, n: int) -> list[str]:
    """The CSV cells of a kernel column: 1 or 0 for a flag, the round-trip
    repr of a float, and nan at each of the n points if it is None."""
    if column is None:
        return ["nan"] * n
    if column.dtype == bool:
        return ["1" if flag else "0" for flag in column.tolist()]
    return list(map(repr, column.tolist()))


# levels of bisection midpoints built as one stack: 7 midpoints cost about as
# much as one at d = 2 and 3, and stacks of 15 or 31 were no faster
_BISECT_LEVELS = 3


def ccn_threshold(spec: FamilySpec, key: str, lo: float, hi: float,
                  tau_lo: float | None = None, tau_hi: float | None = None) -> float | None:
    """Bisect tau(parameter) = 1 between lo and hi, in either order; None
    without a sign change.  ``key`` names a float parameter.
    An end within the flag margin TOL_FLAG of tau = 1 is itself the crossing.
    ``tau_lo`` and ``tau_hi`` are tau at the ends when already known, as in a
    scan's rows; an end without one is built like every midpoint.

    The midpoints of the next _BISECT_LEVELS levels are built, checked and
    realigned as one stack, and the bisection then walks them: it visits the
    same midpoints, stops and signs as one midpoint at a time would."""
    if param_kind(spec, key) is int:
        raise ValueError(f"parameter '{key}' is an integer: no value lies between two of its values")

    def excess(values: list[float]) -> list[float]:
        # make_state and ccn_value on one stack: the same checks, messages
        # and tau, without a DensityMatrix
        values = np.array(values)
        _check_grid(spec, key, values)
        da, db, mats = _family_stack(spec, key, values)
        _check_states(mats)
        return (_ccn_values(mats, da, db) - 1.0).tolist()

    f_lo = excess([lo])[0] if tau_lo is None else tau_lo - 1.0
    f_hi = excess([hi])[0] if tau_hi is None else tau_hi - 1.0
    if abs(f_lo) <= TOL_FLAG:
        return lo
    if abs(f_hi) <= TOL_FLAG:
        return hi
    if np.sign(f_lo) == np.sign(f_hi):
        return None
    known: dict[float, float] = {}
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if abs(hi - lo) <= TOL_BISECT:
            break
        if mid not in known:
            # the next levels' midpoints, level by level
            ends, mids = [lo, hi], []
            for _ in range(_BISECT_LEVELS):
                level = [(a + b) / 2.0 for a, b in zip(ends, ends[1:])]
                mids += level
                ends = [*chain.from_iterable(zip(ends, level)), hi]
            known = dict(zip(mids, excess(mids)))
        if np.sign(known[mid]) == np.sign(f_lo):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def _scan_chunks(spec: FamilySpec, key: str, values: np.ndarray):
    """The states of spec with parameter key at each of the grid values, as
    checked stacks (da, db, mats, eigs) in chunks of _chunks, in order.

    Every value is checked here, before any matrix is built: the first that
    the family rejects raises replace_param's error.  The stacks are built as
    they are consumed.  A float parameter's chunk is one broadcast of its
    family's matrix over a slice of the grid; an integer parameter can change
    the shape or the random draws, so its points are built one by one.
    """
    if param_kind(spec, key) is int:
        specs = [replace_param(spec, key, float(v)) for v in values]
        built = (_family_matrix(point) for point in specs)
        stacks = ((da, db, np.stack([mat for _, _, mat in chunk]))
                  for (da, db), chunk in _chunks(built, lambda item: item[:2]))
    else:
        size = _chunk_points(*_check_grid(spec, key, values))
        stacks = (_family_stack(spec, key, values[i:i + size])
                  for i in range(0, len(values), size))
    return ((da, db, mats, _check_states(mats)) for da, db, mats in stacks)


def cmd_scan(args) -> int:
    spec = parse_family(args.family)
    lo, hi, steps = _parse_range(args.range)
    values = np.linspace(lo, hi, steps)
    chunks = _scan_chunks(spec, args.param, values)
    _check_restarts(args.restarts)
    if args.out:
        # a bad path fails here, before any numerics; "a" keeps an existing
        # file as it is until the scan has succeeded
        open(args.out, "a", encoding="utf-8").close()

    # the CSV a column at a time, from the column kernel: no report, no note
    cells: dict[str, list[str]] = {name: [] for name in _CSV_FIELDS}
    for _, _, mats, columns, _ in _stacked_columns(chunks, args.restarts, seed=0):
        for name, field in _CSV_FIELDS.items():
            cells[name] += _csv_cells(columns[field], len(mats))
    lines = [",".join(["param", *_CSV_FIELDS])]
    lines += map(",".join, zip(_csv_cells(values, steps), *cells.values()))
    # no value lies between two consecutive integers, so there is nothing to
    # bisect; a tau cell is a round-trip repr, so it gives tau back bit for bit
    bisect = param_kind(spec, args.param) is not int
    flags, taus = cells["ccn_flag"], cells["tau"]
    for i in range(steps - 1):
        if bisect and flags[i] != flags[i + 1]:
            crossing = ccn_threshold(spec, args.param, float(values[i]), float(values[i + 1]),
                                     float(taus[i]), float(taus[i + 1]))
            if crossing is not None:
                lines.append(f"# ccn-threshold {args.param} = {crossing!r}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


# --- verify ------------------------------------------------------------------


def cmd_verify(args) -> int:
    _check_seed(args.seed, "--seed")
    if args.n < 1:
        raise ValueError(f"-n must be at least 1, got {args.n}")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    failed = False
    for name in names:
        checks = SUITES[name](args.seed, args.n)
        for check in checks:
            status = "PASS" if check.passed else "FAIL"
            line = (
                f"[{name}] {check.name}: {status} "
                f"(worst slack {check.worst:.3e}, tol {check.tol:g})"
            )
            if not check.passed and check.instance is not None:
                line += (
                    f"; instance {check.instance}: replay with sepscope verify {name} "
                    f"--seed {args.seed} -n {check.instance + 1}"
                )
            print(line)
            failed = failed or not check.passed
        print(f"suite {name}: {'PASS' if all(c.passed for c in checks) else 'FAIL'}")
    return 1 if failed else 0


# --- entry -------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and then kept: parsing
    leaves it unchanged, and main needs it once per command."""
    parser = argparse.ArgumentParser(
        prog="sepscope",
        description="Entanglement detection via realignment, partial transpose, "
        "and fidelity bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="run every criterion on one state")
    p_an.add_argument("input", help="family text (e.g. werner:d=2,p=0.4) or JSON state file")
    p_an.add_argument("--relax", action="store_true",
                      help="accept non-state trace-class operators")
    p_an.add_argument("--json", action="store_true", help="emit the report as JSON")
    p_an.add_argument("--restarts", type=int, default=16,
                      help="fidelity optimizer restarts (default 16)")
    p_an.add_argument("--seed", type=int, default=0, help="optimizer seed (default 0)")
    p_an.set_defaults(func=cmd_analyze)

    p_sc = sub.add_parser("scan", help="sweep one family parameter, emit CSV")
    p_sc.add_argument("family", help="family template, e.g. werner:d=2,p=0")
    p_sc.add_argument("--param", required=True, help="scalar parameter to sweep")
    p_sc.add_argument("--range", required=True,
                      help="lo:hi:steps, e.g. --range 0:1:101 or --range -0.2:0.2:41")
    p_sc.add_argument("--out", help="CSV output path (default stdout)")
    p_sc.add_argument("--restarts", type=int, default=16,
                      help="fidelity optimizer restarts per point (default 16)")
    p_sc.set_defaults(func=cmd_scan)

    p_ve = sub.add_parser("verify", help="run seeded property suites")
    p_ve.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p_ve.add_argument("--seed", type=int, default=7, help="suite seed (default 7)")
    p_ve.add_argument("-n", type=int, default=100,
                      help="random instances per suite (default 100)")
    p_ve.set_defaults(func=cmd_verify)
    return parser


def _join_range(argv: list[str]) -> list[str]:
    """scan's argv with '--range -lo:hi:steps' read as '--range=-lo:hi:steps':
    argparse takes a token that starts with '-' for an option unless it is a
    plain negative number, and no option contains ':'."""
    if argv[:1] != ["scan"]:
        return argv
    joined: list[str] = []
    for token in argv:
        if joined[-1:] == ["--range"] and token.startswith("-") and ":" in token:
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_range(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
