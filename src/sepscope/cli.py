"""Command-line interface: analyze states, sweep families, run verification.

Exit codes: 0 success, 1 verification-suite failure, 2 input or validation
error.  Numbers print with 12 significant digits; CSV cells use full
round-trip formatting so sweep output is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from .criteria import CriterionReport, fidelity_optimize, full_report, full_reports, realigned_trace
from .linalg import DensityMatrix, TraceClassOperator
from .realign import ccn_value
from .states import FamilySpec, make_state, param_kind, parse_family, replace_param
from .verify import SUITES, run_suites


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
    mat = np.zeros((side, side), dtype=np.complex128)
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
            mat[i, j] = complex(cell[0], cell[1])
    cls = TraceClassOperator if relax else DensityMatrix
    return cls(dims[0], dims[1], mat)


def save_state_file(path: str, op) -> None:
    """Write a state (or trace-class operator) in the JSON schema above."""
    side = op.dim_a * op.dim_b
    rows = [
        [[float(op.mat[i, j].real), float(op.mat[i, j].imag)] for j in range(side)]
        for i in range(side)
    ]
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
    if _looks_like_path(args.input):
        op = load_state_file(args.input, relax=args.relax)
    else:
        spec = parse_family(args.input)
        op = make_state(spec)
        if args.relax:
            op = TraceClassOperator(op.dim_a, op.dim_b, op.mat)
    if isinstance(op, TraceClassOperator):
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
        d = op.dim_a
        tr = realigned_trace(op)
        opt = fidelity_optimize(op, restarts=args.restarts, seed=args.seed)
        out.update(
            realigned_trace_re=tr.real,
            realigned_trace_im=tr.imag,
            fidelity_best=opt.value,
            fidelity_upper=tau / d,
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
            print(f"fidelity_best      = {_fmt(out['fidelity_best'])}")
            print(f"fidelity_upper     = {_fmt(out['fidelity_upper'])}")
    return 0


# --- scan --------------------------------------------------------------------


def _parse_range(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must be lo:hi:steps, got {text!r}")
    lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    if steps < 1:
        raise ValueError(f"range needs at least one step, got {steps}")
    return lo, hi, steps


def _csv_cell(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, bool):
        return "1" if value else "0"
    return repr(float(value))


def ccn_threshold(
    spec: FamilySpec, key: str, lo: float, hi: float, xtol: float = 1e-9
) -> float | None:
    """Bisect tau(parameter) = 1 inside [lo, hi]; None without a sign change."""

    def excess(value: float) -> float:
        return ccn_value(make_state(replace_param(spec, key, value))) - 1.0

    f_lo, f_hi = excess(lo), excess(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if np.sign(f_lo) == np.sign(f_hi):
        return None
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if hi - lo <= xtol:
            break
        if np.sign(excess(mid)) == np.sign(f_lo):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def cmd_scan(args) -> int:
    spec = parse_family(args.family)
    lo, hi, steps = _parse_range(args.range)
    values = np.linspace(lo, hi, steps)
    specs = [replace_param(spec, args.param, float(v)) for v in values]

    reports = full_reports((make_state(s) for s in specs), restarts=args.restarts, seed=0)

    lines = ["param,tau,ppt_min_eig,fid_lower,fid_best,fid_upper,ccn_flag,ppt_flag,distill_flag"]
    for value, rep in zip(values, reports):
        lines.append(
            ",".join(
                [
                    _csv_cell(float(value)),
                    _csv_cell(rep.tau),
                    _csv_cell(rep.ppt_min_eig),
                    _csv_cell(rep.fidelity_lower),
                    _csv_cell(rep.fidelity_best),
                    _csv_cell(rep.fidelity_upper),
                    _csv_cell(rep.ccn_flag),
                    _csv_cell(rep.ppt_flag),
                    _csv_cell(rep.distillable_flag),
                ]
            )
        )
    # no value lies between two consecutive integers, so there is nothing to bisect
    bisect = param_kind(spec, args.param) is not int
    for i in range(steps - 1):
        if bisect and reports[i].ccn_flag != reports[i + 1].ccn_flag:
            crossing = ccn_threshold(spec, args.param, float(values[i]), float(values[i + 1]))
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
    if args.n < 1:
        raise ValueError(f"-n must be at least 1, got {args.n}")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    failed = False
    for name, checks in run_suites(names, args.seed, args.n):
        for check in checks:
            status = "PASS" if check.passed else "FAIL"
            print(
                f"[{name}] {check.name}: {status} "
                f"(worst slack {check.worst:.3e}, tol {check.tol:g})"
            )
            failed = failed or not check.passed
        print(f"suite {name}: {'PASS' if all(c.passed for c in checks) else 'FAIL'}")
    return 1 if failed else 0


# --- entry -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
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
    p_sc.add_argument("--range", required=True, help="lo:hi:steps")
    p_sc.add_argument("--out", help="CSV output path (default stdout)")
    p_sc.add_argument("--jobs", type=int, default=1,
                      help="ignored; points are always evaluated serially")
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
