"""Command-line interface: analyze, scan, verify, state files."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepscope import cli, criteria, states
from sepscope.cli import ccn_threshold, load_state_file, main, save_state_file
from sepscope.criteria import _CHUNK_POINTS, _chunk_points, _chunks, full_report
from sepscope.linalg import TOL_BISECT, TOL_FLAG, TraceClassOperator, _check_states
from sepscope.realign import _ccn_values, ccn_value
from sepscope.states import (
    Isotropic,
    RandomState,
    RhoP,
    Werner,
    counterexample_spectra,
    Counterexample,
    make_state,
    parse_family,
    psi_plus,
    replace_param,
    rho_p_threshold,
    swap_operator,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _csv_cell(value) -> str:
    """One scan CSV cell of a report field, formatted on its own: the
    reference for the column writer, cli._csv_cells."""
    if value is None:
        return "nan"
    if isinstance(value, bool):
        return "1" if value else "0"
    return repr(float(value))


def test_csv_columns_match_the_per_cell_reference():
    floats = np.array([0.0, -0.0, 0.1 + 0.2, 1 / 3, 1e-300, -2.5e17, 1.0 + 2.0**-52, 5e-324])
    flags = np.array([True, False, False, True, True, False, True, False])
    for column in (floats, flags):
        assert cli._csv_cells(column, len(column)) == [_csv_cell(v) for v in column.tolist()]
    assert cli._csv_cells(None, 3) == [_csv_cell(None)] * 3


def test_analyze_counterexample(capsys):
    code, out, _ = run(capsys, "analyze", "counterexample:s=0.5,r=0.25,t=0.0625")
    assert code == 0
    assert "ccn_flag           = false" in out
    assert "ppt_flag           = true" in out
    assert "tau (ccn value)    = 0.946383476483" in out


def test_analyze_maximally_entangled_pure(capsys):
    code, out, _ = run(capsys, "analyze", "pure:a=0.5,0.5", "--restarts", "4")
    assert code == 0
    assert "tau (ccn value)    = 2" in out
    assert "fidelity_best      = 1" in out


@pytest.mark.parametrize("family, message", [
    ("pure:a=0.7,0.4", "pure Schmidt coefficients a sum to 1.1, not 1"),
    ("pure:a=1.2,-0.2", "pure Schmidt coefficients a must be >= 0, got -0.2"),
    ("rhop:a=0.7,0.4;p=0.5", "rhop Schmidt coefficients a sum to 1.1, not 1"),
    ("rhop:a=1.2,-0.2;p=0.5", "rhop Schmidt coefficients a must be >= 0, got -0.2"),
    ("rhop:a=0.2,0.3,0.5;p=0.5", "rhop needs exactly 2 Schmidt coefficients a, got 3"),
])
def test_schmidt_errors_name_the_family_and_key(capsys, family, message):
    assert run(capsys, "analyze", family) == (2, "", f"error: {message}\n")


def test_analyze_maximally_mixed(capsys):
    code, out, _ = run(capsys, "analyze", "werner:d=2,p=0")
    assert code == 0
    for flag in ("ccn_flag", "ppt_flag", "distillable_flag"):
        assert f"{flag}" in out
    assert "= true" not in out


@pytest.mark.parametrize("family", ["pure:a=1", "random:da=1,db=1"])
def test_analyze_single_level_subsystems(capsys, family):
    code, out, _ = run(capsys, "analyze", family, "--json", "--restarts", "2")
    assert code == 0
    data = json.loads(out)
    assert data["dims"] == [1, 1]
    assert data["tau"] == pytest.approx(1.0, abs=1e-12)
    assert data["max_disordered"] and data["t_psd"]
    assert not (data["ccn_flag"] or data["ppt_flag"] or data["distillable_flag"])


def test_analyze_json_output(capsys):
    code, out, _ = run(capsys, "analyze", "isotropic:d=2,F=0.95", "--json", "--restarts", "2")
    assert code == 0
    data = json.loads(out)
    assert data["ccn_flag"] and data["ppt_flag"] and data["distillable_flag"]
    assert data["tau"] == pytest.approx(2 * 0.95, abs=1e-10)
    assert data["realigned_trace"] == pytest.approx(2 * 0.95, abs=1e-10)
    # the werner singlet mixture has almost no overlap with |psi+>, but its
    # fidelity with the singlet, (1 + 3p)/4 > 1/2, certifies distillability
    code, out, _ = run(capsys, "analyze", "werner:d=2,p=0.9", "--json", "--restarts", "2")
    data = json.loads(out)
    assert data["realigned_trace"] < 1
    assert data["ccn_flag"] and data["ppt_flag"] and data["distillable_flag"]
    assert data["tau"] == pytest.approx((1 + 3 * 0.9) / 2, abs=1e-10)
    assert data["fidelity_best"] == pytest.approx((1 + 3 * 0.9) / 4, abs=1e-10)


def test_analyze_parse_failure(capsys):
    code, _, err = run(capsys, "analyze", "werner:d=2,p=7")
    assert code == 2
    assert "outside" in err


def test_state_file_round_trip(tmp_path, capsys):
    rho = make_state(Werner(2, 0.8))
    path = tmp_path / "state.json"
    save_state_file(str(path), rho)
    loaded = load_state_file(str(path))
    np.testing.assert_allclose(loaded.mat, rho.mat, atol=0)
    code, out, _ = run(capsys, "analyze", str(path), "--restarts", "2")
    assert code == 0
    assert "ccn_flag           = true" in out


def test_state_file_validation_messages(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dims": [2, 1], "matrix": [[[0.5, 0], [1, 0]], [[0, 0], [0.5, 0]]]}')
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert "Hermitian" in err
    # same operator is allowed under --relax
    code, out, _ = run(capsys, "analyze", str(bad), "--relax")
    assert code == 0
    assert "trace-class" in out

    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"dims": [2, 1], "matrix": [[[0.5], [0, 0]], [[0, 0], [0.5, 0]]]}')
    code, _, err = run(capsys, "analyze", str(malformed))
    assert code == 2
    assert "two-element" in err

    not_json = tmp_path / "broken.json"
    not_json.write_text("{")
    code, _, err = run(capsys, "analyze", str(not_json))
    assert code == 2


@pytest.mark.parametrize("matrix, message", [
    # the first bad row or cell in row-major order is named, whatever follows it
    ('[[[0.5, 0], [1]], [[true, 0], [0.5, 0]]]', "matrix entry (0, 1) must be a two-element"),
    ('[[[0.5, 0], [1e999999999, 0]], [[0, 0], [0.5]]]', "matrix entry (1, 1) must be a two-element"),
    ('[[[0.5, 0], [1' + '0' * 400 + ', 0]], [[0, "0"], [0.5, 0]]]',
     "matrix entry (0, 1) is too large for a float"),
    ('[[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0], [0, 0]]]', "matrix row 1 must have 2 entries"),
    ('[[[0.5, 0], [0, 0]], [[0, null], [0.5, 0], [0, 0]]]', "matrix row 1 must have 2 entries"),
    ('[[[0.5, 0], [0, 0, 0]], [[0, null], [0.5, 0], [0, 0]]]',
     "matrix entry (0, 1) must be a two-element"),
])
def test_state_file_names_its_first_bad_cell(tmp_path, capsys, matrix, message):
    path = tmp_path / "bad.json"
    path.write_text('{"dims": [2, 1], "matrix": ' + matrix + '}')
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: " + message), err


def test_state_file_keeps_every_cell_exactly(tmp_path):
    # integers, signed zeros, a subnormal and the largest float are stored as
    # complex(re, im) stores them
    cells = [[[1, -0.0], [-0.0, 5e-324]], [[-0.0, -5e-324], [1.7976931348623157e308, 0]]]
    path = tmp_path / "cells.json"
    path.write_text(json.dumps({"dims": [2, 1], "matrix": cells}))
    want = np.array([[complex(*cell) for cell in row] for row in cells])
    assert load_state_file(str(path), relax=True).mat.tobytes() == want.tobytes()


@pytest.mark.parametrize("text, message", [
    ('{"dims": [true, 1], "matrix": [[[1, 0]]]}', "'dims' must be two positive integers"),
    ('{"dims": [1, 1], "matrix": [[[true, 0]]]}', "matrix entry (0, 0) must be a two-element"),
    ('{"dims": [1, 1], "matrix": [[[1, false]]]}', "matrix entry (0, 0) must be a two-element"),
    # an integer too large for a float
    pytest.param('{"dims": [1, 1], "matrix": [[[1' + '0' * 400 + ', 0]]]}',
                 "matrix entry (0, 0)", id="int-overflow"),
])
@pytest.mark.parametrize("relax", [False, True])
def test_state_file_rejects_booleans(tmp_path, capsys, text, message, relax):
    # JSON true and false are Python bools, which isinstance counts as ints;
    # a JSON integer may also be beyond any float
    path = tmp_path / "bools.json"
    path.write_text(text)
    code, _, err = run(capsys, "analyze", str(path), *(["--relax"] if relax else []))
    assert code == 2
    assert message in err


def test_analyze_relax_family(capsys):
    code, out, _ = run(capsys, "analyze", "pure:a=0.5,0.5", "--relax", "--restarts", "2")
    assert code == 0
    assert "trace-class" in out


def test_analyze_relax_prints_a_negative_imaginary_part_with_a_minus(tmp_path, capsys):
    # the text report writes a - bi where the JSON keeps the signed value
    mat = np.zeros((4, 4), dtype=np.complex128)
    mat[0, 0] = mat[3, 3] = 0.5
    mat[0, 3], mat[3, 0] = -0.4j, 0.1
    path = tmp_path / "op.json"
    save_state_file(str(path), TraceClassOperator(2, 2, mat))
    code, out, _ = run(capsys, "analyze", str(path), "--relax")
    assert code == 0
    assert "realigned_trace    = 1.1 - 0.4i" in out.splitlines()
    code, out, _ = run(capsys, "analyze", str(path), "--relax", "--json")
    data = json.loads(out)
    assert (data["realigned_trace_re"], data["realigned_trace_im"]) == (1.1, -0.4)
    # a state's realigned trace is real, and still prints + 0i
    code, out, _ = run(capsys, "analyze", "werner:d=2,p=0.7", "--relax")
    assert "realigned_trace    = 0.15 + 0i" in out.splitlines()


def test_analyze_relax_marks_an_unconverged_fidelity(capsys, monkeypatch):
    # the text report marks fidelity_best as the JSON's fidelity_converged does;
    # one round of the joint ascent does not converge on this operator
    code, out, _ = run(capsys, "analyze", "isotropic:d=3,F=0.11", "--relax")
    assert code == 0 and "fidelity_best" in out and "not converged" not in out
    monkeypatch.setattr(criteria, "_ASCENT_MAX_ITER", criteria._RELAX_ROUND)
    for flags in (["--json"], []):
        code, out, _ = run(capsys, "analyze", "random:da=3,db=3,seed=2", "--relax", *flags)
        assert code == 0
        if flags:
            assert json.loads(out)["fidelity_converged"] is False
        else:
            (line,) = [ln for ln in out.splitlines() if ln.startswith("fidelity_best")]
            assert line.endswith("  (not converged)")


def test_scan_werner_crossing(tmp_path, capsys):
    out_file = tmp_path / "werner.csv"
    code, _, _ = run(
        capsys,
        "scan", "werner:d=2,p=0", "--param", "p", "--range", "0:1:21",
        "--restarts", "2", "--out", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "param,tau,ppt_min_eig,fid_lower,fid_best,fid_upper,ccn_flag,ppt_flag,distill_flag"
    assert len([ln for ln in lines if not ln.startswith("#")]) == 22
    crossings = [ln for ln in lines if ln.startswith("# ccn-threshold")]
    assert len(crossings) == 1
    value = float(crossings[0].split("=")[1])
    assert value == pytest.approx(1 / 3, abs=1e-6)


def test_scan_counterexample_linear_in_t(capsys):
    code, out, _ = run(
        capsys,
        "scan", "counterexample:s=0.5,r=0.25,t=0", "--param", "t",
        "--range", "0:0.1:6", "--restarts", "2",
    )
    assert code == 0
    g = counterexample_spectra(Counterexample(0.5, 0.25, 0.0)).g
    rows = [ln for ln in out.splitlines()[1:] if not ln.startswith("#")]
    for row in rows:
        cells = row.split(",")
        t_val, tau = float(cells[0]), float(cells[1])
        assert tau == pytest.approx(g + t_val, abs=1e-10)


def test_scan_rho_p_crossing(capsys):
    code, out, _ = run(
        capsys,
        "scan", "rhop:a=0.9,0.1;p=0", "--param", "p", "--range", "0:1:11",
        "--restarts", "2",
    )
    assert code == 0
    crossing = [ln for ln in out.splitlines() if ln.startswith("# ccn-threshold")]
    value = float(crossing[0].split("=")[1])
    assert value == pytest.approx(rho_p_threshold((0.9, 0.1)), abs=1e-6)


def test_scan_deterministic_and_parallel(tmp_path, capsys):
    args = ["scan", "random:da=2,db=2,seed=3", "--param", "seed", "--range",
            "1:5:5", "--restarts", "2"]
    code, out1, _ = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)
    assert out1 == out2
    # the no-op --jobs option is gone; argparse rejects it
    with pytest.raises(SystemExit) as exc:
        main([*args, "--jobs", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("family", ["pure:a=0.5,0.5", "maxdis:t=0.5,-0.5,0.5",
                                    "belldiag:p=0.6,0.2,0.1,0.1"])
def test_scan_family_without_scalar_parameter(capsys, family):
    code, out, err = run(capsys, "scan", family, "--param", "x", "--range", "0:1:5")
    name = family.split(":")[0]
    assert (code, out) == (2, "")
    assert err == f"error: {name}: no scalar parameter 'x' (the family has none)\n"


def test_scan_argument_errors(capsys):
    code, _, err = run(capsys, "scan", "werner:d=2,p=0", "--param", "q",
                       "--range", "0:1:5")
    assert code == 2 and "no scalar parameter" in err
    code, _, err = run(capsys, "scan", "werner:d=2,p=0", "--param", "p",
                       "--range", "0:1:0")
    assert code == 2 and "at least one step" in err
    code, _, err = run(capsys, "scan", "werner:d=2,p=0", "--param", "p",
                       "--range", "0:1")
    assert code == 2 and "lo:hi:steps" in err
    for family, param, text, message in (
        ("werner:d=2,p=0", "p", "0:inf:3", "finite"),
        ("werner:d=2,p=0", "p", "-1e308:1e308:3", "finite span"),
        ("random:da=2,db=2,seed=3", "seed", "nan:3:3", "finite"),
        ("werner:d=2,p=0", "p", "a:1:3", "integer step count"),
        ("werner:d=2,p=0", "p", "0:1:1e3", "integer step count"),
        ("werner:d=2,p=0", "p", "0:1:2.5", "integer step count"),
    ):
        code, out, err = run(capsys, "scan", family, "--param", param, f"--range={text}")
        assert code == 2 and out == "" and "--range" in err and message in err, err
    # a huge dimension is refused by the family before any numerics run
    for family, param, text, message in (
        ("werner:d=2,p=0", "d", "2:1e18:2", "werner d = 1000000000000000000"),
        ("isotropic:d=2,F=0.5", "d", "1e18:2:2", "isotropic d = 1000000000000000000"),
        ("random:da=2,db=2", "db", "2:1e12:2", "random da = 2, db = 1000000000000"),
    ):
        code, out, err = run(capsys, "scan", family, "--param", param, f"--range={text}")
        assert code == 2 and out == "" and message in err and "too large" in err, err
    for family, message in (
        ("werner:d=1000000000000000000,p=0", "werner d = 1000000000000000000"),
        ("isotropic:d=1000000000000000000,F=0.5", "isotropic d = 1000000000000000000"),
        ("random:da=1000000000000,db=1", "random da = 1000000000000, db = 1"),
    ):
        code, out, err = run(capsys, "analyze", family)
        assert code == 2 and out == "" and message in err and "too large" in err, err
    # a negative random seed is refused by the family, with the field named
    for argv in (
        ("analyze", "random:da=2,db=2,seed=-1"),
        ("scan", "random:da=2,db=2,seed=0", "--param", "seed", "--range=-3:-1:3"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "random seed = -" in err, err


def test_scan_range_accepts_a_spaced_negative_lo(capsys):
    base = ("scan", "werner:d=2,p=0", "--param", "p")
    spaced = run(capsys, *base, "--range", "-0.2:0.2:5")
    assert spaced == run(capsys, *base, "--range=-0.2:0.2:5")
    assert spaced[0] == 0 and spaced[1].startswith("param,") and spaced[1].count("\n") == 6
    # a bad spaced grid gets the message and exit code of the = form
    for text in ("-0.2:0.2", "-inf:0:3", "-0.2:0.2:0", "-a:1:3"):
        spaced = run(capsys, *base, "--range", text)
        assert spaced == run(capsys, *base, f"--range={text}")
        assert spaced[0] == 2 and spaced[1] == "" and "--range" in spaced[2], spaced


def test_scan_integer_parameter_across_flag_change(capsys):
    # werner p = 0.5 is CCN-entangled at d = 2 only; no value lies between two
    # integers, so the flag change is not bisected.  The points mix local
    # dimensions, and each row still matches analyze of its own state.
    code, out, err = run(capsys, "scan", "werner:d=2,p=0.5", "--param", "d",
                         "--range", "2:4:3", "--restarts", "2")
    assert code == 0, err
    header, *rows = [line.split(",") for line in out.splitlines()]
    assert [row[0] for row in rows] == ["2.0", "3.0", "4.0"]
    assert [row[header.index("ccn_flag")] for row in rows] == ["1", "0", "0"]
    for d, row in zip((2, 3, 4), rows):
        code, text, _ = run(capsys, "analyze", f"werner:d={d},p=0.5", "--json",
                            "--restarts", "2")
        data = json.loads(text)
        assert row[header.index("tau")] == _csv_cell(data["tau"])
        assert float(row[header.index("fid_best")]) == pytest.approx(
            data["fidelity_best"], abs=1e-12)


def test_scan_rows_match_analyze(capsys):
    # 21 points, so the scan's batched ascent runs in more than one chunk
    family = "counterexample:s=0.5,r=0.25,t={}"
    code, out, _ = run(capsys, "scan", family.format(0), "--param", "t",
                       "--range=-0.2:0.2:21")
    assert code == 0
    header, *rows = [line.split(",") for line in out.splitlines() if not line.startswith("#")]
    columns = {"tau": "tau", "ppt_min_eig": "ppt_min_eig", "fid_lower": "fidelity_lower",
               "fid_upper": "fidelity_upper", "ccn_flag": "ccn_flag",
               "ppt_flag": "ppt_flag", "distill_flag": "distillable_flag"}
    assert len(rows) == 21
    for row in rows:
        cells = dict(zip(header, row))
        code, text, _ = run(capsys, "analyze", family.format(cells["param"]), "--json")
        data = json.loads(text)
        for column, key in columns.items():
            assert cells[column] == _csv_cell(data[key]), (cells["param"], column)
        assert float(cells["fid_best"]) == pytest.approx(data["fidelity_best"], abs=1e-12)


@pytest.mark.parametrize("family, param, text", [
    ("isotropic:d=3,F=0", "F", "0:1:19"),  # d = 3 across a chunk boundary
    ("werner:d=2,p=0.5", "d", "2:5:4"),
    ("random:da=2,db=3,seed=0", "da", "1:3:3"),  # shape changes, with a d = 1 side
])
def test_scan_rows_match_full_report(capsys, family, param, text):
    code, out, err = run(capsys, "scan", family, "--param", param, f"--range={text}",
                         "--restarts", "4")
    assert code == 0, err
    header, *rows = [line.split(",") for line in out.splitlines() if not line.startswith("#")]
    lo, hi, steps = (float(x) for x in text.split(":"))
    assert len(rows) == steps
    columns = {"tau": "tau", "ppt_min_eig": "ppt_min_eig", "fid_lower": "fidelity_lower",
               "fid_upper": "fidelity_upper", "ccn_flag": "ccn_flag",
               "ppt_flag": "ppt_flag", "distill_flag": "distillable_flag"}
    spec = parse_family(family)
    for value, row in zip(np.linspace(lo, hi, int(steps)), rows):
        cells = dict(zip(header, row))
        assert cells["param"] == _csv_cell(value)
        report = full_report(make_state(replace_param(spec, param, float(value))), restarts=4)
        for column, key in columns.items():
            assert cells[column] == _csv_cell(getattr(report, key)), (value, column)
        if report.fidelity_best is None:
            assert cells["fid_best"] == "nan"
        else:
            assert float(cells["fid_best"]) == pytest.approx(report.fidelity_best, abs=1e-12)


def test_scan_checks_each_chunk_in_one_stack(monkeypatch):
    # consecutive states of one shape are checked together, at most
    # _chunk_points(da, db) at a time, and each equals make_state of its spec
    # bit for bit
    sizes = []

    def spy(mats):
        sizes.append(len(mats))
        return _check_states(mats)

    monkeypatch.setattr(cli, "_check_states", spy)
    cases = [
        ("werner:d=2,p=0", "p", np.linspace(-1 / 3, 1, 20)),
        ("werner:d=2,p=0.5", "d", [2, 3, 3, 2]),
        ("isotropic:d=3,F=0", "F", np.linspace(0, 1, 17)),
        ("rhop:a=0.7,0.3;p=0", "p", np.linspace(-1 / 3, 1, 5)),
        ("counterexample:s=0.5,r=0.25,t=0", "t", np.linspace(-0.2, 0.2, 5)),
        ("counterexample:s=0.5,r=0.25,t=0.01", "s", [0.4, 0.5]),
        ("counterexample:s=0.5,r=0.25,t=0.01", "r", [0.2, 0.3]),
        ("random:da=2,db=2,seed=0", "seed", range(35)),
        ("random:da=3,db=3,seed=4", "rank", range(1, 10)),
        ("random:da=2,db=3,seed=1", "da", [1, 2, 3, 3]),
        ("random:da=2,db=3,seed=1", "db", [1, 1, 2, 4]),
    ]
    for family, param, values in cases:
        spec, values = parse_family(family), np.array(values, dtype=float)
        specs = [replace_param(spec, param, float(v)) for v in values]
        sizes.clear()
        chunks = list(cli._scan_chunks(spec, param, values))
        assert sizes == [len(mats) for _, _, mats, _ in chunks]
        assert sizes and all(len(mats) <= _chunk_points(da, db) for da, db, mats, _ in chunks)
        points = [(da, db, mat, eig) for da, db, mats, eigs in chunks
                  for mat, eig in zip(mats, eigs)]
        assert len(points) == len(specs)
        for spec, (da, db, mat, eig) in zip(specs, points):
            want = make_state(spec)
            assert (da, db) == (want.dim_a, want.dim_b)
            assert mat.tobytes() == want.mat.tobytes()
            assert eig.tobytes() == np.linalg.eigvalsh(mat).tobytes()
            assert eig.tobytes() == want._eigs.tobytes()
    # 35 seeds at d = 3, which runs the ascent, make chunks of 16, 16 and 3;
    # at d = 2, and at 2 x 3, they make one chunk
    for shape, want in (((3, 3), [16, 16, 3]), ((2, 2), [35]), ((2, 3), [35])):
        sizes.clear()
        chunks = cli._scan_chunks(RandomState(*shape), "seed", np.arange(35.0))
        assert [(da, db) for da, db, _, _ in chunks] == [shape] * len(want)
        assert sizes == want
    # a float parameter's grid is cut the same way: 35 points at d = 3 make
    # chunks of 16, 16 and 3, and 5000 at d = 2 chunks of 4096 and 904
    for family, param, count, want in (("isotropic:d=3,F=0", "F", 35, [16, 16, 3]),
                                       ("werner:d=2,p=0", "p", 5000, [4096, 904])):
        sizes.clear()
        assert len(list(cli._scan_chunks(parse_family(family), param,
                                         np.linspace(0, 1, count)))) == len(want)
        assert sizes == want
    # a chunk without an ascent holds as many entries as 16 states at d = 8,
    # and never fewer than 16 states
    assert _chunk_points(3, 3) == _chunk_points(8, 8) == _CHUNK_POINTS == 16
    assert [_chunk_points(*dims) for dims in ((2, 2), (2, 3), (2, 8), (4, 16), (8, 16))] == [
        4096, 1820, 256, 16, 16]


def _scan_taus(capsys, family, param, text):
    """(grid values, tau column) of a one-restart scan."""
    code, out, err = run(capsys, "scan", family, "--param", param, f"--range={text}",
                         "--restarts", "1")
    assert code == 0, err
    rows = [line.split(",") for line in out.splitlines()[1:] if not line.startswith("#")]
    return [float(row[0]) for row in rows], [float(row[1]) for row in rows]


_THRESHOLD_GRIDS = [
    ("werner:d=2,p=0", "p", "0:1:101"),
    ("counterexample:s=0.5,r=0.25,t=0", "t", "-0.2:0.2:101"),
    *((family, param, f"0:1:{steps}")
      for family, param in (("werner:d=2,p=0", "p"), ("isotropic:d=3,F=0", "F"))
      for steps in (4, 10, 13, 31, 61)),
    ("werner:d=3,p=0", "p", "0:1:41"),
]


@pytest.mark.parametrize("family,param,text", _THRESHOLD_GRIDS)
def test_scan_taus_equal_ccn_value_of_make_state(capsys, family, param, text):
    # the bisection takes its ends' tau from the scan's rows, which is sound
    # only because each row's tau is ccn_value(make_state(spec)) bit for bit
    spec = parse_family(family)
    values, taus = _scan_taus(capsys, family, param, text)
    for value, tau in zip(values, taus):
        assert tau == ccn_value(make_state(replace_param(spec, param, value))), value
    crossings = 0
    for i in range(len(values) - 1):
        lo, hi = values[i], values[i + 1]
        if (taus[i] > 1.0 + TOL_FLAG) != (taus[i + 1] > 1.0 + TOL_FLAG):
            crossings += 1
            want = ccn_threshold(spec, param, lo, hi)
            assert ccn_threshold(spec, param, lo, hi, taus[i], taus[i + 1]) == want
    assert crossings


def _reference_family_matrix(spec):
    """_family_matrix as each family built one matrix before the broadcast
    builders: the reference for their bit-for-bit output."""
    if isinstance(spec, Werner):
        d = spec.d
        eye = np.eye(d * d, dtype=np.complex128)
        anti = (eye - swap_operator(d)) / (d * d - d)
        return d, d, spec.p * anti + (1 - spec.p) / (d * d) * eye
    if isinstance(spec, Isotropic):
        d = spec.d
        proj = np.outer(psi_plus(d), psi_plus(d).conj())
        rest = (np.eye(d * d, dtype=np.complex128) - proj) / (d * d - 1)
        return d, d, spec.fidelity * proj + (1 - spec.fidelity) * rest
    if isinstance(spec, RhoP):
        vec = states._pure_schmidt_vector(spec.coeffs)
        return 2, 2, spec.p * np.outer(vec, vec.conj()) + (1 - spec.p) / 4.0 * np.eye(4)
    return states._family_matrix(spec)


def _reference_scan_chunks(spec, key, values):
    """The scan's chunks built point by point: one spec and one matrix per
    grid value, every spec made before the first matrix."""
    specs = [replace_param(spec, key, float(v)) for v in values]

    def chunks():
        built = (_reference_family_matrix(point) for point in specs)
        for (da, db), chunk in _chunks(built, lambda item: item[:2]):
            mats = np.stack([mat for _, _, mat in chunk])
            yield da, db, mats, _check_states(mats)

    return chunks()


def _reference_ccn_threshold(spec, key, lo, hi, tau_lo=None, tau_hi=None):
    """ccn_threshold one midpoint at a time, each built as its own spec."""

    def excess(value):
        da, db, mat = _reference_family_matrix(replace_param(spec, key, value))
        mats = mat[None]
        _check_states(mats)
        return float(_ccn_values(mats, da, db)[0]) - 1.0

    f_lo = excess(lo) if tau_lo is None else tau_lo - 1.0
    f_hi = excess(hi) if tau_hi is None else tau_hi - 1.0
    if abs(f_lo) <= TOL_FLAG:
        return lo
    if abs(f_hi) <= TOL_FLAG:
        return hi
    if np.sign(f_lo) == np.sign(f_hi):
        return None
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if abs(hi - lo) <= TOL_BISECT:
            break
        if np.sign(excess(mid)) == np.sign(f_lo):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


@st.composite
def _brackets(draw):
    """(spec, key, lo, hi): a float parameter of a broadcasting family, with
    the others drawn valid, and two valid values of it in either order."""
    unit = st.floats(0.0, 1.0)
    family = draw(st.sampled_from(["werner", "isotropic", "rhop", "s", "r", "t"]))
    if family == "werner":
        d = draw(st.integers(2, 4))
        spec, key, a, b = Werner(d, 0.0), "p", -(d - 1) / (d + 1), 1.0
    elif family == "isotropic":
        spec, key, a, b = Isotropic(draw(st.integers(2, 5)), 0.0), "F", 0.0, 1.0
    elif family == "rhop":
        weight = draw(unit)
        spec, key, a, b = RhoP((weight, 1.0 - weight), 0.0), "p", -1 / 3, 1.0
    else:
        # a counterexample is a state where s > r, |s|, |r| <= 1 and
        # (1 + r)(1 - s) >= t^2; these draws keep s < 1 and each range open
        r = draw(st.floats(-0.9, 0.9))
        t = draw(st.floats(-0.99, 0.99)) * (1 - r * r) ** 0.5
        s = r + draw(st.floats(0.01, 0.99)) * (1 - t * t / (1 + r) - r)
        key = family
        if key == "s":
            a, b = r + 1e-6, 1 - t * t / (1 + r)
        elif key == "r":
            a, b = t * t / (1 - s) - 1, s - 1e-6
        else:
            b = ((1 + r) * (1 - s)) ** 0.5
            a = -b
        spec = Counterexample(s, r, t)
    lo, hi = (float(min(max(a + (b - a) * draw(unit), a), b)) for _ in range(2))
    return spec, key, lo, hi


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_brackets(), st.booleans())
def test_ccn_threshold_matches_the_one_midpoint_bisection(bracket, with_taus):
    # the predicted path only chooses which midpoints to build: every sign
    # the walk reads is computed, so it returns what bisecting one midpoint
    # at a time returns, bit for bit, from the scan's end taus or without
    spec, key, lo, hi = bracket
    taus = [None, None]
    if with_taus:
        taus = [ccn_value(make_state(replace_param(spec, key, v))) for v in (lo, hi)]
    got = ccn_threshold(spec, key, lo, hi, *taus)
    assert repr(got) == repr(_reference_ccn_threshold(spec, key, lo, hi, *taus))


_ORACLE_SCANS = [
    # the scan-small commands of workload seeds 1-3, at the default restarts
    "isotropic:d=3,F=0 --param F --range=0.0:1.0:101",
    "werner:d=2,p=0 --param p --range=0.0:1.0:101",
    *(f"rhop:a={a},{1 - a:.6f};p=0 --param p --range=0.0:1.0:101"
      for a in (0.700236, 0.695232, 0.691713)),
    *(f"counterexample:s={s},r={r},t=0 --param t --range=-0.2:0.2:101"
      for s, r in ((0.509009, 0.242883), (0.49597, 0.256285), (0.494736, 0.256025))),
    *(f"{family} --param {param} --range={text} --restarts 1"
      for family, param, text in _THRESHOLD_GRIDS),
    # descending ranges
    "isotropic:d=3,F=0 --param F --range=1:0:11 --restarts 1",
    "werner:d=2,p=0 --param p --range=1:0:101",
    "counterexample:s=0.5,r=0.25,t=0 --param t --range=0.2:-0.2:11",
    # the counterexample's other float parameters
    "counterexample:s=0.5,r=0.25,t=0.01 --param s --range=0.26:0.9:65",
    "counterexample:s=0.5,r=0.25,t=0.01 --param r --range=-0.9:0.49:140",
    # integer parameters, built point by point
    "werner:d=2,p=0.5 --param d --range=2:4:3 --restarts 2",
    "random:da=2,db=2,seed=0 --param seed --range=0:9:10",
    "random:da=2,db=3,seed=0 --param da --range=1:3:3",
    # invalid grids, which fail before any state is built
    "werner:d=2,p=0 --param p --range=-1:1:5",
    "counterexample:s=0.5,r=0.25,t=0 --param t --range=-1:1:5",
    "counterexample:s=0.5,r=0.25,t=0.01 --param s --range=0.9:1.1:3",
    "rhop:a=0.7,0.3;p=0 --param p --range=1:1.5:3",
    "isotropic:d=3,F=0 --param F --range=-0.5:0.5:3",
]


@pytest.mark.parametrize("argv", _ORACLE_SCANS)
def test_scan_matches_the_per_point_reference(capsys, monkeypatch, argv):
    # stdout, stderr and exit code are byte-identical to building a spec and
    # a matrix per grid point and bisecting one midpoint at a time
    argv = ["scan", *argv.split()]
    with monkeypatch.context() as patched:
        patched.setattr(cli, "_scan_chunks", _reference_scan_chunks)
        patched.setattr(cli, "ccn_threshold", _reference_ccn_threshold)
        want = run(capsys, *argv)
    assert run(capsys, *argv) == want
    assert want[0] == (2 if "error" in want[2] else 0), want


def test_scan_builds_each_state_once(capsys, monkeypatch):
    # a float grid is one broadcast stack, with no per-point spec or matrix;
    # the bisection builds only its midpoints, through the scan's own path.
    # tau is convex along the line, so the secant through a 0.01 bracket's
    # ends predicts every sign of its 24 halvings (22 of a 0.004 bracket):
    # one stack per crossing, where building three levels of midpoints at a
    # time took 8.  A bracket over the whole counterexample s or r range
    # takes 3 (10 and 11 before), one holding the isotropic kink at F = 1/d^2
    # 2 (10 before).  At d = 9 a stack of 9 states holds as many entries as a
    # scan chunk that runs no ascent, so the 30 halvings of [0, 1] take 4
    stacks, made = [], []

    def stack(spec, key, values):
        stacks.append(len(values))
        return family_stack(spec, key, values)

    family_stack = cli._family_stack
    monkeypatch.setattr(cli, "_family_stack", stack)
    for name in ("make_state", "_family_matrix", "replace_param"):
        monkeypatch.setattr(cli, name, lambda *args: made.append(args))
    assert criteria._bisect_points(9, 9) == 9
    for argv, lines, sizes in (
        (["werner:d=2,p=0", "--param", "p", "--range=0:1:101"],
         ["# ccn-threshold p = 0.3333333334326744"], [101, 24]),
        (["counterexample:s=0.5,r=0.25,t=0", "--param", "t", "--range=-0.2:0.2:101"],
         ["# ccn-threshold t = -0.11611652326583863",
          "# ccn-threshold t = 0.1161165232658386"], [101, 22, 22]),
        (["counterexample:s=0.5,r=0.25,t=0.01", "--param", "s", "--range=0.26:0.9:2"],
         ["# ccn-threshold s = 0.2701020458340645"], [2, 30, 22, 8]),
        (["counterexample:s=0.5,r=0.25,t=0.01", "--param", "r", "--range=-0.9:0.49:2"],
         ["# ccn-threshold r = 0.4798979535768739"], [2, 31, 25, 15]),
        (["isotropic:d=5,F=0", "--param", "F", "--range=0:1:2"],
         ["# ccn-threshold F = 0.19999999972060323"], [2, 30, 26]),
        (["werner:d=9,p=0", "--param", "p", "--range=0:1:2"],
         ["# ccn-threshold p = 0.8000000002793968"], [2, 9, 9, 9, 3]),
    ):
        stacks.clear()
        code, out, err = run(capsys, "scan", *argv, "--restarts", "1")
        assert code == 0, err
        assert [line for line in out.splitlines() if line.startswith("#")] == lines
        assert stacks == sizes and made == []


@pytest.mark.parametrize("family, key, want, sizes", [
    # the two ends, then the walk's stacks of _bisect_points midpoints: 9 at
    # d = 9 and 7 from d = 10 (a 16-state floor would build 41, not 32, at
    # isotropic d = 10)
    ("werner:d=9,p=0", "p", 0.8000000002793968, [1, 1, 9, 9, 9, 3]),
    ("isotropic:d=10,F=0", "F", 0.10000000009313226, [1, 1, 7, 7, 7, 7, 4]),
    ("werner:d=12,p=0", "p", 0.846153846476227, [1, 1, 7, 7, 7, 7, 2]),
])
def test_ccn_threshold_stacks_at_large_d(monkeypatch, family, key, want, sizes):
    stacks = []
    family_stack = cli._family_stack
    monkeypatch.setattr(cli, "_family_stack",
                        lambda *args: stacks.append(len(args[2])) or family_stack(*args))
    assert ccn_threshold(parse_family(family), key, 0.0, 1.0) == want
    assert stacks == sizes


@pytest.mark.parametrize("argv, steps, rows", [
    # every restart takes Newton steps after four plain steps (6 calls over
    # 1092 rows here); switching only once the gain ratios settled took 8
    # calls over 1377 rows, and switching only on a creep 18 over 2692
    (["scan", "isotropic:d=3,F=0", "--param", "F", "--range=0:1:101"], 8, 1200),
    # 17 steps here, against 43 with the settled-ratio switch.  The bound also
    # catches a rejected Newton step retried in place at rounding-level
    # predictions: without the rule that stops a rejection predicting at most
    # tol, this state ran 1991 of its 2000 steps
    (["analyze", "random:da=4,db=4,seed=1", "--json"], 20, None),
    # slow restarts retry a rejected Newton step in place with a quartered
    # radius (37 steps)
    (["analyze", "random:da=12,db=12,seed=12", "--json"], 40, None),
    # 18 steps here, against 50 with the settled-ratio switch
    (["analyze", "random:da=6,db=6,seed=3", "--json"], 20, None),
    # 64 d = 3 states: 23 steps over 3141 rows, against 49 over 6244 rows
    # with the settled-ratio switch
    (["verify", "sandwich", "--seed", "5"], 25, 3200),
])
def test_restarts_switch_to_newton_steps_after_four_plain_steps(
        capsys, monkeypatch, argv, steps, rows):
    # each of the first _PLAIN steps makes one batched SVD polar factor, and
    # every later step one batched Cayley retraction: 4 SVD calls here
    svd, cayley = [], []
    polar, retract = criteria._polar, criteria._cayley
    monkeypatch.setattr(criteria, "_polar", lambda g: svd.append(len(g)) or polar(g))
    monkeypatch.setattr(criteria, "_cayley",
                        lambda xs, om: cayley.append(len(xs)) or retract(xs, om))
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    assert len(svd) + len(cayley) <= steps, (len(svd), len(cayley))
    assert len(svd) <= 6, len(svd)
    assert rows is None or sum(svd) + sum(cayley) <= rows, (sum(svd), sum(cayley))


@pytest.mark.parametrize("argv, rows, products", [
    # 1778 rows in 342 products of one problem, multiplied directly; the step
    # that multiplied all of its pairs' rows at every CG iteration gave the
    # product 3183 rows here (4426 after padding), and sending each rejected
    # Newton step back to polar steps took 610 products
    (["analyze", "random:da=12,db=12,seed=12", "--json"], 1960, 450),
    # 5555 rows in 117 products of 64 d = 3 problems in the packed layout:
    # with most pairs taking Newton steps, fewer and fuller products than the
    # settled-ratio switch's 4373 rows in 262
    (["verify", "sandwich", "--seed", "5"], 6700, 140),
])
def test_conjugate_gradient_multiplies_only_the_pairs_still_in_it(
        capsys, monkeypatch, argv, rows, products):
    sizes = []
    newton = criteria._newton_step

    def counted(us, egrads, product, unit, radius):
        def select(k):
            hvp = product(k)
            return lambda xk: sizes.append(len(xk)) or hvp(xk)
        return newton(us, egrads, select, unit, radius)

    monkeypatch.setattr(criteria, "_newton_step", counted)
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    assert sum(sizes) <= rows, sum(sizes)
    assert len(sizes) <= products, len(sizes)


def test_zero_restarts_rejected(capsys):
    # the relaxed path at unequal local dimensions runs no ascent, yet is refused
    for argv in (["analyze", "werner:d=2,p=0.5"], ["analyze", "random:da=2,db=3", "--relax"],
                 ["scan", "werner:d=2,p=0", "--param", "p", "--range", "0:1:3"]):
        code, out, err = run(capsys, *argv, "--restarts", "0")
        assert code == 2 and out == ""
        assert "restarts must be >= 1" in err


@pytest.mark.parametrize("family", [
    "pure:a=1", "werner:d=2,p=1", "isotropic:d=3,F=1",
    "pure:a=1 --relax", "werner:d=2,p=1 --relax", "isotropic:d=3,F=1 --relax",
    "isotropic:d=4,F=0.5 --relax",
])
def test_analyze_lower_bounds_never_exceed_upper(capsys, family):
    # pure endpoints and an isotropic state, where f = tau/d and rounding lifts
    # the raw lower bounds just past it; the relaxed report has no fidelity_lower
    code, out, _ = run(capsys, "analyze", *family.split(), "--json")
    assert code == 0
    data = json.loads(out)
    assert data.get("fidelity_lower", 0.0) <= data["fidelity_upper"]
    assert data["fidelity_best"] <= data["fidelity_upper"]
    want = 0.5 if family.startswith("isotropic:d=4") else 1.0
    assert data["fidelity_best"] == pytest.approx(want, abs=1e-12)


def test_ccn_threshold_bisection():
    spec = parse_family("werner:d=2,p=0")
    value = ccn_threshold(spec, "p", 0.0, 1.0)
    assert value == pytest.approx(1 / 3, abs=1e-8)
    assert ccn_threshold(spec, "p", 0.0, 0.2) is None
    with pytest.raises(ValueError, match="parameter 'd' is an integer"):
        ccn_threshold(spec, "d", 2, 4)


@pytest.mark.parametrize("family,param,steps,crossing", [
    *((family, param, steps, "0.3333333333333333")
      for family, param in (("werner:d=2,p=0", "p"), ("isotropic:d=3,F=0", "F"))
      for steps in (4, 10, 13, 31, 61)),
    ("werner:d=3,p=0", "p", 41, "0.5"),
])
def test_scan_reports_a_crossing_on_a_grid_point(capsys, family, param, steps, crossing):
    # tau at the grid point reads 1 +- 2^-52 or so: inside the flag margin, so
    # the point is the crossing itself, though tau - 1 has no sign change there
    code, out, err = run(capsys, "scan", family, "--param", param, f"--range=0:1:{steps}",
                         "--restarts", "2")
    assert code == 0 and err == ""
    lines = [ln for ln in out.splitlines() if ln.startswith("# ccn-threshold")]
    assert lines == [f"# ccn-threshold {param} = {crossing}"]


@pytest.mark.parametrize("family, param, descending, ascending, closed", [
    ("isotropic:d=3,F=0", "F", "1:0:11", "0:1:11", [1 / 3]),
    ("counterexample:s=0.5,r=0.25,t=0", "t", "0.2:-0.2:11", "-0.2:0.2:11",
     [1 - counterexample_spectra(Counterexample(0.5, 0.25, 0.0)).g,
      counterexample_spectra(Counterexample(0.5, 0.25, 0.0)).g - 1]),
])
def test_scan_bisects_a_descending_range(capsys, family, param, descending, ascending, closed):
    # a descending grid brackets each crossing with lo > hi; the bisection
    # must still narrow it to TOL_BISECT, as on the ascending grid
    found = {}
    for text in (descending, ascending):
        code, out, err = run(capsys, "scan", family, "--param", param, f"--range={text}",
                             "--restarts", "1")
        assert code == 0, err
        found[text] = [float(line.split("=")[-1]) for line in out.splitlines()
                       if line.startswith("# ccn-threshold")]
    np.testing.assert_allclose(found[descending], closed, rtol=0, atol=TOL_BISECT)
    np.testing.assert_allclose(found[descending], found[ascending][::-1], rtol=0, atol=TOL_BISECT)


def test_scan_checks_out_path_before_any_numerics(capsys, monkeypatch, tmp_path):
    calls = []

    def spy(*args):
        calls.append(args)
        return chunk_columns(*args)

    chunk_columns = criteria._chunk_columns
    monkeypatch.setattr(criteria, "_chunk_columns", spy)
    argv = ["scan", "isotropic:d=3,F=0", "--param", "F", "--range=0:1:101"]
    bad = tmp_path / "missing" / "x.csv"
    code, out, err = run(capsys, *argv, "--out", str(bad))
    assert (code, out, calls) == (2, "", [])
    assert err == f"error: [Errno 2] No such file or directory: '{bad}'\n"
    # invalid restarts are refused before the path is opened, so no file appears
    fresh = tmp_path / "fresh.csv"
    code, _, err = run(capsys, *argv, "--restarts", "0", "--out", str(fresh))
    assert code == 2 and "restarts must be >= 1" in err
    assert not fresh.exists() and calls == []
    # the spy sits on the kernel the scan runs: a good path reaches it
    code, _, err = run(capsys, *argv, "--out", str(fresh))
    assert code == 0 and fresh.exists() and len(calls) == 7, err


def test_scan_computes_no_notes(capsys, monkeypatch):
    # every point of the two-qubit Werner scan is maximally disordered and
    # p = 1 is pure, yet the CSV prints no note and no structure field, so
    # neither they nor the Bloch coefficients are computed; analyze of the
    # pure endpoint still prints both notes
    calls = []

    def spy(name):
        func = getattr(criteria, name)

        def counted(*args):
            calls.append(name)
            return func(*args)
        return counted

    names = ["_chunk_structure", "_coefficients", "_schmidt_tau"]
    for name in names:
        monkeypatch.setattr(criteria, name, spy(name))
    code, out, err = run(capsys, "scan", "werner:d=2,p=0", "--param", "p", "--range=0:1:101")
    assert code == 0 and out.count("\n") == 103 and calls == [], err
    code, out, err = run(capsys, "analyze", "werner:d=2,p=1", "--json")
    assert code == 0 and calls == names, err
    assert json.loads(out)["notes"] == [
        "maximally disordered subsystems: tau = (1 + ||T||_1)/d = 2",
        "pure state: tau = (sum sqrt Schmidt)^2 = 2",
    ]


def test_main_calls_in_one_process_match_fresh_runs(capsys, tmp_path):
    # main builds its parser once per process; no option of one call leaks
    # into the next, so each call prints what it prints with a fresh parser,
    # and the same after any other call
    out_file = tmp_path / "scan.csv"
    calls = [
        # the identity, the lone restart of the first call, is a stationary
        # point of the Werner state, so the restarts option shows in the value
        ["analyze", "werner:d=3,p=0.4", "--json", "--restarts", "1", "--seed", "3"],
        ["analyze", "werner:d=3,p=0.4", "--json"],
        ["scan", "werner:d=2,p=0", "--param", "p", "--range=0:1:5", "--out", str(out_file)],
        ["scan", "werner:d=2,p=0", "--param", "p", "--range=0:1:5"],
        ["verify", "norms", "-n", "3", "--seed", "4"],
        ["verify", "norms", "-n", "3"],
        ["analyze", "werner:d=2,p=2"],
        ["analyze", "werner:d=2,p=0.5", "--json"],
    ]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    cli.build_parser.cache_clear()
    assert [run(capsys, *argv) for argv in calls] == fresh
    assert [run(capsys, *argv) for argv in calls[::-1]] == fresh[::-1]
    assert cli.build_parser.cache_info().misses == 1
    assert fresh[0] != fresh[1] and fresh[2][1] == "" and fresh[3][1].startswith("param,")
    assert fresh[4][1] != fresh[5][1] and fresh[6][0] == 2
    assert out_file.read_text() == fresh[3][1]


def test_verify_norms_and_spectra(capsys):
    code, out, _ = run(capsys, "verify", "norms", "--seed", "3", "-n", "15")
    assert code == 0
    assert "suite norms: PASS" in out
    code, out, _ = run(capsys, "verify", "spectra")
    assert code == 0
    assert "ppt violation exactly when t != 0: PASS" in out


def test_verify_monotonicity_and_sandwich(capsys):
    code, out, _ = run(capsys, "verify", "monotonicity", "--seed", "11", "-n", "25")
    assert code == 0
    assert "suite monotonicity: PASS" in out
    code, out, _ = run(capsys, "verify", "sandwich", "--seed", "7", "-n", "14")
    assert code == 0
    assert "fidelity lower bound holds: PASS" in out


def test_verify_rejects_empty_instance_count(capsys):
    code, out, err = run(capsys, "verify", "norms", "-n", "0")
    assert code == 2 and out == ""
    assert "-n must be at least 1" in err


@pytest.mark.parametrize("argv, field, count", [
    (["scan", "werner:d=2,p=0", "--param", "p", "--range=0:1:9223372036854775808"],
     "--range step count", 2**63),
    (["scan", "werner:d=2,p=0", "--param", "p", "--range=0:1:3", "--restarts", str(2**62)],
     "restarts", 2**62),
    (["analyze", "random:da=3,db=3", "--restarts", str(2**62)], "restarts", 2**62),
    (["analyze", "random:da=3,db=3", "--relax", "--restarts", str(2**62)], "restarts", 2**62),
    (["verify", "norms", "-n", str(2**62)], "-n", 2**62),
])
def test_counts_beyond_numpy_are_refused_by_name(capsys, argv, field, count):
    # refused before numpy sees the count, which it would fail on with a
    # traceback or a message that names no field
    assert run(capsys, *argv) == (2, "", f"error: {field} = {count} is too large: "
                                          "more floats than a numpy array holds\n")


def test_running_out_of_memory_is_an_input_error(capsys, monkeypatch):
    def allocate(seed, n):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (10000000000,)")

    monkeypatch.setitem(cli.SUITES, "norms", allocate)
    code, out, err = run(capsys, "verify", "norms", "-n", "10000000000")
    assert (code, out) == (2, "")
    assert err == "error: Unable to allocate 74.5 GiB for an array with shape (10000000000,)\n"


def test_negative_seed_rejected_before_any_state(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a state was built for a negative --seed")

    monkeypatch.setattr(cli, "parse_family", refuse)
    monkeypatch.setattr(cli, "SUITES", {name: refuse for name in cli.SUITES})
    # d = 2 and the spectra suite draw nothing from the seed, the others do
    for argv in (("analyze", "werner:d=3,p=0.5"), ("analyze", "werner:d=2,p=0.5"),
                 ("verify", "norms"), ("verify", "spectra", "-n", "2")):
        code, out, err = run(capsys, *argv, "--seed", "-1")
        assert code == 2 and out == "" and "--seed must be a non-negative integer" in err, err


def test_verify_reports_worst_slack(capsys):
    code, out, _ = run(capsys, "verify", "sandwich", "--seed", "1", "-n", "6")
    assert code == 0
    assert "worst slack" in out


def test_verify_failure_exit_code(capsys, monkeypatch):
    from sepscope.verify import CheckResult

    def broken_suite(seed, n):
        return [CheckResult("always fails", worst=1.0, tol=1e-12)]

    monkeypatch.setitem(__import__("sepscope.verify", fromlist=["SUITES"]).SUITES,
                        "norms", broken_suite)
    code, out, _ = run(capsys, "verify", "norms")
    assert code == 1
    assert "always fails: FAIL" in out
    assert "suite norms: FAIL" in out


def test_verify_failure_prints_a_replay_command(capsys, monkeypatch):
    from sepscope import verify

    trace_norms = verify._trace_norms

    # double the trace norm of every matrix whose corner entry exceeds 1, so
    # unitary invariance fails on the instances where only u m v or m has one
    def doubled(mats):
        return trace_norms(mats) * (1 + (mats[..., 0, 0].real > 1.0))

    monkeypatch.setattr(verify, "_trace_norms", doubled)
    code, out, _ = run(capsys, "verify", "norms", "--seed", "3")
    assert code == 1
    [fail] = [line for line in out.splitlines() if line.startswith("[") and ": FAIL" in line]
    head, replay = fail.split("; instance ")
    k = int(replay.split(":")[0])
    assert head.startswith("[norms] trace norm unitary invariance: FAIL (worst slack ")
    assert replay == f"{k}: replay with sepscope verify norms --seed 3 -n {k + 1}"
    assert 0 < k < 99
    # PASS lines carry no instance
    assert all(line.endswith(")") for line in out.splitlines() if ": PASS" in line)
    code, again, _ = run(capsys, "verify", "norms", "--seed", "3", "-n", str(k + 1))
    assert code == 1
    assert [line for line in again.splitlines() if ": FAIL" in line] == [fail, "suite norms: FAIL"]
    worst, replayed = (verify.suite_norms(3, n)[0] for n in (100, k + 1))
    assert replayed == worst and worst.instance == k
