"""Command-line interface: analyze, scan, verify, state files."""

import json

import numpy as np
import pytest

from sepscope.cli import _csv_cell, ccn_threshold, load_state_file, main, save_state_file
from sepscope.states import (
    Werner,
    counterexample_spectra,
    Counterexample,
    make_state,
    parse_family,
    rho_p_threshold,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    # the werner singlet mixture has almost no overlap with |psi+>, so the
    # one-sided certificate stays silent even though tau flags entanglement
    code, out, _ = run(capsys, "analyze", "werner:d=2,p=0.9", "--json", "--restarts", "2")
    data = json.loads(out)
    assert data["ccn_flag"] and data["ppt_flag"] and not data["distillable_flag"]
    assert data["tau"] == pytest.approx((1 + 3 * 0.9) / 2, abs=1e-10)


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


@pytest.mark.parametrize("text, message", [
    ('{"dims": [true, 1], "matrix": [[[1, 0]]]}', "'dims' must be two positive integers"),
    ('{"dims": [1, 1], "matrix": [[[true, 0]]]}', "matrix entry (0, 0) must be a two-element"),
    ('{"dims": [1, 1], "matrix": [[[1, false]]]}', "matrix entry (0, 0) must be a two-element"),
])
@pytest.mark.parametrize("relax", [False, True])
def test_state_file_rejects_booleans(tmp_path, capsys, text, message, relax):
    # JSON true and false are Python bools, which isinstance counts as ints
    path = tmp_path / "bools.json"
    path.write_text(text)
    code, _, err = run(capsys, "analyze", str(path), *(["--relax"] if relax else []))
    assert code == 2
    assert message in err


def test_analyze_relax_family(capsys):
    code, out, _ = run(capsys, "analyze", "pure:a=0.5,0.5", "--relax", "--restarts", "2")
    assert code == 0
    assert "trace-class" in out


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
    code, out3, _ = run(capsys, *args, "--jobs", "3")
    assert out1 == out3


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


def test_zero_restarts_rejected(capsys):
    for argv in (["analyze", "werner:d=2,p=0.5"],
                 ["scan", "werner:d=2,p=0", "--param", "p", "--range", "0:1:3"]):
        code, out, err = run(capsys, *argv, "--restarts", "0")
        assert code == 2 and out == ""
        assert "restarts must be >= 1" in err


@pytest.mark.parametrize("family", ["pure:a=1", "werner:d=2,p=1", "isotropic:d=3,F=1"])
def test_analyze_lower_bounds_never_exceed_upper(capsys, family):
    # pure endpoints, where rounding lifts the raw lower bounds just past tau/d
    code, out, _ = run(capsys, "analyze", family, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["fidelity_lower"] <= data["fidelity_upper"]
    assert data["fidelity_best"] <= data["fidelity_upper"]
    assert data["fidelity_best"] == pytest.approx(1.0, abs=1e-12)


def test_ccn_threshold_bisection():
    spec = parse_family("werner:d=2,p=0")
    value = ccn_threshold(spec, "p", 0.0, 1.0)
    assert value == pytest.approx(1 / 3, abs=1e-8)
    assert ccn_threshold(spec, "p", 0.0, 0.2) is None


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
