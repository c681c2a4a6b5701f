import hashlib
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

import rwsurf as rw
from rwsurf import catalog, cli
from rwsurf.cli import main
from rwsurf.immersion import Jet2Immersion
from rwsurf.shape import SurfaceGrid


THM4_ARGS = ["verify", "thm4", "--a", "2", "--H0", "0.5",
             "--f0", "1", "--f0p", "2", "--grid", "7x7"]


def test_verify_thm4_passes(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(THM4_ARGS + ["--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema"] == "rwsurf.verification/1"
    assert report["verdict"] == "pass"
    names = {e["name"] for e in report["entries"]}
    assert {"pmcv", "biconservativity", "codazzi_1", "codazzi_2",
            "reduced_pairing"} <= names
    text = capsys.readouterr().out
    assert "verdict: pass" in text


def test_verify_product_constraint_violation_exits_2(capsys):
    code = main(["verify", "product", "--b1", "1", "--b3", "0.5",
                 "--b2", "0.4"])
    assert code == 2
    assert "b2^2 + b3^2" in capsys.readouterr().err


def test_verify_product_nan_constant_exits_2(capsys):
    code = main(["verify", "product", "--b1", "1", "--b2", "nan", "--b3", "0.5",
                 "--grid", "5x5"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error: ConstraintError: b2 must be finite" in captured.err
    assert "verdict" not in captured.out


def test_unknown_tolerance_override_exits_2(capsys):
    code = main(THM4_ARGS + ["--tol", "pmvc=1e-30"])  # a typo for pmcv
    captured = capsys.readouterr()
    assert code == 2
    assert "error: ValueError" in captured.err and "pmvc" in captured.err
    assert "verdict" not in captured.out


def test_package_imports_no_test_code(tmp_path):
    src = pathlib.Path(rw.__file__).resolve().parents[1]
    probe = ("import sys, rwsurf, rwsurf.cli\n"
             "assert 'oracles' not in sys.modules, 'rwsurf imported oracles'\n")
    subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, check=True,
                   env={**os.environ, "PYTHONPATH": str(src)})


def test_verify_product_forced_break_fails(capsys):
    code = main(["verify", "product", "--b1", "1", "--b3", "0.5",
                 "--b2", "0.4", "--force-b4", "--grid", "7x7"])
    assert code == 1
    out = capsys.readouterr().out
    assert "[FAIL] pmcv" in out


def test_verify_product_valid_member(capsys):
    code = main(["verify", "product", "--b1", "1", "--b3", "0.5",
                 "--grid", "7x7"])
    assert code == 0
    assert "dim N2 = 3" in capsys.readouterr().out


def test_verify_thm5_passes(capsys):
    code = main(["verify", "thm5", "--a", "2", "--H0", "0.6", "--c2", "0.48",
                 "--c3", "0.64", "--f0", "1.5", "--f0p", "1.2", "--y0", "0.4",
                 "--y0p", "-0.7", "--grid", "7x7"])
    assert code == 0
    assert "verdict: pass" in capsys.readouterr().out


def test_solve_f4_csv(tmp_path, capsys):
    csv = tmp_path / "dense.csv"
    code = main(["solve", "f4", "--a", "2", "--H0", "0.5", "--f0", "1",
                 "--f0p", "2", "--u1", "1.0", "--csv", str(csv),
                 "--samples", "11"])
    assert code == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "t,f,fp,fpp"
    assert len(lines) == 12
    first = [float(x) for x in lines[1].split(",")]
    assert first[:3] == [0.0, 1.0, 2.0]
    assert abs(first[3] - 17.0 / 3.0) < 1e-12
    out = capsys.readouterr().out
    assert "stop reason: monitor:blow-up, estimated blow-up at t=0.178421966" \
        in out


def test_solve_sys5_csv(tmp_path, capsys):
    csv = tmp_path / "sys.csv"
    code = main(["solve", "sys5", "--a", "2", "--H0", "0.6", "--c2", "0.48",
                 "--c3", "0.64", "--f0", "1.5", "--f0p", "1.2", "--y0", "0.4",
                 "--y0p", "-0.7", "--u1", "0.5", "--csv", str(csv),
                 "--samples", "5"])
    assert code == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "t,f,fp,fpp,y,yp,ypp"
    assert "max equation residual" in capsys.readouterr().out


def test_solve_f4_inadmissible_exits_2(capsys):
    code = main(["solve", "f4", "--a", "2", "--H0", "0.5", "--f0", "1",
                 "--f0p", "0"])
    assert code == 2
    assert "AdmissibilityError" in capsys.readouterr().err


SYS5_ARGS = ["solve", "sys5", "--a", "2", "--H0", "0.6", "--c2", "0.48",
             "--c3", "0.64", "--f0", "1.5", "--f0p", "1.2", "--y0", "0.4",
             "--y0p", "-0.7"]


@pytest.mark.parametrize("argv, name", [
    (["solve", "f4", "--a", "2", "--H0", "0.5", "--f0", "nan", "--f0p", "2"], "f0"),
    (["solve", "f4", "--a", "2", "--H0", "0.5", "--f0", "1", "--f0p", "inf"], "f0p"),
    (SYS5_ARGS + ["--f0p", "nan"], "f0p"),
    (SYS5_ARGS + ["--y0=-inf"], "y0"),
    (THM4_ARGS + ["--f0p", "nan"], "f0p"),
], ids=["f4-f0", "f4-f0p", "sys5-f0p", "sys5-y0", "verify-thm4-f0p"])
def test_non_finite_initial_condition_exits_2(capsys, argv, name):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert f"error: ConstraintError: {name} must be finite" in captured.err


@pytest.mark.parametrize("argv, name", [
    (["solve", "f4", "--a", "2", "--H0", "0.5", "--f0", "1", "--f0p", "2",
      "--rtol", "inf"], "rtol"),
    (["solve", "f4", "--a", "2", "--H0", "0.5", "--f0", "1", "--f0p", "2",
      "--rtol", "nan"], "rtol"),
    (SYS5_ARGS + ["--atol", "nan"], "atol"),
    (SYS5_ARGS + ["--atol", "inf"], "atol"),
], ids=["f4-rtol-inf", "f4-rtol-nan", "sys5-atol-nan", "sys5-atol-inf"])
def test_non_finite_solver_tolerance_exits_2(capsys, argv, name):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert f"error: ConstraintError: {name} must be finite" in captured.err
    assert "stop reason" not in captured.out


@pytest.mark.parametrize("argv", [
    ["solve", "f4", "--a", "2", "--H0", "0.5", "--f0", "1", "--f0p", "2",
     "--u0", "nan"],
    ["solve", "f4", "--a", "2", "--H0", "0.5", "--f0", "1", "--f0p", "2",
     "--u1", "nan"],
    THM4_ARGS + ["--u-end", "nan"],
], ids=["f4-u0", "f4-u1", "verify-thm4-u-end"])
def test_nan_interval_endpoint_exits_2(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert "error: ConstraintError: integration interval" in captured.err
    assert "NaN endpoint" in captured.err


@pytest.mark.parametrize("argv", [
    ["solve", "f4", "--a", "2", "--H0", "0.5", "--f0", "5e-13",
     "--f0p", "2e-12"],
    ["verify", "thm4", "--a", "2", "--H0", "0.5", "--f0", "5e-13",
     "--f0p", "2e-12", "--grid", "3x3"],
], ids=["solve-f4", "verify-thm4"])
def test_warp_below_its_floor_at_the_start_exits_2(capsys, argv):
    # f0 = 5e-13 is admissible but already below the warp-positive floor
    # 1e-12: an input error, not a zero-length solve
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert ("error: AdmissibilityError: monitor 'warp-positive' reads "
            "-5e-13 at the initial state t=0.0") in captured.err
    assert "admissible interval" not in captured.out
    assert "verdict" not in captured.out


@pytest.mark.parametrize("samples", ["0", "1", "-3"])
@pytest.mark.parametrize("argv", [
    ["solve", "f4", "--a", "2", "--H0", "0.5", "--f0", "1", "--f0p", "2"],
    SYS5_ARGS,
], ids=["f4", "sys5"])
def test_solve_rejects_fewer_than_two_samples(tmp_path, capsys, argv, samples):
    csv = tmp_path / "dense.csv"
    code = main(argv + ["--csv", str(csv), f"--samples={samples}"])
    captured = capsys.readouterr()
    assert code == 2
    assert ("error: ValueError: --samples must be at least 2, got "
            f"{samples}") in captured.err
    assert "written" not in captured.out
    assert not csv.exists()


def test_scan_h4(tmp_path, capsys):
    csv = tmp_path / "scan.csv"
    code = main(["scan", "h4", "--theta", "0.1:3:31", "--tau", "0:5:21",
                 "--csv", str(csv)])
    assert code == 0
    out = capsys.readouterr().out
    assert "bound holds at every node: True" in out
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "theta,tau,residual"
    assert len(lines) == 1 + 31 * 21


def test_csv_rows_are_17_digit_floats(tmp_path, capsys):
    # the CSV writers print every float with repr-exact "{:.17g}"
    fmt = lambda row: ",".join("" if x is None else "{:.17g}".format(x)
                               for x in row)
    h4, sl = tmp_path / "h4.csv", tmp_path / "slice.csv"
    main(["scan", "h4", "--theta", "0.1:3:7", "--tau", "0:5:5", "--csv", str(h4)])
    main(["scan", "slice", "--c", "-1", "--theta", "0.1:3:7", "--csv", str(sl)])
    for path, result in ((h4, rw.nonexistence_scan_e11h4(np.linspace(0.1, 3, 7),
                                                          np.linspace(0, 5, 5))),
                         (sl, rw.nonexistence_slice_scan(-1, np.linspace(0.1, 3, 7)))):
        rows = path.read_text().splitlines()[1:]
        assert rows == [fmt(r) for r in result.rows()]
    dense = tmp_path / "sys.csv"
    main(["solve", "sys5", "--a", "2", "--H0", "0.6", "--c2", "0.48",
          "--c3", "0.64", "--f0", "1.5", "--f0p", "1.2", "--y0", "0.4",
          "--y0p", "-0.7", "--u1", "0.5", "--csv", str(dense), "--samples", "4"])
    solution = rw.solve_warp_system(rw.validate_constants_l5(2, 0.6, 0.48, 0.64),
                                    (1.5, 1.2, 0.4, -0.7), (0.0, 0.5))
    ts = np.linspace(*solution.warp.interval, 4)
    assert dense.read_text().splitlines()[1:] == [
        fmt((t, *solution.warp(t), *solution.y_state(t))) for t in ts.tolist()]


def test_scan_h4_bad_range_exits_2(capsys):
    code = main(["scan", "h4", "--theta", "0:3:5", "--tau", "0:5:5"])
    assert code == 2
    code = main(["scan", "h4", "--theta", "1:2:0", "--tau", "0:5:5"])
    assert code == 2  # empty grid


@pytest.mark.parametrize("argv, digest", [
    (["scan", "h4"],
     "34ea8df69d333601e8f5e8bdf3ecdf0685aede7680c8ff9f772dbcb413bc45d1"),
    (["scan", "slice", "--c", "1"],
     "a359c52fbd86363a4a19729d5d35686ba9544669abf360b1e29c53c07b840ca0"),
], ids=["h4", "slice"])
def test_default_scan_csv_bytes_are_pinned(argv, digest, tmp_path, capsys):
    csv = tmp_path / "scan.csv"
    assert main(argv + ["--csv", str(csv)]) == 0
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == digest


# digests of the files a per-cell writer gives: the row templates keep every byte
@pytest.mark.parametrize("argv, digests", [
    (["verify", "thm4", "--a", "2", "--H0", "0.5", "--f0", "1", "--f0p", "2",
      "--grid", "5x5", "--residuals-csv", "{0}", "--surface-csv", "{1}"],
     ["c730b376cf9f425bf33f8365a913f8c79aec71b13201a53b686e6a711873e854",
      "101b3a43a35368d86ca2ac1458ddafcad3573505499c5b9652fbac9ac7f038d1"]),
    (["solve", "f4", "--a", "2", "--H0", "0.5", "--f0", "1", "--f0p", "2",
      "--csv", "{0}", "--samples", "2001"],
     ["5ec4b1a60c5ecb9db61d86ed6fa51565ced2af70df0ce9d5235ee2ae3e9a540d"]),
    (["solve", "sys5", "--a", "2", "--H0", "0.6", "--c2", "0.48", "--c3", "0.64",
      "--f0", "1.5", "--f0p", "1.2", "--y0", "0.4", "--y0p", "-0.7",
      "--csv", "{0}", "--samples", "2001"],
     ["18571144472363592d4df1461c1d28e014a41b300325a57d0bf2443ccb4e644f"]),
], ids=["thm4-5x5", "f4", "sys5"])
def test_report_and_dense_csv_bytes_are_pinned(argv, digests, tmp_path, capsys):
    paths = [tmp_path / f"{k}.csv" for k in range(len(digests))]
    assert main([a.format(*paths) for a in argv]) == 0
    assert [hashlib.sha256(p.read_bytes()).hexdigest() for p in paths] == digests


# digests (stdout, --out JSON) of the verify subcommands built per family
@pytest.mark.parametrize("argv, code, digests", [
    (["verify", "thm4", "--a", "2", "--H0", "0.5", "--f0", "1", "--f0p", "2"],
     0, ["ae068d91a8ee442feb66e77295d047667114b02a75fb54bf27fa77b4c07027fe",
         "8b91a935beb14269848ee6a6f8c9c9070ed47e0247db065d4765ee187a12bccd"]),
    (["verify", "thm5", "--a", "2", "--H0", "0.6", "--c2", "0.48", "--c3", "0.64",
      "--f0", "1.5", "--f0p", "1.2", "--y0", "0.4", "--y0p", "-0.7"],
     0, ["f0f586acca6cdfa649b998f8084d28ac5b4ee578d174551a5f1d36991c2c5bd6",
         "4200defcd5d1fc92e4a5cf57763e7ddb0948d8bce14ac277fffa645ef9f6fe5c"]),
    (["verify", "product", "--b1", "1", "--b3", "0.5"],
     0, ["0a770cb2dfabd27d04be2656fc5d0a3f86ea55f34f0714d6fbcce274feda97ad",
         "c8f006571b0012b69eb1de18c6e76b0a31d34a01df3879284040e9c7e8ee0702"]),
    (["verify", "product", "--b1", "1", "--b2", "0.4", "--b3", "0.5",
      "--force-b4"],
     1, ["29c480a44d4af93ac309b780da067e3a4dca28eb8bd94e7433c5dbabdf8986b2",
         "4d6d142b46f1cd7b76a8381c7d7dfbf8192fd31987536f0dd89f4814be3b4a8d"]),
], ids=["thm4", "thm5", "product", "product-force-b4"])
def test_verify_stdout_and_report_bytes_are_pinned(argv, code, digests,
                                                   tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(argv + ["--grid", "5x5", "--out", str(out)]) == code
    text = capsys.readouterr().out
    assert [hashlib.sha256(text.encode()).hexdigest(),
            hashlib.sha256(out.read_bytes()).hexdigest()] == digests


SPECIAL_FLOATS = [-0.0, 5e-324, 1.7976931348623157e308, math.inf, -math.inf,
                  math.nan, 0.1, -2.5e-17]


def _reference_row(values) -> str:
    """One CSV row rendered a cell at a time: what every row template must
    reproduce."""
    return ",".join("" if x is None else format(x, ".17g") for x in values) + "\n"


def test_row_template_matches_the_per_cell_reference():
    row = cli._row_template(len(SPECIAL_FLOATS), "%d,%d,")
    assert row % (3, 11, *SPECIAL_FLOATS) == _reference_row(
        [3, 11, *SPECIAL_FLOATS])
    stacked = np.array(SPECIAL_FLOATS)  # numpy scalars render alike
    assert cli._row_template(stacked.size) % tuple(stacked) == _reference_row(
        SPECIAL_FLOATS)


@pytest.mark.parametrize("kind", ["h4", "slice"])
def test_scan_csv_matches_the_per_cell_reference(kind, tmp_path):
    values = np.array(SPECIAL_FLOATS)
    if kind == "h4":
        thetas, taus = values[:5], values[[5, 0, 2]]
        residuals = np.add.outer(values[[0, 1, 2, 3, 4]], values[[5, 1, 0]])
    else:
        thetas, taus, residuals = values, None, values[::-1]
    result = catalog.ScanResult(thetas, taus, residuals, 0.0, 0.0, True)
    csv = tmp_path / "scan.csv"
    cli._write_scan_csv(csv, result)
    assert csv.read_text() == "theta,tau,residual\n" + "".join(
        _reference_row(r) for r in result.rows())


class _SyntheticSolution:
    """Dense-output stand-in whose states hold the special floats."""

    def __init__(self, interval):
        self.warp = self
        self.interval = interval

    def __call__(self, t):
        return SPECIAL_FLOATS[0], SPECIAL_FLOATS[1], t * SPECIAL_FLOATS[2]

    def y_state(self, t):
        return tuple(SPECIAL_FLOATS[3:6])


@pytest.mark.parametrize("with_y", [False, True])
def test_dense_csv_matches_the_per_cell_reference(with_y, tmp_path):
    solution = _SyntheticSolution((-0.0, 5e-324))
    csv = tmp_path / "dense.csv"
    cli._write_dense_csv(csv, solution, 5, with_y)
    rows = [(t, *solution.warp(t), *(solution.y_state(t) if with_y else ()))
            for t in np.linspace(-0.0, 5e-324, 5).tolist()]
    header = "t,f,fp,fpp" + (",y,yp,ypp" if with_y else "") + "\n"
    assert csv.read_text() == header + "".join(_reference_row(r) for r in rows)


@pytest.mark.parametrize("argv, flag, text", [
    (["scan", "h4", "--theta", "nan:3:5"], "--theta", "nan:3:5"),
    (["scan", "slice", "--c", "1", "--theta", "0.1:inf:3"], "--theta",
     "0.1:inf:3"),
    (["scan", "h4", "--tau=-inf:5:3"], "--tau", "-inf:5:3"),
    (["scan", "h4", "--theta", "0.1:3"], "--theta", "0.1:3"),
    (["scan", "h4", "--theta", "0.1:3:5:7"], "--theta", "0.1:3:5:7"),
    (["scan", "h4", "--theta", "0.1:3:2.5"], "--theta", "0.1:3:2.5"),
    (["scan", "h4", "--tau", "0:5:-3"], "--tau", "0:5:-3"),
    (["scan", "slice", "--c", "-1", "--theta", "0.1:3:0"], "--theta",
     "0.1:3:0"),
    (["scan", "h4", "--tau", "a:5:3"], "--tau", "a:5:3"),
])
def test_scan_range_must_be_finite_with_a_count(argv, flag, text, tmp_path,
                                                capsys):
    csv = tmp_path / "scan.csv"
    assert main(argv + ["--csv", str(csv)]) == 2
    captured = capsys.readouterr()
    assert (f"error: ValueError: {flag} must be lo:hi:n with finite lo, hi "
            f"and an integer n >= 1, got '{text}'") in captured.err
    assert "min |residual|" not in captured.out
    assert not csv.exists()


def test_reversed_scan_range_is_accepted(capsys):
    assert main(["scan", "slice", "--c", "1", "--theta", "3:0.1:4"]) == 0
    assert main(["scan", "h4", "--theta", "3:0.1:4", "--tau", "5:0:3"]) == 0


def test_scan_slice(capsys):
    code = main(["scan", "slice", "--c", "1", "--theta", "0.1:3:31"])
    assert code == 0
    assert "positive at every node: True" in capsys.readouterr().out


def test_report_pretty_print(tmp_path, capsys):
    out = tmp_path / "report.json"
    main(THM4_ARGS + ["--out", str(out)])
    capsys.readouterr()
    code = main(["report", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "verdict: pass" in text and "pmcv" in text


def test_report_missing_file(capsys):
    code = main(["report", "/nonexistent/report.json"])
    assert code == 2


def test_config_file_defaults_and_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("grid = 5x5\nu_end = 0.9\n")
    code = main(["verify", "thm4", "--a", "2", "--H0", "0.5", "--f0", "1",
                 "--f0p", "2", "--config", str(cfg)])
    assert code == 0
    assert "grid: 5x5" in capsys.readouterr().out
    # explicit flag wins over the file
    code = main(["verify", "thm4", "--a", "2", "--H0", "0.5", "--f0", "1",
                 "--f0p", "2", "--config", str(cfg), "--grid", "7x7"])
    assert code == 0
    assert "grid: 7x7" in capsys.readouterr().out


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("gird = 5x5\nthreads = 2\n")
    code = main(THM4_ARGS + ["--config", str(cfg)])
    assert code == 2
    assert "unknown config keys: gird, threads" in capsys.readouterr().err


def test_config_file_tolerance_list(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("grid = 7x7\ntol = pmcv=1e-30, codazzi_1=1e-3\n")
    out = tmp_path / "r.json"
    argv = ["verify", "product", "--b1", "1", "--b3", "0.5", "--config",
            str(cfg), "--out", str(out)]
    assert main(argv) == 1
    entries = {e["name"]: e for e in json.loads(out.read_text())["entries"]}
    assert entries["pmcv"]["tol"] == 1e-30 and not entries["pmcv"]["passed"]
    assert entries["codazzi_1"]["tol"] == 1e-3
    assert [e for e in entries.values() if not e["passed"]] == [entries["pmcv"]]
    assert "[FAIL] pmcv" in capsys.readouterr().out
    # explicit --tol flags replace the file's whole list
    assert main(argv + ["--tol", "pmcv=1e-3"]) == 0
    entries = {e["name"]: e for e in json.loads(out.read_text())["entries"]}
    assert entries["pmcv"]["tol"] == 1e-3 and entries["pmcv"]["passed"]
    assert entries["codazzi_1"]["tol"] == 1e-5


def test_cli_outputs_bit_identical(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    main(THM4_ARGS + ["--out", str(out1)])
    main(THM4_ARGS + ["--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_tolerance_override_flag(tmp_path):
    out = tmp_path / "r.json"
    code = main(THM4_ARGS + ["--tol", "pmcv=1e-15", "--out", str(out)])
    assert code == 1  # absurdly tight tolerance flips the pmcv entry
    report = json.loads(out.read_text())
    entry = next(e for e in report["entries"] if e["name"] == "pmcv")
    assert entry["tol"] == 1e-15 and not entry["passed"]


@pytest.mark.parametrize("item", ["pmcv=nan", "pmcv=inf", "pmcv=0",
                                  "pmcv=-1e-6"])
def test_non_finite_or_non_positive_tolerance_exits_2(item, tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(THM4_ARGS + ["--tol", item, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert ("error: ValueError: tolerance pmcv must be finite and positive"
            in captured.err)
    assert "verdict" not in captured.out and not out.exists()


@pytest.mark.parametrize("item", ["pmcv=abc", "pmcv=", "pmcv"])
def test_unparsable_tolerance_names_the_flag(item, capsys):
    code = main(THM4_ARGS + ["--tol", item])
    captured = capsys.readouterr()
    assert code == 2
    assert f"error: ValueError: --tol expects NAME=NUMBER, got {item!r}" \
        in captured.err
    assert "verdict" not in captured.out


@pytest.mark.parametrize("spec", ["exp:abc", "poly:", "poly:1,x", "const:nan",
                                  "exp:inf", "poly:1,-inf", "exp:1,2", "cosh:1",
                                  "sinh", ""])
def test_malformed_or_non_finite_warp_names_the_flag(spec, tmp_path, capsys):
    chart = tmp_path / "chart.py"
    chart.write_text("def chart(u, v):\n    return (0.1 * u, u, v, 0.0)\n")
    code = main(["verify", "user-map", "--py", str(chart), "--ambient",
                 "warped-flat", "--n", "4", "--warp", spec, "--grid", "3x3",
                 "--chart-u-span=-1:1", "--chart-v-span=-1:1"])
    captured = capsys.readouterr()
    assert code == 2
    assert (f"error: ValueError: --warp must be exp[:r], cosh, const[:k] or "
            f"poly:c0,c1,.. with finite numbers, got {spec!r}") in captured.err
    assert "verdict" not in captured.out


@pytest.mark.parametrize("spec", ["exp", "exp:0.5", "cosh", "const", "const:2",
                                  "poly:2,0.1"])
def test_well_formed_warp_is_accepted(spec):
    warp = cli._parse_warp(spec)
    f, fp, fpp = warp(0.3)
    assert f > 0 and math.isfinite(fp) and math.isfinite(fpp)


def test_verify_subcommands_come_from_the_family_table():
    parser = cli.build_parser()
    for name, family in catalog.FAMILIES.items():
        given = {p.name: "1" for p in family.params
                 if p.required and not isinstance(p.default, bool)}
        args = parser.parse_args(["verify", name, *(
            arg for key, val in given.items() for arg in (f"--{key}", val))])
        for p in family.params:
            want = 1.0 if p.name in given else (False if p.default is False
                                                else None)
            assert getattr(args, p.name) == want, (name, p.name)
        with pytest.raises(SystemExit):  # a required parameter left out
            parser.parse_args(["verify", name])


def _readme_commands():
    """Every `rwsurf ...` line of the README's "Command line" block, with
    backslash continuations joined."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("rwsurf ")]


def test_readme_command_lines_parse():
    commands = _readme_commands()
    kinds = {tuple(argv[:2]) for argv in commands}
    assert {("verify", name) for name in catalog.FAMILIES} <= kinds
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)  # SystemExit(2) on a flag the parser lacks


def test_verify_user_map_plane(tmp_path, capsys):
    py = tmp_path / "plane.py"
    py.write_text(
        "import math\n"
        "S, C = math.sinh(0.8), math.cosh(0.8)\n"
        "def chart(u, v):\n"
        "    return (S * u, C * u, v, 0.0)\n")
    code = main(["verify", "user-map", "--py", str(py), "--ambient",
                 "warped-flat", "--n", "4", "--warp", "const:1",
                 "--chart-u-span=-1:1", "--chart-v-span=-1:1",
                 "--grid", "5x5"])
    assert code == 0
    assert "verdict: pass" in capsys.readouterr().out


def test_verify_user_map_product_member(tmp_path, capsys):
    # the product family passed back in as a bare chart: the whole pipeline
    # runs through finite-difference jets on the embedded backend
    py = tmp_path / "member.py"
    py.write_text(
        "import math\n"
        "B1, B3 = 1.0, 0.5\n"
        "B2 = 1.0 / math.sqrt(12.0)\n"
        "B0 = math.sqrt(1.0 - B2 * B2 - B3 * B3)\n"
        "LAM = math.sqrt(1.0 + B1 * B1) / B0\n"
        "def chart(u, v):\n"
        "    return (-B1 * u, B0 * math.cos(LAM * u), B0 * math.sin(LAM * u),\n"
        "            B2, B3 * math.sin(v / B3), B3 * math.cos(v / B3))\n")
    code = main(["verify", "user-map", "--py", str(py), "--ambient", "product",
                 "--n", "5", "--c", "1", "--chart-u-span", "0.1:3.3",
                 "--chart-v-span", "0.1:3.0", "--grid", "5x5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict: pass" in out and "dim N2 = 3" in out


def test_verify_user_map_horizontal_slice_degenerate(tmp_path, capsys):
    py = tmp_path / "slice.py"
    py.write_text("def chart(u, v):\n    return (0.0, u, v, 0.0)\n")
    code = main(["verify", "user-map", "--py", str(py), "--ambient",
                 "warped-flat", "--n", "4", "--warp", "const:1",
                 "--chart-u-span=-1:1", "--chart-v-span=-1:1",
                 "--grid", "5x5"])
    assert code == 2
    assert "verdict: degenerate" in capsys.readouterr().out


@pytest.mark.parametrize("coords", ["u * v + u,", "0.1 * u, u, v, 0.0, 0.0, 0.0"],
                         ids=["one-coordinate", "six-coordinates"])
def test_verify_user_map_wrong_chart_length_exits_2(tmp_path, capsys, coords):
    py = tmp_path / "chart.py"
    py.write_text(f"def chart(u, v):\n    return ({coords})\n")
    code = main(["verify", "user-map", "--py", str(py), "--ambient",
                 "warped-flat", "--n", "4", "--warp", "const:1",
                 "--chart-u-span=-1:1", "--chart-v-span=-1:1",
                 "--grid", "3x3"])
    assert code == 2
    out = capsys.readouterr().out
    assert "DimensionMismatchError: the chart returned jet vectors" in out
    assert "for an ambient space of dimension 4" in out
    assert "verdict: degenerate" in out

def test_verify_user_map_chart_errors_are_degenerate_nodes(tmp_path, capsys):
    # math.log fails for u <= -0.5: each such node is a recorded
    # degeneracy naming its point, and the report is still written
    py = tmp_path / "chart.py"
    py.write_text("import math\n"
                  "def chart(u, v):\n"
                  "    return (0.1 * math.log(u + 0.5), u, v, 0.0)\n")
    out = tmp_path / "report.json"
    code = main(["verify", "user-map", "--py", str(py), "--ambient",
                 "warped-flat", "--n", "4", "--warp", "exp",
                 "--chart-u-span=-1:1", "--chart-v-span=-1:1",
                 "--grid", "5x5", "--out", str(out)])
    assert code == 2
    assert "verdict: degenerate" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["verdict"] == "degenerate"
    assert report["degeneracies"]
    for i, j, text in report["degeneracies"]:
        assert i >= 0 and j >= 0
        assert re.fullmatch(r"ChartDomainError: chart failed at \(u,v\)="
                            r"\(\S+,\S+\): ValueError: math domain error", text)


def test_verify_user_map_chart_of_the_wrong_arity_is_degenerate(tmp_path,
                                                                 capsys):
    # a chart taking one argument raises TypeError at every point: each node
    # is a degeneracy naming it, and the command exits 2 without a traceback
    py = tmp_path / "arity.py"
    py.write_text("def chart(u):\n    return (u, u, 0.0, 0.0)\n")
    out = tmp_path / "report.json"
    code = main(["verify", "user-map", "--py", str(py), "--ambient",
                 "warped-flat", "--n", "4", "--chart-u-span=-1:1",
                 "--chart-v-span=-1:1", "--grid", "3x3", "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == "" and "verdict: degenerate" in captured.out
    report = json.loads(out.read_text())
    assert len(report["degeneracies"]) == 9
    for _, _, text in report["degeneracies"]:
        assert re.fullmatch(r"ChartDomainError: chart failed at \(u,v\)="
                            r"\(\S+,\S+\): TypeError: .*positional argument.*",
                            text)


def test_surface_and_residual_csv_exports(tmp_path):
    surf_csv = tmp_path / "surf.csv"
    res_csv = tmp_path / "res.csv"
    code = main(["verify", "product", "--b1", "1", "--b3", "0.5",
                 "--grid", "5x5", "--surface-csv", str(surf_csv),
                 "--residuals-csv", str(res_csv)])
    assert code == 0
    surf_lines = surf_csv.read_text().strip().splitlines()
    assert surf_lines[0] == "u,v,x0,x1,x2,x3,x4,x5"
    assert len(surf_lines) == 1 + 25
    # every sampled point lies on the unit-sphere fiber
    for line in surf_lines[1:3]:
        vals = [float(x) for x in line.split(",")]
        fiber = np.array(vals[3:])
        assert abs(fiber @ fiber - 1.0) < 1e-12
    res_lines = res_csv.read_text().strip().splitlines()
    assert res_lines[0] == "i,j,u,v,pmcv,reduced,biconservativity"
    assert len(res_lines) == 1 + 25


def test_surface_csv_reads_the_verify_grid(tmp_path, monkeypatch):
    # the chart runs once per grid point (node and 8 stencil offsets), and
    # the surface CSV adds no call of its own
    calls = []
    jet = Jet2Immersion.jet

    def counting_jet(self, u, v):
        calls.append(np.size(u))
        return jet(self, u, v)

    monkeypatch.setattr(Jet2Immersion, "jet", counting_jet)
    surf_csv = tmp_path / "surf.csv"
    code = main(THM4_ARGS + ["--surface-csv", str(surf_csv)])
    assert code == 0
    assert sum(calls) == 9 * 7 * 7
    rows = surf_csv.read_text().strip().splitlines()[1:]
    assert len(rows) == 7 * 7
    assert all(np.isfinite([float(x) for x in r.split(",")]).all() for r in rows)


def test_surface_csv_writes_nan_where_the_chart_fails(tmp_path, capsys):
    # nodes whose chart call fails are degeneracies of the grid; the surface
    # CSV writes them as NaN rows, and the command ends by its verdict
    py = tmp_path / "holed_plane.py"
    py.write_text(
        "import math\n"
        "S, C = math.sinh(0.8), math.cosh(0.8)\n"
        "def chart(u, v):\n"
        "    if u > 0.5 and v > 0.5:\n"
        "        return (math.nan,) * 4\n"
        "    return (S * u, C * u, v, 0.0)\n")
    surf_csv = tmp_path / "surf.csv"
    code = main(["verify", "user-map", "--py", str(py), "--ambient",
                 "warped-flat", "--n", "4", "--warp", "const:1",
                 "--chart-u-span=-1:1", "--chart-v-span=-1:1",
                 "--grid", "5x5", "--surface-csv", str(surf_csv)])
    assert code == 2
    out = capsys.readouterr()
    assert out.err == "" and "verdict: degenerate" in out.out
    rows = [[float(x) for x in line.split(",")]
            for line in surf_csv.read_text().splitlines()[1:]]
    assert len(rows) == 25
    # the finite-difference jet reaches 0.01 past a node: the nodes at
    # u, v = 0.494 see the hole too
    for u, v, *phi in rows:
        assert np.isnan(phi).all() == (u > 0.4 and v > 0.4), (u, v)
        assert np.isnan(phi).all() or np.isfinite(phi).all()


@pytest.mark.parametrize("name, text, attr, flag", [
    ("chart.py", "def chart(u, v):\n    return (u, v, 0.0, 0.0)\n", "nope",
     "--attr"),
    ("chart.py", "chart = 3\n", "chart", "--attr"),
    ("chart.py", "def chart(u, v):\n    return (u, v,\n", "chart", "--py"),
    ("chart.txt", "def chart(u, v):\n    return (u, v, 0.0, 0.0)\n", "chart",
     "--py"),
    ("chart.py", "raise RuntimeError('boom')\n", "chart", "--py"),
], ids=["undefined-attr", "attr-not-callable", "does-not-compile",
        "not-a-module", "raises-at-import"])
def test_user_map_chart_that_cannot_be_loaded_exits_2(name, text, attr, flag,
                                                      tmp_path, capsys):
    py = tmp_path / name
    py.write_text(text)
    code = main(["verify", "user-map", "--py", str(py), "--attr", attr,
                 "--ambient", "warped-flat", "--n", "4",
                 "--chart-u-span=-1:1", "--chart-v-span=-1:1", "--grid", "3x3"])
    assert code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: ValueError: {flag} {attr!r} "
                              if flag == "--attr" else
                              f"error: ValueError: --py {str(py)!r} ")
    assert repr(str(py)) in out.err and out.err.count("\n") == 1


def test_residuals_csv_maxima_match_report(tmp_path):
    out, res_csv = tmp_path / "r.json", tmp_path / "res.csv"
    code = main(["verify", "product", "--b1", "1", "--b3", "0.5",
                 "--grid", "5x5", "--out", str(out),
                 "--residuals-csv", str(res_csv)])
    assert code == 0
    entries = {e["name"]: e["value"]
               for e in json.loads(out.read_text())["entries"]}
    rows = [line.split(",") for line in res_csv.read_text().splitlines()[1:]]
    assert max(float(r[4]) for r in rows) == entries["pmcv"]
    assert max(float(r[6]) for r in rows) == entries["biconservativity"]


def test_residuals_csv_builds_no_second_grid(tmp_path, monkeypatch):
    builds = []
    init = SurfaceGrid.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SurfaceGrid, "__init__", counting_init)
    code = main(THM4_ARGS + ["--residuals-csv", str(tmp_path / "res.csv")])
    assert code == 0
    assert len(builds) == 1


def test_residuals_csv_when_grid_cannot_be_built(tmp_path, capsys):
    res_csv = tmp_path / "res.csv"
    code = main(["verify", "product", "--b1", "1", "--b3", "0.5",
                 "--grid", "5x5", "--u-span", "0:1",
                 "--residuals-csv", str(res_csv)])
    assert code == 2
    assert "no stencil headroom" in capsys.readouterr().out
    assert res_csv.read_text() == "i,j,u,v,pmcv,reduced,biconservativity\n"


@pytest.mark.parametrize("flag", ["--u-span", "--v-span"])
@pytest.mark.parametrize("value", ["nan:0.1", "0.1:nan", "-inf:0.1", "0.1:inf",
                                   "0.1:0"])
def test_non_finite_span_is_invalid_input(capsys, flag, value):
    code = main(["verify", "product", "--b1", "1", "--b3", "0.5",
                 "--grid", "5x5", f"{flag}={value}"])
    assert code == 2
    captured = capsys.readouterr()
    assert (f"error: ValueError: {flag} must be lo:hi with finite lo < hi, "
            f"got {value!r}") in captured.err
    assert "verdict" not in captured.out


@pytest.mark.parametrize("flag", ["--chart-u-span", "--chart-v-span"])
@pytest.mark.parametrize("value", ["nan:1", "-1:nan", "-inf:1", "1:0", "0:0"])
def test_chart_span_must_be_finite_and_ordered(tmp_path, capsys, flag, value):
    # an unusable chart span is an input error naming the flag, not a
    # degenerate report of u=nan nodes or a grid with no stencil headroom
    chart = tmp_path / "chart.py"
    chart.write_text("def chart(u, v):\n    return (0.1 * u, u, v, 0.0)\n")
    spans = {"--chart-u-span": "-1:1", "--chart-v-span": "-1:1", flag: value}
    out = tmp_path / "report.json"
    code = main(["verify", "user-map", "--py", str(chart), "--ambient",
                 "warped-flat", "--n", "4", "--warp", "exp", "--grid", "3x3",
                 *(f"{k}={v}" for k, v in spans.items()), "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert (f"error: ValueError: {flag} must be lo:hi with finite lo < hi, "
            f"got {value!r}") in captured.err
    assert "verdict" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("flag, value, form", [
    ("--grid", "5x5x2", "NUxNV"), ("--grid", "5", "NUxNV"),
    ("--u-span", "0.1", "lo:hi"), ("--v-span", "0:1:2", "lo:hi"),
])
def test_malformed_grid_or_span_names_the_flag(capsys, flag, value, form):
    args = {"--grid": "5x5", flag: value}
    code = main(["verify", "product", "--b1", "1", "--b3", "0.5",
                 *(f"{k}={v}" for k, v in args.items())])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: ValueError: {flag} must be {form}, got {value!r}" in err


def test_bad_substep_is_invalid_input(capsys):
    # rejected before any grid work: exit 2, not a failed verdict
    for value in ("0", "-1e-3", "nan"):
        code = main(["verify", "product", "--b1", "1", "--b3", "0.5",
                     "--grid", "5x5", f"--substep={value}"])
        assert code == 2, value
        captured = capsys.readouterr()
        assert "error: ValueError: substep must be positive and finite" \
            in captured.err
        assert "verdict" not in captured.out
