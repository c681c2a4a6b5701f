import dataclasses
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
from rwsurf import catalog, cli, solvers, verdicts
from rwsurf.cli import main
from rwsurf.immersion import Jet2Immersion
from rwsurf.shape import SurfaceGrid


THM4_ARGS = ["verify", "thm4", "--a", "2", "--H0", "0.5",
             "--f0", "1", "--f0p", "2", "--grid", "7x7"]

# a space-like plane whose chart reads NaN where u > 0.5 and v > 0.5
HOLED_PLANE = ("import math\n"
               "S, C = math.sinh(0.8), math.cosh(0.8)\n"
               "def chart(u, v):\n"
               "    if u > 0.5 and v > 0.5:\n"
               "        return (math.nan,) * 4\n"
               "    return (S * u, C * u, v, 0.0)\n")
HOLED_PLANE_ARGS = ["verify", "user-map", "--py", "holed_plane.py",
                    "--ambient", "warped-flat", "--n", "4", "--warp", "const:1",
                    "--chart-u-span=-1:1", "--chart-v-span=-1:1", "--grid", "5x5"]
# the validated product member as a bare chart written with math, as in CI
SPHERE_CHART = ("import math\n"
                "B1, B3 = 1.0, 0.5\n"
                "B2 = 1.0 / math.sqrt(12.0)\n"
                "B0 = math.sqrt(1.0 - B2 * B2 - B3 * B3)\n"
                "LAM = math.sqrt(1.0 + B1 * B1) / B0\n"
                "def chart(u, v):\n"
                "    return (-B1 * u, B0 * math.cos(LAM * u), B0 * math.sin(LAM * u),\n"
                "            B2, B3 * math.sin(v / B3), B3 * math.cos(v / B3))\n")


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


def test_commands_do_not_import_numpy_ma(tmp_path):
    # numpy.ma costs a process about 14 ms to import, and a plain np.unique
    # (np.setdiff1d's, say) imports it through np.ma.is_masked
    (tmp_path / "holed_plane.py").write_text(HOLED_PLANE)
    runs = [THM4_ARGS[:-1] + ["3x3"], HOLED_PLANE_ARGS,
            SYS5_ARGS + ["--samples", "5", "--csv", "sys5.csv"],
            ["scan", "h4", "--theta", "0.1:3:7", "--tau", "0:5:5",
             "--csv", "h4.csv"]]
    probe = ("import json, sys\n"
             "from rwsurf.cli import main\n"
             f"codes = [main(argv) for argv in {runs!r}]\n"
             "print(json.dumps([codes, 'numpy.ma' in sys.modules]))\n")
    src = pathlib.Path(rw.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path,
                         check=True, capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}).stdout
    assert json.loads(out.splitlines()[-1]) == [[0, 2, 0, 0], False]


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


@pytest.mark.parametrize("argv, fixture", [
    (["solve", "f4", "--a", "2", "--H0", "0.5", "--f0", "1", "--f0p", "2"],
     "l4_solution"),
    (["solve", "sys5", "--a", "2", "--H0", "0.6", "--c2", "0.48", "--c3",
      "0.64", "--f0", "1.5", "--f0p", "1.2", "--y0", "0.4", "--y0p", "-0.7"],
     "l5_solution"),
], ids=["f4", "sys5"])
def test_solve_defaults_are_the_certified_family_solve(argv, fixture, request,
                                                       tmp_path, capsys):
    # --u1, --rtol and --atol default to the family's u_end and SolverConfig's
    # tolerances, so the CSV is the warp (and y) that verify certifies
    solution = request.getfixturevalue(fixture)
    csv = tmp_path / "dense.csv"
    assert main(argv + ["--csv", str(csv), "--samples", "41"]) == 0
    rows = [[float(x) for x in line.split(",")]
            for line in csv.read_text().splitlines()[1:]]
    ts = np.linspace(*solution.warp.interval, 41).tolist()
    want = [[t, *solution.warp(t),
             *(solution.y_state(t) if fixture == "l5_solution" else ())]
            for t in ts]
    assert rows == want


def test_solve_f4_inadmissible_exits_2(capsys):
    code = main(["solve", "f4", "--a", "2", "--H0", "0.5", "--f0", "1",
                 "--f0p", "0"])
    assert code == 2
    assert "AdmissibilityError" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["solve", "f4"], ["verify", "thm4"]],
                         ids=["solve", "verify"])
@pytest.mark.parametrize("f0p, message", [
    ("1e60", "integration could not take a single step\n"),
    ("-1e60", "integration could not take a single step\n"),
    ("1e80", "the derivative at the initial state t=0.0 is not finite "
             "(OverflowError: "),
], ids=["1e60", "-1e60", "1e80"])
def test_huge_initial_slope_exits_2(capsys, command, f0p, message):
    # an admissible slope too steep to take a step from, not a failed check
    code = main([*command, "--a", "2", "--H0", "0.5", "--f0", "1", f"--f0p={f0p}"])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: AdmissibilityError: {message}")


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
     ["a02e30ff041a27ec5e12f4661d579d51d8d694cb90f15ab1416f0a60668b04d3",
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
     0, ["9d1150c82bd82ce13311cc62df06cbe60e7ddc6dff9a31961911bc04fcada803",
         "777cf9ba8e5d40e4ce1f3408fc43775b4bdcc8f70af0705b2234f03d41bfa4d7"]),
    (["verify", "thm5", "--a", "2", "--H0", "0.6", "--c2", "0.48", "--c3", "0.64",
      "--f0", "1.5", "--f0p", "1.2", "--y0", "0.4", "--y0p", "-0.7"],
     0, ["8d5c7ab6e0ba94c74852ee201c1b16f1b67902429f133a1a47b1c5510e553af4",
         "ebe2935e88d1a88e9fa9cd8021fb7f54a7138cd31becffa7f065ac8bfcdeb118"]),
    (["verify", "product", "--b1", "1", "--b3", "0.5"],
     0, ["1abd4a30825e1da362c07116ae021d89f933075e867672e9b920aecb961913af",
         "a1e994e0314a9a352fbc729fc8cf8cd28c90dd5e05e1967fa89976d402ff6820"]),
    (["verify", "product", "--b1", "1", "--b2", "0.4", "--b3", "0.5",
      "--force-b4"],
     1, ["dedb94c6e307623ffccb884e3693049d7387f0b7e0f92e50f39d2bb0fd80ea5a",
         "731f848420f58eaf38d20fd5f0ef4a0a160ff763e96dca6029342e15b335155b"]),
    # the finite-difference jet path; CI's sphere-chart run writes these bytes
    (["verify", "user-map", "--py", "sphere_chart.py", "--ambient", "product",
      "--n", "5", "--chart-u-span", "0.1:3.3", "--chart-v-span", "0.1:3.0"],
     0, ["c79c4386b1341e9ba7aa73abcdca370de21e3cf38d2b8bf4418351cf730e2e42",
         "66f82399dc1e9b5815132c5bdca2b036319fb36d5c4bfec1a2b1f8f16ac188a0"]),
], ids=["thm4", "thm5", "product", "product-force-b4", "user-map-sphere"])
def test_verify_stdout_and_report_bytes_are_pinned(argv, code, digests,
                                                   tmp_path, monkeypatch,
                                                   capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sphere_chart.py").write_text(SPHERE_CHART)
    out = tmp_path / "report.json"
    assert main(argv + ["--grid", "5x5", "--out", str(out)]) == code
    text = capsys.readouterr().out
    assert [hashlib.sha256(text.encode()).hexdigest(),
            hashlib.sha256(out.read_bytes()).hexdigest()] == digests


# digests (stdout, --out JSON) at the default 17x17 grid, and thm4 at 33x33:
# the grids the certificates are read at, where every short-axis sum runs
@pytest.mark.parametrize("argv, code, digests", [
    (["verify", "thm4", "--a", "2", "--H0", "0.5", "--f0", "1", "--f0p", "2"],
     0, ["d6b566e98113674398be5dbf875c962c3269c2fa293b02c619cacd0106fa2020",
         "c471e0a7a6dce1bbae52b8709308d65918b52e759ff21bc4d591a174aba4e85d"]),
    (["verify", "thm5", "--a", "2", "--H0", "0.6", "--c2", "0.48", "--c3", "0.64",
      "--f0", "1.5", "--f0p", "1.2", "--y0", "0.4", "--y0p", "-0.7"],
     0, ["46e0fda8d1138105f1eac139364480da0c0cbd478a1f7038c5dfc3a8f1028035",
         "e368805bc290fa3123cca648172b657c04a0d2bb05a4216d5539335bad2dc172"]),
    (["verify", "product", "--b1", "1", "--b3", "0.5"],
     0, ["3ca0261ff363d79f28b6fe1be959a9378383ef93caec993df0477886106e3220",
         "9b83c5bba24c9cb0bd69076cc3d7538aa0c34447b5c5ba8186a4cd2b1d363eb8"]),
    (["verify", "product", "--b1", "1", "--b2", "0.4", "--b3", "0.5",
      "--force-b4"],
     1, ["e5702ec61bcbdd31b3c934728d17e3ffc54f8134ee75690dc3c6e0d46f9357d2",
         "22cdb0b751723b92f0c00ce8c7980a913dd14ed3601cf43422f428dc294abf04"]),
    (["verify", "thm4", "--a", "2", "--H0", "0.5", "--f0", "1", "--f0p", "2",
      "--grid", "33x33"],
     0, ["b23406281c360da3e5cdfeafd67ade047d766675a3b22fb5bc26d43ccfbc5252",
         "e8479d43b1d35e8a6e88136835605028872a216a071a643def89f0dce38d9e37"]),
], ids=["thm4", "thm5", "product", "product-force-b4", "thm4-33x33"])
def test_verify_report_bytes_are_pinned_at_certificate_grids(
        argv, code, digests, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == code
    text = capsys.readouterr().out
    assert [hashlib.sha256(text.encode()).hexdigest(),
            hashlib.sha256(out.read_bytes()).hexdigest()] == digests


# digests (stdout, then each written file) of commands whose surface CSV
# rows do not all come from a full grid, and of a backward solve
@pytest.mark.parametrize("argv, code, digests", [
    (HOLED_PLANE_ARGS + ["--out", "report.json", "--residuals-csv", "res.csv",
                         "--surface-csv", "surf.csv"],
     2, ["efbe6f0b1a5aa694a47a3e7b3b6d0b5b27479f3069af535dfc35b22c072ded35",
         "c51f7e2722cd0516c06b73c5b5b13796c9671cce64e576b44a5b49db0c5d1afc",
         "6cc5a227c2488233367c87a136002b33c2fce4e5e595af55ac3d4a45d8d3c4ce",
         "2b1abdd08d372aa7fffaf1f126b56b7423a659525d8292d67bda400eb6b8d345"]),
    (["verify", "product", "--b1", "1", "--b3", "0.5", "--grid", "5x5",
      "--u-span", "0:1", "--out", "report.json", "--residuals-csv", "res.csv",
      "--surface-csv", "surf.csv"],
     2, ["53b387cb0588d015db953fb95bd6e47f357509751d9ee53f6ffd8a2d739ef3a4",
         "314e865651f2d62b7582ed37fb78cb9c5f0433f2b4d1615f2b093e0c34dc1d42",
         "3b5ae7341390f55e030965ba9e24e8b12489e3fe5bb0ab28982f160c29849535",
         "51e9a30e128bf6a80704f17f1cb2031cd175887813e18472b3cd1a045ce35bbf"]),
    (["solve", "f4", "--a", "2", "--H0", "0.5", "--f0", "1", "--f0p", "-2",
      "--u0", "0.3", "--u1", "-0.5", "--rtol", "1e-9", "--csv", "dense.csv"],
     0, ["42394aec451148d42c4fbf01ce19c8070c413ddb281aca5f9e3c98522009cf42",
         "93342286a3c22cf98c3a5fe86d183427ea02be7fd29be2c4d6860e7fdeb720be"]),
], ids=["holed-plane", "product-no-grid", "f4-backward"])
def test_partial_grid_and_backward_solve_bytes_are_pinned(
        argv, code, digests, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "holed_plane.py").write_text(HOLED_PLANE)
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    files = [a for a in argv if a.endswith((".json", ".csv"))]
    assert [hashlib.sha256(captured.out.encode()).hexdigest(),
            *(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
              for f in files)] == digests


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


def test_report_prints_the_report_verify_printed(tmp_path, capsys):
    # a round-tripped report prints the lines verify printed after its
    # integration line, degenerate nodes included
    for argv in (THM4_ARGS + ["--grid", "3x3"],
                 THM4_ARGS + ["--grid", "3x3", "--u-span", "0.1:0.4"]):
        out = tmp_path / "report.json"
        main(argv + ["--out", str(out)])
        printed = capsys.readouterr().out.split("\n", 1)[1]
        assert main(["report", str(out)]) == 0
        assert capsys.readouterr().out == printed


_REPORT = {"surface": "s", "grid": {"nu": 1, "nv": 1, "u": [0, 1], "v": [0, 1]},
           "entries": [{"name": "pmcv", "value": 0.0, "tol": 1e-5,
                        "passed": True}],
           "diagnostics": {}, "degeneracies": [], "verdict": "pass"}


@pytest.mark.parametrize("data, message", [
    ({}, "report field 'entries' is missing"),
    ([1, 2], "a report is a JSON object, not list"),
    (None, "a report is a JSON object, not NoneType"),
    ({**_REPORT, "grid": {"nu": 1}}, "report field 'nv' is missing"),
    ({**_REPORT, "entries": [{"name": "pmcv"}]},
     "report field 'value' is missing"),
    ({**_REPORT, "entries": 3}, "report field is malformed (TypeError: "),
    ({**_REPORT, "entries": [{**_REPORT["entries"][0], "value": "x"}]},
     "report field is malformed (ValueError: Unknown format code 'e'"),
], ids=["empty", "list", "null", "grid", "entry", "entries", "value"])
def test_report_of_json_that_is_not_a_report_exits_2(tmp_path, capsys, data,
                                                      message):
    # invalid input, as a file that is not JSON: nothing is printed but the
    # error, which names the file and the field
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["report", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: ValueError: {path}")
    assert message in err
    path.write_text("{")
    assert main(["report", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: JSONDecodeError: ")


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


def test_config_file_skips_comments_and_blank_lines(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("# report grid\n\n   \ngrid = 5x5  # coarse\n")
    assert main(THM4_ARGS[:-2] + ["--config", str(cfg)]) == 0
    assert "grid: 5x5" in capsys.readouterr().out
    cfg.write_text("# report grid\n\ngrid 5x5\n")
    assert main(THM4_ARGS + ["--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: ValueError: {cfg}:3: expected KEY=VALUE\n"


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("gird = 5x5\nthreads = 2\n")
    code = main(THM4_ARGS + ["--config", str(cfg)])
    assert code == 2
    assert "unknown config keys: gird, threads" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["u_end"])
def test_config_value_that_is_no_number_names_its_key(key, tmp_path, capsys,
                                                     monkeypatch):
    # refused while the options are read: no solve, no jet, no report
    def no_grid_work(*args, **kwargs):
        raise AssertionError("grid work before the options were checked")

    monkeypatch.setattr(cli, "verify_surface", no_grid_work)
    monkeypatch.setattr(Jet2Immersion, "jet", no_grid_work)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"{key} = abc\n")
    assert main(THM4_ARGS + ["--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: ValueError: config key {key} expects a number, "
                   "got 'abc'\n")


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


def test_main_parses_with_one_parser_that_keeps_no_state(tmp_path):
    # main builds its parser once per process; a --tol of one call and a
    # bad argv must not reach the next call, and build_parser stays fresh
    out = tmp_path / "r.json"
    argv = THM4_ARGS[:-1] + ["3x3", "--out", str(out)]

    def pmcv_tol(extra):
        assert main(argv + extra) == 0
        return next(e["tol"] for e in json.loads(out.read_text())["entries"]
                    if e["name"] == "pmcv")

    tier = verdicts.TIERS[verdicts.TOLERANCE_ENTRIES["pmcv"]]
    assert [pmcv_tol(["--tol", "pmcv=1e-3"]), pmcv_tol([])] == [1e-3, tier]
    with pytest.raises(SystemExit) as exc:
        main(["verify", "thm4", "--grid"])
    assert exc.value.code == 2
    assert pmcv_tol([]) == tier
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()


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
    py.write_text(SPHERE_CHART)
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
    # the grid fill's two jet calls cover every grid point once (the nodes,
    # then their 8 stencil offsets), and the surface CSV adds no call of its
    # own, not even at the nodes of the holed plane where the chart fails
    calls = []
    jet = Jet2Immersion.jet

    def counting_jet(self, u, v):
        calls.append(np.size(u))
        return jet(self, u, v)

    monkeypatch.setattr(Jet2Immersion, "jet", counting_jet)
    monkeypatch.chdir(tmp_path)
    surf_csv = tmp_path / "surf.csv"
    code = main(THM4_ARGS + ["--surface-csv", str(surf_csv)])
    assert code == 0
    assert calls == [7 * 7, 8 * 7 * 7]
    rows = surf_csv.read_text().strip().splitlines()[1:]
    assert len(rows) == 7 * 7
    assert all(np.isfinite([float(x) for x in r.split(",")]).all() for r in rows)

    calls.clear()
    (tmp_path / "holed_plane.py").write_text(HOLED_PLANE)
    code = main(HOLED_PLANE_ARGS + ["--surface-csv", str(surf_csv)])
    assert code == 2
    assert calls == [5 * 5, 8 * 5 * 5]
    rows = [[float(x) for x in r.split(",")]
            for r in surf_csv.read_text().splitlines()[1:]]
    assert sum(np.isnan(row[2:]).all() for row in rows) == 4


SHORT_CHART = ("import math\n"
               "S, C = math.sinh(0.8), math.cosh(0.8)\n"
               "def chart(u, v):\n"
               "    return (S * u, C * u, v)\n")


def test_surface_csv_without_a_grid_is_all_nan(tmp_path, monkeypatch, capsys):
    # jet vectors of length 3 in a 4-dimensional ambient fail the grid, and
    # the surface CSV's own jet call as well: its rows keep u and v, and
    # every coordinate reads nan
    monkeypatch.chdir(tmp_path)
    (tmp_path / "short_chart.py").write_text(SHORT_CHART)
    surf_csv = tmp_path / "surf.csv"
    code = main(["verify", "user-map", "--py", "short_chart.py", "--ambient",
                 "warped-flat", "--n", "4", "--chart-u-span=-1:1",
                 "--chart-v-span=-1:1", "--grid", "3x4",
                 "--surface-csv", str(surf_csv)])
    assert code == 2
    assert ("degenerate grid: DimensionMismatchError: the chart returned jet "
            "vectors of length 3") in capsys.readouterr().out
    lines = surf_csv.read_text().splitlines()
    assert lines[0] == "u,v,x0,x1,x2,x3"
    us, vs = np.linspace(-0.988, 0.988, 3), np.linspace(-0.988, 0.988, 4)
    assert lines[1:] == [f"{u:.17g},{v:.17g},nan,nan,nan,nan"
                         for u in us for v in vs]


@pytest.mark.parametrize("ambient", ["warped-flat", "product"])
def test_user_map_with_no_room_for_e4_exits_2(ambient, tmp_path, capsys):
    # n = 3 is refused when the ambient is built, before any chart call
    py = tmp_path / "short_chart.py"
    py.write_text(SHORT_CHART)
    code = main(["verify", "user-map", "--py", str(py), "--ambient", ambient,
                 "--n", "3", "--chart-u-span=-1:1", "--chart-v-span=-1:1",
                 "--grid", "3x3"])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: DimensionMismatchError: need n >= 4 (the adapted "
                   "frame needs room for e4), got n = 3\n")


@pytest.mark.parametrize("argv, kind", [
    (["solve", "f4", "--a", "2", "--H0", "0.5", "--f0", "1", "--f0p", "2"],
     "thm4"),
    (["solve", "sys5", "--a", "2", "--H0", "0.6", "--c2", "0.48", "--c3", "0.64",
      "--f0", "1.5", "--f0p", "1.2", "--y0", "0.4", "--y0p", "-0.7"], "thm5"),
], ids=["f4", "sys5"])
def test_solve_runs_the_family_recipe_once(argv, kind, monkeypatch, capsys):
    # solve f4|sys5 solve through catalog.FAMILIES, with their span and
    # tolerances, as verify thm4|thm5 do
    family, calls = catalog.FAMILIES[kind], []

    def counting_solve(params, interval, config=None):
        calls.append((interval, config))
        return family.solve(params, interval, config)

    monkeypatch.setitem(catalog.FAMILIES, kind,
                        dataclasses.replace(family, solve=counting_solve))
    assert main(argv + ["--u0", "0.1", "--u1", "0.6", "--rtol", "1e-9"]) == 0
    assert calls == [((0.1, 0.6), rw.SolverConfig(rtol=1e-9, atol=1e-13))]


def test_surface_csv_writes_nan_where_the_chart_fails(tmp_path, capsys):
    # nodes whose chart call fails are degeneracies of the grid; the surface
    # CSV writes them as NaN rows, and the command ends by its verdict
    py = tmp_path / "holed_plane.py"
    py.write_text(HOLED_PLANE)
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
    ("chart.py", "import sys\nsys.exit(3)\n", "chart", "--py"),
], ids=["undefined-attr", "attr-not-callable", "does-not-compile",
        "not-a-module", "raises-at-import", "exits-at-import"])
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


@pytest.mark.parametrize("flags, message", [
    (["--warp", "bogus"], "--warp must be"),
    (["--chart-u-span=1:0"], "--chart-u-span must be lo:hi with finite lo < hi"),
    (["--n", "3"], "need n >= 4"),
], ids=["warp", "chart-u-span", "n"])
def test_user_map_flags_are_refused_before_the_chart_file_runs(
        flags, message, tmp_path, capsys):
    py = tmp_path / "chart.py"
    py.write_text("print('chart imported')\n"
                  "def chart(u, v):\n    return (u, v, 0.0, 0.0)\n")
    argv = ["verify", "user-map", "--py", str(py), "--ambient", "warped-flat",
            "--n", "4", "--chart-u-span=-1:1", "--chart-v-span=-1:1",
            "--grid", "3x3"]
    main(argv)
    assert "chart imported" in capsys.readouterr().out
    assert main(argv + flags) == 2
    out = capsys.readouterr()
    assert "chart imported" not in out.out
    assert message in out.err


def test_user_map_chart_file_exiting_at_import_names_the_exit(tmp_path, capsys):
    # sys.exit at import is the file's failure (exit 2), not the command's
    # exit code; a KeyboardInterrupt still stops the command
    py = tmp_path / "chart.py"
    argv = ["verify", "user-map", "--py", str(py), "--ambient", "warped-flat",
            "--n", "4", "--chart-u-span=-1:1", "--chart-v-span=-1:1",
            "--grid", "3x3"]
    py.write_text("import sys\nsys.exit(3)\n")
    assert main(argv) == 2
    assert capsys.readouterr().err == (f"error: ValueError: --py {str(py)!r} "
                                       f"failed at import: SystemExit: 3\n")
    py.write_text("raise KeyboardInterrupt\n")
    with pytest.raises(KeyboardInterrupt):
        main(argv)


@pytest.mark.parametrize("body, pattern", [
    ("raise KeyError('k')",
     r"ChartDomainError: chart failed at \(u,v\)=\(\S+,\S+\): KeyError: 'k'"),
    ("return None",
     r"DimensionMismatchError: the chart returned a scalar of type NoneType "
     r"for an ambient space of dimension 4"),
], ids=["raises-key-error", "returns-none"])
def test_verify_user_map_invalid_chart_exits_2_without_traceback(
        body, pattern, tmp_path, capsys):
    # a chart that raises any exception at a point is a degenerate node per
    # point; one that returns no vector is one grid-wide degeneracy
    py = tmp_path / "chart.py"
    py.write_text(f"def chart(u, v):\n    {body}\n")
    out = tmp_path / "report.json"
    code = main(["verify", "user-map", "--py", str(py), "--ambient",
                 "warped-flat", "--n", "4", "--chart-u-span=-1:1",
                 "--chart-v-span=-1:1", "--grid", "3x3", "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == "" and "verdict: degenerate" in captured.out
    degeneracies = json.loads(out.read_text())["degeneracies"]
    assert len(degeneracies) == (9 if body.startswith("raise") else 1)
    assert all(re.fullmatch(pattern, text) for _, _, text in degeneracies)
    i, j, text = degeneracies[0]
    assert (f"  degenerate node ({i},{j}): {text}" if i >= 0 else
            f"  degenerate grid: {text}") in captured.out.splitlines()


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


@pytest.mark.parametrize("flag, value, message", [
    ("--grid", "2x5", "grid must be at least 3x3"),
    ("--grid", "5", "--grid must be NUxNV, got '5'"),
    ("--u-span", "1:0", "--u-span must be lo:hi with finite lo < hi"),
    ("--v-span", "0.1", "--v-span must be lo:hi, got '0.1'"),
    ("--tol", "pmcv=abc", "--tol expects NAME=NUMBER, got 'pmcv=abc'"),
], ids=["grid-below-3", "grid-form", "u-span-reversed", "v-span-form",
        "tol-value"])
def test_bad_verify_flag_is_refused_before_the_family_solve(
        monkeypatch, capsys, flag, value, message):
    def no_solve(*args, **kwargs):
        raise AssertionError("the family was solved")

    monkeypatch.setattr(solvers, "solve_rotational_warp", no_solve)
    with pytest.raises(AssertionError, match="the family was solved"):
        main(THM4_ARGS)
    assert main(THM4_ARGS + [f"{flag}={value}"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: ValueError: {message}")


def test_product_member_from_b2_verifies(capsys):
    # b3 derived from b2 = 0.4: sqrt(1/3 - 0.16)
    argv = ["verify", "product", "--b1", "1", "--grid", "5x5"]
    assert main(argv + ["--b2", "0.4"]) == 0
    assert capsys.readouterr().out.endswith("verdict: pass\n")
    assert main(argv + ["--b2", "0.6"]) == 2
    assert "b2^2 exceeds" in capsys.readouterr().err


def test_substep_is_no_flag_and_no_config_key(tmp_path, capsys):
    # the stencil substep is shape.DEFAULT_SUBSTEP: a --substep flag and a
    # substep key are invalid input (exit 2) and nothing is verified
    argv = ["verify", "product", "--b1", "1", "--b3", "0.5", "--grid", "5x5"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--substep", "1e-3"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments: --substep 1e-3" in err
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("substep = 1e-3\n")
    assert main(argv + ["--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: ValueError: unknown config keys: substep\n"
    for kind in [*catalog.FAMILIES, "user-map"]:
        with pytest.raises(SystemExit):
            main(["verify", kind, "--help"])
        text = capsys.readouterr().out
        assert "--grid" in text and "--substep" not in text
