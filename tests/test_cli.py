import json
import os
import pathlib
import subprocess
import sys

import numpy as np

import rwsurf as rw
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
    assert "step-underflow" in capsys.readouterr().out


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


def test_surface_csv_fails_where_the_chart_fails(tmp_path, capsys):
    # nodes whose chart call fails are degeneracies of the grid; writing the
    # surface CSV still fails the command there instead of printing NaN rows
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
    assert "error: ChartDomainError: non-finite jet" in capsys.readouterr().err
    text = surf_csv.read_text()
    assert "nan" not in text.lower()
    assert 1 < len(text.splitlines()) < 1 + 25


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
