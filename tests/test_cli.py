import argparse
import dataclasses
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
from rwsurf import catalog, cli, families, solvers, verdicts
from rwsurf.cli import main
from rwsurf.immersion import Jet2Immersion
from rwsurf.shape import SurfaceGrid

import pins
from oracles import scan_rows


THM4_ARGS = [*pins.THM4, "--grid", "7x7"]
SYS5_ARGS = pins.SYS5


def test_commands_do_not_import_numpy_ma(tmp_path):
    # numpy.ma costs a process about 14 ms to import, and a plain np.unique
    # (np.setdiff1d's, say) imports it through np.ma.is_masked
    runs = [THM4_ARGS[:-1] + ["3x3"], pins.HOLED_PLANE,
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


def test_commands_without_geometry_work_import_no_numpy(tmp_path):
    # the package, the parser, --help, refused flags and report load no
    # geometry: numpy is imported by the first command that runs some; the
    # probe sees src alone from tmp_path, so a package that imports test code
    # (oracles, say) fails it with an ImportError
    (tmp_path / "cfg.txt").write_text("grid 5x5\n")
    runs = [["--help"],
            *(["verify", kind, "--help"]
              for kind in [*families.FAMILIES, "user-map"]),
            ["solve", "f4", "--help"],
            THM4_ARGS[:-1] + ["2x5"],
            THM4_ARGS + ["--config", "cfg.txt"],
            ["verify", "product", "--b1", "1", "--b3", "0.5",
             "--substep", "1e-3"],
            # report reads JSON alone, well-formed or not
            ["report", str(pins.CHARTS / "report_null_value.json")],
            ["report", str(pins.CHARTS / "report_entries.json")]]
    probe = ("import contextlib, io, json, sys\n"
             "import rwsurf, rwsurf.cli\n"
             "from rwsurf.cli import main\n"
             "def code(argv):\n"
             "    try:\n"
             "        with contextlib.redirect_stdout(io.StringIO()), \\\n"
             "                contextlib.redirect_stderr(io.StringIO()):\n"
             "            return main(argv)\n"
             "    except SystemExit as exc:\n"
             "        return exc.code\n"
             f"codes = [code(argv) for argv in {runs!r}]\n"
             "loaded = sorted({'numpy', *('rwsurf.' + m for m in ('verdicts',\n"
             "    'shape', 'immersion', 'ambient', 'linalg'))} & set(sys.modules))\n"
             "codes.append(code(['verify', 'product', '--b1', '1', '--b3',\n"
             "                   '0.5', '--grid', '5x5']))\n"
             "print(json.dumps([codes, loaded, 'numpy' in sys.modules]))\n")
    src = pathlib.Path(rw.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path,
                         check=True, capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}).stdout
    helps = [0] * (len(families.FAMILIES) + 3)
    assert json.loads(out.splitlines()[-1]) == [helps + [2, 2, 2, 0, 2, 0],
                                                [], True]


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
        assert rows == [fmt(r) for r in scan_rows(result)]
    dense = tmp_path / "sys.csv"
    main(["solve", "sys5", "--a", "2", "--H0", "0.6", "--c2", "0.48",
          "--c3", "0.64", "--f0", "1.5", "--f0p", "1.2", "--y0", "0.4",
          "--y0p", "-0.7", "--u1", "0.5", "--csv", str(dense), "--samples", "4"])
    solution = rw.solve_warp_system(rw.validate_constants_l5(2, 0.6, 0.48, 0.64),
                                    (1.5, 1.2, 0.4, -0.7), (0.0, 0.5))
    ts = np.linspace(*solution.warp.interval, 4)
    assert dense.read_text().splitlines()[1:] == [
        fmt((t, *solution.warp(t), *solution.y_state(t))) for t in ts.tolist()]


@pytest.fixture(scope="module")
def pin_table():
    """Each row's problems when the whole pin table runs in-process."""
    return pins.check(pins.run)


# every row of pins.PIN_RUNS, run in table order in one directory: its exit
# code, its lines, Rules A and B, and each output against its line of
# tests/digests.sha256 (re-pinned by tests/repin.py); CI runs the same rows
# through the installed console script with `python tests/pins.py`
@pytest.mark.parametrize("key", [row.key for row in pins.PIN_RUNS])
def test_pinned_output_bytes(key, pin_table):
    assert pin_table[key] == []


def test_every_manifest_line_is_read():
    # each line of tests/digests.sha256 is checked by the pin table or by
    # test_batch, every name once
    keys = [row.key for row in pins.PIN_RUNS]
    table = [name for row in pins.PIN_RUNS for name in row.outputs]
    assert len(set(keys)) == len(keys)
    assert len(set(table)) == len(table) and pins.NAN_CORNERED not in table
    assert sorted(pins.read_manifest()) == sorted([*table, pins.NAN_CORNERED])


def test_every_file_of_the_charts_directory_is_read_by_a_row():
    read = {arg for row in pins.PIN_RUNS for arg in row.argv}
    files = [p for p in pins.CHARTS.iterdir() if p.is_file()]
    assert files and [p.name for p in files if str(p) not in read] == []


def test_every_row_the_oldest_python_runs_is_a_pin_row_named_once():
    # CI's Python 3.10 step runs the rows pins.OLDEST_PYTHON_ROWS names; a
    # renamed or misspelt key fails here, not first on that leg.  That step
    # refuses stray stderr through pins.problems alone, which checks stderr
    # on a row that pins outputs or declares an error: line (Rule B)
    rows = {row.key: row for row in pins.PIN_RUNS}
    named = pins.OLDEST_PYTHON_ROWS
    assert [key for key in named if key not in rows] == []
    assert len(set(named)) == len(named)
    assert [key for key in named if not rows[key].outputs and not any(
        line.startswith("error: ") for line in rows[key].lines)] == []


def test_rule_a_a_run_adds_exactly_its_pinned_files(tmp_path):
    # Rule A: a file the row does not pin is a problem, even beside a
    # refusal, and so is a pinned file the run did not add
    row = pins.Run("csv", ["scan", "h4", "--csv", "h4.csv"], 0, ("h4.csv",))
    assert pins.problems(row, 0, "", "", {"h4.csv"}, tmp_path) == []
    assert pins.problems(row, 0, "", "", {"h4.csv", "h4.json"},
                         tmp_path) == ["added h4.json"]
    assert pins.problems(row, 0, "", "", set(), tmp_path) == [
        "did not add h4.csv"]
    refused = pins._refused("refused", ["scan", "h4"], "ValueError: x")
    assert pins.problems(refused, 2, "", "error: ValueError: x\n",
                         {"h4.csv"}, tmp_path) == ["added h4.csv"]


def test_rule_b_a_refusal_prints_its_declared_lines_alone(tmp_path):
    # Rule B: a row that declares an error line prints nothing on stdout,
    # and nothing on stderr but its declared lines
    row = pins._refused("refused", ["verify", "thm4"], "ValueError: x")
    err = "error: ValueError: x\n"
    assert pins.problems(row, 2, "", err, set(), tmp_path) == []
    assert pins.problems(row, 2, "chart imported\n", err, set(),
                         tmp_path) == ["stdout 'chart imported\\n'"]
    noisy = "warp integration: completed\n" + err
    assert pins.problems(row, 2, "", noisy, set(), tmp_path) == [
        f"stderr {noisy!r}"]


def _rows(cases):
    """A test of pin-table rows: of the row keys ``cases``, or, given a dict,
    one case per id of the row it maps to."""
    if isinstance(cases, dict):
        @pytest.mark.parametrize("key", list(cases.values()),
                                 ids=list(cases))
        def test(key, pin_table):
            assert pin_table[key] == []
    else:
        def test(pin_table):
            assert {key: pin_table[key] for key in cases} == {
                key: [] for key in cases}
    return test


# Each CLI check under the test id that names it: a view of its rows'
# problems, so the ids stay stable as rows are added.  The runs, their exit
# codes and lines are stated once, in pins.PIN_RUNS.
test_verify_thm4_passes = _rows(["thm4_5"])
test_verify_thm5_passes = _rows(["thm5_5"])
test_verify_product_valid_member = _rows(["product_5"])
test_verify_product_forced_break_fails = _rows(["product_force_b4_5"])
test_verify_user_map_plane = _rows(["plane_5"])
test_verify_user_map_product_member = _rows(["sphere_chart_5"])
test_cli_outputs_bit_identical = _rows(["thm4_17"])
test_residuals_csv_when_grid_cannot_be_built = _rows(["product_no_grid_5"])
test_solve_sys5_csv = _rows(["sys5"])
test_scan_h4 = _rows(["scan_h4"])
test_scan_slice = _rows(["scan_slice"])
test_verify_product_constraint_violation_exits_2 = _rows(["product_b2=0.4"])
test_verify_product_nan_constant_exits_2 = _rows(["product_b2=nan"])
test_unknown_tolerance_override_exits_2 = _rows(["thm4_tol=pmvc=1e-30"])
test_solve_f4_inadmissible_exits_2 = _rows(["f4_f0p=0"])
test_degenerate_interval_exits_2_naming_it = _rows(["thm4_u-end=0"])
test_a_negative_infinite_end_is_written_with_equals = _rows([
    "f4_negative_infinite_end_spaced", "f4_negative_infinite_end"])
test_scan_h4_bad_range_exits_2 = _rows(["h4_theta=0:3:5", "h4_theta=1:2:0"])
test_reversed_scan_range_is_accepted = _rows(["slice_reversed", "h4_reversed"])
test_report_missing_file = _rows(["report_missing"])
test_config_file_defaults_and_override = _rows([
    "thm4_config_u_end", "thm4_config_u_end_grid"])
test_config_file_skips_comments_and_blank_lines = _rows([
    "thm4_config", "thm4_config_no_equals"])
test_config_file_that_is_no_utf8_names_its_file = _rows([
    "thm4_config_not_utf8"])
test_config_file_unknown_key_rejected = _rows(["thm4_config_unknown_keys"])
test_verify_user_map_horizontal_slice_degenerate = _rows(["horizontal_slice"])
test_huge_initial_slope_exits_2 = _rows({
    "1e60-solve": "f4_steep_slope", "-1e60-solve": "f4_f0p=-1e60",
    "1e60-verify": "thm4_f0p=1e60", "-1e60-verify": "thm4_f0p=-1e60"})
test_non_finite_initial_condition_exits_2 = _rows({
    "f4-f0": "f4_f0=nan", "f4-f0p": "f4_f0p=inf", "sys5-f0p": "sys5_f0p=nan",
    "sys5-y0": "sys5_y0=-inf", "verify-thm4-f0p": "thm4_f0p=nan"})
test_non_finite_solver_tolerance_exits_2 = _rows({
    f"{kind}-{flag}-{value}": f"{kind}_{flag}={value}"
    for kind, flag in (("f4", "rtol"), ("sys5", "atol"))
    for value in ("inf", "nan")})
test_nan_interval_endpoint_exits_2 = _rows({
    "f4-u0": "f4_u0=nan", "f4-u1": "f4_u1=nan",
    "verify-thm4-u-end": "thm4_u-end=nan"})
test_infinite_start_time_exits_2 = _rows({"f4": "f4_u0=inf",
                                          "sys5": "sys5_u0=-inf"})
test_infinite_end_time_solves_to_its_monitor_stop = _rows({
    "f4": "f4_u1=inf", "sys5": "sys5_u1=inf"})
test_refused_constants_exit_2_with_their_message = _rows({
    "force-b4-needs-b2-b3": "force_b4_without_b2", "f4-f0-zero": "f4_f0=0",
    "sys5-f0-zero": "sys5_f0=0", "thm4-c2": "thm4_a=1",
    "thm5-b2": "thm5_H0=1", "product-b2-zero": "product_b2=0"})
test_warp_below_its_floor_at_the_start_exits_2 = _rows({
    "solve-f4": "f4_below_floor", "verify-thm4": "thm4_below_floor"})
test_solve_rejects_fewer_than_two_samples = _rows({
    f"{kind}-{n}": f"{kind}_samples={n}"
    for kind in ("f4", "sys5") for n in ("0", "1", "-3")})
test_scan_range_must_be_finite_with_a_count = _rows({
    f"argv{i}---{key.split('_')[1].replace('=', '-', 1)}": key
    for i, key in enumerate([
        "h4_theta=nan:3:5", "slice_theta=0.1:inf:3", "h4_tau=-inf:5:3",
        "h4_theta=0.1:3", "h4_theta=0.1:3:5:7", "h4_theta=0.1:3:2.5",
        "h4_tau=0:5:-3", "slice_theta=0.1:3:0", "h4_tau=a:5:3"])})
test_report_of_json_that_is_not_a_report_exits_2 = _rows({
    "empty": "not_a_report", "entry-type": "report_entry_type",
    **{name: f"report_{name}"
       for name in ("list", "null", "grid", "entry", "entries", "value",
                    "diagnostics", "verdict")}})
test_report_that_is_no_json_names_its_file = _rows({
    "truncated": "report_truncated", "empty": "report_empty",
    "not-utf-8": "report_not_utf8"})
test_non_finite_or_non_positive_tolerance_exits_2 = _rows({
    "pmcv=nan": "thm4_nan_tol",
    **{item: f"thm4_tol={item}"
       for item in ("pmcv=inf", "pmcv=0", "pmcv=-1e-6")}})
test_unparsable_tolerance_names_the_flag = _rows({
    item: f"thm4_tol={item}" for item in ("pmcv=abc", "pmcv=", "pmcv")})
test_malformed_or_non_finite_warp_names_the_flag = _rows({
    spec: f"user-map_warp={spec}"
    for spec in ("exp:abc", "poly:", "poly:1,x", "const:nan", "exp:inf",
                 "poly:1,-inf", "exp:1,2", "cosh:1", "sinh", "")})
test_verify_user_map_wrong_chart_length_exits_2 = _rows({
    "one-coordinate": "one_coordinate_chart",
    "six-coordinates": "six_coordinate_chart"})
test_user_map_with_no_room_for_e4_exits_2 = _rows({
    "warped-flat": "printing_chart_n3", "product": "sphere_chart_n3"})
test_user_map_chart_that_cannot_be_loaded_exits_2 = _rows({
    "undefined-attr": "no_chart", "attr-not-callable": "chart_not_callable",
    "not-a-module": "not_a_module", "raises-at-import": "raising_chart",
    "exits-at-import": "exiting_chart"})
test_user_map_flags_are_refused_before_the_chart_file_runs = _rows({
    "warp": "printing_chart_bad_warp",
    "chart-u-span": "user-map_chart-u-span=1:0", "n": "printing_chart_n3"})
test_non_finite_span_is_invalid_input = _rows({
    f"{value}---{flag}": f"product_{flag}={value}"
    for flag in ("u-span", "v-span")
    for value in ("nan:0.1", "0.1:nan", "-inf:0.1", "0.1:inf", "0.1:0")})
test_chart_span_must_be_finite_and_ordered = _rows({
    f"{value}---{flag}": f"user-map_{flag}={value}"
    for flag in ("chart-u-span", "chart-v-span")
    for value in ("nan:1", "-1:nan", "-inf:1", "1:0", "0:0")})
test_malformed_grid_or_span_names_the_flag = _rows({
    f"--{flag}-{value}-{form}": f"product_{flag}={value}"
    for flag, value, form in (("grid", "5x5x2", "NUxNV"), ("grid", "5", "NUxNV"),
                              ("u-span", "0.1", "lo:hi"),
                              ("v-span", "0:1:2", "lo:hi"))})


@pytest.mark.parametrize("command", [["solve", "f4"], ["verify", "thm4"]],
                         ids=["solve", "verify"])
def test_overflowing_initial_slope_exits_2(capsys, command):
    # the message ends in the platform's text for the overflow's errno, so
    # no pin-table row states it
    code = main([*command, "--a", "2", "--H0", "0.5", "--f0", "1",
                 "--f0p=1e80"])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: AdmissibilityError: the derivative at the "
                          "initial state t=0.0 is not finite (OverflowError: ")


def test_user_map_chart_that_does_not_compile_exits_2(tmp_path, capsys):
    # the SyntaxError's text is the Python version's, so no pin-table row
    # states it
    py = tmp_path / "chart.py"
    py.write_text("def chart(u, v):\n    return (u, v,\n")
    assert main(["verify", "user-map", "--py", str(py), "--ambient",
                 "warped-flat", "--n", "4", "--chart-u-span=-1:1",
                 "--chart-v-span=-1:1", "--grid", "3x3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: ValueError: --py {str(py)!r} failed at "
                          "import: SyntaxError: ")
    assert err.count("\n") == 1


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
        _reference_row(r) for r in scan_rows(result))


class _SyntheticSolution:
    """Dense-output stand-in whose states hold the special floats."""

    def __init__(self, interval):
        self.warp = self
        self.interval = interval

    def __call__(self, t):
        return SPECIAL_FLOATS[0], SPECIAL_FLOATS[1], t * SPECIAL_FLOATS[2]

    def y_state(self, t):
        return tuple(SPECIAL_FLOATS[3:6])

    def state(self, t):
        return (*self(t), *self.y_state(t))


@pytest.mark.parametrize("with_y", [False, True])
def test_dense_csv_matches_the_per_cell_reference(with_y, tmp_path):
    solution = _SyntheticSolution((-0.0, 5e-324))
    csv = tmp_path / "dense.csv"
    cli._write_dense_csv(csv, solution, 5, with_y)
    rows = [(t, *solution.warp(t), *(solution.y_state(t) if with_y else ()))
            for t in np.linspace(-0.0, 5e-324, 5).tolist()]
    header = "t,f,fp,fpp" + (",y,yp,ypp" if with_y else "") + "\n"
    assert csv.read_text() == header + "".join(_reference_row(r) for r in rows)


def test_solve_sys5_csv_reads_each_row_from_one_state_read(tmp_path,
                                                           monkeypatch):
    # a row's six values come from one state read and none from the warp,
    # after the 200 state reads of the printed max equation residual
    family, solutions, reads, warp_reads = families.FAMILIES["thm5"], [], [], []

    def counting_solve(params, interval, config=None):
        solution = family.solve(params, interval, config)
        state = solution.state
        solutions.append(solution)
        return dataclasses.replace(
            solution, state=lambda t: reads.append(t) or state(t))

    monkeypatch.setitem(families.FAMILIES, "thm5",
                        family._replace(solve=counting_solve))
    warp = rw.WarpingFunction.__call__
    monkeypatch.setattr(rw.WarpingFunction, "__call__",
                        lambda self, t: warp_reads.append(t) or warp(self, t))
    csv = tmp_path / "sys5.csv"
    assert main(SYS5_ARGS + ["--csv", str(csv), "--samples", "7"]) == 0
    assert warp_reads == [] and len(reads) == 200 + 7
    [solution] = solutions
    assert reads[200:] == np.linspace(*solution.warp.interval, 7).tolist()
    assert len(csv.read_text().splitlines()) == 1 + 7


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


def test_an_output_that_names_an_input_is_refused(tmp_path, capsys):
    # before the chart file runs or anything is solved, so every input keeps
    # its bytes; on copies, since a regression would overwrite them
    chart = tmp_path / "printing_chart.py"
    chart.write_bytes(pathlib.Path(pins.chart("printing_chart")).read_bytes())
    cfg = tmp_path / "c.cfg"
    cfg.write_text("grid = 3x3\n")
    (tmp_path / "sub").mkdir()
    spelled = str(tmp_path / "sub" / ".." / "c.cfg")  # one file, two names
    user_map = pins._user_map("printing_chart")
    user_map[user_map.index("--py") + 1] = str(chart)
    for argv, first, then in (
            ([*user_map, "--surface-csv", str(chart)], ("--py", chart),
             ("--surface-csv", chart)),
            ([*THM4_ARGS, "--config", str(cfg), "--out", spelled],
             ("--config", cfg), ("--out", spelled)),
            ([*user_map, "--config", str(cfg), "--residuals-csv", str(cfg)],
             ("--config", cfg), ("--residuals-csv", cfg))):
        inputs = {path: path.read_bytes() for path in (chart, cfg)}
        assert main(argv) == 2
        assert capsys.readouterr() == ("", (
            f"error: ValueError: {first[0]} {str(first[1])!r} and {then[0]} "
            f"{str(then[1])!r} name one file\n"))
        assert {path: path.read_bytes() for path in inputs} == inputs
    assert sorted(os.listdir(tmp_path)) == ["c.cfg", "printing_chart.py", "sub"]


@pytest.mark.parametrize("key", ["u_end"])
def test_config_value_that_is_no_number_names_its_key(key, tmp_path, capsys,
                                                     monkeypatch):
    # refused while the options are read: no solve, no jet, no report
    def no_grid_work(*args, **kwargs):
        raise AssertionError("grid work before the options were checked")

    monkeypatch.setattr(verdicts, "verify_surface", no_grid_work)
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


def test_tolerance_override_flag(tmp_path):
    out = tmp_path / "r.json"
    code = main(THM4_ARGS + ["--tol", "pmcv=1e-15", "--out", str(out)])
    assert code == 1  # absurdly tight tolerance flips the pmcv entry
    report = json.loads(out.read_text())
    entry = next(e for e in report["entries"] if e["name"] == "pmcv")
    assert entry["tol"] == 1e-15 and not entry["passed"]


@pytest.mark.parametrize("spec", ["exp", "exp:0.5", "cosh", "const", "const:2",
                                  "poly:2,0.1"])
def test_well_formed_warp_is_accepted(spec):
    warp = cli._parse_warp(spec)
    f, fp, fpp = warp(0.3)
    assert f > 0 and math.isfinite(fp) and math.isfinite(fpp)


def test_verify_subcommands_come_from_the_family_table():
    parser = cli.build_parser()
    for name, family in families.FAMILIES.items():
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
    assert {("verify", name) for name in families.FAMILIES} <= kinds
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)  # SystemExit(2) on a flag the parser lacks


def test_verify_user_map_writes_no_bytecode_beside_the_chart(
        tmp_path, monkeypatch, capsys):
    # even with bytecode writing on, loading the chart leaves nothing beside it
    monkeypatch.setattr(sys, "dont_write_bytecode", False)
    py = tmp_path / "sphere_chart.py"
    py.write_text(pathlib.Path(pins.chart("sphere_chart")).read_text())
    code = main(["verify", "user-map", "--py", str(py), "--ambient", "product",
                 "--n", "5", "--c", "1", "--chart-u-span", "0.1:3.3",
                 "--chart-v-span", "0.1:3.0", "--grid", "3x3"])
    assert code == 0 and "verdict: pass" in capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sphere_chart.py"]


def test_product_warp_const_1_is_the_default_unit_warp(tmp_path, capsys):
    # --warp const:1 spells out the unit warp a product run gets without
    # --warp: the warp is read at every time, and the report keeps its bytes
    reports = []
    for warp in ([], ["--warp", "const:1"]):
        out = tmp_path / f"report{len(reports)}.json"
        assert main([*pins.SPHERE, *warp, "--grid", "9x9", "--out",
                     str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_verify_user_map_chart_errors_are_degenerate_nodes(tmp_path, capsys):
    # math.log fails for u <= -0.5: each such node is a recorded
    # degeneracy naming its point, and the report is still written
    out = tmp_path / "report.json"
    code = main(["verify", "user-map", "--py", pins.chart("log_chart"), "--ambient",
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
    code = main(pins.HOLED_PLANE + ["--surface-csv", str(surf_csv)])
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


@pytest.mark.parametrize("argv, kind", [
    (["solve", "f4", "--a", "2", "--H0", "0.5", "--f0", "1", "--f0p", "2"],
     "thm4"),
    (["solve", "sys5", "--a", "2", "--H0", "0.6", "--c2", "0.48", "--c3", "0.64",
      "--f0", "1.5", "--f0p", "1.2", "--y0", "0.4", "--y0p", "-0.7"], "thm5"),
], ids=["f4", "sys5"])
def test_solve_runs_the_family_recipe_once(argv, kind, monkeypatch, capsys):
    # solve f4|sys5 solve through families.FAMILIES, with their span and
    # tolerances, as verify thm4|thm5 do
    family, calls = families.FAMILIES[kind], []

    def counting_solve(params, interval, config=None):
        calls.append((interval, config))
        return family.solve(params, interval, config)

    monkeypatch.setitem(families.FAMILIES, kind,
                        family._replace(solve=counting_solve))
    assert main(argv + ["--u0", "0.1", "--u1", "0.6", "--rtol", "1e-9"]) == 0
    assert calls == [((0.1, 0.6), rw.SolverConfig(rtol=1e-9, atol=1e-13))]


def test_surface_csv_writes_nan_where_the_chart_fails(tmp_path, capsys):
    # nodes whose chart call fails are degeneracies of the grid; the surface
    # CSV writes them as NaN rows, and the command ends by its verdict
    surf_csv = tmp_path / "surf.csv"
    code = main(pins.HOLED_PLANE + ["--surface-csv", str(surf_csv)])
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


def test_user_map_chart_file_exiting_at_import_names_the_exit(tmp_path, capsys):
    # sys.exit at import is the file's failure (pins.PIN_RUNS' exiting_chart),
    # not the command's exit code; a KeyboardInterrupt still stops the command
    py = tmp_path / "chart.py"
    py.write_text("raise KeyboardInterrupt\n")
    with pytest.raises(KeyboardInterrupt):
        main(["verify", "user-map", "--py", str(py), "--ambient", "warped-flat",
              "--n", "4", "--chart-u-span=-1:1", "--chart-v-span=-1:1",
              "--grid", "3x3"])


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


@pytest.mark.parametrize("flag, value, message", [
    ("--grid", "2x5", "grid must be at least 3x3"),
    ("--grid", "5", "--grid must be NUxNV, got '5'"),
    ("--u-span", "1:0", "--u-span must be lo:hi with finite lo < hi"),
    ("--v-span", "0.1", "--v-span must be lo:hi, got '0.1'"),
    ("--tol", "pmcv=abc", "--tol expects NAME=NUMBER, got 'pmcv=abc'"),
    ("--tol", "bogus=1", "no tolerance entry named bogus"),
    ("--tol", "pmcv=nan", "tolerance pmcv must be finite and positive, got nan"),
], ids=["grid-below-3", "grid-form", "u-span-reversed", "v-span-form",
        "tol-value", "tol-name", "tol-nan"])
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


def test_substep_is_no_flag_and_no_config_key(capsys):
    # the stencil substep is shape.DEFAULT_SUBSTEP: pins.PIN_RUNS refuses a
    # --substep flag (product_substep) and a substep key
    # (product_config_substep), and no verify subcommand's help names it
    for kind in [*families.FAMILIES, "user-map"]:
        with pytest.raises(SystemExit):
            main(["verify", kind, "--help"])
        text = capsys.readouterr().out
        assert "--grid" in text and "--substep" not in text


@pytest.mark.parametrize("kind, key", [("thm4", "c2"), ("user-map", "attr")],
                         ids=["thm4-c2", "user-map-attr"])
def test_removed_value_is_no_flag_and_no_config_key(kind, key, capsys):
    # thm4's c2 is derived from a and H0, and a user map's chart is the
    # file's chart: pins.PIN_RUNS refuses each as a flag and as a config key,
    # and the subcommand's help does not name it
    with pytest.raises(SystemExit):
        main(["verify", kind, "--help"])
    text = capsys.readouterr().out
    assert "--grid" in text and f"--{key}" not in text


def _leaf_parsers(parser, path=()):
    """Each subcommand parser of ``parser`` that takes no subcommand, with
    the subcommand names that reach it."""
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from _leaf_parsers(sub, (*path, name))


# a run of each subcommand that writes an output, valid but for its outputs
_WRITERS = {("verify", "thm4"): pins.THM4, ("verify", "thm5"): pins.THM5,
            ("verify", "product"): pins.PRODUCT,
            ("verify", "user-map"): pins.SPHERE, ("solve", "f4"): pins.F4_REF,
            ("solve", "sys5"): pins.SYS5, ("scan", "h4"): pins.H4,
            ("scan", "slice"): pins.SLICE}


def test_every_output_path_is_checked_before_any_work(tmp_path, monkeypatch,
                                                      capsys):
    # every flag that names a file to write (--out, or a --*csv flag) of
    # every subcommand: a path in a missing directory is refused, with
    # nothing printed or written, before any solve, chart import or scan;
    # a future output flag fails here until it follows the rule
    def no_work(*args, **kwargs):
        raise AssertionError("work before the output paths were checked")

    for owner, name in ((solvers, "rk_integrate"), (cli, "_load_chart"),
                        (verdicts, "verify_surface"),
                        (catalog, "nonexistence_scan_e11h4"),
                        (catalog, "nonexistence_slice_scan")):
        monkeypatch.setattr(owner, name, no_work)
    monkeypatch.chdir(tmp_path)
    checked = []
    for path, parser in _leaf_parsers(cli.build_parser()):
        for action in parser._actions:
            if action.dest != "out" and not action.dest.endswith("csv"):
                continue
            flag = action.option_strings[0]
            assert main([*_WRITERS[path], flag, "nodir/x"]) == 2, (path, flag)
            assert capsys.readouterr() == ("", (
                f"error: ValueError: {flag} 'nodir/x': directory 'nodir' does "
                "not exist\n")), (path, flag)
            checked.append((path, action.dest))
    assert os.listdir(tmp_path) == []
    assert {dest for _, dest in checked} == {"out", "residuals_csv",
                                              "surface_csv", "csv"}
