"""The pinned CLI runs and outputs, stated once.

``PIN_RUNS`` is the one table of the command lines the project pins: each
row's exit code, the lines it must print, and the outputs whose bytes
``digests.sha256`` pins (one ``sha256sum`` line per output name).  The rows
run in table order in one directory, so a row can read what an earlier one
wrote.  ``pinned_reports_9x9.json`` holds the 9x9 report values of the
catalog members in ``MEMBERS_9X9``.  The tier-1 pin tests and ``repin.py``
(which rewrites both files) read everything from here.

    python tests/pins.py

runs every row through the ``rwsurf`` console script on ``PATH``, in a
temporary directory, and exits 1 on a wrong exit code, a missing or
forbidden line, or an output whose digest is not the manifest's.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

import conftest
from rwsurf.cli import main
from rwsurf.verdicts import verify_surface

HERE = pathlib.Path(__file__).resolve().parent
MANIFEST = HERE / "digests.sha256"
REPORTS_9X9 = HERE / "pinned_reports_9x9.json"
CHARTS = HERE / "charts"


def chart(name: str) -> str:
    """The path of the user-map chart ``charts/<name>.py``; a report names
    it ``user-map:<name>.py`` whatever its directory."""
    return str(CHARTS / f"{name}.py")


class Run(NamedTuple):
    """``rwsurf argv`` exits ``code``, prints each of ``lines`` and none of
    ``absent`` (whole lines of stdout or stderr), and leaves ``outputs``,
    the names the manifest pins: a name ending in .stdout is the run's
    standard output, any other a file the argv writes into the working
    directory.  A run that writes pinned outputs prints nothing on stderr.
    ``key`` names the row."""

    key: str
    argv: list
    code: int = 0
    outputs: tuple = ()
    lines: tuple = ()
    absent: tuple = ()


THM4 = ["verify", "thm4", "--a", "2", "--H0", "0.5", "--f0", "1", "--f0p", "2"]
THM5 = ["verify", "thm5", "--a", "2", "--H0", "0.6", "--c2", "0.48",
        "--c3", "0.64", "--f0", "1.5", "--f0p", "1.2", "--y0", "0.4",
        "--y0p", "-0.7"]
PRODUCT = ["verify", "product", "--b1", "1", "--b3", "0.5"]
FORCE_B4 = ["verify", "product", "--b1", "1", "--b2", "0.4", "--b3", "0.5",
            "--force-b4"]
SPHERE = ["verify", "user-map", "--py", chart("sphere_chart"), "--ambient",
          "product", "--n", "5", "--chart-u-span", "0.1:3.3",
          "--chart-v-span", "0.1:3.0"]
HOLED_PLANE = ["verify", "user-map", "--py", chart("holed_plane"),
               "--ambient", "warped-flat", "--n", "4", "--warp", "const:1",
               "--chart-u-span=-1:1", "--chart-v-span=-1:1", "--grid", "5x5"]
F4 = ["solve", "f4", "--a", "2", "--H0", "0.5", "--f0", "1"]  # each run's --f0p
SYS5 = ["solve", "sys5", *THM5[2:]]


def _user_map(name, *flags):
    """A 3x3 warped-flat user-map run over ``charts/<name>.py``."""
    return ["verify", "user-map", "--py", chart(name), "--ambient",
            "warped-flat", "--n", "4", *flags, "--chart-u-span=-1:1",
            "--chart-v-span=-1:1", "--grid", "3x3"]


def _verify(name, argv, code=0, **row):
    """A verify run whose stdout and report are pinned as ``name.stdout``
    and ``name.json``."""
    return Run(name, [*argv, "--out", f"{name}.json"], code,
               (f"{name}.stdout", f"{name}.json"), **row)


def _partial(name, argv, code):
    """A verify run pinned by its stdout, report and both CSVs."""
    run = _verify(name, argv, code)
    return run._replace(
        argv=[*run.argv, "--residuals-csv", f"{name}_res.csv",
              "--surface-csv", f"{name}_surf.csv"],
        outputs=(*run.outputs, f"{name}_res.csv", f"{name}_surf.csv"))


def _degenerate_user_map(name, **row):
    """A 9x9 user-map run over a chart that fails on part of the grid."""
    return Run(f"{name}_9", [
        "verify", "user-map", "--py", chart(name), "--ambient", "warped-flat",
        "--n", "4", "--warp", "exp", "--chart-u-span=-1:1",
        "--chart-v-span=-1:1", "--grid", "9x9", "--out", f"{name}_9.json"], 2,
        (f"{name}_9.json",), **row)


def _refused(key, argv, error, **row):
    """Invalid input (exit 2) refused with the one line ``error: <error>``."""
    return Run(key, argv, 2, lines=(f"error: {error}",), **row)


def _unrecognized(key, argv, *flag):
    """``flag``, which no subcommand takes, refused (exit 2) by the
    subcommand ``argv`` runs, under that subcommand's usage."""
    return Run(key, [*argv, *flag], 2, lines=(
        f"rwsurf {' '.join(argv[:2])}: error: unrecognized arguments: "
        f"{' '.join(flag)}",), absent=(
        "usage: rwsurf [-h] {verify,solve,scan,report} ...",))


PIN_RUNS = [
    Run("scan_h4", ["scan", "h4", "--csv", "scan_h4.csv"], 0, ("scan_h4.csv",)),
    Run("scan_slice", ["scan", "slice", "--c", "1", "--csv", "scan_slice.csv"],
        0, ("scan_slice.csv",)),
    # the per-cell CSV writers' row templates keep every byte
    Run("thm4_res", [*THM4, "--grid", "5x5", "--residuals-csv", "thm4_res.csv",
                     "--surface-csv", "thm4_surf.csv"],
        0, ("thm4_res.csv", "thm4_surf.csv")),
    Run("f4", [*F4, "--f0p", "2", "--csv", "f4.csv", "--samples", "2001"], 0,
        ("f4.csv",)),
    Run("sys5", [*SYS5, "--csv", "sys5.csv", "--samples", "2001"], 0,
        ("sys5.csv",)),
    # each verify subcommand at 5x5; the user-map run goes through
    # finite-difference jets
    _verify("thm4_5", [*THM4, "--grid", "5x5"]),
    _verify("thm5_5", [*THM5, "--grid", "5x5"]),
    _verify("product_5", [*PRODUCT, "--grid", "5x5"]),
    _verify("product_force_b4_5", [*FORCE_B4, "--grid", "5x5"], 1),
    _verify("sphere_chart_5", [*SPHERE, "--grid", "5x5"]),
    # the grids the certificates are read at, where every short-axis sum runs
    _verify("thm4_17", THM4),
    _verify("thm5_17", THM5),
    _verify("product_17", PRODUCT),
    _verify("product_force_b4_17", FORCE_B4, 1),
    _verify("thm4_33", [*THM4, "--grid", "33x33"]),
    # surface CSV rows that do not all come from a full grid
    _partial("holed_plane_5", HOLED_PLANE, 2),
    _partial("product_no_grid_5", [*PRODUCT, "--grid", "5x5", "--u-span", "0:1"],
             2),
    # a backward solve; its stdout names the CSV, so the CSV keeps the name
    # it was first pinned under
    Run("f4_backward", [*F4, "--f0p", "-2", "--u0", "0.3", "--u1", "-0.5",
                        "--rtol", "1e-9", "--csv", "dense.csv"],
        0, ("f4_backward.stdout", "dense.csv")),
    # each failing node's first failing point's refusal (the node, then its
    # stencil points); the report is still written
    _degenerate_user_map("log_chart"),
    _degenerate_user_map("nan_chart", lines=(
        "  degenerate node (6,0): ChartDomainError: non-finite jet at "
        "(u,v)=(0.494,-0.988)", "  ... 22 more degenerate nodes")),
    # a pinned report reads back
    Run("report_thm4_17", ["report", "thm4_17.json"], 0, lines=(
        "  [pass] pmcv                     8.148178e-10  (tol 1e-05)",
        "verdict: pass")),
    # a config file's comment line and blank line are skipped
    Run("thm4_config", [*THM4, "--config", str(CHARTS / "verify.cfg")], 0,
        lines=("grid: 5x5 u=[0.0159381, 0.162484] v=[0.0248496, 3.11674]",)),
    # the product member with b3 derived from b2 passes, unless b2 is too large
    Run("product_from_b2",
        ["verify", "product", "--b1", "1", "--b2", "0.4", "--grid", "5x5"], 0,
        lines=("verdict: pass",)),
    _refused("product_b2_too_large",
             ["verify", "product", "--b1", "1", "--b2", "0.6", "--grid", "5x5"],
             "ConstraintError: b2^2 + b3^2 = 1/(b1^2+2) unsolvable: b2^2 "
             "exceeds 0.3333333333333333"),
    # the stencil substep is no flag, nor thm4's c2, which a and H0 fix
    _unrecognized("product_substep", [*PRODUCT, "--grid", "5x5"],
                  "--substep", "1e-3"),
    _unrecognized("thm4_c2", [*THM4, "--grid", "5x5"],
                  "--c2", "0.86602540378444"),
    _refused("force_b4_without_b2", [*PRODUCT, "--force-b4", "--grid", "3x3"],
             "ValueError: --force-b4 needs explicit --b2 and --b3"),
    # a tolerance is refused before the family is solved
    _refused("thm4_nan_tol", [*THM4, "--grid", "3x3", "--tol", "pmcv=nan"],
             "ValueError: tolerance pmcv must be finite and positive, got nan",
             absent=("warp integration: monitor:blow-up, estimated blow-up at "
                     "t=0.178422, admissible interval [0, 0.178422]",)),
    # a negative infinite end is written with "=": argparse reads "-inf"
    # after a space as an option; the solve stops at its monitor
    Run("f4_negative_infinite_end", [*F4, "--f0p", "2", "--u1=-inf"], 0,
        lines=("stop reason: monitor:admissible",)),
    # an admissible slope too steep to take a step from
    _refused("f4_steep_slope", [*F4, "--f0p", "1e60"],
             "AdmissibilityError: integration could not take a single step"),
    _refused("not_a_report", ["report", str(CHARTS / "not_a_report.json")],
             f"ValueError: {CHARTS / 'not_a_report.json'}: report field "
             "'entries' is missing"),
    # E^1_1 x H^4 (--c -1): the hyperbolic fiber admits no PMCV member, so
    # pmcv fails and biconservativity holds
    Run("h4_chart_5", ["verify", "user-map", "--py", chart("h4_chart"),
                       "--ambient", "product", "--n", "5", "--c", "-1",
                       "--chart-u-span", "0.1:3.3", "--chart-v-span", "0.1:3.0",
                       "--grid", "5x5"], 1, lines=(
        "  [FAIL] pmcv                     3.535534e+00  (tol 1e-05)",
        "  [pass] biconservativity         2.479565e-07  (tol 1e-05)",
        "verdict: fail")),
    # an ambient with no room for e4 (the later --n wins), and no --attr: the
    # chart is the file's chart
    _refused("sphere_chart_n3", [*SPHERE, "--grid", "3x3", "--n", "3"],
             "DimensionMismatchError: need n >= 4 (the adapted frame needs "
             "room for e4), got n = 3"),
    _unrecognized("sphere_chart_no_attr", [*SPHERE, "--grid", "5x5"],
                  "--attr", "chart"),
    # a middle report row at the time where the warp t - 1 vanishes
    Run("vanishing_chart", [
        "verify", "user-map", "--py", chart("vanishing_chart"), "--ambient",
        "warped-flat", "--n", "4", "--warp", "poly:-1,1", "--chart-u-span=-1:1",
        "--chart-v-span=-1:1", "--u-span=-0.5:0.5", "--v-span=-0.5:0.5",
        "--grid", "5x3"], 2, lines=(
        "  degenerate node (2,0): SingularWarpError: warping function "
        "vanishes at t=1.0",)),
    # the printing chart runs when every flag is valid, and a refused flag
    # (each applies to one ambient) stops the run before the chart file runs
    Run("printing_chart", _user_map("printing_chart"), 0,
        lines=("chart imported", "verdict: pass")),
    _refused("printing_chart_bad_warp",
             _user_map("printing_chart", "--warp", "bogus"),
             "ValueError: --warp must be exp[:r], cosh, const[:k] or "
             "poly:c0,c1,.. with finite numbers, got 'bogus'",
             absent=("chart imported",)),
    _refused("printing_chart_c", _user_map("printing_chart", "--c", "-1"),
             "ValueError: --c applies to --ambient product, not warped-flat",
             absent=("chart imported",)),
    _refused("printing_chart_tol",
             _user_map("printing_chart", "--tol", "bogus=1"),
             "ValueError: no tolerance entry named bogus",
             absent=("chart imported",)),
    _refused("sphere_chart_warp", [*SPHERE, "--grid", "3x3", "--warp", "exp:3"],
             "ValueError: --warp applies to --ambient warped-flat, not product"),
    # a chart file that raises or exits at import is invalid input; a chart
    # that raises at every point leaves every node degenerate
    _refused("raising_chart", _user_map("raising_chart"),
             f"ValueError: --py {chart('raising_chart')!r} failed at import: "
             "RuntimeError: boom"),
    _refused("exiting_chart", _user_map("exiting_chart"),
             f"ValueError: --py {chart('exiting_chart')!r} failed at import: "
             "SystemExit: 3"),
    Run("key_error_chart", _user_map("key_error_chart"), 2, lines=(
        "  degenerate node (0,0): ChartDomainError: chart failed at "
        "(u,v)=(-0.988,-0.988): KeyError: 'k'", "verdict: degenerate")),
]
# the report of the benchmark's nan-control certificate, pinned by test_batch
NAN_CORNERED = "nan_cornered_17.json"

# the catalog members of pinned_reports_9x9.json, by key
MEMBERS_9X9 = {"thm4": conftest.L4_MEMBER, "thm5": conftest.L5_MEMBER,
               "product": conftest.PRODUCT_MEMBER,
               "control": conftest.BROKEN_PRODUCT_MEMBER}
# the diagnostics pinned_reports_9x9.json keeps of each report
DIAGNOSTICS_9X9 = ("dim_N1", "dim_N2", "dim_N1_range", "dim_N2_range",
                   "nodes_evaluated")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def read_manifest() -> dict:
    """The expected digest of each output name."""
    return {name: digest for digest, name in
            (line.split("  ", 1) for line in MANIFEST.read_text().splitlines())}


def run(argv, directory):
    """``rwsurf argv`` run in-process in ``directory``: its exit code,
    stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse's refusal
        code = exc.code
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def console_script(argv, directory):
    """``rwsurf argv`` run through the console script on PATH in
    ``directory``: its exit code, stdout and stderr."""
    done = subprocess.run([shutil.which("rwsurf"), *argv], cwd=directory,
                          capture_output=True)
    return done.returncode, done.stdout.decode(), done.stderr.decode()


def output(name, stdout, directory) -> bytes:
    """The bytes pinned under ``name`` of a run in ``directory``."""
    if name.endswith(".stdout"):
        return stdout.encode()
    return (directory / name).read_bytes()


def problems(row, code, stdout, stderr, directory, manifest=None) -> list:
    """What the run of ``row`` in ``directory`` got wrong: its exit code,
    its printed lines, and, given the manifest, its outputs' digests."""
    found = [] if code == row.code else [f"exit {code}, not {row.code}"]
    printed = set(stdout.splitlines() + stderr.splitlines())
    found += [f"no line {line!r}" for line in row.lines if line not in printed]
    found += [f"printed {line!r}" for line in row.absent if line in printed]
    if row.outputs and stderr:
        found.append(f"stderr {stderr!r}")
    for name in row.outputs if manifest is not None else ():
        try:
            digest = sha256(output(name, stdout, directory))
        except FileNotFoundError:
            digest = "no file"
        if digest != manifest.get(name):
            found.append(f"{name}: {digest}, not {manifest.get(name)}")
    return found


def check(runner) -> dict:
    """Each row's problems, by key, when ``runner(argv, directory)`` runs
    every row in table order in one temporary directory."""
    manifest = read_manifest()
    with tempfile.TemporaryDirectory() as scratch:
        directory = pathlib.Path(scratch)
        return {row.key: problems(row, *runner(row.argv, directory), directory,
                                  manifest) for row in PIN_RUNS}


def nan_cornered_report():
    """The benchmark's nan-control certificate: the product member wrapped
    point by point, NaN on a corner, at 17x17."""
    surface, expect = conftest.PRODUCT_MEMBER()[:2]
    return verify_surface(conftest.nan_cornered(surface, []), grid=(17, 17),
                          expect=expect)


def report_9x9(kind):
    surface, expect = MEMBERS_9X9[kind]()[:2]
    return verify_surface(surface, grid=(9, 9), expect=expect)


def pinned_9x9(report) -> dict:
    """The fields of ``report`` that pinned_reports_9x9.json keeps."""
    d = json.loads(report.to_json())
    return {"verdict": d["verdict"], "degeneracies": d["degeneracies"],
            "entries": {e["name"]: e["value"] for e in d["entries"]},
            **{k: d["diagnostics"][k] for k in DIAGNOSTICS_9X9}}


if __name__ == "__main__":
    if shutil.which("rwsurf") is None:
        sys.exit("pins.py: no rwsurf console script on PATH")
    results = check(console_script)
    for row in PIN_RUNS:
        print(f"{'FAIL' if results[row.key] else 'ok'} {row.key}: exit "
              f"{row.code}, {len(row.outputs)} pinned, {len(row.lines)} lines")
        for problem in results[row.key]:
            print(f"    {problem}")
    failed = [key for key, found in results.items() if found]
    print(f"{len(PIN_RUNS) - len(failed)} of {len(PIN_RUNS)} runs ok, "
          f"{sum(len(row.outputs) for row in PIN_RUNS)} outputs pinned")
    sys.exit(1 if failed else 0)
