"""The pinned CLI runs and outputs, stated once.

``PIN_RUNS`` is the one table of the CLI runs tier-1 checks: a run whose
whole check is its exit code, the lines it prints and the files it writes
is a row here, not a test of its own; a new CLI refusal is a new row.  Each
row holds an argv, its exit code, the lines it must print, and the outputs
whose bytes ``digests.sha256`` pins (one ``sha256sum`` line per output
name).  The rows run in table order in one directory, so a row can read
what an earlier one wrote.  Every row also keeps two rules:

* Rule A: the files a run adds to the directory are exactly the row's
  pinned file outputs;
* Rule B: a row that declares an ``error: `` line prints nothing on stdout,
  and its stderr is exactly its declared lines.

The inputs the rows read (charts, config files, reports) are files under
``charts/``.  ``pinned_reports_9x9.json`` holds the 9x9 report values of
the catalog members in ``MEMBERS_9X9``.  The tier-1 pin tests and
``repin.py`` (which rewrites both files) read everything from here.

    python tests/pins.py

runs every row through the ``rwsurf`` console script on ``PATH``, in a
temporary directory, and exits 1 on a wrong exit code, a missing or
forbidden line, a broken rule, or an output whose digest is not the
manifest's.
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
    """The path of the user-map chart ``charts/<name>.py`` (``charts/<name>``
    when ``name`` has a suffix); a report names it ``user-map:<name>.py``
    whatever its directory."""
    return str(CHARTS / (name if "." in name else f"{name}.py"))


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
H4_CHART = ["verify", "user-map", "--py", chart("h4_chart"), "--ambient",
            "product", "--n", "5", "--c", "-1", "--chart-u-span", "0.1:3.3",
            "--chart-v-span", "0.1:3.0"]
HOLED_PLANE = ["verify", "user-map", "--py", chart("holed_plane"),
               "--ambient", "warped-flat", "--n", "4", "--warp", "const:1",
               "--chart-u-span=-1:1", "--chart-v-span=-1:1", "--grid", "5x5"]
F4 = ["solve", "f4", "--a", "2", "--H0", "0.5", "--f0", "1"]  # each run's --f0p
F4_REF = [*F4, "--f0p", "2"]  # the solve thm4's reference member runs
SYS5 = ["solve", "sys5", *THM5[2:]]
H4 = ["scan", "h4"]
SLICE = ["scan", "slice", "--c", "1"]
NO_ROOM = ("DimensionMismatchError: need n >= 4 (the adapted frame needs room "
           "for e4), got n = 3")


def _user_map(name, *flags):
    """A 3x3 warped-flat user-map run over ``chart(name)``; a flag given
    in ``flags`` wins over the defaults."""
    return ["verify", "user-map", "--py", chart(name), "--ambient",
            "warped-flat", "--n", "4", "--chart-u-span=-1:1",
            "--chart-v-span=-1:1", "--grid", "3x3", *flags]


def bicons_e3(name):
    """A warped-flat user-map run over ``chart(name)``, a surface of E^3 in
    a boosted space-like hyperplane of Minkowski 4-space, over its chart
    spans u in [1.5, 3] (the profile's radius) and v in [0.2, 1.3]."""
    return ["verify", "user-map", "--py", chart(name), "--ambient",
            "warped-flat", "--n", "4", "--warp", "const:1",
            "--chart-u-span", "1.5:3", "--chart-v-span", "0.2:1.3"]


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
    return Run(f"{name}_9", _user_map(name, "--warp", "exp", "--grid", "9x9",
                                      "--out", f"{name}_9.json"), 2,
               (f"{name}_9.json",), **row)


def _refused(key, argv, error):
    """Invalid input (exit 2) refused with the one line ``error: <error>``."""
    return Run(key, argv, 2, lines=(f"error: {error}",))


def _refused_flag(argv, flag, value, error):
    """``argv`` with ``--flag=value`` refused with ``error: <error>``; the
    row's key is ``<subcommand>_<flag>=<value>``."""
    return _refused(f"{argv[1]}_{flag}={value}", [*argv, f"--{flag}={value}"],
                    error)


def _unrecognized(key, argv, *flag):
    """``flag``, which no subcommand takes, refused (exit 2) by the
    subcommand ``argv`` runs, under that subcommand's usage."""
    return Run(key, [*argv, *flag], 2, lines=(
        f"rwsurf {' '.join(argv[:2])}: error: unrecognized arguments: "
        f"{' '.join(flag)}",), absent=(
        "usage: rwsurf [-h] {verify,solve,scan,report} ...",))


def _bad_warp(spec):
    return ("ValueError: --warp must be exp[:r], cosh, const[:k] or "
            f"poly:c0,c1,.. with finite numbers, got {spec!r}")


PIN_RUNS = [
    Run("scan_h4", [*H4, "--csv", "scan_h4.csv"], 0, ("scan_h4.csv",),
        lines=("bound holds at every node: True",)),
    Run("scan_slice", [*SLICE, "--csv", "scan_slice.csv"], 0,
        ("scan_slice.csv",), lines=("positive at every node: True",)),
    # the per-cell CSV writers' row templates keep every byte
    Run("thm4_res", [*THM4, "--grid", "5x5", "--residuals-csv", "thm4_res.csv",
                     "--surface-csv", "thm4_surf.csv"],
        0, ("thm4_res.csv", "thm4_surf.csv")),
    Run("f4", [*F4_REF, "--csv", "f4.csv", "--samples", "2001"], 0,
        ("f4.csv",)),
    Run("sys5", [*SYS5, "--csv", "sys5.csv", "--samples", "2001"], 0,
        ("sys5.csv",), lines=("max equation residual: 4.547e-13",)),
    # each verify subcommand at 5x5; the user-map run goes through
    # finite-difference jets
    _verify("thm4_5", [*THM4, "--grid", "5x5"]),
    _verify("thm5_5", [*THM5, "--grid", "5x5"]),
    _verify("product_5", [*PRODUCT, "--grid", "5x5"]),
    _verify("product_force_b4_5", [*FORCE_B4, "--grid", "5x5"], 1),
    _verify("sphere_chart_5", [*SPHERE, "--grid", "5x5"]),
    # the product charts in L^5_1(f, +-1) under a warp that is not constant:
    # the Gauss and Codazzi entries pass, and frame_orthonormality fails, as
    # on any surface where <H, e3> != 0 leaves e4 not g-orthogonal to e3
    _verify("sphere_chart_cosh_5", [*SPHERE, "--warp", "cosh", "--grid", "5x5"],
            1),
    _verify("h4_chart_poly_5", [*H4_CHART, "--warp", "poly:1,0,0.25", "--grid",
                                "5x5"], 1),
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
    # a config file's comment lines, blank lines and trailing comments are
    # skipped, and a flag wins over the file
    Run("thm4_config", [*THM4, "--config", str(CHARTS / "verify.cfg")], 0,
        lines=("grid: 5x5 u=[0.0159381, 0.162484] v=[0.0248496, 3.11674]",)),
    Run("thm4_config_u_end", [*THM4, "--config", str(CHARTS / "u_end.cfg")],
        lines=("grid: 5x5 u=[0.0159381, 0.162484] v=[0.0248496, 3.11674]",)),
    Run("thm4_config_u_end_grid", [*THM4, "--config", str(CHARTS / "u_end.cfg"),
                                   "--grid", "7x7"],
        lines=("grid: 7x7 u=[0.0159381, 0.162484] v=[0.0248496, 3.11674]",)),
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
             "ValueError: tolerance pmcv must be finite and positive, got nan"),
    # a negative infinite end is written with "=": argparse reads "-inf"
    # after a space as an option; the solve stops at its monitor
    Run("f4_negative_infinite_end", [*F4_REF, "--u1=-inf"], 0, lines=(
        "stop reason: monitor:admissible",
        "admissible interval: [-10.331118108683006, 0]")),
    Run("f4_negative_infinite_end_spaced", [*F4_REF, "--u1", "-inf"], 2,
        lines=("rwsurf solve f4: error: argument --u1: expected one argument",)),
    # an admissible slope too steep to take a step from
    _refused("f4_steep_slope", [*F4, "--f0p", "1e60"],
             "AdmissibilityError: integration could not take a single step"),
    *(_refused_flag(argv, "f0p", f0p, "AdmissibilityError: integration could "
                    "not take a single step")
      for argv, f0p in ((F4, "-1e60"), (THM4, "1e60"), (THM4, "-1e60"))),
    _refused("not_a_report", ["report", str(CHARTS / "not_a_report.json")],
             f"ValueError: {CHARTS / 'not_a_report.json'}: report field "
             "'entries' is missing"),
    # E^1_1 x H^4 (--c -1): the hyperbolic fiber admits no PMCV member, so
    # pmcv fails and biconservativity holds
    Run("h4_chart_5", [*H4_CHART, "--grid", "5x5"], 1, lines=(
        "  [FAIL] pmcv                     3.535534e+00  (tol 1e-05)",
        "  [pass] biconservativity         2.479565e-07  (tol 1e-05)",
        "verdict: fail")),
    # an ambient with no room for e4 (the later --n wins), and no --attr: the
    # chart is the file's chart
    _refused("sphere_chart_n3", [*SPHERE, "--grid", "3x3", "--n", "3"], NO_ROOM),
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
    # (--c applies to the product ambient alone) stops the run before the
    # chart file runs (Rule B: the refusal prints no "chart imported")
    Run("printing_chart", _user_map("printing_chart"), 0,
        lines=("chart imported", "verdict: pass")),
    _refused("printing_chart_bad_warp",
             _user_map("printing_chart", "--warp", "bogus"), _bad_warp("bogus")),
    _refused("printing_chart_c", _user_map("printing_chart", "--c", "-1"),
             "ValueError: --c applies to --ambient product, not warped-flat"),
    _refused("printing_chart_tol",
             _user_map("printing_chart", "--tol", "bogus=1"),
             "ValueError: no tolerance entry named bogus"),
    # a product fiber curvature other than +-1 is refused by the parser
    *(Run(f"user-map_c={c}", [*SPHERE, f"--c={c}"], 2, lines=(
        "rwsurf verify user-map: error: argument --c: invalid choice: "
        f"{c} (choose from -1, 1)",)) for c in ("0", "2")),
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
    # the paper's hypotheses: a space-like start f'^2 > b^2 f^2 with
    # b^2 = a^2 - 4 H0^2 > 0, and the product closure b2^2 + b3^2 =
    # 1/(b1^2+2) with b2 and b3 non-zero
    _refused_flag(F4, "f0p", "0", "AdmissibilityError: f'^2 > (a^2 - 4 H0^2) "
                  "f^2 violated at start: 0.0 <= 3.0"),
    _refused_flag(THM4, "a", "1",
                  "ConstraintError: a^2 - 4 H0^2 > 0 violated: 0.0"),
    _refused("thm5_H0=1", [*THM5, "--H0", "1", "--c2", "5e-7", "--c3", "5e-7"],
             "ConstraintError: a^2 - 4 H0^2 > 0 violated: 0.0"),
    _refused_flag(PRODUCT, "b2", "0.4", "ConstraintError: b2^2 + b3^2 = "
                  "1/(b1^2+2) violated by 7.667e-02"),
    _refused("product_b2=0", ["verify", "product", "--b1", "1", "--b2", "0"],
             "ConstraintError: b2 and b3 must be non-zero"),
    *(_refused_flag(argv, "f0", "0", "SingularWarpError: f0 must be non-zero")
      for argv in (F4_REF, SYS5)),
    # an initial warp below the warp-positive floor 1e-12, though admissible
    *(_refused(f"{argv[1]}_below_floor", [*argv, "--f0", "5e-13", "--f0p",
                                          "2e-12"],
               "AdmissibilityError: monitor 'warp-positive' reads -5e-13 at "
               "the initial state t=0.0; it must be > 0") for argv in (F4, THM4)),
    # a non-finite constant, initial value or solver tolerance
    *(_refused_flag(argv, flag, value,
                    f"ConstraintError: {flag} must be finite, got {value}")
      for argv, flag, value in (
          (PRODUCT, "b2", "nan"), (F4_REF, "f0", "nan"), (F4, "f0p", "inf"),
          (SYS5, "f0p", "nan"), (SYS5, "y0", "-inf"), (THM4, "f0p", "nan"),
          (F4_REF, "rtol", "inf"), (F4_REF, "rtol", "nan"),
          (SYS5, "atol", "nan"), (SYS5, "atol", "inf"))),
    # an integration interval with a NaN end, an infinite start or no length;
    # an infinite end solves to the monitor's stop
    *(_refused_flag(argv, flag, value,
                    f"ConstraintError: integration interval {interval}")
      for argv, flag, value, interval in (
          (F4_REF, "u0", "nan", "[nan, 1.0] has a NaN endpoint"),
          (F4_REF, "u1", "nan", "[0.0, nan] has a NaN endpoint"),
          (THM4, "u-end", "nan", "[0.0, nan] has a NaN endpoint"),
          (F4_REF, "u0", "inf", "[inf, 1.0] has an infinite start"),
          (SYS5, "u0", "-inf", "[-inf, 0.8] has an infinite start"),
          (THM4, "u-end", "0", "[0.0, 0.0] is degenerate"))),
    Run("f4_u1=inf", [*F4_REF, "--u1=inf"], lines=(
        "stop reason: monitor:blow-up, estimated blow-up at "
        "t=0.17842196606827743",)),
    Run("sys5_u1=inf", [*SYS5, "--u1=inf"], lines=(
        "stop reason: monitor:spacelike", "interval: [0, 2.2230216398873677]")),
    # too few samples for a dense CSV, which is not written (Rule A)
    *(_refused_flag([*argv, "--csv", "refused.csv"], "samples", n,
                    f"ValueError: --samples must be at least 2, got {n}")
      for argv in (F4_REF, SYS5) for n in ("0", "1", "-3")),
    # verify's --tol: a known entry name, the NAME=NUMBER form, and a finite
    # positive value; nothing is verified and no report is written
    *(_refused_flag([*THM4, "--out", "refused.json"], "tol", item, error)
      for item, error in (
          ("pmvc=1e-30", "ValueError: no tolerance entry named pmvc"),
          *((f"pmcv={value}", "ValueError: tolerance pmcv must be finite and "
             f"positive, got {shown}")
            for value, shown in (("inf", "inf"), ("0", "0.0"),
                                 ("-1e-6", "-1e-06"))),
          *((item, f"ValueError: --tol expects NAME=NUMBER, got {item!r}")
            for item in ("pmcv=abc", "pmcv=", "pmcv")))),
    # a grid or span that does not parse, or a span that is not finite and
    # ordered
    *(_refused_flag(PRODUCT, flag, value,
                    f"ValueError: --{flag} must be {form}, got {value!r}")
      for flag, value, form in (
          ("grid", "5x5x2", "NUxNV"), ("grid", "5", "NUxNV"),
          ("u-span", "0.1", "lo:hi"), ("v-span", "0:1:2", "lo:hi"),
          *((flag, value, "lo:hi with finite lo < hi")
            for flag in ("u-span", "v-span")
            for value in ("nan:0.1", "0.1:nan", "-inf:0.1", "0.1:inf",
                          "0.1:0")))),
    # config files: a line without "=", a file that is no UTF-8, and keys
    # that are no option (the substep, thm4's c2 and user-map's attr among
    # them)
    *(_refused(f"{argv[1]}_config_{name}",
               [*argv, "--config", str(CHARTS / f"{name}.cfg")], error)
      for argv, name, error in (
          (THM4, "no_equals",
           f"ValueError: {CHARTS / 'no_equals.cfg'}:3: expected KEY=VALUE"),
          (THM4, "not_utf8", f"ValueError: {CHARTS / 'not_utf8.cfg'}: 'utf-8' "
           "codec can't decode byte 0xff in position 13: invalid start byte"),
          (THM4, "unknown_keys", "ValueError: unknown config keys: gird, "
           "threads"),
          (PRODUCT, "substep", "ValueError: unknown config keys: substep"),
          (THM4, "c2", "ValueError: unknown config keys: c2"),
          (SPHERE, "attr", "ValueError: unknown config keys: attr"),
          (THM4, "empty_key",
           f"ValueError: {CHARTS / 'empty_key.cfg'}:2: expected KEY=VALUE"))),
    # scan ranges are lo:hi:n with finite lo and hi and an integer n >= 1,
    # theta excludes 0, and a reversed range is read as given
    _refused_flag(H4, "theta", "0:3:5",
                  "ConstraintError: theta grid must exclude the trivial value 0"),
    *(_refused_flag([*argv, "--csv", "refused.csv"], flag, value,
                    f"ValueError: --{flag} must be lo:hi:n with finite lo, hi "
                    f"and an integer n >= 1, got {value!r}")
      for argv, flag, value in (
          (H4, "theta", "1:2:0"), (H4, "theta", "nan:3:5"),
          (SLICE, "theta", "0.1:inf:3"), (H4, "tau", "-inf:5:3"),
          (H4, "theta", "0.1:3"), (H4, "theta", "0.1:3:5:7"),
          (H4, "theta", "0.1:3:2.5"), (H4, "tau", "0:5:-3"),
          (["scan", "slice", "--c", "-1"], "theta", "0.1:3:0"),
          (H4, "tau", "a:5:3"))),
    Run("h4_reversed", [*H4, "--theta", "3:0.1:4", "--tau", "5:0:3"],
        lines=("bound holds at every node: True",)),
    Run("slice_reversed", [*SLICE, "--theta", "3:0.1:4"],
        lines=("positive at every node: True",)),
    # a file that is not a report, or is no JSON, names itself and what is
    # wrong; a missing file names itself and the OS reason
    _refused("report_missing", ["report", "no_such_report.json"],
             "ValueError: no_such_report.json: No such file or directory"),
    *(_refused(name, ["report", str(CHARTS / f"{name}.json")],
               f"ValueError: {CHARTS / f'{name}.json'}: {message}")
      for name, message in (
          ("report_list", "a report is a JSON object, not list"),
          ("report_null", "a report is a JSON object, not NoneType"),
          ("report_grid", "report field 'nv' is missing"),
          ("report_entry", "report field 'value' is missing"),
          ("report_entries", "report field is malformed (TypeError: 'int' "
           "object is not iterable) in 'entries'"),
          ("report_value", "report field is malformed (ValueError: Unknown "
           "format code 'e' for object of type 'str')"),
          ("report_truncated", "Expecting property name enclosed in double "
           "quotes: line 1 column 2 (char 1)"),
          ("report_empty", "Expecting value: line 1 column 1 (char 0)"),
          ("report_not_utf8", "'utf-8' codec can't decode byte 0xff in "
           "position 13: invalid start byte"),
          ("report_entry_type", "report field is malformed (TypeError: 'int' "
           "object is not subscriptable) in 'entries'"),
          ("report_diagnostics", "report field is malformed (AttributeError: "
           "'list' object has no attribute 'items') in 'diagnostics'"),
          ("report_verdict", "report field 'verdict' is missing"))),
    # a stored null value, tol, dim_N1 or dim_N2 prints as nan
    Run("report_null_value", ["report", str(CHARTS / "report_null_value.json")],
        0, ("report_null_value.stdout",), lines=(
            "  [FAIL] pmcv                     nan  (tol 1e-05)",
            "  [FAIL] dim_N2                   3.000000e+00  (tol nan)")),
    # user-map: a plane passes, a horizontal slice and a chart of the wrong
    # length are degenerate, and each flag and a chart file that defines no
    # chart are refused before the chart file runs
    Run("plane_5", _user_map("plane", "--warp", "const:1", "--grid", "5x5"),
        lines=("verdict: pass",)),
    Run("horizontal_slice", _user_map("horizontal_slice", "--warp", "const:1",
                                      "--grid", "5x5"), 2, lines=(
        "  degenerate node (0,0): HorizontalSliceError: tangential comoving "
        "part vanishes at (u,v)=(-0.988,-0.988)", "verdict: degenerate")),
    # a chart whose every column is a number maps a point: every node is
    # degenerate, on the chart's stack call as in its float calls
    _verify("constant_chart", _user_map("constant_chart"), 2),
    *(Run(name, _user_map(name, "--warp", "const:1"), 2, lines=(
        "  degenerate grid: DimensionMismatchError: the chart returned jet "
        f"vectors of length {length} for an ambient space of dimension 4",
        "verdict: degenerate"))
      for name, length in (("one_coordinate_chart", 1),
                           ("six_coordinate_chart", 6))),
    _refused("printing_chart_n3", _user_map("printing_chart", "--n", "3"),
             NO_ROOM),
    *(_refused_flag(_user_map("printing_chart"), "warp", spec, _bad_warp(spec))
      for spec in ("exp:abc", "poly:", "poly:1,x", "const:nan", "exp:inf",
                   "poly:1,-inf", "exp:1,2", "cosh:1", "sinh", "")),
    *(_refused_flag(_user_map("printing_chart", "--warp", "exp", "--out",
                              "refused.json"), flag, value,
                    f"ValueError: --{flag} must be lo:hi with finite lo < hi, "
                    f"got {value!r}")
      for flag in ("chart-u-span", "chart-v-span")
      for value in ("nan:1", "-1:nan", "-inf:1", "1:0", "0:0")),
    # a default span is the chart domain less a stencil pad at each end; a
    # domain no wider than twice the pad is refused, not reversed
    _refused("thm4_u_end_within_pads",
             [*THM4, "--u-end", "0.012", "--grid", "3x3"],
             "ValueError: u_span must have lo < hi, got (0.0066684000000000005, "
             "0.0053316): the chart domain is (0.0006000000000000001, 0.0114), "
             "less the stencil pad 0.0060684 at each end by default"),
    _refused("plane_u_span_within_pads",
             _user_map("plane", "--chart-u-span", "0:0.01", "--chart-v-span",
                       "0:1"),
             "ValueError: u_span must have lo < hi, got (0.00606, 0.00394): "
             "the chart domain is (0.0, 0.01), less the stencil pad 0.00606 "
             "at each end by default"),
    *(_refused(name.split(".")[0], _user_map(name),
               f"ValueError: --py {chart(name)!r} {reason}")
      for name, reason in (
          ("no_chart", "defines no callable chart"),
          ("chart_not_callable", "defines no callable chart"),
          ("not_a_module.txt", "cannot be loaded as a Python module"))),
    # a missing config file or chart file names itself and the OS reason
    _refused("thm4_config_missing", [*THM4, "--config", "no_such.cfg"],
             "ValueError: no_such.cfg: No such file or directory"),
    _refused("no_such_chart", _user_map("no_such_chart"),
             f"ValueError: --py {chart('no_such_chart')!r}: No such file or "
             "directory"),
    # every output path, a flag's or a config key's, is checked before any
    # solve, chart import or scan: a missing directory is refused, and so is
    # a path that is a directory (Rule A: no file is added)
    *(_refused(f"{argv[1]}_{flag}_no_directory",
               [*argv, f"--{flag}", "nodir/x"], f"ValueError: --{flag} "
               "'nodir/x': directory 'nodir' does not exist")
      for argv, flag in ((THM4, "out"), (THM4, "residuals-csv"),
                         (SPHERE, "surface-csv"), (F4_REF, "csv"),
                         (H4, "csv"), (SLICE, "csv"))),
    _refused("thm4_config_out_no_directory",
             [*THM4, "--config", str(CHARTS / "out_nodir.cfg")],
             "ValueError: --out 'nodir/r.json': directory 'nodir' does not "
             "exist"),
    _refused("thm4_out_is_a_directory", [*THM4, "--out", "."],
             "ValueError: --out '.' is a directory"),
    # so is an empty output path, a flag's or a config key's, and two
    # outputs that name one file (tier-1 refuses an output that names an
    # input on copies of the inputs)
    *(_refused(f"{argv[1]}_{flag}_empty", [*argv, f"--{flag}="],
               f"ValueError: --{flag} '' is an empty path")
      for argv, flag in ((THM4, "out"), (THM4, "residuals-csv"),
                         (SPHERE, "surface-csv"), (F4_REF, "csv"),
                         (H4, "csv"), (SLICE, "csv"))),
    _refused("thm4_config_out_empty",
             [*THM4, "--config", str(CHARTS / "out_empty.cfg")],
             "ValueError: --out '' is an empty path"),
    _refused("thm4_outputs_name_one_file",
             [*THM4, "--out", "r.json", "--residuals-csv", "./r.json"],
             "ValueError: --out 'r.json' and --residuals-csv './r.json' name "
             "one file"),
    # a closed-form warp that overflows leaves a SingularWarpError degeneracy
    # and no numpy warning (a pinned stdout: stderr stays empty)
    Run("plane_exp_overflow",
        ["verify", "user-map", "--py", chart("plane"), "--ambient",
         "warped-flat", "--n", "4", "--warp", "exp:1e10", "--chart-u-span",
         "0:1", "--chart-v-span", "0:1", "--grid", "3x3"], 2,
        ("plane_exp_overflow.stdout",)),
    # a finite warp whose square overflows in the grid stack leaves
    # degeneracies and no numpy warning either
    *(Run(f"plane_{key}_overflow",
          ["verify", "user-map", "--py", chart("plane"), "--ambient",
           "warped-flat", "--n", "4", "--warp", warp, "--chart-u-span", "0:1",
           "--chart-v-span", "0:1", "--grid", "3x3"], 2,
          (f"plane_{key}_overflow.stdout",))
      for key, warp in (("exp400", "exp:400"), ("exp700", "exp:700"),
                        ("poly", "poly:1,1e200"))),
    # the non-CMC biconservative surface of E^3 and its stretched twin: each
    # fails pmcv, and the twin fails biconservativity too
    *(_verify(f"{name}_9", [*bicons_e3(name), "--grid", "9x9"], 1)
      for name in ("bicons_e3", "bicons_e3_twin")),
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


def problems(row, code, stdout, stderr, added, directory,
             manifest=None) -> list:
    """What the run of ``row`` in ``directory``, which ``added`` the files
    of those names there, got wrong: its exit code, its printed lines,
    Rules A and B, and, given the manifest, its outputs' digests."""
    found = [] if code == row.code else [f"exit {code}, not {row.code}"]
    printed = set(stdout.splitlines() + stderr.splitlines())
    found += [f"no line {line!r}" for line in row.lines if line not in printed]
    found += [f"printed {line!r}" for line in row.absent if line in printed]
    if row.outputs and stderr:
        found.append(f"stderr {stderr!r}")
    if any(line.startswith("error: ") for line in row.lines):  # Rule B
        if stdout:
            found.append(f"stdout {stdout!r}")
        if stderr != "".join(f"{line}\n" for line in row.lines):
            found.append(f"stderr {stderr!r}")
    files = {name for name in row.outputs if not name.endswith(".stdout")}
    found += [f"added {name}" for name in sorted(added - files)]  # Rule A
    found += [f"did not add {name}" for name in sorted(files - added)]
    for name in row.outputs if manifest is not None else ():
        try:
            digest = sha256(output(name, stdout, directory))
        except FileNotFoundError:
            digest = "no file"
        if digest != manifest.get(name):
            found.append(f"{name}: {digest}, not {manifest.get(name)}")
    return found


def run_table(runner, directory):
    """Run every row in table order in ``directory`` with ``runner(argv,
    directory)``, and yield each row with its exit code, stdout, stderr and
    the names of the files its run added there."""
    for row in PIN_RUNS:
        before = set(os.listdir(directory))
        code, stdout, stderr = runner(row.argv, directory)
        yield row, code, stdout, stderr, set(os.listdir(directory)) - before


def check(runner) -> dict:
    """Each row's problems, by key, when ``runner`` runs the table in one
    temporary directory."""
    manifest = read_manifest()
    with tempfile.TemporaryDirectory() as scratch:
        directory = pathlib.Path(scratch)
        return {row.key: problems(row, *ran, directory, manifest)
                for row, *ran in run_table(runner, directory)}


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
