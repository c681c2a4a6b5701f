"""The pinned outputs, stated once.

``digests.sha256`` holds the sha256 of every byte-pinned output, one
``sha256sum`` line per output name.  ``PIN_RUNS`` is the table of command
lines that write them, and ``pinned_reports_9x9.json`` holds the 9x9 report
values of the catalog members in ``MEMBERS_9X9``.  The tier-1 pin tests and
``repin.py`` (which rewrites both files) read everything from here.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib

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


def _verify(name, argv, code=0):
    """A verify run whose stdout and report are pinned as ``name.stdout``
    and ``name.json``."""
    return ([f"{name}.stdout", f"{name}.json"],
            [*argv, "--out", f"{name}.json"], code)


def _partial(name, argv, code):
    """A verify run pinned by its stdout, report and both CSVs."""
    names, argv, code = _verify(name, argv, code)
    return ([*names, f"{name}_res.csv", f"{name}_surf.csv"],
            [*argv, "--residuals-csv", f"{name}_res.csv",
             "--surface-csv", f"{name}_surf.csv"], code)


def _degenerate_user_map(name):
    """A 9x9 user-map run over a chart that fails on part of the grid."""
    return [f"{name}_9.json"], [
        "verify", "user-map", "--py", chart(name), "--ambient", "warped-flat",
        "--n", "4", "--warp", "exp", "--chart-u-span=-1:1",
        "--chart-v-span=-1:1", "--grid", "9x9", "--out", f"{name}_9.json"], 2


# (output names, argv, exit code) of each pinned run: a name ending in
# .stdout is the run's standard output, and every other name is a file the
# argv writes into the working directory
PIN_RUNS = [
    (["scan_h4.csv"], ["scan", "h4", "--csv", "scan_h4.csv"], 0),
    (["scan_slice.csv"], ["scan", "slice", "--c", "1", "--csv",
                          "scan_slice.csv"], 0),
    # the per-cell CSV writers' row templates keep every byte
    (["thm4_res.csv", "thm4_surf.csv"],
     [*THM4, "--grid", "5x5", "--residuals-csv", "thm4_res.csv",
      "--surface-csv", "thm4_surf.csv"], 0),
    (["f4.csv"], [*F4, "--f0p", "2", "--csv", "f4.csv", "--samples", "2001"], 0),
    (["sys5.csv"], [*SYS5, "--csv", "sys5.csv", "--samples", "2001"], 0),
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
    (["f4_backward.stdout", "dense.csv"],
     [*F4, "--f0p", "-2", "--u0", "0.3", "--u1", "-0.5", "--rtol", "1e-9",
      "--csv", "dense.csv"], 0),
    _degenerate_user_map("log_chart"),
    _degenerate_user_map("nan_chart"),
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
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def output(name, stdout, directory) -> bytes:
    """The bytes pinned under ``name`` of a run in ``directory``."""
    if name.endswith(".stdout"):
        return stdout.encode()
    return (directory / name).read_bytes()


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
