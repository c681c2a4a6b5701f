"""The benchmark's workloads: seeded inputs, the program calls one item makes,
and the check that decides whether an item's output is correct.

A workload hands out its items in rounds.  ``run`` is the part that is
timed; ``check`` runs after it, untimed, and returns an ``Outcome``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from rwsurf import catalog, cli, solvers, verdicts
from rwsurf.immersion import Jet2Immersion

# A residual matches the reference when it is within this share of its
# entry's tolerance of the stored value.
REFERENCE_SHARE = 0.01

# Items whose failure is a defect the program had when this benchmark was
# defined.  They still count as failed items; they do not mark the run as
# incorrect, so a change that fixes the defect shows as fewer failures.
KNOWN_DEFECTS = {
    "nan-control": "NaN jets on part of the grid vanish into max(); "
                   "verify_surface returns 'pass' instead of 'degenerate'",
}


@dataclass(frozen=True)
class Item:
    kind: str
    params: tuple = ()


@dataclass
class Outcome:
    ok: bool
    detail: str = ""
    digest: bytes = b""       # the item's outputs, for the exact-repeat check
    nodes: int = 0            # report nodes evaluated
    bytes_written: int = 0


def _ordered(rng, kinds):
    return [Item(kinds[i]) for i in rng.permutation(len(kinds))]


def check_report(text: str, verdict: str, reference: dict | None):
    """Problems found in a JSON report, and the parsed report."""
    report = json.loads(text)
    problems = []
    if report["verdict"] != verdict:
        problems.append(f"verdict {report['verdict']}, expected {verdict}")
    if reference is not None:
        got = {e["name"]: e for e in report["entries"]}
        if sorted(got) != sorted(reference["entries"]):
            problems.append("entry names differ from the reference")
        for name, want in reference["entries"].items():
            entry = got.get(name)
            if entry is not None and not (
                    abs(entry["value"] - want) <= REFERENCE_SHARE * entry["tol"]):
                problems.append(f"{name} = {entry['value']:.6e}, "
                                f"reference {want:.6e}")
        nodes = report["diagnostics"].get("nodes_evaluated")
        if nodes != reference["nodes_evaluated"]:
            problems.append(f"{nodes} nodes evaluated, reference "
                            f"{reference['nodes_evaluated']}")
    return problems, report


# ---------------------------------------------------------------------------
# certify


def _nan_beyond(surface: Jet2Immersion, u0: float = 1.5,
                v0: float = 1.5) -> Jet2Immersion:
    """``surface`` with NaN jets wherever u > u0 and v > v0."""
    def evaluator(u, v):
        jet = surface.evaluator(u, v)
        if u > u0 and v > v0:
            return tuple(np.full(np.shape(x), np.nan) for x in jet)
        return jet
    return Jet2Immersion(surface.space, evaluator, surface.u_domain,
                         surface.v_domain, surface.name)


def certificate(kind: str) -> str:
    """Constants to ``VerificationReport.to_json()`` for one catalog item."""
    grid = (33, 33) if kind == "thm4_33" else (17, 17)
    if kind in ("thm4", "thm4_33"):
        constants = solvers.validate_constants_l4(2.0, 0.5)
        solution = solvers.solve_rotational_warp(constants, 1.0, 2.0, (0.0, 1.0))
        surface = catalog.rotational_surface_l41(constants, solution.warp)
        expect = {"H0": 0.5, "dim_N1": 2}
    elif kind == "thm5":
        constants = solvers.validate_constants_l5(2.0, 0.6, 0.48, 0.64)
        solution = solvers.solve_warp_system(constants, (1.5, 1.2, 0.4, -0.7),
                                             (0.0, 0.8))
        surface = catalog.surface_l51(solution)
        expect = {"H0": 0.6, "dim_N1": 2}
    elif kind == "control":
        # the --force-b4 member: closure constraint skipped
        surface = catalog.product_surface_family(1.0, 0.4, 0.5)
        expect = None
    else:
        constants = solvers.validate_constants_product(1.0, None, 0.5)
        surface = catalog.product_surface_e11s4(constants)
        expect = {"dim_N1": 2, "dim_N2": 3}
        if kind == "nan-control":
            surface = _nan_beyond(surface)
    return verdicts.verify_surface(surface, grid=grid, expect=expect).to_json()


class Certify:
    """In-process certificates with the fixed acceptance parameters."""

    name = "certify"
    label = "cert_s"
    kinds = ("thm4", "thm5", "product", "control", "nan-control", "thm4_33")
    expected = {"thm4": "pass", "thm5": "pass", "product": "pass",
                "control": "fail", "nan-control": "degenerate",
                "thm4_33": "pass"}
    nominal_round_s = 24.0  # one round at the defining commit, 2-CPU container

    def __init__(self, reference: dict, outdir: str):
        self.reference = reference

    def make_round(self, rng):
        return _ordered(rng, self.kinds)

    def run(self, item: Item):
        return certificate(item.kind)

    def check(self, item: Item, text: str) -> Outcome:
        problems, report = check_report(text, self.expected[item.kind],
                                        self.reference.get(item.kind))
        return Outcome(not problems, "; ".join(problems), text.encode(),
                       report["diagnostics"].get("nodes_evaluated", 0))


# ---------------------------------------------------------------------------
# cli-export

_B1, _B3 = 1.0, 0.5
_CHART = '''"""Product-sphere chart in E^1_1 x S^4, sampled by rwsurf through
finite-difference jets."""
import math

B1 = {b1!r}
B3 = {b3!r}
B2 = math.sqrt(1.0 / (B1 * B1 + 2.0) - B3 * B3)
B0 = math.sqrt(1.0 - B2 * B2 - B3 * B3)
LAM = math.sqrt(1.0 + B1 * B1) / B0


def chart(u, v):
    return (-B1 * u, B0 * math.cos(LAM * u), B0 * math.sin(LAM * u), B2,
            B3 * math.sin(v / B3), B3 * math.cos(v / B3))
'''


def _chart_spans():
    b2 = math.sqrt(1.0 / (_B1 * _B1 + 2.0) - _B3 * _B3)
    lam = math.sqrt(1.0 + _B1 * _B1) / math.sqrt(1.0 - b2 * b2 - _B3 * _B3)
    return f"0:{2.0 * math.pi / lam!r}", f"0:{2.0 * math.pi * _B3!r}"


def _csv_problems(path: str, rows: int, cols: int) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    problems = []
    if len(lines) != rows + 1:
        problems.append(f"{os.path.basename(path)}: {len(lines) - 1} rows, "
                        f"expected {rows}")
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != cols or not all(
                math.isfinite(float(x)) for x in fields if x):
            problems.append(f"{os.path.basename(path)}: bad row {line!r}")
            break
    return problems


class CliExport:
    """``cli.main(argv)`` in process, stdout captured, files written to a
    scratch directory inside the checkout."""

    name = "cli-export"
    label = "cli_s"
    kinds = ("verify_export", "user_map", "solve_f4", "solve_sys5", "scan_h4",
             "scan_slice")
    nominal_round_s = 8.0

    def __init__(self, reference: dict, outdir: str):
        self.reference = reference
        self.dir = outdir
        self.chart = os.path.join(outdir, "product_chart.py")
        with open(self.chart, "w", encoding="utf-8") as fh:
            fh.write(_CHART.format(b1=_B1, b3=_B3))

    def make_round(self, rng):
        return _ordered(rng, self.kinds)

    def command(self, kind: str, small: bool = False):
        """(argv, output files, (rows, columns) per CSV file).  ``small``
        gives the toy-size command the tracer self-test runs."""
        path = lambda name: os.path.join(self.dir, name)
        grid = "3x3" if small else "17x17"
        samples = "5" if small else "2001"
        if kind == "verify_export":
            files = [path("thm4.json"), path("thm4-residuals.csv"),
                     path("thm4-surface.csv")]
            argv = ["verify", "thm4", "--a", "2", "--H0", "0.5", "--f0", "1",
                    "--f0p", "2", "--grid", grid, "--out", files[0],
                    "--residuals-csv", files[1], "--surface-csv", files[2]]
            n = 9 if small else 289
            return argv, files, {files[1]: (n, 7), files[2]: (n, 6)}
        if kind == "user_map":
            u_span, v_span = _chart_spans()
            files = [path("user-map.json")]
            argv = ["verify", "user-map", "--py", self.chart, "--ambient",
                    "product", "--n", "5", "--c", "1",
                    f"--chart-u-span={u_span}", f"--chart-v-span={v_span}",
                    "--grid", grid, "--out", files[0]]
            return argv, files, {}
        if kind == "solve_f4":
            files = [path("f4.csv")]
            argv = ["solve", "f4", "--a", "2", "--H0", "0.5", "--f0", "1",
                    "--f0p", "2", "--csv", files[0], "--samples", samples]
            return argv, files, {files[0]: (int(samples), 4)}
        if kind == "solve_sys5":
            files = [path("sys5.csv")]
            argv = ["solve", "sys5", "--a", "2", "--H0", "0.6", "--c2", "0.48",
                    "--c3", "0.64", "--f0", "1.5", "--f0p", "1.2", "--y0", "0.4",
                    "--y0p", "-0.7", "--csv", files[0], "--samples", samples]
            return argv, files, {files[0]: (int(samples), 7)}
        if kind == "scan_h4":
            files = [path("h4.csv")]
            argv = ["scan", "h4", "--csv", files[0]]
            if small:
                argv += ["--theta", "0.1:3:3", "--tau", "0:5:3"]
            return argv, files, {files[0]: (9 if small else 301 * 501, 3)}
        files = [path("slice.csv")]
        argv = ["scan", "slice", "--c", "1", "--csv", files[0]]
        if small:
            argv += ["--theta", "0.1:3:3"]
        return argv, files, {files[0]: (3 if small else 301, 3)}

    def run(self, item: Item, small: bool = False):
        argv, files, _ = self.command(item.kind, small)
        for path in files:  # so the check never reads an earlier repeat's file
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, err.getvalue()

    def check(self, item: Item, result) -> Outcome:
        code, err = result
        _, files, tables = self.command(item.kind)
        if code != 0:
            return Outcome(False, f"exit code {code}: {err.strip()}")
        problems, nodes = [], 0
        for path, (rows, cols) in tables.items():
            problems += _csv_problems(path, rows, cols)
        if files[0].endswith(".json"):
            ref = "thm4" if item.kind == "verify_export" else item.kind
            with open(files[0], encoding="utf-8") as fh:
                found, report = check_report(fh.read(), "pass",
                                             self.reference.get(ref))
            problems += found
            nodes = report["diagnostics"].get("nodes_evaluated", 0)
        digest = hashlib.sha256()
        for path in files:
            with open(path, "rb") as fh:
                digest.update(fh.read())
        return Outcome(not problems, "; ".join(problems), digest.digest(), nodes,
                       sum(os.path.getsize(p) for p in files))


# ---------------------------------------------------------------------------
# warp-sweep

_L5_FLOOR = 0.05       # generator's space-likeness margin (program: 0.02)
_L5_DET_SHARE = 1e-6   # generator's determinant test (program: 1e-10)
L5_RESIDUAL_BOUND = 1e-9


def _jitter(rng, scale):
    return 1.0 + scale * rng.uniform(-1.0, 1.0)


def draw_l4(rng):
    """(a, H0, f0, f0p) near (2, 0.5, 1, 2), admissible by construction:
    f0'^2 = b^2 f0^2 + q with q > 0."""
    a = 2.0 * _jitter(rng, 0.05)
    h0 = 0.5 * _jitter(rng, 0.1)
    f0 = _jitter(rng, 0.1)
    q = rng.uniform(0.5, 1.5)
    return a, h0, f0, math.sqrt((a * a - 4.0 * h0 * h0) * f0 * f0 + q)


def _l5_admissible(a, h0, c2, c3, f, fp, yp) -> bool:
    """Closed-form space-likeness margin and determinant test of the coupled
    system's initial state."""
    xp = -fp / (a * f * f)
    zp = (-2.0 * h0 * fp / (a * a * f * f) - c2 * yp) / c3
    if f * f * (xp * xp + yp * yp + zp * zp) - 1.0 <= _L5_FLOOR:
        return False
    b2, c4 = a * a - 4.0 * h0 * h0, a * a * c3 * c3 + 4.0 * h0 * h0
    a11 = -a**4 * c3**2 * c4 * f**3 * fp - 2 * a**6 * c2 * c3**2 * h0 * f**5 * yp
    a12 = -a**6 * b2 * c3**2 * f**7 * yp - 2 * a**6 * c2 * c3**2 * h0 * f**5 * fp
    a21 = -a**4 * c3**2 * f**3 * yp
    a22 = a**4 * c3**2 * f**3 * fp
    scale = max(abs(a11), abs(a12), abs(a21), abs(a22)) ** 2
    return abs(a11 * a22 - a12 * a21) > _L5_DET_SHARE * scale


def draw_l5(rng):
    """((a, H0, c2, c3), (f0, f0p, y0, y0p)) near the reference item.  The
    constants lie on c2^2 + c3^2 + 4 H0^2 / a^2 = 1 by construction; initial
    states are redrawn until ``_l5_admissible`` holds."""
    while True:
        a = 2.0 * _jitter(rng, 0.05)
        h0 = 0.6 * _jitter(rng, 0.1)
        r = math.sqrt(1.0 - 4.0 * h0 * h0 / (a * a))
        phi = math.atan2(0.64, 0.48) + 0.1 * rng.uniform(-1.0, 1.0)
        c2, c3 = r * math.cos(phi), r * math.sin(phi)
        ics = (1.5 * _jitter(rng, 0.05), 1.2 * _jitter(rng, 0.05),
               0.4 + 0.05 * rng.uniform(-1.0, 1.0), -0.7 * _jitter(rng, 0.05))
        if _l5_admissible(a, h0, c2, c3, ics[0], ics[1], ics[3]):
            return (a, h0, c2, c3), ics


class WarpSweep:
    """Seeded L4 and L5 warp solves, each followed by dense-output sampling."""

    name = "warp-sweep"
    label = "solve_s"
    kinds = ("L4", "L5")
    per_round = 18  # items of each kind in one round
    nominal_round_s = 6.5

    def __init__(self, reference: dict, outdir: str):
        pass

    def make_round(self, rng):
        items = []
        for _ in range(self.per_round):
            items.append(Item("L4", draw_l4(rng)))
            items.append(Item("L5", draw_l5(rng)))
        return items

    def run(self, item: Item):
        if item.kind == "L4":
            a, h0, f0, f0p = item.params
            constants = solvers.validate_constants_l4(a, h0)
            solution = solvers.solve_rotational_warp(constants, f0, f0p, (0.0, 1.0))
        else:
            constants = solvers.validate_constants_l5(*item.params[0])
            solution = solvers.solve_warp_system(constants, item.params[1],
                                                 (0.0, 0.8))
        lo, hi = solution.warp.interval
        ts = np.linspace(lo, hi, 2001)
        rows = [solution.warp(float(t)) for t in ts]
        residual = None
        if item.kind == "L5":
            rows = [w + solution.y_state(float(t)) for w, t in zip(rows, ts)]
            residual = solution.max_equation_residual()
        return np.array(rows), residual

    def check(self, item: Item, result) -> Outcome:
        values, residual = result
        problems = []
        if not np.all(np.isfinite(values)):
            problems.append("non-finite dense-output sample")
        if residual is not None and not residual <= L5_RESIDUAL_BOUND:
            problems.append(f"equation residual {residual:.3e} above "
                            f"{L5_RESIDUAL_BOUND:g}")
        return Outcome(not problems, "; ".join(problems),
                       values.tobytes() + repr(residual).encode())


WORKLOADS = {w.name: w for w in (Certify, CliExport, WarpSweep)}
