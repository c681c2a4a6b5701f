"""Command-line front end.

Subcommands: ``verify {thm4|thm5|product|user-map}``, ``solve {f4|sys5}``,
``scan {h4|slice}`` and ``report``.  Exit codes: 0 all checks passed, 1 a
check failed, 2 degenerate or invalid input.  Flags may be preloaded from a
KEY=VALUE config file (--config); explicit flags override the file.  Outputs
carry no timestamps, so repeated runs with the same configuration are
bit-identical.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import sys

import numpy as np

from . import catalog, solvers, verdicts
from .ambient import AmbientSpace, WarpingFunction
from .errors import GeometryError
from .immersion import finite_difference_jet
from .shape import DEFAULT_SUBSTEP
from .verdicts import VerificationReport, verify_surface

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INVALID = 2

_FMT = ".17g"  # every number written to a CSV or printed


def _fmt(x) -> str:
    return format(float(x), _FMT)


def _row_template(n: int, head: str = "") -> str:
    """%-template of a CSV row: a fixed ``head`` (no user text, so no stray
    '%'), then n slots that print a float as format(x, _FMT) does."""
    return head + ",".join(["%" + _FMT] * n) + "\n"


def _parse_span(text: str, flag: str) -> tuple[float, float]:
    try:
        lo, hi = (float(p) for p in text.split(":"))
    except ValueError:
        raise ValueError(f"{flag} must be lo:hi, got {text!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(
            f"{flag} must be lo:hi with finite lo < hi, got {text!r}")
    return lo, hi


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        a, b = (int(p) for p in text.lower().split("x"))
    except ValueError:
        raise ValueError(f"--grid must be NUxNV, got {text!r}") from None
    if a < 3 or b < 3:
        raise ValueError("grid must be at least 3x3")
    return a, b


def _parse_range(text: str, flag: str) -> np.ndarray:
    form = (f"{flag} must be lo:hi:n with finite lo, hi and an integer "
            f"n >= 1, got {text!r}")
    try:
        lo, hi, n = text.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        raise ValueError(form) from None
    if not (math.isfinite(lo) and math.isfinite(hi) and n >= 1):
        raise ValueError(form)
    return np.linspace(lo, hi, n)


def _parse_warp(text: str) -> WarpingFunction:
    head, _, rest = text.partition(":")
    if head == "exp":
        return WarpingFunction.exponential(float(rest) if rest else 1.0)
    if head == "cosh":
        return WarpingFunction.hyperbolic_cosine()
    if head == "const":
        return WarpingFunction.constant(float(rest) if rest else 1.0)
    if head == "poly":
        coeffs = [float(c) for c in rest.split(",")]
        return WarpingFunction.polynomial(coeffs, (-1e6, 1e6))
    raise ValueError(f"unknown warp spec {text!r} (exp|cosh|const|poly)")


def _load_config_file(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected KEY=VALUE")
            key, val = (p.strip() for p in line.split("=", 1))
            values[key.replace("-", "_")] = val
    return values


class _Options:
    """Merged view of hard defaults, config-file values and explicit flags."""

    def __init__(self, defaults: dict, namespace: argparse.Namespace):
        self._values = dict(defaults)
        config_path = getattr(namespace, "config", None)
        if config_path:
            file_values = _load_config_file(config_path)
            unknown = set(file_values) - set(defaults)
            if unknown:
                raise ValueError(
                    f"unknown config keys: {', '.join(sorted(unknown))}")
            self._values.update(file_values)
        for key, val in vars(namespace).items():
            if key not in ("config", "_command", "_sub") and val is not None:
                self._values[key] = val

    def get(self, key, cast=None):
        val = self._values[key]
        if val is None or cast is None or not isinstance(val, str):
            return val
        return cast(val)


def _add_common_verify_flags(p: argparse.ArgumentParser):
    p.add_argument("--grid", help="report grid as NUxNV (default 17x17)")
    p.add_argument("--u-span", dest="u_span", help="report span lo:hi")
    p.add_argument("--v-span", dest="v_span", help="report span lo:hi")
    p.add_argument("--substep", type=float, help="stencil substep base")
    p.add_argument("--tol", action="append", default=None, metavar="NAME=VALUE",
                   help="tolerance override, repeatable")
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--residuals-csv", dest="residuals_csv",
                   help="write per-node residual rows here")
    p.add_argument("--surface-csv", dest="surface_csv",
                   help="write sampled surface coordinates here")
    p.add_argument("--config", help="KEY=VALUE config file; flags override")


_VERIFY_DEFAULTS = {
    "grid": "17x17", "u_span": None, "v_span": None,
    "substep": DEFAULT_SUBSTEP, "tol": None, "out": None,
    "residuals_csv": None, "surface_csv": None,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rwsurf",
        description="Verify space-like PMCV/biconservative surfaces in "
                    "Lorentzian warped products, solve their warp ODEs, and "
                    "run non-existence scans.")
    sub = ap.add_subparsers(dest="_command", required=True)

    pv = sub.add_parser("verify", help="run the verification battery")
    pvs = pv.add_subparsers(dest="_sub", required=True)

    p4 = pvs.add_parser("thm4", help="rotational surface in the 4-dim warped "
                                     "spacetime (warp from its ODE)")
    p4.add_argument("--a", type=float, required=True)
    p4.add_argument("--H0", type=float, required=True)
    p4.add_argument("--c2", type=float, default=None)
    p4.add_argument("--f0", type=float, required=True)
    p4.add_argument("--f0p", type=float, required=True)
    p4.add_argument("--u-end", dest="u_end", type=float,
                    help="integration horizon (default 1.0)")
    _add_common_verify_flags(p4)

    p5 = pvs.add_parser("thm5", help="surface in the 5-dim warped spacetime "
                                     "(coupled warp system)")
    for flag in ("--a", "--H0", "--c2", "--c3", "--f0", "--f0p", "--y0", "--y0p"):
        p5.add_argument(flag, type=float, required=True)
    p5.add_argument("--u-end", dest="u_end", type=float)
    _add_common_verify_flags(p5)

    pp = pvs.add_parser("product", help="rotational surface in the Lorentzian "
                                        "cylinder over the 4-sphere")
    pp.add_argument("--b1", type=float, required=True)
    pp.add_argument("--b2", type=float, default=None)
    pp.add_argument("--b3", type=float, default=None)
    pp.add_argument("--force-b4", dest="force_b4", action="store_true",
                    help="skip the closure constraint (negative control)")
    _add_common_verify_flags(pp)

    pu = pvs.add_parser("user-map", help="verify a user chart sampled through "
                                         "finite-difference jets")
    pu.add_argument("--py", required=True, help="python file defining the chart")
    pu.add_argument("--attr", default="chart", help="chart function name")
    pu.add_argument("--ambient", choices=("warped-flat", "product"),
                    required=True)
    pu.add_argument("--n", type=int, required=True, help="spacetime dimension")
    pu.add_argument("--c", type=int, default=1, help="fiber curvature (product)")
    pu.add_argument("--warp", default="const:1", help="exp[:r]|cosh|const[:k]|poly:c0,c1,..")
    pu.add_argument("--chart-u-span", dest="chart_u_span", required=True)
    pu.add_argument("--chart-v-span", dest="chart_v_span", required=True)
    _add_common_verify_flags(pu)

    ps = sub.add_parser("solve", help="integrate a warp ODE and export CSV")
    pss = ps.add_subparsers(dest="_sub", required=True)
    pf = pss.add_parser("f4", help="scalar warp ODE of the rotational family")
    for flag in ("--a", "--H0", "--f0", "--f0p"):
        pf.add_argument(flag, type=float, required=True)
    pf.add_argument("--u0", type=float, default=0.0)
    pf.add_argument("--u1", type=float, default=1.0)
    pf.add_argument("--rtol", type=float, default=1e-11)
    pf.add_argument("--atol", type=float, default=1e-13)
    pf.add_argument("--csv", help="dense-output CSV path")
    pf.add_argument("--samples", type=int, default=201)

    py5 = pss.add_parser("sys5", help="coupled (f, y) system of the 5-dim family")
    for flag in ("--a", "--H0", "--c2", "--c3", "--f0", "--f0p", "--y0", "--y0p"):
        py5.add_argument(flag, type=float, required=True)
    py5.add_argument("--u0", type=float, default=0.0)
    py5.add_argument("--u1", type=float, default=0.8)
    py5.add_argument("--rtol", type=float, default=1e-11)
    py5.add_argument("--atol", type=float, default=1e-13)
    py5.add_argument("--csv")
    py5.add_argument("--samples", type=int, default=201)

    pc = sub.add_parser("scan", help="non-existence residual scans")
    pcs = pc.add_subparsers(dest="_sub", required=True)
    ph = pcs.add_parser("h4", help="scan the hyperbolic-fiber obstruction")
    ph.add_argument("--theta", default="0.1:3:301", help="lo:hi:n")
    ph.add_argument("--tau", default="0:5:501", help="lo:hi:n")
    ph.add_argument("--csv")
    psl = pcs.add_parser("slice", help="codimension-1 slice obstruction")
    psl.add_argument("--c", type=int, required=True, choices=(-1, 1))
    psl.add_argument("--theta", default="0.1:3:301")
    psl.add_argument("--csv")

    pr = sub.add_parser("report", help="pretty-print a JSON report")
    pr.add_argument("path")
    return ap


# ---------------------------------------------------------------------------
# verify plumbing


def _tolerances(opts: _Options) -> dict:
    """The --tol flags, or a config file's comma-separated NAME=VALUE list."""
    overrides = {}
    for item in (opts.get("tol", lambda text: text.split(",")) or []):
        name, _, val = item.partition("=")
        if not val:
            raise ValueError(f"--tol expects NAME=VALUE, got {item!r}")
        overrides[name.strip()] = float(val)
    return overrides


def _write_report_files(report: VerificationReport, surface, opts: _Options):
    out = opts.get("out")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
    sg = report.surface_grid
    res_csv = opts.get("residuals_csv")
    if res_csv:
        # rows come from the grid the report's checks read; a grid that could
        # not be built leaves only the header
        row = _row_template(5, "%d,%d,")
        with open(res_csv, "w", encoding="utf-8") as fh:
            fh.write("i,j,u,v,pmcv,reduced,biconservativity\n")
            for i, j in (sg.nodes() if sg is not None else ()):
                vals = verdicts.node_residuals(sg, i, j)
                fh.write(row % (i, j, sg.us[i], sg.vs[j], vals["pmcv"],
                                vals["reduced"], vals["biconservativity"]))
    surf_csv = opts.get("surface_csv")
    if surf_csv:
        nu, nv = report.grid["nu"], report.grid["nv"]
        us = np.linspace(*report.grid["u"], nu)
        vs = np.linspace(*report.grid["v"], nv)
        dim = surface.space.ambient_dim
        # rows from the grid; a degenerate (NaN) node calls the chart, as before
        phis = np.full((nu, nv, dim), np.nan) if sg is None else sg.data.jet.phi[:, :, 0]
        row = _row_template(2 + dim)
        with open(surf_csv, "w", encoding="utf-8") as fh:
            fh.write("u,v," + ",".join(f"x{k}" for k in range(dim)) + "\n")
            for i, u in enumerate(us.tolist()):
                for j, v in enumerate(vs.tolist()):
                    phi = phis[i, j]
                    if not np.isfinite(phi).all():
                        phi = surface.jet(u, v).phi
                    fh.write(row % (u, v, *phi))


def _print_report(report: VerificationReport):
    print(f"surface: {report.surface}")
    print(f"grid: {report.grid['nu']}x{report.grid['nv']} "
          f"u=[{report.grid['u'][0]:.6g}, {report.grid['u'][1]:.6g}] "
          f"v=[{report.grid['v'][0]:.6g}, {report.grid['v'][1]:.6g}]")
    for e in report.entries:
        mark = "pass" if e.passed else "FAIL"
        print(f"  [{mark}] {e.name:24s} {e.value:.6e}  (tol {e.tol:g})")
    diag = report.diagnostics
    if diag:
        print(f"  theta var {diag['theta']['var']:.3e}; "
              f"H0 in [{diag['H0']['min']:.9g}, {diag['H0']['max']:.9g}]; "
              f"dim N1 = {diag['dim_N1']}, dim N2 = {diag['dim_N2']}; "
              f"H character: {','.join(diag['mean_curvature_character'])}")
    for i, j, msg in report.degeneracies[:5]:
        print(f"  degenerate node ({i},{j}): {msg}")
    if len(report.degeneracies) > 5:
        print(f"  ... {len(report.degeneracies) - 5} more degenerate nodes")
    print(f"verdict: {report.verdict}")


def _run_verify(surface, opts: _Options, expect: dict | None) -> int:
    report = verify_surface(
        surface,
        grid=_parse_grid(opts.get("grid")),
        u_span=(_parse_span(opts.get("u_span"), "--u-span")
                if opts.get("u_span") else None),
        v_span=(_parse_span(opts.get("v_span"), "--v-span")
                if opts.get("v_span") else None),
        tolerances=_tolerances(opts),
        expect=expect,
        substep=opts.get("substep", float),
    )
    _write_report_files(report, surface, opts)
    _print_report(report)
    if report.verdict == "pass":
        return EXIT_PASS
    if report.verdict == "fail":
        return EXIT_FAIL
    return EXIT_INVALID


def _cmd_verify_thm4(args) -> int:
    opts = _Options({**_VERIFY_DEFAULTS, "u_end": "1.0"}, args)
    constants = solvers.validate_constants_l4(args.a, args.H0, args.c2)
    solution = solvers.solve_rotational_warp(
        constants, args.f0, args.f0p, (0.0, opts.get("u_end", float)))
    blow_up = ("" if solution.blow_up_time is None else
               f", estimated blow-up at t={solution.blow_up_time:.6g}")
    print(f"warp integration: {solution.integration.stop_reason}{blow_up}, "
          f"admissible interval [{solution.warp.interval[0]:.6g}, "
          f"{solution.warp.interval[1]:.6g}]")
    surface = catalog.rotational_surface_l41(constants, solution.warp)
    return _run_verify(surface, opts,
                       {"H0": abs(constants.H0), "dim_N1": 2})


def _cmd_verify_thm5(args) -> int:
    opts = _Options({**_VERIFY_DEFAULTS, "u_end": "0.8"}, args)
    constants = solvers.validate_constants_l5(args.a, args.H0, args.c2, args.c3)
    solution = solvers.solve_warp_system(
        constants, (args.f0, args.f0p, args.y0, args.y0p),
        (0.0, opts.get("u_end", float)))
    print(f"system integration: {solution.integration.stop_reason}, "
          f"interval [{solution.warp.interval[0]:.6g}, "
          f"{solution.warp.interval[1]:.6g}], "
          f"max equation residual {solution.max_equation_residual():.3e}")
    surface = catalog.surface_l51(solution)
    return _run_verify(surface, opts, {"H0": abs(constants.H0), "dim_N1": 2})


def _cmd_verify_product(args) -> int:
    opts = _Options(_VERIFY_DEFAULTS, args)
    if args.force_b4:
        if args.b2 is None or args.b3 is None:
            raise ValueError("--force-b4 needs explicit --b2 and --b3")
        surface = catalog.product_surface_family(args.b1, args.b2, args.b3)
        expect = None
    else:
        constants = solvers.validate_constants_product(args.b1, args.b2, args.b3)
        surface = catalog.product_surface_e11s4(constants)
        expect = {"dim_N1": 2, "dim_N2": 3}
    return _run_verify(surface, opts, expect)


def _cmd_verify_user_map(args) -> int:
    opts = _Options(_VERIFY_DEFAULTS, args)
    spec = importlib.util.spec_from_file_location("rwsurf_user_map", args.py)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    chart = getattr(module, args.attr)
    if args.ambient == "warped-flat":
        space = AmbientSpace.warped_flat(args.n, _parse_warp(args.warp))
    else:
        space = AmbientSpace.product_space_form(args.n, args.c)
    surface = finite_difference_jet(
        chart, space, _parse_span(args.chart_u_span, "--chart-u-span"),
        _parse_span(args.chart_v_span, "--chart-v-span"),
        name=f"user-map:{os.path.basename(args.py)}")
    return _run_verify(surface, opts, None)


# ---------------------------------------------------------------------------
# solve / scan / report


def _require_samples(args):
    """Reject a --samples count below 2 before anything is solved or written."""
    if args.samples < 2:
        raise ValueError(f"--samples must be at least 2, got {args.samples}")


def _write_dense_csv(path, solution, samples, with_y):
    row = _row_template(7 if with_y else 4)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,f,fp,fpp" + (",y,yp,ypp" if with_y else "") + "\n")
        for t in np.linspace(*solution.warp.interval, samples).tolist():
            f = solution.warp(t)
            fh.write(row % ((t, *f, *solution.y_state(t)) if with_y else (t, *f)))


def _cmd_solve_f4(args) -> int:
    _require_samples(args)
    constants = solvers.validate_constants_l4(args.a, args.H0)
    cfg = solvers.SolverConfig(rtol=args.rtol, atol=args.atol)
    solution = solvers.solve_rotational_warp(constants, args.f0, args.f0p,
                                             (args.u0, args.u1), cfg)
    lo, hi = solution.warp.interval
    blow_up = ("" if solution.blow_up_time is None else
               f", estimated blow-up at t={_fmt(solution.blow_up_time)}")
    print(f"stop reason: {solution.integration.stop_reason}{blow_up}")
    print(f"admissible interval: [{_fmt(lo)}, {_fmt(hi)}]")
    if args.csv:
        _write_dense_csv(args.csv, solution, args.samples, with_y=False)
        print(f"dense output written to {args.csv}")
    return EXIT_PASS


def _cmd_solve_sys5(args) -> int:
    _require_samples(args)
    constants = solvers.validate_constants_l5(args.a, args.H0, args.c2, args.c3)
    cfg = solvers.SolverConfig(rtol=args.rtol, atol=args.atol)
    solution = solvers.solve_warp_system(
        constants, (args.f0, args.f0p, args.y0, args.y0p),
        (args.u0, args.u1), cfg)
    lo, hi = solution.warp.interval
    print(f"stop reason: {solution.integration.stop_reason}")
    print(f"interval: [{_fmt(lo)}, {_fmt(hi)}]")
    print(f"max equation residual: {solution.max_equation_residual():.3e}")
    if args.csv:
        _write_dense_csv(args.csv, solution, args.samples, with_y=True)
        print(f"dense output written to {args.csv}")
    return EXIT_PASS


def _write_scan_csv(path, result):
    taus = [""] if result.taus is None else [_fmt(ta) for ta in result.taus.tolist()]
    cells = ["", *(_row_template(1, f",{ta},") for ta in taus)]
    residuals = result.residuals.reshape(len(result.thetas), len(taus))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("theta,tau,residual\n")
        for th, row in zip(result.thetas.tolist(), residuals):
            fh.write(_fmt(th).join(cells) % tuple(row.tolist()))


def _cmd_scan_h4(args) -> int:
    result = catalog.nonexistence_scan_e11h4(
        _parse_range(args.theta, "--theta"), _parse_range(args.tau, "--tau"))
    print(f"min |residual| = {_fmt(result.min_abs)}")
    print(f"analytic lower bound = {_fmt(result.lower_bound)}")
    print(f"bound holds at every node: {result.bound_holds}")
    if args.csv:
        _write_scan_csv(args.csv, result)
        print(f"scan table written to {args.csv}")
    return EXIT_PASS if result.bound_holds else EXIT_FAIL


def _cmd_scan_slice(args) -> int:
    result = catalog.nonexistence_slice_scan(
        args.c, _parse_range(args.theta, "--theta"))
    print(f"min |residual| = {_fmt(result.min_abs)}")
    print(f"positive at every node: {result.bound_holds}")
    if args.csv:
        _write_scan_csv(args.csv, result)
        print(f"scan table written to {args.csv}")
    return EXIT_PASS if result.bound_holds else EXIT_FAIL


def _cmd_report(args) -> int:
    with open(args.path, "r", encoding="utf-8") as fh:
        report = VerificationReport.from_dict(json.load(fh))
    _print_report(report)
    return EXIT_PASS


_DISPATCH = {
    ("verify", "thm4"): _cmd_verify_thm4,
    ("verify", "thm5"): _cmd_verify_thm5,
    ("verify", "product"): _cmd_verify_product,
    ("verify", "user-map"): _cmd_verify_user_map,
    ("solve", "f4"): _cmd_solve_f4,
    ("solve", "sys5"): _cmd_solve_sys5,
    ("scan", "h4"): _cmd_scan_h4,
    ("scan", "slice"): _cmd_scan_slice,
    ("report", None): _cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    key = (args._command, getattr(args, "_sub", None))
    try:
        return _DISPATCH[key](args)
    except (GeometryError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
