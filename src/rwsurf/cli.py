"""Command-line front end.

Subcommands: ``verify {thm4|thm5|product|user-map}``, ``solve {f4|sys5}``,
``scan {h4|slice}`` and ``report``.  Exit codes: 0 all checks passed, 1 a
check failed, 2 degenerate or invalid input.  Flags may be preloaded from a
KEY=VALUE config file (--config); explicit flags override the file.  Outputs
carry no timestamps, so repeated runs with the same configuration are
bit-identical.  The geometry and numpy load with the command that runs them.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import math
import os
import sys

from .errors import DimensionMismatchError, GeometryError
from .families import FAMILIES

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


def _parse_span(text: str | None, flag: str) -> tuple[float, float] | None:
    if text is None:
        return None
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


def _parse_range(text: str, flag: str):
    import numpy as np
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


def _parse_warp(text: str):
    from .ambient import WarpingFunction
    head, _, rest = text.partition(":")
    try:
        params = [float(p) for p in rest.split(",")] if rest else []
    except ValueError:
        params = None
    if params is not None and all(map(math.isfinite, params)):
        if head == "exp" and len(params) <= 1:
            return WarpingFunction.exponential(*params)
        if head == "const" and len(params) <= 1:
            return WarpingFunction.constant(*params)
        if head == "cosh" and not params:
            return WarpingFunction.hyperbolic_cosine()
        if head == "poly" and params:
            return WarpingFunction.polynomial(params, (-1e6, 1e6))
    raise ValueError(f"--warp must be exp[:r], cosh, const[:k] or "
                     f"poly:c0,c1,.. with finite numbers, got {text!r}")


def _load_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror}") from None
    for line_no, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, equals, val = (p.strip() for p in line.partition("="))
        if not (key and equals):
            raise ValueError(f"{path}:{line_no}: expected KEY=VALUE")
        values[key.replace("-", "_")] = val
    return values


def _options(defaults: dict, namespace: argparse.Namespace) -> dict:
    """Hard defaults, then the --config file's values (strings, or floats
    where the default is one: ValueError naming the key), then flags."""
    values = dict(defaults)
    if getattr(namespace, "config", None):
        file_values = _load_config_file(namespace.config)
        unknown = set(file_values) - set(defaults)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
        for key, val in file_values.items():
            try:
                values[key] = float(val) if isinstance(defaults[key], float) else val
            except ValueError:
                raise ValueError(f"config key {key} expects a number, "
                                 f"got {val!r}") from None
    values.update((key, val) for key, val in vars(namespace).items()
                  if key not in ("_command", "_sub", "_run")
                  and val is not None)
    return values


_INPUTS = ("config", "py")  # the paths read
_OUTPUTS = ("out", "residuals_csv", "surface_csv", "csv")  # the paths written


def _check_outputs(values: dict):
    """ValueError naming the flag and the path of the first output path in
    ``values`` that is empty, whose directory does not exist, which is a
    directory, or which names the file of an input or an earlier output
    (and that flag and path too): every output is checked before any solve,
    chart import or scan."""
    flag = lambda dest: "--" + dest.replace("_", "-")
    named = {os.path.realpath(values[dest]): dest for dest in _INPUTS
             if values.get(dest)}
    for dest in _OUTPUTS:
        path = values.get(dest)
        if path is None:
            continue
        if not path:
            raise ValueError(f"{flag(dest)} {path!r} is an empty path")
        directory = os.path.dirname(path) or "."
        if not os.path.isdir(directory):
            raise ValueError(f"{flag(dest)} {path!r}: directory {directory!r} "
                             "does not exist")
        if os.path.isdir(path):
            raise ValueError(f"{flag(dest)} {path!r} is a directory")
        other = named.setdefault(os.path.realpath(path), dest)
        if other != dest:
            raise ValueError(f"{flag(other)} {values[other]!r} and {flag(dest)} "
                             f"{path!r} name one file")


def _add_common_verify_flags(p: argparse.ArgumentParser):
    p.add_argument("--grid", help="report grid as NUxNV (default 17x17)")
    p.add_argument("--u-span", dest="u_span", help="report span lo:hi")
    p.add_argument("--v-span", dest="v_span", help="report span lo:hi")
    p.add_argument("--tol", action="append", default=None, metavar="NAME=VALUE",
                   help="tolerance override, repeatable")
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--residuals-csv", dest="residuals_csv",
                   help="write per-node residual rows here")
    p.add_argument("--surface-csv", dest="surface_csv",
                   help="write sampled surface coordinates here")
    p.add_argument("--config", help="KEY=VALUE config file; flags override")


_VERIFY_DEFAULTS = {"grid": "17x17", "u_span": None, "v_span": None,
                    "tol": None, "out": None, "residuals_csv": None,
                    "surface_csv": None}


class _Parser(argparse.ArgumentParser):
    """Each (sub)command refuses what it does not know, under its own usage."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="rwsurf",
        description="Verify space-like PMCV/biconservative surfaces in "
                    "Lorentzian warped products, solve their warp ODEs, and "
                    "run non-existence scans.")
    sub = ap.add_subparsers(dest="_command", required=True)

    pv = sub.add_parser("verify", help="run the verification battery")
    pvs = pv.add_subparsers(dest="_sub", required=True)

    for name, family in FAMILIES.items():
        pf = pvs.add_parser(name, help=family.summary)
        for param in family.params:
            kind = ({"action": "store_true"} if isinstance(param.default, bool)
                    else {"type": float, "required": param.required})
            pf.add_argument("--" + param.name.replace("_", "-"),
                            help=param.help, **kind)
        _add_common_verify_flags(pf)
        pf.set_defaults(_run=_cmd_verify_family)

    pu = pvs.add_parser("user-map", help="verify a user chart sampled through "
                                         "finite-difference jets")
    pu.set_defaults(_run=_cmd_verify_user_map)
    pu.add_argument("--py", required=True, help="python file defining chart(u, v)")
    pu.add_argument("--ambient", choices=("warped-flat", "product"),
                    required=True)
    pu.add_argument("--n", type=int, required=True, help="spacetime dimension")
    pu.add_argument("--c", type=int, choices=(-1, 1),
                    help="fiber curvature, product only (default 1)")
    pu.add_argument("--warp", help="exp[:r]|cosh|const[:k]|poly:c0,c1,.. "
                                   "(default: the unit warp)")
    pu.add_argument("--chart-u-span", dest="chart_u_span", required=True)
    pu.add_argument("--chart-v-span", dest="chart_v_span", required=True)
    _add_common_verify_flags(pu)

    ps = sub.add_parser("solve", help="integrate a warp ODE and export CSV")
    pss = ps.add_subparsers(dest="_sub", required=True)
    for name, kind, summary in (  # flags: the family's required parameters
            ("f4", "thm4", "scalar warp ODE of the rotational family"),
            ("sys5", "thm5", "coupled (f, y) system of the 5-dim family")):
        pf = pss.add_parser(name, help=summary)
        params = FAMILIES[kind].params
        for param in params:
            if param.required:
                pf.add_argument("--" + param.name, type=float, required=True)
        u_end = {p.name: p.default for p in params}["u_end"]
        pf.add_argument("--u0", type=float, default=0.0)
        pf.add_argument("--u1", type=float, default=u_end)
        pf.add_argument("--rtol", type=float)  # None: SolverConfig's default
        pf.add_argument("--atol", type=float)
        pf.add_argument("--csv", help="dense-output CSV path")
        pf.add_argument("--samples", type=int, default=201)
        pf.set_defaults(_run=_cmd_solve, _family=kind)

    pc = sub.add_parser("scan", help="non-existence residual scans")
    pcs = pc.add_subparsers(dest="_sub", required=True)
    ph = pcs.add_parser("h4", help="scan the hyperbolic-fiber obstruction")
    ph.set_defaults(_run=_cmd_scan)
    ph.add_argument("--theta", default="0.1:3:301", help="lo:hi:n")
    ph.add_argument("--tau", default="0:5:501", help="lo:hi:n")
    ph.add_argument("--csv")
    psl = pcs.add_parser("slice", help="codimension-1 slice obstruction")
    psl.set_defaults(_run=_cmd_scan)
    psl.add_argument("--c", type=int, required=True, choices=(-1, 1))
    psl.add_argument("--theta", default="0.1:3:301")
    psl.add_argument("--csv")

    pr = sub.add_parser("report", help="pretty-print a JSON report")
    pr.add_argument("path")
    pr.set_defaults(_run=_cmd_report)
    return ap


# ---------------------------------------------------------------------------
# verify plumbing


def _write_report_files(report, surface, opts: dict):
    import numpy as np
    from . import verdicts
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
        us, vs = (np.linspace(*report.grid[k], report.grid["n" + k]) for k in "uv")
        dim = surface.space.ambient_dim
        try:  # the grid's jet (NaN where the chart failed), else one jet call
            phis = (sg.node_data.jet.phi if sg is not None else
                    surface.jet(us[:, None], vs[None, :])[0].phi).tolist()
        except DimensionMismatchError:  # a chart whose vectors fit no row
            phis = np.full((len(us), len(vs), dim), np.nan).tolist()
        row = _row_template(2 + dim)
        with open(surf_csv, "w", encoding="utf-8") as fh:
            fh.write("u,v," + ",".join(f"x{k}" for k in range(dim)) + "\n")
            for i, u in enumerate(us.tolist()):
                for j, v in enumerate(vs.tolist()):
                    fh.write(row % (u, v, *phis[i][j]))


def _print_report(report: dict):
    """Print a report's dict form (``to_dict``'s, or a report file's JSON
    object, whose null value, tol, dim_N1 or dim_N2 prints as nan), or print
    nothing and raise ValueError naming the missing or malformed field."""
    nan = lambda x: math.nan if x is None else x  # null is a non-finite number
    within = " in 'entries'"  # the list or map a malformed field's error names
    try:
        entries = [(e["name"], nan(e["value"]), nan(e["tol"]), e["passed"])
                   for e in report["entries"]]
        within = " in 'diagnostics'"
        diag = {k: nan(v) if k in ("dim_N1", "dim_N2") else v
                for k, v in report["diagnostics"].items()}
        within = ""
        surface, grid, degeneracies, verdict = (
            report[k] for k in ("surface", "grid", "degeneracies", "verdict"))
        lines = [f"surface: {surface}",
                 f"grid: {grid['nu']}x{grid['nv']} "
                 f"u=[{grid['u'][0]:.6g}, {grid['u'][1]:.6g}] "
                 f"v=[{grid['v'][0]:.6g}, {grid['v'][1]:.6g}]"]
        lines += [f"  [{'pass' if passed else 'FAIL'}] {name:24s} "
                  f"{value:.6e}  (tol {tol:g})"
                  for name, value, tol, passed in entries]
        if diag:
            lines.append(
                f"  theta var {diag['theta']['var']:.3e}; "
                f"H0 in [{diag['H0']['min']:.9g}, {diag['H0']['max']:.9g}]; "
                f"dim N1 = {diag['dim_N1']}, dim N2 = {diag['dim_N2']}; "
                f"H character: {','.join(diag['mean_curvature_character'])}")
        lines += [f"  degenerate node ({i},{j}): {msg}" if i >= 0 else
                  f"  degenerate grid: {msg}" for i, j, msg in degeneracies[:5]]
        if len(degeneracies) > 5:
            lines.append(f"  ... {len(degeneracies) - 5} more degenerate nodes")
    except KeyError as exc:
        raise ValueError(f"report field {exc} is missing") from None
    except (IndexError, TypeError, AttributeError, ValueError) as exc:
        raise ValueError(f"report field is malformed "
                         f"({type(exc).__name__}: {exc}){within}") from None
    print(*lines, f"verdict: {verdict}", sep="\n")


def _verify_inputs(opts: dict) -> dict:
    """verify_surface's grid (first: before numpy loads), spans and tolerance
    overrides (--tol flags or a config file's NAME=VALUE list, by verdicts'
    rule), and the output paths, before any solve or chart work (ValueError
    naming the flag)."""
    inputs = {"grid": _parse_grid(opts["grid"]),
              "u_span": _parse_span(opts["u_span"], "--u-span"),
              "v_span": _parse_span(opts["v_span"], "--v-span")}
    from .verdicts import _tolerance_overrides
    overrides, tol = {}, opts["tol"]
    for item in (tol.split(",") if isinstance(tol, str) else tol or []):
        name, _, val = item.partition("=")
        try:
            overrides[name.strip()] = float(val)
        except ValueError:
            raise ValueError(f"--tol expects NAME=NUMBER, got {item!r}") from None
    _check_outputs(opts)
    return {**inputs, "tolerances": _tolerance_overrides(overrides)}


def _run_verify(surface, inputs: dict, opts: dict, expect, solution=None) -> int:
    from .verdicts import verify_surface
    report = verify_surface(surface, expect=expect, **inputs)
    if solution is not None:  # once verify_surface has taken the spans
        from . import solvers
        lo, hi = solution.warp.interval
        stop = solution.integration.stop_reason
        if isinstance(solution, solvers.WarpSystemSolution):
            print(f"system integration: {stop}, interval [{lo:.6g}, {hi:.6g}], "
                  f"max equation residual {solution.max_equation_residual():.3e}")
        else:
            blow_up = ("" if solution.blow_up_time is None else
                       f", estimated blow-up at t={solution.blow_up_time:.6g}")
            print(f"warp integration: {stop}{blow_up}, "
                  f"admissible interval [{lo:.6g}, {hi:.6g}]")
    _write_report_files(report, surface, opts)
    _print_report(report.to_dict())
    return {"pass": EXIT_PASS, "fail": EXIT_FAIL}.get(report.verdict, EXIT_INVALID)


def _cmd_verify_family(args) -> int:
    family = FAMILIES[args._sub]
    # a parameter with a number for its default (--u-end) may come from --config
    settable = {p.name: p.default for p in family.params
                if isinstance(p.default, float)}
    opts = _options({**_VERIFY_DEFAULTS, **settable}, args)
    inputs = _verify_inputs(opts)
    surface, expect, solution = family.build(
        {p.name: opts.get(p.name) for p in family.params})
    return _run_verify(surface, inputs, opts, expect, solution)


def _load_chart(path: str):
    """The callable ``chart`` of the Python file ``path``; ValueError naming
    --py when the file is no loadable module, cannot be read, raises anything
    at import (a SyntaxError or a sys.exit too, not a KeyboardInterrupt), or
    has none."""
    spec = importlib.util.spec_from_file_location("rwsurf_user_map", path)
    if spec is None:
        raise ValueError(f"--py {path!r} cannot be loaded as a Python module")
    module = importlib.util.module_from_spec(spec)
    try:
        source = spec.loader.get_data(path)
    except OSError as exc:
        raise ValueError(f"--py {path!r}: {exc.strerror}") from None
    try:  # compiled as exec_module would, but with no __pycache__ beside it
        exec(spec.loader.source_to_code(source, path), module.__dict__)
    except (Exception, SystemExit) as exc:
        raise ValueError(f"--py {path!r} failed at import: "
                         f"{type(exc).__name__}: {exc}") from None
    chart = getattr(module, "chart", None)
    if not callable(chart):
        raise ValueError(f"--py {path!r} defines no callable chart")
    return chart


def _cmd_verify_user_map(args) -> int:
    opts = _options(_VERIFY_DEFAULTS, args)
    inputs = _verify_inputs(opts)
    if args.ambient == "warped-flat" and args.c is not None:
        raise ValueError("--c applies to --ambient product, not warped-flat")
    from .ambient import _UNIT_WARP, AmbientSpace
    from .immersion import finite_difference_jet
    c = 0 if args.ambient == "warped-flat" else args.c or 1
    space = AmbientSpace(args.n, c, _UNIT_WARP if args.warp is None
                         else _parse_warp(args.warp))
    spans = (_parse_span(args.chart_u_span, "--chart-u-span"),
             _parse_span(args.chart_v_span, "--chart-v-span"))
    # every flag is refused before the chart file runs
    surface = finite_difference_jet(
        _load_chart(args.py), space, *spans,
        name=f"user-map:{os.path.basename(args.py)}")
    return _run_verify(surface, inputs, opts, None)


# ---------------------------------------------------------------------------
# solve / scan / report


def _write_dense_csv(path, solution, samples, with_y):
    import numpy as np
    row = _row_template(7 if with_y else 4)
    read = solution.state if with_y else solution.warp  # one read per row
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,f,fp,fpp" + (",y,yp,ypp" if with_y else "") + "\n")
        for t in np.linspace(*solution.warp.interval, samples).tolist():
            fh.write(row % (t, *read(t)))


def _cmd_solve(args) -> int:
    if args.samples < 2:  # before anything is solved or written
        raise ValueError(f"--samples must be at least 2, got {args.samples}")
    _check_outputs(vars(args))
    from . import solvers
    tols = {k: getattr(args, k) for k in ("rtol", "atol")
            if getattr(args, k) is not None}
    solution = FAMILIES[args._family].solve(
        vars(args), (args.u0, args.u1), solvers.SolverConfig(**tols))
    with_y = isinstance(solution, solvers.WarpSystemSolution)
    lo, hi = solution.warp.interval
    blow_up = ("" if with_y or solution.blow_up_time is None else
               f", estimated blow-up at t={_fmt(solution.blow_up_time)}")
    print(f"stop reason: {solution.integration.stop_reason}{blow_up}")
    print(f"{'interval' if with_y else 'admissible interval'}: [{_fmt(lo)}, {_fmt(hi)}]")
    if with_y:
        print(f"max equation residual: {solution.max_equation_residual():.3e}")
    if args.csv:
        _write_dense_csv(args.csv, solution, args.samples, with_y)
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


def _cmd_scan(args) -> int:
    from . import catalog
    thetas = _parse_range(args.theta, "--theta")
    taus = _parse_range(args.tau, "--tau") if args._sub == "h4" else None
    _check_outputs(vars(args))
    if args._sub == "h4":
        result = catalog.nonexistence_scan_e11h4(thetas, taus)
        print(f"min |residual| = {_fmt(result.min_abs)}")
        print(f"analytic lower bound = {_fmt(result.lower_bound)}")
        print(f"bound holds at every node: {result.bound_holds}")
    else:
        result = catalog.nonexistence_slice_scan(args.c, thetas)
        print(f"min |residual| = {_fmt(result.min_abs)}")
        print(f"positive at every node: {result.bound_holds}")
    if args.csv:
        _write_scan_csv(args.csv, result)
        print(f"scan table written to {args.csv}")
    return EXIT_PASS if result.bound_holds else EXIT_FAIL


def _cmd_report(args) -> int:
    import json
    try:  # a file that is no UTF-8 or no JSON is named like a malformed one
        with open(args.path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        if not isinstance(report, dict):
            raise ValueError(
                f"a report is a JSON object, not {type(report).__name__}")
        _print_report(report)
    except ValueError as exc:
        raise ValueError(f"{args.path}: {exc}") from None
    except OSError as exc:
        raise ValueError(f"{args.path}: {exc.strerror}") from None
    return EXIT_PASS


_parser = functools.cache(build_parser)  # main's, built on its first call


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args._run(args)
    except (GeometryError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
