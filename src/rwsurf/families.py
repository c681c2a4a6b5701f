"""The family table (``FAMILIES``), the one home of the classified families:
each family's parameters, warp solve and chart build.  It imports no numpy
and no record machinery beyond ``collections``, so the parser reads it for
its flags; the charts and solvers load when a family runs."""

from collections import namedtuple

Param = namedtuple("Param", "name required default help",
                   defaults=(True, None, None))
Param.__doc__ = ("A family parameter; an optional one takes ``default`` "
                 "(None: derived).")

Family = namedtuple("Family", "summary params build solve", defaults=(None,))
Family.__doc__ = """A classified family: its parameters; ``solve(params,
interval, config=None)``, which validates the constants and solves the warp
(None for product); and ``build(params)``, which takes a value per parameter
name and returns ``(surface, expect, solution)``: the validated chart, the
theorem's pins for ``verify_surface(expect=)`` (None for the negative
control) and the solve over (0, u_end) (None for product)."""


def _solve_thm4(p, interval, config=None):
    from . import solvers
    constants = solvers.validate_constants_l4(p["a"], p["H0"])
    return solvers.solve_rotational_warp(constants, p["f0"], p["f0p"],
                                         interval, config)


def _build_thm4(p):
    from . import catalog
    sol = _solve_thm4(p, (0.0, p["u_end"]))
    return (catalog.rotational_surface_l41(sol.constants, sol.warp),
            {"H0": abs(sol.constants.H0), "dim_N1": 2}, sol)


def _solve_thm5(p, interval, config=None):
    from . import solvers
    constants = solvers.validate_constants_l5(p["a"], p["H0"], p["c2"], p["c3"])
    return solvers.solve_warp_system(
        constants, (p["f0"], p["f0p"], p["y0"], p["y0p"]), interval, config)


def _build_thm5(p):
    from . import catalog
    sol = _solve_thm5(p, (0.0, p["u_end"]))
    return catalog.surface_l51(sol), {"H0": abs(sol.constants.H0), "dim_N1": 2}, sol


def _build_product(p):
    from . import catalog, solvers
    if p["force_b4"]:
        if p["b2"] is None or p["b3"] is None:
            raise ValueError("--force-b4 needs explicit --b2 and --b3")
        return catalog.product_surface_family(p["b1"], p["b2"], p["b3"]), None, None
    constants = solvers.validate_constants_product(p["b1"], p["b2"], p["b3"])
    return (catalog.product_surface_e11s4(constants),
            {"dim_N1": 2, "dim_N2": 3}, None)


# build looks solvers and charts up at call time: a patched one sees each call
FAMILIES = {
    "thm4": Family(
        "rotational surface in the 4-dim warped spacetime (warp from its ODE)",
        (*map(Param, ("a", "H0", "f0", "f0p")),
         Param("u_end", False, 1.0, "integration horizon (default 1.0)")),
        _build_thm4, _solve_thm4),
    "thm5": Family(
        "surface in the 5-dim warped spacetime (coupled warp system)",
        (*map(Param, ("a", "H0", "c2", "c3", "f0", "f0p", "y0", "y0p")),
         Param("u_end", False, 0.8)),
        _build_thm5, _solve_thm5),
    "product": Family(
        "rotational surface in the Lorentzian cylinder over the 4-sphere",
        (Param("b1"), Param("b2", False), Param("b3", False),
         Param("force_b4", False, False,
               "skip the closure constraint (negative control)")),
        _build_product),
}
