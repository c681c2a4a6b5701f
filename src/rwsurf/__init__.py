"""Numerical verification of space-like PMCV and biconservative surfaces in
Lorentzian warped products.  A public name imports its module on first read
(PEP 562), so ``import rwsurf`` loads no geometry and no numpy."""

import importlib.util

__version__ = "0.1.0"

# public name -> its module; read uncached, so a patched X shows as rwsurf.X
_MODULE_OF = {name: module for module, names in {
    "ambient": "AmbientSpace WarpingFunction ambient_covariant_derivative "
               "curvature_rw_values curvature_scalars is_constant_curvature",
    "catalog": "ScanResult default_warp_domain nonexistence_scan_e11h4 "
               "nonexistence_slice_scan product_surface_e11s4 "
               "product_surface_family rotational_surface_l41 surface_l51",
    "errors": "AdmissibilityError ChartDomainError ConstraintError "
              "DegenerateFrameError DimensionMismatchError GeometryError "
              "HorizontalSliceError InapplicableError MinimalDirectionError "
              "NotSpaceLikeError SingularWarpError",
    "immersion": "FrameData Jet2Immersion JetSample adapted_frame "
                 "chart_second_fundamental finite_difference_jet "
                 "induced_metric",
    "linalg": "causal_character inner numeric_rank project_out_span",
    "shape": "NormalSpaceDims PointData SecondFundamentalData SurfaceGrid "
             "evaluate_point normal_curvature normal_space_dims pmcv_residual "
             "pmcv_values second_fundamental_form shape_operator",
    "solvers": "ConstantsL4 ConstantsL5 ConstantsProduct DenseOutput "
               "IntegrationResult RotationalWarpSolution SolverConfig "
               "WarpSystemSolution rk_integrate solve_rotational_warp "
               "solve_warp_system system_equation_residuals "
               "validate_constants_l4 validate_constants_l5 "
               "validate_constants_product",
    "verdicts": "CheckEntry VerificationReport biconservativity_residual "
                "codazzi_residuals curvature_trace_term "
                "flat_normal_bundle_check frame_identity_residuals "
                "pmcv_structure_check reduced_criterion verify_surface",
}.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)


def _exports(module):
    """The table's names for the module named ``module``: its ``__all__``."""
    return sorted(n for n, m in _MODULE_OF.items() if f"{__name__}.{m}" == module)


def __getattr__(name):
    if name not in _MODULE_OF and not importlib.util.find_spec(f"{__name__}.{name}"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_MODULE_OF.get(name, name)}")
    return getattr(module, name) if name in _MODULE_OF else module  # any submodule


def __dir__():
    return sorted({*globals(), *__all__})
