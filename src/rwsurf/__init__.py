"""Numerical verification of space-like PMCV and biconservative surfaces in
Lorentzian warped products."""

from .ambient import (AmbientSpace, WarpingFunction, ambient_covariant_derivative,
                      curvature_rw_values, curvature_scalars,
                      is_constant_curvature)
from .catalog import (ScanResult, default_warp_domain, nonexistence_scan_e11h4,
                      nonexistence_slice_scan, product_surface_e11s4,
                      product_surface_family, rotational_surface_l41,
                      surface_l51)
from .errors import (AdmissibilityError, ChartDomainError, ConstraintError,
                     DegenerateFrameError, DimensionMismatchError,
                     GeometryError, HorizontalSliceError, InapplicableError,
                     MinimalDirectionError, NotSpaceLikeError,
                     SingularWarpError)
from .immersion import (FrameData, Jet2Immersion, JetSample, adapted_frame,
                        finite_difference_jet, induced_metric)
from .linalg import causal_character, inner, numeric_rank
from .shape import (NormalSpaceDims, PointData, SecondFundamentalData,
                    SurfaceGrid, evaluate_point, normal_curvature,
                    normal_space_dims, pmcv_residual, second_fundamental_form,
                    shape_operator)
from .solvers import (ConstantsL4, ConstantsL5, ConstantsProduct, DenseOutput,
                      IntegrationResult, RotationalWarpSolution, SolverConfig,
                      WarpSystemSolution, rk_integrate, solve_rotational_warp,
                      solve_warp_system, system_equation_residuals,
                      validate_constants_l4, validate_constants_l5,
                      validate_constants_product)
from .verdicts import (CheckEntry, VerificationReport,
                       biconservativity_residual, codazzi_residuals,
                       curvature_trace_term, flat_normal_bundle_check,
                       frame_identity_residuals, pmcv_structure_check,
                       reduced_criterion, verify_surface)

__version__ = "0.1.0"
