import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import rwsurf as rw
from rwsurf import catalog, families

# the names the package bound when it imported every module eagerly, and the
# three its modules listed alone: chart_second_fundamental, pmcv_values and
# project_out_span
PUBLIC_NAMES = [
    "AdmissibilityError", "AmbientSpace", "ChartDomainError", "CheckEntry",
    "ConstantsL4", "ConstantsL5", "ConstantsProduct", "ConstraintError",
    "DegenerateFrameError", "DenseOutput", "DimensionMismatchError",
    "FrameData", "GeometryError", "HorizontalSliceError", "InapplicableError",
    "IntegrationResult", "Jet2Immersion", "JetSample", "MinimalDirectionError",
    "NormalSpaceDims", "NotSpaceLikeError", "PointData",
    "RotationalWarpSolution", "ScanResult", "SecondFundamentalData",
    "SingularWarpError", "SolverConfig", "SurfaceGrid", "VerificationReport",
    "WarpSystemSolution", "WarpingFunction", "adapted_frame",
    "ambient_covariant_derivative", "biconservativity_residual",
    "causal_character", "chart_second_fundamental", "codazzi_residuals",
    "curvature_rw_values", "curvature_scalars", "curvature_trace_term",
    "default_warp_domain", "evaluate_point", "finite_difference_jet",
    "flat_normal_bundle_check", "frame_identity_residuals", "induced_metric",
    "inner", "is_constant_curvature", "nonexistence_scan_e11h4",
    "nonexistence_slice_scan", "normal_curvature", "normal_space_dims",
    "numeric_rank", "pmcv_residual", "pmcv_structure_check", "pmcv_values",
    "product_surface_e11s4", "product_surface_family", "project_out_span",
    "reduced_criterion", "rk_integrate", "rotational_surface_l41",
    "second_fundamental_form", "shape_operator", "solve_rotational_warp",
    "solve_warp_system", "surface_l51", "system_equation_residuals",
    "validate_constants_l4", "validate_constants_l5",
    "validate_constants_product", "verify_surface",
]


def test_the_package_exports_the_same_names():
    assert sorted(rw.__all__) == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(rw))


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_each_name_is_its_module_attribute(name):
    module = importlib.import_module(f"rwsurf.{rw._MODULE_OF[name]}")
    assert getattr(rw, name) is getattr(module, name)
    assert name in module.__all__


@pytest.mark.parametrize("modname", sorted(set(rw._MODULE_OF.values())))
def test_each_module_exports_its_row_of_the_table(modname):
    # the table is the one list: no module keeps a literal __all__ of its own
    module = importlib.import_module(f"rwsurf.{modname}")
    row = {n for n, m in rw._MODULE_OF.items() if m == modname}
    assert set(module.__all__) == row
    namespace = {}
    exec(f"from rwsurf.{modname} import *", namespace)
    assert {n for n in namespace if not n.startswith("__")} == row
    source = pathlib.Path(module.__file__).read_text()
    assert "__all__ = _exports(__name__)" in source
    assert "__all__ = [" not in source


def test_a_name_reads_its_module_at_each_access(monkeypatch):
    # nothing is cached in the package: a patched function shows through it
    from rwsurf import verdicts

    def patched(*args, **kwargs):
        return None

    monkeypatch.setattr(verdicts, "verify_surface", patched)
    assert rw.verify_surface is patched
    assert "verify_surface" not in vars(rw)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from rwsurf import *", namespace)
    assert {n for n in namespace if not n.startswith("__")} == set(PUBLIC_NAMES)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'nope'"):
        rw.nope
    assert not hasattr(rw, "nope")


def test_a_submodule_is_an_attribute_after_import_rwsurf():
    code = ("import rwsurf\n"
            "assert rwsurf.catalog.surface_l51 is rwsurf.surface_l51\n")
    src = pathlib.Path(rw.__file__).resolve().parents[1]
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": str(src)})


def test_every_submodule_is_an_attribute_without_numpy():
    # families and cli are in no name's row of the package's table
    code = ("import sys, rwsurf\n"
            "assert rwsurf.families is sys.modules['rwsurf.families']\n"
            "assert rwsurf.cli is sys.modules['rwsurf.cli']\n"
            "assert 'numpy' not in sys.modules\n")
    src = pathlib.Path(rw.__file__).resolve().parents[1]
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": str(src)})


def test_the_family_table_has_one_home():
    # the CLI and the fixtures read families.FAMILIES; catalog keeps no alias
    assert not {"FAMILIES", "Family", "Param"} & {*vars(catalog),
                                                  *catalog.__all__}
    assert set(families.FAMILIES) == {"thm4", "thm5", "product"}


def test_the_front_end_loads_no_record_machinery_and_no_numpy():
    # -S keeps site .pth files (certifi's, say) out of sys.modules; json
    # loads with the report command, the one that reads it
    code = ("import sys, rwsurf.cli\n"
            "print(sorted({'dataclasses', 'typing', 'numpy', 'json'}"
            " & set(sys.modules)))\n")
    src = pathlib.Path(rw.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-S", "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}).stdout
    assert out == "[]\n"
