"""Shared fixtures: catalog surfaces, evaluation grids and negative controls.

The catalog members are built by their family's recipe in
``catalog.FAMILIES``.  Expensive objects (ODE solutions, filled grids) are
session-scoped; they are immutable, so sharing them across tests is safe.
"""

import functools
import math

import numpy as np
import pytest

import rwsurf as rw
from rwsurf import catalog
from rwsurf.immersion import Jet2Immersion
from rwsurf.shape import SurfaceGrid

L5_CONSTANTS = (2.0, 0.6, 0.48, 0.64)
L5_ICS = (1.5, 1.2, 0.4, -0.7)
L5_INTERVAL = (0.0, 0.8)


def _member(kind, **params):
    """Session fixtures of the surface, expect and solution of a member of a
    catalog family, built once (on first use) by the family's recipe; a
    parameter not given takes its default.  pytest injects nothing into k."""
    family = catalog.FAMILIES[kind]
    member = functools.cache(lambda: family.build(
        {**{p.name: p.default for p in family.params}, **params}))
    return [pytest.fixture(scope="session")(lambda k=k: member()[k])
            for k in range(3)]


l4_surface, l4_expect, l4_solution = _member("thm4", a=2.0, H0=0.5, f0=1.0,
                                             f0p=2.0)
l5_surface, l5_expect, l5_solution = _member(
    "thm5", **dict(zip(("a", "H0", "c2", "c3"), L5_CONSTANTS)),
    **dict(zip(("f0", "f0p", "y0", "y0p"), L5_ICS)), u_end=L5_INTERVAL[1])
product_surface, product_expect = _member("product", b1=1.0, b3=0.5)[:2]
# b2^2 + b3^2 = 0.41 != 1/3: the family member with non-parallel H
broken_product_surface = _member("product", b1=1.0, b2=0.4, b3=0.5,
                                 force_b4=True)[0]


@pytest.fixture(scope="session")
def l4_constants(l4_solution):
    return l4_solution.constants


@pytest.fixture(scope="session")
def l4_grid(l4_surface):
    us = np.linspace(0.02, 0.15, 9)
    vs = np.linspace(0.1, 3.0, 9)
    return SurfaceGrid(l4_surface, us, vs)


@pytest.fixture(scope="session")
def l5_constants(l5_solution):
    return l5_solution.constants


@pytest.fixture(scope="session")
def l5_grid(l5_surface):
    us = np.linspace(0.1, 0.7, 9)
    vs = np.linspace(0.1, 3.0, 9)
    return SurfaceGrid(l5_surface, us, vs)


@pytest.fixture(scope="session")
def product_constants():
    return rw.validate_constants_product(1.0, None, 0.5)


@pytest.fixture(scope="session")
def product_grid(product_surface):
    us = np.linspace(0.1, 3.4, 9)
    vs = np.linspace(0.1, 3.0, 9)
    return SurfaceGrid(product_surface, us, vs)


@pytest.fixture(scope="session")
def minkowski4():
    return rw.AmbientSpace.warped_flat(4, rw.WarpingFunction.constant(1.0))


def make_tilted_plane(space, boost=0.8):
    """Totally geodesic space-like plane through a boosted direction."""
    s, c = math.sinh(boost), math.cosh(boost)

    def evaluator(u, v):
        z = np.zeros(4)
        return (np.array([s * u, c * u, v, 0.0]),
                np.array([s, c, 0.0, 0.0]),
                np.array([0.0, 0.0, 1.0, 0.0]), z, z, z)

    return Jet2Immersion(space, evaluator, (-2.0, 2.0), (-2.0, 2.0),
                         name="tilted-plane")


@pytest.fixture(scope="session")
def tilted_plane(minkowski4):
    return make_tilted_plane(minkowski4)


@pytest.fixture(scope="session")
def tilted_plane_grid(tilted_plane):
    us = np.linspace(-1.0, 1.0, 5)
    vs = np.linspace(-1.0, 1.0, 5)
    return SurfaceGrid(tilted_plane, us, vs)


@pytest.fixture(scope="session")
def graph_surface():
    """0-jet bump on a tilted plane in L^4_1(e^t + 2, 0); space-like,
    T != 0, and decisively not biconservative."""
    warp = rw.WarpingFunction(
        lambda t: (math.exp(t) + 2.0, math.exp(t), math.exp(t)), (-5.0, 5.0))
    space = rw.AmbientSpace.warped_flat(4, warp)
    s8, c8 = math.sinh(0.8), math.cosh(0.8)
    eps = 0.1

    def evaluator(u, v):
        s, c = math.sin(u + v), math.cos(u + v)
        return (np.array([s8 * u + eps * s, c8 * u, v, 0.0]),
                np.array([s8 + eps * c, c8, 0.0, 0.0]),
                np.array([eps * c, 0.0, 1.0, 0.0]),
                np.array([-eps * s, 0.0, 0.0, 0.0]),
                np.array([-eps * s, 0.0, 0.0, 0.0]),
                np.array([-eps * s, 0.0, 0.0, 0.0]))

    return Jet2Immersion(space, evaluator, (-0.5, 0.5), (-0.5, 0.5),
                         name="graph-bump")


class TangentConfig:
    """Synthetic comoving-adapted tangent plane for curvature-trace checks."""

    def __init__(self, e1, e2, T, eta):
        self.e1, self.e2, self.T, self.eta = e1, e2, T, eta


def random_curvature_config(rng, theta_max=3.0):
    """Random (frame, H, G, warp state, c) with the comoving decomposition
    built in: dt = sinh(theta) e1 + eta, H normal to span{e1, e2}.

    Warps are drawn from positive polynomials, exponentials and cosh, with
    c in {-1, 0, 1} independent of the warp (the curvature evaluation is
    algebraic, so no coordinate backend is needed).
    """
    n = int(rng.integers(4, 7))
    kind = rng.integers(0, 3)
    t = float(rng.uniform(-1.0, 1.0))
    if kind == 0:
        coeffs = np.array([rng.uniform(1.5, 3.0), *rng.uniform(-0.4, 0.4, 3)])
        d1 = np.polyder(coeffs[::-1])
        d2 = np.polyder(d1)
        state = (float(np.polyval(coeffs[::-1], t)), float(np.polyval(d1, t)),
                 float(np.polyval(d2, t)))
    elif kind == 1:
        r = float(rng.uniform(-1.5, 1.5))
        e = math.exp(r * t)
        state = (e, r * e, r * r * e)
    else:
        state = (math.cosh(t), math.sinh(t), math.cosh(t))
    c = float(rng.choice([-1.0, 0.0, 1.0]))
    f = state[0]
    G = np.array([-1.0] + [f * f] * (n - 1))

    def unit_fiber(x):
        return x / math.sqrt(rw.inner(x, x, G))

    u1 = unit_fiber(np.array([0.0, *rng.normal(size=n - 1)]))
    x2 = np.array([0.0, *rng.normal(size=n - 1)])
    x2 = x2 - rw.inner(x2, u1, G) * u1
    e2 = unit_fiber(x2)
    theta = float(rng.uniform(-theta_max, theta_max))
    sh, ch = math.sinh(theta), math.cosh(theta)
    dt = np.zeros(n)
    dt[0] = 1.0
    e1 = -sh * dt + ch * u1
    T = sh * e1
    eta = dt - T
    H = rng.normal(size=n)
    H = H - rw.inner(H, e1, G) * e1 - rw.inner(H, e2, G) * e2
    H = H / (np.linalg.norm(H) + 1e-12)  # unit fixture keeps round-off tame
    return TangentConfig(e1, e2, T, eta), H, G, state, c


@pytest.fixture(scope="session")
def boosted_sphere(minkowski4):
    """Umbilic round sphere inside a boosted space-like hyperplane."""
    R, b = 1.0, 0.6
    a1 = np.array([math.sinh(b), math.cosh(b), 0.0, 0.0])
    a2 = np.array([0.0, 0.0, 1.0, 0.0])
    a3 = np.array([0.0, 0.0, 0.0, 1.0])

    def evaluator(u, v):
        cu, su = math.cos(u), math.sin(u)
        cv, sv = math.cos(v), math.sin(v)
        return (R * (cu * cv * a1 + cu * sv * a2 + su * a3),
                R * (-su * cv * a1 - su * sv * a2 + cu * a3),
                R * (-cu * sv * a1 + cu * cv * a2),
                -R * (cu * cv * a1 + cu * sv * a2 + su * a3),
                R * (su * sv * a1 - su * cv * a2),
                R * (-cu * cv * a1 - cu * sv * a2))

    return Jet2Immersion(minkowski4, evaluator, (0.15, 0.9), (0.15, 0.9),
                         name="boosted-sphere")
