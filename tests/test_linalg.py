import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rwsurf as rw
from rwsurf.errors import DimensionMismatchError
from rwsurf.linalg import _all_last, _sum_last, project_out_span

from oracles import dense_gram, dense_inner, dense_project_out_span, svd_rank

# metrics are carried as their diagonal (weights)
MINK4 = np.array([-1.0, 1.0, 1.0, 1.0])


def test_inner_comoving_direction_is_timelike():
    # metric of the warped spacetime at any point: dt component squares to -1
    G = np.array([-1.0, np.e**2, np.e**2, np.e**2])
    dt = np.array([1.0, 0, 0, 0])
    assert rw.inner(dt, dt, G) == -1.0


def test_inner_spatial_direction_scales_with_warp():
    G = np.array([-1.0, 4.0, 4.0, 4.0])  # f = 2
    e1 = np.array([0.0, 1.0, 0, 0])
    assert rw.inner(e1, e1, G) == 4.0


def test_inner_block_diagonal_orthogonality():
    G = np.array([-1.0, 4.0, 4.0, 4.0])
    assert rw.inner([1, 0, 0, 0], [0, 1, 0, 0], G) == 0.0


def test_inner_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        rw.inner([1.0, 0.0], [1.0, 0.0, 0.0], np.ones(2))
    with pytest.raises(DimensionMismatchError):
        rw.inner([1.0, 0.0], [1.0, 0.0], np.ones(3))


@pytest.mark.parametrize("d", [2, 4, 7])
def test_inner_refuses_a_metric_matrix(d):
    # a (d, d) matrix has more axes than single vectors: it must not
    # broadcast into d row-wise weighted sums
    u, v = np.arange(1.0, d + 1), np.ones(d)
    with pytest.raises(DimensionMismatchError):
        rw.inner(u, v, np.eye(d))
    with pytest.raises(DimensionMismatchError):
        rw.inner(u, v, np.diag(np.arange(1.0, d + 1)))
    assert rw.inner(u, v, np.ones(d)) == u.sum()
    # stacked vectors still take a stack of weights, or one set for all
    stack = np.tile(u, (d, 1))
    assert rw.inner(stack, v, np.ones((d, d))).shape == (d,)
    assert rw.inner(stack, stack, np.ones(d)).shape == (d,)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_inner_symmetric_bilinear(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    G = rng.normal(size=n)
    u, v, w = rng.normal(size=(3, n))
    a, b = rng.normal(size=2)
    scale = max(1.0, abs(rw.inner(u, v, G)))
    assert abs(rw.inner(u, v, G) - rw.inner(v, u, G)) < 1e-12 * scale
    lhs = rw.inner(a * u + b * w, v, G)
    rhs = a * rw.inner(u, v, G) + b * rw.inner(w, v, G)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_numeric_rank_collinear():
    v = np.array([0.3, 1.0, -2.0, 0.0])
    assert rw.numeric_rank([v, 2.0 * v], np.ones(4)) == 1


def test_numeric_rank_two_independent():
    assert rw.numeric_rank([np.array([0.0, 1, 0, 0]),
                            np.array([0.0, 0, 1, 0])], MINK4) == 2


def test_numeric_rank_empty_and_zero():
    assert rw.numeric_rank([], np.ones(3)) == 0
    assert rw.numeric_rank([np.zeros(3)], np.ones(3)) == 0


def test_numeric_rank_shuffle_and_rescale_invariance():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(3, 7))
        k = int(rng.integers(1, n + 1))
        base = rng.normal(size=(k, n))
        vecs = [base[rng.integers(0, k)] for _ in range(5)]
        G = np.ones(n)
        r0 = rw.numeric_rank(vecs, G)
        order = rng.permutation(len(vecs))
        scales = rng.uniform(0.1, 10.0, len(vecs)) * rng.choice([-1, 1], len(vecs))
        shuffled = [scales[i] * vecs[o] for i, o in enumerate(order)]
        assert rw.numeric_rank(shuffled, G) == r0


def test_rank_of_second_fundamental_span(l4_grid):
    # brute-force Gram check on the rotational surface: h(e1,e1), h(e2,e2)
    # span a plane in the normal bundle
    pd = l4_grid.point(4, 4)
    assert rw.numeric_rank([pd.sfd.h11, pd.sfd.h22], pd.G) == 2


def _seeded_stack(d, seed=0, points=(5, 3)):
    """Signature-like weights (-1, w, ...) and vectors on a stack of points,
    with exact zeros, huge and tiny components mixed in."""
    rng = np.random.default_rng(1000 * d + seed)
    g = np.concatenate([-np.ones(points + (1,)),
                        rng.uniform(0.01, 50.0, points + (d - 1,))], axis=-1)
    g[..., 1] *= rng.choice([-1.0, 1.0], points)  # the product's c = +-1 slot
    vecs = rng.normal(size=(4,) + points + (d,))
    vecs *= 10.0 ** rng.integers(-8, 9, size=vecs.shape)
    vecs[rng.random(vecs.shape) < 0.15] = 0.0
    return g, vecs


def _dense(g):
    G = np.zeros(g.shape + g.shape[-1:])
    idx = np.arange(g.shape[-1])
    G[..., idx, idx] = g
    return G


@pytest.mark.parametrize("d", range(2, 8))
def test_weights_match_the_dense_metric_bitwise(d):
    g, (u, v, _, _) = _seeded_stack(d)
    G = _dense(g)
    assert np.array_equal(rw.inner(u, v, g), dense_inner(u, v, G))
    assert np.array_equal(rw.inner(u, u[0, 0], g), dense_inner(u, u[0, 0], G))
    for i in range(u.shape[0]):  # single vectors give the same float
        assert rw.inner(u[i, 0], v[i, 0], g[i, 0]) == dense_inner(
            u[i, 0], v[i, 0], G[i, 0])


def _orthonormal_basis(d, m, seed, points=(5, 3)):
    """Lorentzian weights (-1, w, ...) on a stack of points, m vectors of a
    random g-orthonormal frame there and a vector x: the frame is the
    weights' unit coordinate vectors under a spatial rotation, a boost of
    rapidity up to 1 along the first spatial axis and another rotation.  The
    Gram-solve oracle's own error grows with the boost: at rapidity 2 and
    d = 7 it was 1.0e-13 off a 40-digit projection, ``project_out_span``
    4.4e-16."""
    rng = np.random.default_rng(100 * d + seed)
    g = np.concatenate([-np.ones(points + (1,)),
                        rng.uniform(0.1, 10.0, points + (d - 1,))], axis=-1)

    def rotation():
        R = np.zeros(points + (d, d))
        R[..., 0, 0] = 1.0
        R[..., 1:, 1:] = np.linalg.qr(rng.normal(size=points + (d - 1,) * 2))[0]
        return R

    eta = rng.uniform(-1.0, 1.0, points)
    boost = np.broadcast_to(np.eye(d), points + (d, d)).copy()
    boost[..., 0, 0] = boost[..., 1, 1] = np.cosh(eta)
    boost[..., 0, 1] = boost[..., 1, 0] = np.sinh(eta)
    frame = rotation() @ boost @ rotation() / np.sqrt(np.abs(g))[..., None]
    basis = [frame[..., :, k] for k in rng.permutation(d)[:m]]
    return g, _dense(g), basis, rng.normal(size=points + (d,))


@pytest.mark.parametrize("d", range(2, 8))
def test_projection_off_an_orthonormal_basis_matches_the_gram_solve(d):
    for seed in range(20):
        for m in range(1, d):
            g, G, basis, x = _orthonormal_basis(d, m, seed)
            want = dense_project_out_span(x, basis, G)
            got = project_out_span(x, basis, g)
            bound = 1e-13 * np.maximum(1.0, np.abs(want))
            assert (np.abs(got - want) <= bound).all()
            # a zero vector adds nothing, wherever it sits in the basis
            zero = np.zeros_like(x)
            for padded in (basis + [zero, zero], [zero] + basis,
                           basis[:1] + [zero] + basis[1:]):
                assert project_out_span(x, padded, g).tobytes() == got.tobytes()


def test_projection_off_an_empty_basis_is_a_copy_of_x():
    x = np.array([1.0, -2.0, 0.5])
    got = project_out_span(x, [], np.ones(3))
    assert got is not x and got.tobytes() == x.tobytes()
    got[0] = 7.0
    assert x[0] == 1.0


@pytest.mark.parametrize("d", range(2, 8))
def test_rank_gram_matches_the_dense_metric_bitwise(d, monkeypatch):
    g, vecs = _seeded_stack(d, seed=1)
    vecs[1] = 3.0 * vecs[0]  # a dependent pair on every point
    seen = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda M, **kw: seen.append(M) or eigvalsh(M, **kw))
    ranks = rw.numeric_rank(list(vecs), g)
    assert len(seen) == 1
    assert np.array_equal(seen[0], dense_gram(list(vecs), _dense(g)))
    assert ranks.shape == g.shape[:-1] and ranks.max() <= min(d, 3)


@pytest.mark.parametrize("d", range(2, 8))
def test_rank_from_eigenvalues_is_the_singular_value_rank(d):
    # 200 seeds x 15 points x three spans per dimension
    for seed in range(200):
        g, vecs = _seeded_stack(d, seed)
        for m in (2, 3, 4):
            assert np.array_equal(rw.numeric_rank(list(vecs[:m]), g),
                                  svd_rank(list(vecs[:m]), g))


@pytest.mark.parametrize("vectors", [
    [[np.inf, 0.0, 0.0]],
    [[np.nan, 0.0, 0.0], [0.0, 1.0, 0.0]],
    [[1e200, 0.0, 0.0], [0.0, 1.0, 0.0]],  # finite vectors, overflowing Gram
], ids=["inf", "nan", "overflow"])
def test_numeric_rank_refuses_a_non_finite_gram(vectors):
    vectors = np.array(vectors)
    with pytest.raises(np.linalg.LinAlgError) as exc:
        rw.numeric_rank(list(vectors), np.ones(3))
    assert str(exc.value).startswith(
        "numeric_rank: the Gram matrix is not finite: [[")
    # in a stack of finite points, the one non-finite point is named
    stack = np.zeros((len(vectors), 2, 3, 3))
    stack[:, :, :, 1] = 1.0
    stack[:, 1, 2] = vectors
    with pytest.raises(np.linalg.LinAlgError) as exc:
        rw.numeric_rank(list(stack), np.ones(3))
    assert str(exc.value).startswith(
        "numeric_rank: the Gram matrix at point (1, 2) is not finite: [[")
    stack[:, 1, 2] = [0.0, 1.0, 0.0]
    assert np.array_equal(rw.numeric_rank(list(stack), np.ones(3)),
                          np.ones((2, 3)))


def test_weights_match_the_dense_metric_at_d8_to_round_off():
    # numpy sums eight or more terms pairwise, the einsum left to right
    g, (u, v, _, _) = _seeded_stack(8)
    want = dense_inner(u, v, _dense(g))
    scale = np.abs(u * g * v).sum(axis=-1)
    assert np.all(np.abs(rw.inner(u, v, g) - want) <= 1e-14 * scale)


@pytest.mark.parametrize("vec", [[np.nan, 0, 0, 0], [np.inf, 0, 0, 0],
                                 [1.0, np.inf, 0, 0], [0.0, 0, -np.inf, 1],
                                 [1e200, 1e200, 0, 0]])
def test_causal_character_of_non_finite_is_undefined(vec):
    # [1e200, 1e200, 0, 0] is finite but <v, v> = inf - inf is not
    with np.errstate(over="ignore", invalid="ignore"):
        assert rw.causal_character(np.array(vec), MINK4) == "undefined"


def test_causal_character_stack_keeps_finite_verdicts():
    vecs = np.array([[1.0, 0, 0, 0], [0.0, 1, 0, 0], [1.0, 1, 0, 0],
                     [np.nan, 0, 0, 0], [1.0, np.inf, 0, 0]])
    assert list(rw.causal_character(vecs, MINK4)) == [
        "timelike", "spacelike", "null", "undefined", "undefined"]


_SPECIAL_TERMS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                  1.7976931348623157e308, -1.7976931348623157e308, 1e16, 1.0,
                  math.inf, -math.inf, math.nan, -math.nan]


def _bytes_nan_as_one(x) -> bytes:
    """The bytes of x with every NaN written as the one quiet NaN."""
    x = np.asarray(x)
    return np.where(np.isnan(x), np.nan, x).tobytes()


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 12), lead=st.sampled_from([(), (1,), (3,), (2, 3)]),
       data=st.data())
def test_sum_last_is_bitwise_the_numpy_sum(n, lead, data):
    # signed zeros, subnormals, overflow, +-inf and NaN of any payload; the
    # column sum up to length 7 and numpy's own (pairwise) sum from 8 on.
    # Only a NaN's sign and payload may differ: which operand's NaN numpy's
    # add loop keeps depends on the array length (nan + -nan reads -nan in
    # a (1,) column and nan in numpy's reduction), and no output reads them
    size = math.prod(lead) * n
    terms = data.draw(st.lists(st.one_of(st.floats(), st.sampled_from(
        _SPECIAL_TERMS)), min_size=size, max_size=size))
    p = np.array(terms, dtype=float).reshape(lead + (n,))
    with np.errstate(all="ignore"):
        got, want = _sum_last(p), p.sum(-1)
    assert np.shape(got) == want.shape
    assert _bytes_nan_as_one(got) == _bytes_nan_as_one(want)


def test_sum_last_adds_all_negative_zeros_to_positive_zero():
    for n in range(1, 8):
        got = _sum_last(np.full((2, n), -0.0))
        assert got.tobytes() == np.zeros(2).tobytes()


def test_sum_last_falls_back_to_numpy_from_length_eight():
    # numpy sums eight terms pairwise: adding them column by column differs
    p = np.array([1e16, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    column_order = p[0]
    for x in p[1:]:
        column_order += x
    assert column_order == 1e16 != p.sum()
    assert _sum_last(p) == p.sum() == _sum_last(p[None])[0]


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 9), rows=st.integers(1, 6), data=st.data())
def test_all_last_is_numpy_all(n, rows, data):
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=rows * n,
                                       max_size=rows * n))).reshape(rows, n)
    before = mask.copy()
    got = _all_last(mask)
    assert got.dtype == bool and np.array_equal(got, mask.all(-1))
    assert np.array_equal(mask, before)  # the sweep writes to a copy
