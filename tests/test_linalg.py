import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rwsurf as rw
from rwsurf.errors import DegenerateFrameError, DimensionMismatchError

from oracles import orthonormalize_signature

MINK4 = np.diag([-1.0, 1.0, 1.0, 1.0])


def test_inner_comoving_direction_is_timelike():
    # metric of the warped spacetime at any point: dt component squares to -1
    G = np.diag([-1.0, np.e**2, np.e**2, np.e**2])
    dt = np.array([1.0, 0, 0, 0])
    assert rw.inner(dt, dt, G) == -1.0


def test_inner_spatial_direction_scales_with_warp():
    G = np.diag([-1.0, 4.0, 4.0, 4.0])  # f = 2
    e1 = np.array([0.0, 1.0, 0, 0])
    assert rw.inner(e1, e1, G) == 4.0


def test_inner_block_diagonal_orthogonality():
    G = np.diag([-1.0, 4.0, 4.0, 4.0])
    assert rw.inner([1, 0, 0, 0], [0, 1, 0, 0], G) == 0.0


def test_inner_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        rw.inner([1.0, 0.0], [1.0, 0.0, 0.0], np.eye(2))
    with pytest.raises(DimensionMismatchError):
        rw.inner([1.0, 0.0], [1.0, 0.0], np.eye(3))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_inner_symmetric_bilinear(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    A = rng.normal(size=(n, n))
    G = (A + A.T) / 2
    u, v, w = rng.normal(size=(3, n))
    a, b = rng.normal(size=2)
    scale = max(1.0, abs(rw.inner(u, v, G)))
    assert abs(rw.inner(u, v, G) - rw.inner(v, u, G)) < 1e-12 * scale
    lhs = rw.inner(a * u + b * w, v, G)
    rhs = a * rw.inner(u, v, G) + b * rw.inner(w, v, G)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_orthonormalize_already_orthonormal():
    vecs = [np.array([1.0, 0, 0, 0]), np.array([0.0, 1.0, 0, 0])]
    frame, signs = orthonormalize_signature(vecs, MINK4)
    assert signs == [-1, 1]
    np.testing.assert_allclose(frame[0], vecs[0], atol=1e-15)
    np.testing.assert_allclose(frame[1], vecs[1], atol=1e-15)


def test_orthonormalize_null_candidate_rejected():
    with pytest.raises(DegenerateFrameError):
        orthonormalize_signature(
            [np.array([1.0, 1.0, 0, 0]), np.array([0.0, 1.0, 0, 0])], MINK4)


def test_orthonormalize_rescales_timelike():
    frame, signs = orthonormalize_signature([np.array([2.0, 0, 0, 0])], MINK4)
    np.testing.assert_allclose(frame[0], [1.0, 0, 0, 0], atol=1e-15)
    assert signs == [-1]


def test_orthonormalize_dependent_candidate_rejected():
    v = np.array([0.0, 1.0, 2.0, 0.0])
    with pytest.raises(DegenerateFrameError):
        orthonormalize_signature([v, 3.0 * v], MINK4)


def test_orthonormalize_pairwise_property():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(3, 7))
        G = np.diag(np.concatenate(([-1.0], rng.uniform(0.5, 3.0, n - 1))))
        vecs = list(rng.normal(size=(n - 1, n)))
        vecs[0][0] += 3.0  # give the first candidate a solid timelike part
        try:
            frame, signs = orthonormalize_signature(vecs, G)
        except DegenerateFrameError:
            continue
        for i, fi in enumerate(frame):
            for j, fj in enumerate(frame):
                want = signs[i] if i == j else 0.0
                assert abs(rw.inner(fi, fj, G) - want) < 1e-10


def test_orthonormalize_deterministic_orientation():
    rng = np.random.default_rng(3)
    vecs = list(rng.normal(size=(3, 4)))
    frame, _ = orthonormalize_signature(vecs, np.eye(4))
    # output i is in span(inputs[:i+1]) with positive coefficient on input i
    for i in range(3):
        B = np.column_stack(vecs[:i + 1])
        coef, res, *_ = np.linalg.lstsq(B, frame[i], rcond=None)
        assert np.linalg.norm(B @ coef - frame[i]) < 1e-10
        assert coef[i] > 0


def test_timelike_index_reorders_processing():
    vecs = [np.array([0.0, 1.0, 0, 0]), np.array([2.0, 0.1, 0, 0])]
    frame, signs = orthonormalize_signature(vecs, MINK4, timelike_index=1)
    assert signs[0] == -1  # the tagged timelike candidate came out first


def test_numeric_rank_collinear():
    v = np.array([0.3, 1.0, -2.0, 0.0])
    assert rw.numeric_rank([v, 2.0 * v], np.eye(4)) == 1


def test_numeric_rank_two_independent():
    assert rw.numeric_rank([np.array([0.0, 1, 0, 0]),
                            np.array([0.0, 0, 1, 0])], MINK4) == 2


def test_numeric_rank_empty_and_zero():
    assert rw.numeric_rank([], np.eye(3)) == 0
    assert rw.numeric_rank([np.zeros(3)], np.eye(3)) == 0


def test_numeric_rank_requires_positive_tol():
    with pytest.raises(ValueError):
        rw.numeric_rank([np.ones(3)], np.eye(3), tol=0.0)


def test_numeric_rank_shuffle_and_rescale_invariance():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(3, 7))
        k = int(rng.integers(1, n + 1))
        base = rng.normal(size=(k, n))
        vecs = [base[rng.integers(0, k)] for _ in range(5)]
        G = np.eye(n)
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
