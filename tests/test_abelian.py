import random

import pytest

from matrices import mat_det, mat_mul

from morsebook.abelian import AbelianGroup, smith_normal_form


def reconstruct(m, diag, u, v):
    rows, cols = len(m), len(m[0])
    prod = mat_mul(mat_mul(u, m), v)
    for i in range(rows):
        for j in range(cols):
            want = diag[i] if i == j and i < len(diag) else 0
            assert prod[i][j] == want


def test_zero_matrix():
    diag, u, v = smith_normal_form([[0, 0], [0, 0]])
    assert diag == [0, 0]
    assert u == [[1, 0], [0, 1]]
    assert v == [[1, 0], [0, 1]]


def test_two_three_normalizes():
    diag, u, v = smith_normal_form([[2, 0], [0, 3]])
    assert diag == [1, 6]
    reconstruct([[2, 0], [0, 3]], diag, u, v)


def test_single_relation_leaves_free_factor():
    diag, u, v = smith_normal_form([[1], [0]])
    assert diag == [1]
    g = AbelianGroup(2, [(1, 0)])
    assert g.describe() == "Z"
    assert g.reduce([1, 0]).is_zero()
    assert not g.reduce([0, 1]).is_zero()


def test_snf_random_round_trip():
    rng = random.Random(20240917)
    for _ in range(1000):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        diag, u, v = smith_normal_form(m)
        reconstruct(m, diag, u, v)
        assert abs(mat_det(u)) == 1
        assert abs(mat_det(v)) == 1
        for a, b in zip(diag, diag[1:]):
            assert a >= 0
            if a != 0:
                assert b % a == 0
            else:
                assert b == 0


def test_reduce_kills_every_relation():
    rng = random.Random(7)
    for _ in range(200):
        rank = rng.randint(1, 4)
        rels = [
            tuple(rng.randint(-4, 4) for _ in range(rank))
            for _ in range(rng.randint(0, 4))
        ]
        g = AbelianGroup(rank, rels)
        for r in rels:
            assert g.reduce(r).is_zero()
        v = [rng.randint(-9, 9) for _ in range(rank)]
        for r in rels:
            shifted = [a + b for a, b in zip(v, r)]
            assert g.reduce(v) == g.reduce(shifted)


def test_free_group_reduce_is_identity_map():
    g = AbelianGroup(2)
    assert g.reduce([3, -1]).coords == (3, -1)


def test_element_arithmetic():
    g = AbelianGroup(2, [(2, 0)])
    a = g.reduce([1, 0])
    assert (a + a).is_zero()
    b = g.reduce([0, 5])
    assert (b - b).is_zero()
    assert (-b + b).is_zero()


def test_invariant_factors_match_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(1812)
    for _ in range(300):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        # sparse entries reach rank-deficient and zero matrices
        m = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(cols)] for _ in range(rows)]
        want = sympy_snf(sympy.Matrix(m), domain=sympy.ZZ)
        diag, _, _ = smith_normal_form(m)
        assert diag == [abs(want[i, i]) for i in range(min(rows, cols))], m
