"""Smith normal form and abelian-group invariants, against independent
rational-arithmetic oracles."""

import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvelift import (
    AbelianGroup,
    BundleFit,
    diagonal,
    filling_quotient,
    genus_from_filling_h1,
    smith_normal_form,
)
from curvelift.snf import identity_matrix, mat_mul

from helpers import det_fraction, determinantal_invariant_factors, random_matrix


def check_snf(m, snf=None):
    d, u, v = snf or smith_normal_form(m)
    assert mat_mul(mat_mul(u, m), v) == d
    assert abs(det_fraction(u)) == 1
    assert abs(det_fraction(v)) == 1
    diag = diagonal(d)
    for i, row in enumerate(d):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0
    assert all(x >= 0 for x in diag)
    nonzero = [x for x in diag if x]
    assert nonzero == diag[: len(nonzero)]  # zeros trail
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    return diag


def test_snf_hand_cases():
    assert check_snf([[2, 0], [0, 3]]) == [1, 6]
    assert check_snf([[0]]) == [0]
    assert check_snf([[4]]) == [4]
    assert check_snf([[-7]]) == [7]
    assert check_snf([[2, 4], [4, 8]]) == [2, 0]
    assert check_snf([[1, 2, 3]]) == [1]
    assert check_snf([[6], [10]]) == [2]


def test_snf_negative_pivot_normalized():
    d, _, _ = smith_normal_form([[-5, 0], [0, -3]])
    assert diagonal(d) == [1, 15]


def test_snf_random_small():
    rng = random.Random(7)
    for _ in range(200):
        check_snf(random_matrix(rng, max_dim=5, lo=-9, hi=9))


@st.composite
def small_matrices(draw):
    """Matrices up to 4 x 5 and 5 x 4, with zero rows and columns and
    rank-deficient ones."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    entry = st.integers(-6, 6)
    m = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    if rows > 1 and draw(st.booleans()):  # rank-deficient: the last row from two others
        a, b = draw(entry), draw(entry)
        m[-1] = [a * x + b * y for x, y in zip(m[0], m[-2])]
    if draw(st.booleans()):
        m[draw(st.integers(0, rows - 1))] = [0] * cols
    if draw(st.booleans()):
        j = draw(st.integers(0, cols - 1))
        for row in m:
            row[j] = 0
    if draw(st.booleans()):
        m = [list(col) for col in zip(*m)]
    return m


@settings(max_examples=400)
@given(small_matrices())
def test_snf_matches_determinantal_divisors(m):
    factors = determinantal_invariant_factors(m)
    d, u, v = smith_normal_form(m)
    assert check_snf(m, (d, u, v)) == factors
    assert smith_normal_form(m, transforms=False) == (d, [], [])
    nonzero = [x for x in factors if x]
    assert AbelianGroup.from_relation_matrix(m, len(m[0])) == AbelianGroup(
        len(m[0]) - len(nonzero), tuple(x for x in nonzero if x > 1)
    )


def test_snf_has_no_cliff_at_ten():
    # entry growth in the transforms shows here as seconds per matrix
    rng = random.Random(1)
    elapsed = 0.0
    for n in (10,) * 6 + (12,) * 4:
        m = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
        start = time.perf_counter()
        snf = smith_normal_form(m)
        elapsed += time.perf_counter() - start
        assert elapsed < 2.0
        assert math.prod(check_snf(m, snf)) == abs(det_fraction(m))


def test_identity_and_mat_mul():
    assert identity_matrix(2) == [[1, 0], [0, 1]]
    assert mat_mul([[1, 2]], [[3], [4]]) == [[11]]


def test_abelian_group_validation():
    AbelianGroup(0, (2, 4))
    with pytest.raises(ValueError):
        AbelianGroup(1, (4, 2))  # chain violated
    with pytest.raises(ValueError):
        AbelianGroup(1, (1,))
    with pytest.raises(ValueError):
        AbelianGroup(-1)


def test_from_relation_matrix():
    # Z^3 / <(2,0,0), (0,3,0)> = Z/2 + Z/3 + Z = Z + Z/6
    g = AbelianGroup.from_relation_matrix([[2, 0, 0], [0, 3, 0]], 3)
    assert g == AbelianGroup(1, (6,))
    assert AbelianGroup.from_relation_matrix([], 4) == AbelianGroup(4)
    assert str(g) == "Z + Z/6"
    assert g.to_json() == {"rank": 1, "torsion": [6]}


def test_presentation_matrix_round_trip():
    for g in (AbelianGroup(3), AbelianGroup(2, (2, 6)), AbelianGroup(0, (5,))):
        rows, n = g.presentation_matrix()
        assert AbelianGroup.from_relation_matrix(rows, n) == g


def test_filling_quotient():
    # Z^2, kill (2, 0): leaves Z + Z/2
    assert filling_quotient([], 2, [2, 0]) == AbelianGroup(1, (2,))
    with pytest.raises(ValueError):
        filling_quotient([], 2, [1, 2, 3])


def test_filling_quotient_merges_torsion():
    # Z + Z/2 presented on (free, torsion) coordinates; kill the free part
    rows, n = AbelianGroup(1, (2,)).presentation_matrix()
    assert filling_quotient(rows, n, [3, 0]) == AbelianGroup(0, (6,))


def test_genus_from_filling_h1_closed():
    assert genus_from_filling_h1(AbelianGroup(4, (2,)), 0) == BundleFit(2, (2, -2))
    assert genus_from_filling_h1(AbelianGroup(5), 0) == BundleFit(2, (0,))
    assert genus_from_filling_h1(AbelianGroup(4), 0) == BundleFit(2, (1, -1))
    assert genus_from_filling_h1(AbelianGroup(3, (2,)), 0) is None
    assert genus_from_filling_h1(AbelianGroup(2, (2, 4)), 0) is None


def test_genus_from_filling_h1_bounded():
    assert genus_from_filling_h1(AbelianGroup(7), 3) == BundleFit(2, (0,))
    assert genus_from_filling_h1(AbelianGroup(6), 3) is None  # odd 2g
    assert genus_from_filling_h1(AbelianGroup(7, (2,)), 3) is None
