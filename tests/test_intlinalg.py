"""Smith normal form against the determinantal-divisor oracle.

The oracle computes invariant factors as ratios of gcds of k-by-k
minors, which is independent of any reduction path.  Exhaustive over all
shapes with at most six entries in [-2, 2], the full [-3, 3] range for
2x2, and a seeded random sample of 3x3 matrices in [-3, 3].  The engine
keeps only the diagonal; the transform-keeping oracle (`snf_oracle`)
must reach the same diagonal with unimodular L, R and L * M * R = diag.
"""

import fractions
import random
from fractions import Fraction
from itertools import product

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from fraction_kernel import row_reduce
from minors_oracle import determinant, invariant_factors_by_minors, is_unimodular
from snclab import complexes, intlinalg, presentations, qlinalg
from snclab.intlinalg import IntMatrix, rank, smith_normal_form
from snf_oracle import identity, matmul, smith_form_with_transforms, zero


def check_transforms(m: IntMatrix):
    """The oracle's L * M * R is diagonal with unimodular L and R, and its
    diagonal, divisibility chain included, is the engine's."""
    s, oracle = smith_normal_form(m), smith_form_with_transforms(m)
    prod = matmul(matmul(oracle.left, m), oracle.right)
    for i in range(m.rows):
        for j in range(m.cols):
            expected = s.diagonal[i] if i == j and i < len(s.diagonal) else 0
            assert prod.entries[i][j] == expected
    assert is_unimodular(oracle.left)
    assert is_unimodular(oracle.right)
    assert oracle.diagonal == s.diagonal
    nz = s.nonzero
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    assert all(d == 0 for d in s.diagonal[len(nz):])


def check_one(m: IntMatrix):
    check_transforms(m)
    assert smith_normal_form(m).diagonal == invariant_factors_by_minors(m)


def test_spec_examples():
    assert smith_normal_form(identity(2)).diagonal == (1, 1)
    assert smith_normal_form(zero(2, 3)).diagonal == (0, 0)
    m = IntMatrix.from_rows([[2, 4], [-2, 6]])
    s = smith_normal_form(m)
    assert s.diagonal == (2, 10)
    assert s.diagonal[0] * s.diagonal[1] == abs(determinant(m)) == 20


@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_exhaustive_full_range(shape):
    r, c = shape
    for entries in product(range(-3, 4), repeat=r * c):
        m = IntMatrix.from_rows([entries[i * c:(i + 1) * c] for i in range(r)])
        check_one(m)


@pytest.mark.parametrize("shape", [(2, 3), (3, 2)])
def test_exhaustive_six_entries(shape):
    r, c = shape
    for entries in product(range(-2, 3), repeat=6):
        m = IntMatrix.from_rows([entries[i * c:(i + 1) * c] for i in range(r)])
        check_one(m)


def test_random_3x3_sample():
    rng = random.Random(1311)
    for _ in range(2500):
        m = IntMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        )
        check_one(m)


def test_structure_on_larger_random_matrices():
    # the minors oracle is too slow past 3x3; check the structural
    # contract (transforms, divisibility) on bigger random inputs
    rng = random.Random(2024)
    for _ in range(60):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = IntMatrix.from_rows(
            [[rng.randint(-50, 50) for _ in range(c)] for _ in range(r)]
        )
        check_transforms(m)


def test_rank_matches_snf():
    rng = random.Random(88)
    for _ in range(200):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        m = IntMatrix.from_rows([[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)])
        assert rank(m) == smith_normal_form(m).rank


@st.composite
def small_matrices(draw):
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entries = st.lists(st.integers(-4, 4), min_size=cols, max_size=cols)
    return draw(st.lists(entries, min_size=rows, max_size=rows)), cols


@given(small_matrices())
def test_rank_is_the_rational_rank(matrix):
    # the rank read off the Smith normal form is the rank of Fraction row
    # reduction and of sympy
    grid, cols = matrix
    m = IntMatrix.from_rows(grid, cols)
    by_fractions = len(row_reduce([[Fraction(x) for x in row] for row in grid], cols))
    assert rank(m) == by_fractions == sympy.Matrix(len(grid), cols, sum(grid, [])).rank()


@pytest.mark.parametrize("module", [intlinalg, complexes, presentations], ids=lambda m: m.__name__)
def test_homology_layer_holds_no_fraction(module):
    # homology, abelianization and the integer kernel run on ints alone:
    # no Fraction and nothing of the rational kernel among the module's names
    for name, value in vars(module).items():
        assert value is not Fraction and value is not fractions, name
        assert value is not qlinalg and getattr(value, "__module__", None) != qlinalg.__name__, name


def test_matrix_validation():
    with pytest.raises(ValueError):
        IntMatrix(2, 2, ((1, 2),))
    with pytest.raises(ValueError):
        IntMatrix(1, 2, ((1,),))
    with pytest.raises(ValueError):
        determinant(zero(2, 3))
