"""Unit-pivot reduction against the determinantal-divisor oracle.

M is equivalent to diag(1, ..., 1) + residual, so the nonzero invariant
factors of M are one 1 per pivot row followed by the residual's, and its
rank is the number of pivot rows plus the residual's rank.
"""

from hypothesis import given
from hypothesis import strategies as st

import homology_oracles
from minors_oracle import invariant_factors_by_minors
from snclab.intlinalg import IntMatrix, rank, reduce_unit_pivots, smith_normal_form
from snf_oracle import zero

# mostly units, some zeros, a few larger entries
ENTRY = st.sampled_from([1, -1, 1, -1, 1, -1, 0, 0, 0, 2, -2, 3, -3])


@st.composite
def sparse_matrices(draw):
    rows = draw(st.integers(0, 5))
    cols = draw(st.integers(0, 5))
    grid = [[draw(ENTRY) for _ in range(cols)] for _ in range(rows)]
    return IntMatrix.from_rows(grid, cols)


def columns_of(m: IntMatrix) -> list[dict[int, int]]:
    return [{i: row[j] for i, row in enumerate(m.entries) if row[j]} for j in range(m.cols)]


@given(sparse_matrices())
def test_units_and_residual_give_the_invariant_factors(m):
    pivots, residual = reduce_unit_pivots(columns_of(m), m.rows)
    factors = (1,) * len(pivots) + smith_normal_form(residual).nonzero
    assert factors == tuple(d for d in invariant_factors_by_minors(m) if d)
    assert len(pivots) + rank(residual) == rank(m)
    # each pivot is a distinct row of M
    assert len(set(pivots)) == len(pivots) and all(0 <= i < m.rows for i in pivots)
    # every unit entry was pivoted on, including those made by fill-in
    assert all(abs(x) != 1 for row in residual.entries for x in row)


def test_input_columns_are_left_alone_and_residual_is_what_is_left():
    cols = [{0: 2, 1: 2}, {0: 1, 1: 1}, {1: 3}]
    pivots, residual = reduce_unit_pivots(cols, 2)
    assert cols == [{0: 2, 1: 2}, {0: 1, 1: 1}, {1: 3}]
    # pivot on (0, 1) clears row 0; column 0 becomes zero, column 2 stays
    assert pivots == (0,)
    assert residual == IntMatrix.from_rows([[3]])
    # (0, 1) pivots first and its fill-in turns column 0 into a unit column
    # that pivots on row 1
    assert reduce_unit_pivots([{0: 2, 1: 3}, {0: 1, 1: 1}], 2) == ((0, 1), zero(0, 0))
    assert reduce_unit_pivots([], 3) == ((), zero(0, 0))


@st.composite
def sparse_columns(draw):
    """(columns, rows): up to 10 dict columns over at most 13 rows, entries
    -3..3 with zeros kept in the dicts."""
    rows = draw(st.integers(0, 13))
    entries = st.dictionaries(st.integers(0, rows - 1), st.integers(-3, 3)) if rows else st.just({})
    return draw(st.lists(entries, max_size=10)), rows


@given(sparse_columns())
def test_one_pass_pivot_choice_matches_the_candidate_list_oracle(case):
    columns, rows = case
    before = [dict(c) for c in columns]
    assert reduce_unit_pivots(columns, rows) == homology_oracles.reduce_unit_pivots(columns, rows)
    assert columns == before
