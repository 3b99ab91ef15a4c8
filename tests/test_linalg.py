"""Exact elimination in ``_linalg`` against sympy's reduced row echelon form."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from twistdiv import _linalg

ENTRIES = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=5),
)


@st.composite
def _matrices(draw):
    """Random int/Fraction matrices, often with zero rows, rows repeated
    up to sign and scale, repeated columns, and more rows than columns."""
    ncols = draw(st.integers(1, 6))
    row = st.lists(ENTRIES, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=1, max_size=5))
    extras = draw(st.lists(
        st.tuples(st.integers(0, len(rows) - 1),
                  st.sampled_from([0, 1, -1, 3, Fraction(-2, 7)])),
        max_size=6,
    ))
    for i, scale in extras:
        rows.append([scale * x for x in rows[i]])
    order = draw(st.permutations(range(len(rows))))
    copies = draw(st.lists(st.integers(0, ncols - 1), max_size=4))
    columns = draw(st.permutations(list(range(ncols)) + copies))
    return [[rows[i][j] for j in columns] for i in order]


def _sympy(rows):
    return sympy.Matrix([[sympy.Rational(Fraction(x).numerator,
                                         Fraction(x).denominator)
                          for x in row] for row in rows])


def _times(rows, vec):
    return [sum(Fraction(a) * b for a, b in zip(row, vec)) for row in rows]


@settings(max_examples=100, deadline=None)
@given(_matrices())
def test_rref_matches_sympy(rows):
    reduced, pivots = _linalg.rref(rows)
    oracle, oracle_pivots = _sympy(rows).rref()
    assert pivots == list(oracle_pivots)
    assert reduced == [[Fraction(int(v.p), int(v.q)) for v in oracle.row(i)]
                       for i in range(len(pivots))]
    assert all(type(v) is Fraction for row in reduced for v in row)
    assert _linalg.rank(rows) == len(pivots)


def _all_columns(rows):
    return range(len(rows[0]))


@settings(max_examples=60, deadline=None)
@given(_matrices())
def test_nullspace_vectors_are_annihilated(rows):
    ncols = len(rows[0])
    basis = _linalg.nullspace(rows, _all_columns(rows))
    assert len(basis) == ncols - _linalg.rank(rows)
    for vec in basis:
        assert _times(rows, vec) == [0] * len(rows)


@settings(max_examples=100, deadline=None)
@given(_matrices())
def test_nullspace_matches_sympy(rows):
    """The same basis as sympy's, vector for vector: one per free column,
    that column set to 1 and the pivot columns solved."""
    oracle = [[Fraction(int(v.p), int(v.q)) for v in vec]
              for vec in _sympy(rows).nullspace()]
    assert _linalg.nullspace(rows, _all_columns(rows)) == oracle


@st.composite
def _column_maps(draw):
    """A matrix and a map onto its columns that repeats some and leaves
    others out; the matrix may have no rows."""
    rows = draw(st.one_of(_matrices(), st.just([])))
    width = len(rows[0]) if rows else draw(st.integers(1, 6))
    columns = draw(st.lists(st.integers(0, width - 1), max_size=12))
    return rows, columns


@settings(max_examples=150, deadline=None)
@given(_column_maps())
def test_nullspace_of_a_column_map_matches_sympy(case):
    """``nullspace(rows, columns)`` is the nullspace of the matrix whose
    column j is column ``columns[j]`` of ``rows``."""
    rows, columns = case
    picked = sympy.zeros(0, len(columns)) if not rows else _sympy(
        [[row[c] for c in columns] for row in rows])
    oracle = [[Fraction(int(v.p), int(v.q)) for v in vec]
              for vec in picked.nullspace()]
    assert _linalg.nullspace(rows, columns) == oracle


@pytest.mark.parametrize("rows, columns", [
    ([[1, 2], [3, 4]], [0, 2]),
    ([[1, 2], [3, 4]], [-1]),
    ([[]], [0]),
    ([], [-1]),
], ids=["past-the-end", "negative", "no-columns", "negative-no-rows"])
def test_nullspace_refuses_a_column_out_of_range(rows, columns):
    with pytest.raises(ValueError, match="out of range"):
        _linalg.nullspace(rows, columns)


@pytest.mark.parametrize("rows", [[], [[0, 0, 0]], [[0, 0, 0], [0, 0, 0]]])
def test_nullspace_of_a_zero_matrix_frees_every_column(rows):
    assert _linalg.nullspace(rows, range(3)) == [
        [int(i == j) for i in range(3)] for j in range(3)
    ]


@settings(max_examples=60, deadline=None)
@given(_matrices(), st.data())
def test_solve_consistent_and_inconsistent(rows, data):
    ncols = len(rows[0])
    x = data.draw(st.lists(ENTRIES, min_size=ncols, max_size=ncols))
    b = _times(rows, x)
    sol = _linalg.solve(rows, b)
    assert sol is not None and _times(rows, sol) == b
    # a left-nullspace vector y is off the column space: A x = y would
    # give y.y = y^T A x = 0
    left = _sympy(rows).T.nullspace()
    if left:
        y = [Fraction(int(v.p), int(v.q)) for v in left[0]]
        assert _linalg.solve(rows, y) is None


@settings(max_examples=60, deadline=None)
@given(_matrices(), st.data())
def test_in_rowspace_of_a_known_combination(rows, data):
    coeffs = data.draw(st.lists(ENTRIES, min_size=len(rows), max_size=len(rows)))
    combo = [sum(Fraction(c) * row[j] for c, row in zip(coeffs, rows))
             for j in range(len(rows[0]))]
    assert _linalg.in_rowspace(rows, combo)
    _, pivots = _linalg.rref(rows)
    if len(pivots) < len(rows[0]):
        free = next(j for j in range(len(rows[0])) if j not in pivots)
        unit = [int(j == free) for j in range(len(rows[0]))]
        assert not _linalg.in_rowspace(rows, unit)


def test_rref_of_int_and_fraction_rows():
    rows = [[2, 4, 6], [Fraction(1, 2), 1, Fraction(3, 2)], [0, 0, 0], [-1, 0, 1]]
    reduced, pivots = _linalg.rref(rows)
    assert pivots == [0, 1]
    assert reduced == [[1, 0, -1], [0, 1, 2]]
    assert all(type(v) is Fraction for row in reduced for v in row)
    assert _linalg.rref([[0, 0], [0, 0]]) == ([], [])
    assert _linalg.rref([]) == ([], [])


@st.composite
def _square_matrices(draw):
    """Square matrices of order 1 to 8, all ints or ints and Fractions;
    some made singular by a row that is a multiple of another, some with
    zeros at the top of the first column, so that the leading pivot is 0."""
    n = draw(st.integers(1, 8))
    entries = draw(st.sampled_from([st.integers(-6, 6), ENTRIES]))
    row = st.lists(entries, min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    kind = draw(st.sampled_from(["any", "singular", "zero-pivot"]))
    if kind == "singular" and n > 1:
        i, j = draw(st.permutations(range(n)))[:2]
        scale = draw(st.sampled_from([0, 1, -1, 2, Fraction(-3, 4)]))
        rows[j] = [scale * x for x in rows[i]]
    elif kind == "zero-pivot":
        for r in rows[:draw(st.integers(1, n))]:
            r[0] = 0
    return rows


@settings(max_examples=200, deadline=None)
@given(_square_matrices())
def test_det_matches_sympy(rows):
    oracle = _sympy(rows).det(method="berkowitz")
    got = _linalg.det(rows)
    assert got == Fraction(int(oracle.p), int(oracle.q))
    if all(type(x) is int for row in rows for x in row):
        assert type(got) is int


@pytest.mark.parametrize("rows,expected", [
    ([[5]], 5),
    ([[0, 1], [1, 0]], -1),
    ([[0, 2, 1], [0, 1, 3], [4, 0, 0]], 20),
    ([[0, 1, 2], [0, 3, 4], [0, 5, 6]], 0),
    ([[1, 2], [2, 4]], 0),
    ([[Fraction(1, 2), 0], [0, Fraction(2, 3)]], Fraction(1, 3)),
    ([[Fraction(1, 2), 1], [1, 2]], 0),
], ids=["1x1", "swap", "leading-zero-pivot", "zero-column", "singular",
        "fraction-diagonal", "fraction-singular"])
def test_det_of_known_matrices(rows, expected):
    assert _linalg.det(rows) == expected


@pytest.mark.parametrize("rows", [[], [[1, 2]], [[1, 2], [3]], [[1], [2]]],
                         ids=["empty", "1x2", "ragged", "2x1"])
def test_det_refuses_empty_and_non_square_input(rows):
    with pytest.raises(ValueError, match="empty|square"):
        _linalg.det(rows)


def test_det_leaves_its_input_unchanged():
    rows = [[0, 1, 2], [3, Fraction(1, 2), 5], [6, 7, 9]]
    copy = [list(row) for row in rows]
    _linalg.det(rows)
    assert rows == copy
