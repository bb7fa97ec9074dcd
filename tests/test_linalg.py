from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from predegree.linalg import (
    LinearSubspace,
    dot,
    flatten,
    mat_mul,
    mat_vec,
    outer,
    rank,
    transpose,
)


def test_dot_and_outer():
    assert dot((1, 2), (3, 4)) == 11
    assert outer((1, 2), (0, 1)) == ((0, 1), (0, 2))
    with pytest.raises(ValueError):
        dot((1,), (1, 2))


def test_mat_mul_and_transpose():
    a = ((1, 2), (3, 4))
    b = ((0, 1), (1, 0))
    assert mat_mul(a, b) == ((2, 1), (4, 3))
    assert transpose(a) == ((1, 3), (2, 4))
    assert mat_vec(a, (1, 1)) == (3, 7)
    assert flatten(a) == (1, 2, 3, 4)


def basis(rows):
    return LinearSubspace.span(rows, len(rows[0]) if rows else 0).basis


def test_rref_and_rank():
    rows = [[1, 2, 3], [2, 4, 6], [1, 1, 1]]
    assert basis(rows) == ((1, 0, -1), (0, 1, 2))
    assert rank(rows) == 2
    assert basis([[0, 0], [0, 0]]) == ()


def test_span_basis_entries_are_ints():
    assert basis([[2, 4, 6], [1, 3, 4]]) == ((1, 0, 1), (0, 1, 1))
    # the reduced row (1, 1/3) is kept as its primitive integer multiple
    assert basis([[3, 1]]) == ((3, 1),)
    assert basis([[-6, -2]]) == basis([["-1/2", Fraction(-1, 6)]]) == ((3, 1),)
    assert basis([["1/2", 1], [1, 2]]) == ((1, 2),)
    assert basis([[Fraction(2, 3), "1/5", 0], [0, "7/3", 1]]) == ((70, 0, -9), (0, 7, 3))
    for rows in ([["1/2", 1]], [[3, 1]], [[Fraction(2, 3), "1/5", 0], [0, "7/3", 1]]):
        assert {type(x) for row in basis(rows) for x in row} == {int}


def test_span_and_contains_accept_strings_and_fractions():
    space = LinearSubspace.span([["1/2", 0, 1], [Fraction(1, 3), 1, "0"]])
    assert space == LinearSubspace.span([[1, 0, 2], [1, 3, 0]])
    assert space.contains(["1", "3/2", Fraction(1)])
    assert not space.contains(["1", "3/2", "2"])
    with pytest.raises(ValueError):
        space.contains(["1", "3/2"])


def test_subspace_span_and_equality():
    u = LinearSubspace.span([[1, 0, 0], [0, 1, 0]])
    v = LinearSubspace.span([[1, 1, 0], [1, -1, 0]])
    assert u == v
    assert u.dim() == 2
    assert u.dim() - 1 == 1
    assert u.contains([5, -7, 0])
    assert not u.contains([0, 0, 1])


def test_span_basis_pivots_are_positive():
    assert LinearSubspace.span([[-1, 2]]) == LinearSubspace.span([[1, -2]])
    assert hash(LinearSubspace.span([[-1, 2]])) == hash(LinearSubspace.span([[1, -2]]))
    assert basis([[-1, 2]]) == ((1, -2),)
    assert basis([[0, -3, 6], [-2, 0, 1]]) == ((2, 0, -1), (0, 1, -2))


def test_subspace_validation():
    with pytest.raises(ValueError):
        LinearSubspace.span([])
    with pytest.raises(ValueError):
        LinearSubspace.span([[1, 0]], ambient_dim=3)
    assert LinearSubspace.span([], ambient_dim=4).dim() == 0


def test_contains_subspace_needs_the_same_ambient():
    line = LinearSubspace.span([[1, 0, 0]])
    for other in (LinearSubspace.span([], 5), LinearSubspace.span([[1, 0, 0, 0, 0]])):
        with pytest.raises(ValueError):
            line.contains_subspace(other)
    assert line.contains_subspace(LinearSubspace.span([], 3))


# -- the integer kernel against sympy and the removed Fraction routines ------


def rref_reference(rows):
    """Gauss-Jordan elimination over Fraction, zero rows dropped."""
    work = [list(map(Fraction, r)) for r in rows]
    pivot_row = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(pivot_row, len(work)) if work[i][col] != 0), None)
        if pivot is None:
            continue
        work[pivot_row], work[pivot] = work[pivot], work[pivot_row]
        inv = 1 / work[pivot_row][col]
        work[pivot_row] = [x * inv for x in work[pivot_row]]
        for i in range(len(work)):
            if i != pivot_row and work[i][col] != 0:
                factor = work[i][col]
                work[i] = [a - factor * b for a, b in zip(work[i], work[pivot_row])]
        pivot_row += 1
    return tuple(tuple(r) for r in work[:pivot_row])


def contains_reference(space, v):
    """Reduce v by the echelon basis, dividing by each pivot, and test for zero."""
    reduced = list(map(Fraction, v))
    for row in space.basis:
        p = next(j for j, x in enumerate(row) if x != 0)
        reduced = [a - reduced[p] / row[p] * b for a, b in zip(reduced, row)]
    return all(x == 0 for x in reduced)


def primitive(row):
    """A rational row scaled to the integer row with content 1 and a positive pivot."""
    scale = lcm(*(Fraction(x).denominator for x in row))
    ints = [int(x * scale) for x in row]
    content = gcd(*ints) if next(filter(None, ints)) > 0 else -gcd(*ints)
    return tuple(x // content for x in ints)


def to_sympy(rows, ncols):
    sympy = pytest.importorskip("sympy")
    flat = [sympy.Rational(x.numerator, x.denominator) for row in rows for x in row]
    return sympy.Matrix(len(rows), ncols, flat)


def from_sympy(x):
    return Fraction(int(x.p), int(x.q))


ENTRIES = st.one_of(
    st.just(0), st.integers(-5, 5), st.fractions(min_value=-5, max_value=5, max_denominator=6)
)


@st.composite
def matrices(draw, ncols=None):
    """Small rational matrices, some rows replaced by combinations of others to drop the rank."""
    nrows = draw(st.integers(0, 6))
    if ncols is None:
        ncols = draw(st.integers(1, 7))
    row = st.lists(ENTRIES, min_size=ncols, max_size=ncols)
    rows = [list(map(Fraction, r)) for r in draw(st.lists(row, min_size=nrows, max_size=nrows))]
    for _ in range(draw(st.integers(0, nrows - 1)) if nrows > 1 else 0):
        i = draw(st.integers(0, nrows - 1))
        others = st.sampled_from([j for j in range(nrows) if j != i])
        j, k, a, b = draw(others), draw(others), draw(ENTRIES), draw(ENTRIES)
        rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
    return [tuple(r) for r in rows]


# A width and two matrices of that width.
SAME_WIDTH = st.integers(1, 7).flatmap(lambda n: st.tuples(st.just(n), matrices(ncols=n), matrices(ncols=n)))


@settings(max_examples=60, deadline=None)
@given(matrices())
@example([(0, 0)])  # a zero matrix: its kernel is the whole space
@example([(0, Fraction(1, 2), 1), (Fraction(1, 3), 1, 0), (2, 0, Fraction(-1, 5))])  # needs a row swap
def test_rref_rank_and_nullspace_match_sympy_and_reference(rows):
    reduced = basis(rows)
    assert reduced == tuple(map(primitive, rref_reference(rows)))
    assert {type(x) for row in reduced for x in row} <= {int}
    assert rank(rows) == len(reduced)
    if not rows:
        return
    ncols = len(rows[0])
    expected, pivots = to_sympy(rows, ncols).rref()
    sympy_rows = [tuple(from_sympy(x) for x in expected.row(i)) for i in range(len(pivots))]
    assert reduced == tuple(map(primitive, sympy_rows))
    # rank-nullity against sympy's kernel, which the basis rows annihilate
    kernel = [tuple(from_sympy(x) for x in v) for v in to_sympy(rows, ncols).nullspace()]
    assert len(kernel) == ncols - rank(rows)
    assert all(dot(row, v) == 0 for row in reduced for v in kernel)


@settings(max_examples=40, deadline=None)
@given(SAME_WIDTH)
@example((2, [(2, 1)], [(4, 2)]))  # inside a span whose pivot is 2, not 1
def test_contains_matches_sympy_and_reference(drawn):
    ncols, rows, candidates = drawn
    space = LinearSubspace.span(rows, ncols)
    for v in candidates:
        inside = space.contains(v)
        assert inside == contains_reference(space, v)
        assert inside == (to_sympy(rows + [v], ncols).rank() == to_sympy(rows, ncols).rank())
    for v in rows:
        assert space.contains(v)


@st.composite
def invertible_matrices(draw, n):
    """P L U for a permutation P, L lower triangular with a nonzero diagonal and U
    upper unitriangular: an integer matrix that is invertible over the rationals."""
    small = st.integers(-3, 3)
    lower = [[draw(small) if j < i else draw(small.filter(bool)) if j == i else 0 for j in range(n)] for i in range(n)]
    upper = [[draw(small) if j > i else int(j == i) for j in range(n)] for i in range(n)]
    product = mat_mul(lower, upper)
    return [product[i] for i in draw(st.permutations(range(n)))]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(st.just(n), matrices(ncols=n))), st.data())
def test_span_is_canonical_under_invertible_row_operations(drawn, data):
    ncols, rows = drawn
    mixed = mat_mul(data.draw(invertible_matrices(len(rows))), rows) if rows else ()
    space = LinearSubspace.span(rows, ncols)
    assert LinearSubspace.span(mixed, ncols) == space
    assert hash(LinearSubspace.span(mixed, ncols)) == hash(space)
    for row in space.basis:
        assert all(type(x) is int for x in row)
        assert gcd(*row) == 1 and next(filter(None, row)) > 0


def test_exact_keeps_exact_numbers_and_refuses_floats():
    from decimal import Decimal

    from predegree.linalg import coerce, exact

    assert type(exact(3)) is int
    assert type(exact(Fraction(1, 2))) is Fraction
    assert exact("1/2") == Fraction(1, 2) and exact(Decimal("0.1")) == Fraction(1, 10)
    for value in (0.1, 2.0, float("nan")):
        with pytest.raises(TypeError, match="inexact"):
            exact(value)
        with pytest.raises(TypeError, match="inexact"):
            coerce([1, value])


def test_span_needs_an_integral_ambient_dim():
    with pytest.raises(TypeError):
        LinearSubspace.span([[1, 0]], 2.0)
    assert LinearSubspace.span([], 2).ambient_dim == 2


def test_rows_of_unequal_length_raise():
    with pytest.raises(ValueError, match="unequal length"):
        rank([[1, 2], [3]])


def test_span_needs_a_non_negative_ambient_dim():
    with pytest.raises(ValueError, match="cannot be negative"):
        LinearSubspace.span([], -1)
    empty = LinearSubspace.span([], 0)
    assert (empty.ambient_dim, empty.basis) == (0, ())
