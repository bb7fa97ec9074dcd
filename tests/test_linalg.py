from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from predegree.linalg import (
    LinearSubspace,
    det,
    dot,
    flatten,
    mat_mul,
    mat_vec,
    nullspace,
    outer,
    rank,
    rref,
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


def test_rref_and_rank():
    rows = [[1, 2, 3], [2, 4, 6], [1, 1, 1]]
    reduced = rref(rows)
    assert len(reduced) == 2
    assert rank(rows) == 2
    assert rref([[0, 0], [0, 0]]) == ()


def test_integral_rref_entries_are_ints():
    reduced = rref([[2, 4, 6], [1, 3, 4]])
    assert reduced == ((1, 0, 1), (0, 1, 1))
    assert {type(x) for row in reduced for x in row} == {int}
    assert [type(x) for x in rref([["1/2", 1]])[0]] == [int, int]
    (row,) = rref([[3, 1]])
    assert row == (1, Fraction(1, 3))
    assert [type(x) for x in row] == [int, Fraction]
    assert {type(x) for v in nullspace([[1, 2, 3]]) for x in v} == {int}


def test_span_and_contains_accept_strings_and_fractions():
    space = LinearSubspace.span([["1/2", 0, 1], [Fraction(1, 3), 1, "0"]])
    assert space == LinearSubspace.span([[1, 0, 2], [1, 3, 0]])
    assert space.contains(["1", "3/2", Fraction(1)])
    assert not space.contains(["1", "3/2", "2"])
    with pytest.raises(ValueError):
        space.contains(["1", "3/2"])


def test_nullspace_is_exact_kernel():
    rows = ((1, 2, 3), (0, 1, 1))
    basis = nullspace(rows)
    assert len(basis) == 1
    for v in basis:
        assert mat_vec(rows, v) == (0, 0)


def test_det_integer_and_rational():
    assert det([[2, 1], [1, 1]]) == 1
    assert det([[1, 2], [2, 4]]) == 0
    assert det([["1/2", 0], [0, "1/3"]]) == Fraction(1, 6)
    # column swap flips the sign
    assert det([[0, 1], [1, 0]]) == -1
    with pytest.raises(ValueError):
        det([[1, 2, 3], [4, 5, 6]])


def test_subspace_span_and_equality():
    u = LinearSubspace.span([[1, 0, 0], [0, 1, 0]])
    v = LinearSubspace.span([[1, 1, 0], [1, -1, 0]])
    assert u == v
    assert u.dim() == 2
    assert u.dim() - 1 == 1
    assert u.contains([5, -7, 0])
    assert not u.contains([0, 0, 1])


def test_subspace_intersection():
    u = LinearSubspace.span([[1, 0, 0], [0, 1, 0]])
    v = LinearSubspace.span([[0, 1, 0], [0, 0, 1]])
    w = u.intersect(v)
    assert w == LinearSubspace.span([[0, 1, 0]])
    assert u.contains_subspace(w)
    assert v.contains_subspace(w)
    empty = u.intersect(LinearSubspace.span([[0, 0, 1]]))
    assert empty.dim() == 0


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


def det_reference(rows):
    """Bareiss elimination with exact Fraction division."""
    m = [list(map(Fraction, r)) for r in rows]
    n = len(m)
    sign, prev = 1, Fraction(1)
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return Fraction(0)
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else Fraction(1)


def contains_reference(space, v):
    """Reduce v by the reduced basis and test for zero."""
    reduced = list(map(Fraction, v))
    for row in space.basis:
        p = next(j for j, x in enumerate(row) if x != 0)
        reduced = [a - reduced[p] * b for a, b in zip(reduced, row)]
    return all(x == 0 for x in reduced)


def intersect_reference(u, w):
    """Kernel of the stacked basis columns, recombined through the first basis."""
    if not u.basis or not w.basis:
        return LinearSubspace.span([], u.ambient_dim)
    vectors = []
    for coeffs in nullspace(transpose(u.basis + w.basis)):
        combo = [Fraction(0)] * u.ambient_dim
        for c, row in zip(coeffs, u.basis):
            combo = [a + c * b for a, b in zip(combo, row)]
        vectors.append(tuple(combo))
    return LinearSubspace.span(vectors, u.ambient_dim)


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
def matrices(draw, ncols=None, square=False):
    """Small rational matrices, some rows replaced by combinations of others to drop the rank."""
    nrows = draw(st.integers(1 if square else 0, 6))
    if ncols is None:
        ncols = nrows if square else draw(st.integers(1, 7))
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
def test_rref_rank_and_nullspace_match_sympy_and_reference(rows):
    reduced = rref(rows)
    assert reduced == rref_reference(rows)
    assert rank(rows) == len(reduced)
    if not rows:
        return
    ncols = len(rows[0])
    expected, pivots = to_sympy(rows, ncols).rref()
    assert reduced == tuple(tuple(from_sympy(x) for x in expected.row(i)) for i in range(len(pivots)))
    kernel = [tuple(from_sympy(x) for x in v) for v in to_sympy(rows, ncols).nullspace()]
    assert nullspace(rows) == kernel


@settings(max_examples=60, deadline=None)
@given(matrices(square=True))
@example([(0, Fraction(1, 2), 1), (Fraction(1, 3), 1, 0), (2, 0, Fraction(-1, 5))])  # needs a row swap
def test_det_matches_sympy_and_reference(rows):
    value = det(rows)
    assert value == det_reference(rows)
    assert value == from_sympy(to_sympy(rows, len(rows)).det())


@settings(max_examples=40, deadline=None)
@given(SAME_WIDTH)
def test_contains_matches_sympy_and_reference(drawn):
    ncols, rows, candidates = drawn
    space = LinearSubspace.span(rows, ncols)
    for v in candidates:
        inside = space.contains(v)
        assert inside == contains_reference(space, v)
        assert inside == (to_sympy(rows + [v], ncols).rank() == to_sympy(rows, ncols).rank())
    for v in rows:
        assert space.contains(v)


@settings(max_examples=40, deadline=None)
@given(SAME_WIDTH)
def test_intersect_matches_sympy_and_reference(drawn):
    ncols, left, right = drawn
    u, w = LinearSubspace.span(left, ncols), LinearSubspace.span(right, ncols)
    meet = u.intersect(w)
    assert meet == intersect_reference(u, w)
    assert meet == LinearSubspace.span(meet.basis, ncols)
    both = to_sympy(list(u.basis + w.basis), ncols).rank()
    assert meet.dim() == u.dim() + w.dim() - both
    assert u.contains_subspace(meet) and w.contains_subspace(meet)


def test_det_follows_the_rref_number_rule():
    # an integral determinant is an int, as an integral rref entry is
    assert type(det([[2, 1], [1, 1]])) is int
    assert type(det([[1, 2], [2, 4]])) is int
    assert type(det([["1/2", 0], [0, 2]])) is int
    assert type(det([["1/2", 0], [0, "1/3"]])) is Fraction
    assert type(det([])) is int
    assert all(type(x) is int for row in rref([["1/2", 1], [1, 2]]) for x in row)


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
    for reduce in (rref, rank):
        with pytest.raises(ValueError, match="unequal length"):
            reduce([[1, 2], [3]])


def test_intersect_needs_the_same_ambient():
    plane = LinearSubspace.span([[1, 0, 0], [0, 1, 0]])
    with pytest.raises(ValueError, match="different ambient spaces"):
        plane.intersect(LinearSubspace.span([[1, 0]]))
    with pytest.raises(ValueError, match="different ambient spaces"):
        LinearSubspace.span([], 2).intersect(plane)


def test_span_needs_a_non_negative_ambient_dim():
    with pytest.raises(ValueError, match="cannot be negative"):
        LinearSubspace.span([], -1)
    empty = LinearSubspace.span([], 0)
    assert (empty.ambient_dim, empty.basis) == (0, ())


def test_nullspace_of_an_empty_matrix_raises():
    with pytest.raises(ValueError, match="ambiguous"):
        nullspace([])
