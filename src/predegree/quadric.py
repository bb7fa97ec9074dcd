"""The smooth quadric surface pipeline.

Fixes the quadric Q = V(x0*x3 - x1*x2) in P^3, the image of the standard
Segre embedding of P1 x P1.  The transformations whose image lies inside Q
form two components, swept out by the two rulings of Q; each is the image of
P1 x P7 under an explicit Segre embedding into the P^15 of 4x4 matrices.
This module provides the point conditions cut out by Q, membership in that
base locus, the two parameterizations, the full predegree polynomial of Q,
and the two summary tables.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Sequence

from .linalg import Matrix, Rational, Vector, coerce, dot, flatten, mat_mul, mat_vec, outer
from .linalg import rank, ratio, transpose
from .polynomial import (
    PredegreePolynomial,
    deg_po,
    max_component_dim,
    predegree_from_segre,
)

# Points of P^3 have four coordinates: the transformations are 4x4 matrices, a P^15.
MATRIX_SIDE = 4

# Dimension of the orbit of a smooth quadric surface: the orbit is dense in
# the P^9 of quadric surfaces.
ORBIT_DIM_P3 = 9

# The two components of the base locus meet along a locus of codimension 10
# in P^15 (the rank-one matrices whose image lies on the quadric, a copy of
# Q x P^3).  10 > 9 is the inequality that certifies dropping the
# intersection when assembling the polynomial from the component classes.
BASE_INTERSECTION_CODIM = 10


def _matrix(entries: Sequence[Sequence], nrows: int) -> Matrix:
    """The rows of an nrows x MATRIX_SIDE matrix, coerced to rationals."""
    rows = tuple(map(coerce, entries))
    if len(rows) != nrows or any(len(r) != MATRIX_SIDE for r in rows):
        raise ValueError(f"expected a {nrows}x{MATRIX_SIDE} matrix")
    return rows


def projective_point(coords: Sequence, length: int) -> Vector:
    """The coordinates of a point of P^(length - 1), coerced; a wrong length or the zero vector raises ValueError."""
    v = coerce(coords)
    if len(v) != length or not any(v):
        point = "(" + " : ".join(map(str, v)) + ")"
        raise ValueError(f"{point} is not a point of P^{length - 1}: expected {length} coordinates, not all zero")
    return v


@dataclass(frozen=True)
class ProjMatrix:
    """A point of the P^15 of 4x4 matrices: nonzero entries up to scale."""

    entries: Matrix

    def __post_init__(self):
        rows = _matrix(self.entries, MATRIX_SIDE)
        projective_point(flatten(rows), MATRIX_SIDE ** 2)
        object.__setattr__(self, "entries", rows)

    @classmethod
    def from_flat(cls, values: Sequence) -> "ProjMatrix":
        return cls(tuple(values[i : i + MATRIX_SIDE] for i in range(0, len(values), MATRIX_SIDE)))

    def apply(self, point: Sequence) -> Vector:
        return mat_vec(self.entries, coerce(point))


@dataclass(frozen=True)
class QuadricGram:
    """Symmetric Gram matrix M of a quadratic form f(x) = x^T M x.

    ``polar`` is 2M, the matrix of the polar form f(x + y) - f(x) - f(y), with
    ints where integral: values, gradients and composites read it, so for
    x0*x3 - x1*x2 they stay int.  M is only checked (symmetric and smooth).
    """

    entries: Matrix
    polar: Matrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = _matrix(self.entries, MATRIX_SIDE)
        if rows != transpose(rows):
            raise ValueError("the Gram matrix must be symmetric")
        if rank(rows) != MATRIX_SIDE:
            raise ValueError("the quadric must be smooth (nonzero determinant)")
        object.__setattr__(self, "entries", rows)
        polar = tuple(tuple(ratio(2 * x.numerator, x.denominator) for x in row) for row in rows)
        object.__setattr__(self, "polar", polar)

    def value(self, point: Sequence) -> Rational:
        v = coerce(point)
        return ratio(dot(v, mat_vec(self.polar, v)), 2)

    def gradient(self, point: Sequence) -> Vector:
        """Gradient of the quadratic form: 2 M x."""
        return mat_vec(self.polar, coerce(point))


# Gram matrix of x0*x3 - x1*x2, the Segre quadric surface.
SEGRE_QUADRIC = QuadricGram(
    (
        (0, 0, 0, "1/2"),
        (0, 0, "-1/2", 0),
        (0, "-1/2", 0, 0),
        ("1/2", 0, 0, 0),
    )
)


def point_condition_value(phi: ProjMatrix, point: Sequence, gram: QuadricGram = SEGRE_QUADRIC) -> Rational:
    """Value at phi of the point condition attached to a point q.

    The point condition is the quadric of transformations psi with
    f(psi(q)) = 0; the returned representative is f(phi(q)), well defined up
    to squared rescalings of phi and q.
    """
    return gram.value(phi.apply(projective_point(point, MATRIX_SIDE)))


def point_condition_gradient(phi: ProjMatrix, point: Sequence, gram: QuadricGram = SEGRE_QUADRIC) -> Matrix:
    """Gradient of the point condition at phi, as a 4x4 matrix of partials.

    Equals 2 (M phi q) q^T; pairing it entrywise with psi gives the
    directional derivative grad f(phi q) . (psi q).
    """
    q = projective_point(point, MATRIX_SIDE)
    return outer(gram.gradient(phi.apply(q)), q)


def _ruling(second: bool, p: Sequence, xi: Sequence[Sequence]) -> ProjMatrix:
    """The bilinear ruling map: rows p_a * xi_b, ordered by (a, b), or by (b, a) for the second ruling."""
    pv = projective_point(p, 2)
    xim = _matrix(xi, 2)
    projective_point(flatten(xim), 2 * MATRIX_SIDE)
    order = [(a, b) for b in range(2) for a in range(2)] if second else [(a, b) for a in range(2) for b in range(2)]
    return ProjMatrix(tuple(tuple(pv[a] * t for t in xim[b]) for a, b in order))


def sigma1(p: Sequence, xi: Sequence[Sequence]) -> ProjMatrix:
    """Segre embedding of P^1 x P^7 sweeping the first family of rulings.

    The 2x4 matrix xi = (t0..t3; t4..t7) is the P^7 coordinate; rows of the
    output are (s0*t0..t3, s0*t4..t7, s1*t0..t3, s1*t4..t7).
    """
    return _ruling(False, p, xi)


def sigma2(p: Sequence, xi: Sequence[Sequence]) -> ProjMatrix:
    """Segre embedding of P^1 x P^7 sweeping the second family of rulings.

    Rows of the output are (s0*t0..t3, s1*t0..t3, s0*t4..t7, s1*t4..t7).
    """
    return _ruling(True, p, xi)


def base_scheme_member(phi: ProjMatrix, gram: QuadricGram = SEGRE_QUADRIC) -> bool:
    """Whether the image of phi lies inside the quadric.

    The composite form f(phi(x)) has Gram matrix phi^T M phi, so membership
    is the exact matrix identity phi^T M phi = 0, read off phi^T (2M) phi.
    """
    composite = mat_mul(mat_mul(transpose(phi.entries), gram.polar), phi.entries)
    return not any(map(any, composite))


def doubled_ruling_segre_class() -> ChowClass:
    """Class of the base locus used for the quadric surface: both ruling
    components contribute the same pushed-forward Segre class, so the sum is
    twice the class of one P^1 x P^7."""
    from . import segre
    from .chow import ProductSpace

    return 2 * segre.segre_class_pushforward(ProductSpace((1, 7)))


def predegree_quadric_p3() -> PredegreePolynomial:
    """Predegree polynomial of a smooth quadric surface in P^3.

    The coefficients come out as (1, 2, 4, 8, 16, 32, 64, 112, 140, 40).
    """
    if BASE_INTERSECTION_CODIM <= ORBIT_DIM_P3:
        raise ArithmeticError("the component intersection is too large to drop from the class")
    n_total = MATRIX_SIDE ** 2 - 1
    return predegree_from_segre(n_total, 2, doubled_ruling_segre_class(), ORBIT_DIM_P3)


@dataclass(frozen=True)
class Table1Row:
    """Summary row for a smooth quadric in P^n.

    ``coeffs`` runs from degree 0 to the orbit dimension; entries that the
    class-level computation does not determine are None, never zero.
    """

    n: int
    quadric_space_dim: int
    max_base_component_dim: int
    coeffs: tuple[int | None, ...]


def table1_row(n: int) -> Table1Row:
    """Row of the quadric summary table for P^n.

    Coefficients a_i = 2^i hold while i is below the codimension of the base
    locus; the top coefficient is the degree of the stabilizer closure.  For
    n = 3 the full polynomial is filled in from the pipeline.
    """
    n = operator.index(n)
    space_dim = (n + 1) * (n + 2) // 2 - 1
    base_dim = max_component_dim(n)
    if n == 3:
        coeffs = predegree_quadric_p3().coeffs[: space_dim + 1]
    else:
        base_codim = n * n + 2 * n - base_dim
        coeffs = [2 ** i if i < base_codim else None for i in range(space_dim)]
        coeffs.append(deg_po(n + 1))
    return Table1Row(n, space_dim, base_dim, tuple(coeffs))


def table2() -> list[tuple[int, int]]:
    """Counts of quadric translates through general points.

    Row i pairs the dimension of the general linear condition space with the
    number of translates through i general points; the top row divides out
    the stabilizer degree, with which those translates are counted.
    """
    *counts, top = table1_row(3).coeffs
    stabilizer_degree = deg_po(4)
    if top % stabilizer_degree:
        raise ArithmeticError("top coefficient is not a multiple of the stabilizer degree")
    return [*enumerate(counts), (len(counts), top // stabilizer_degree)]
