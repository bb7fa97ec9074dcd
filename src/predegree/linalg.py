"""Exact linear algebra over the rationals.

Vectors are tuples of rationals and matrices are tuples of such row vectors.
``exact`` is the package's one rule for a number from outside: an ``int`` or
``Fraction`` is kept, a float raises TypeError and anything else (``str``) goes
through ``Fraction``.  ``coerce`` applies it to inputs and ``ratio`` to computed
quotients, so integer inputs stay integer to the answer.  One
fraction-free integer elimination does every reduction: each row is coerced
and cleared of denominators once; a span keeps its pivot rows made primitive
and rank counts them after a forward-only sweep.  Every other linear-algebra
question the package asks (smoothness, subspace membership, the dimension of an
intersection) is a rank.  There is no floating point and no tolerance anywhere in the package.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Rational = int | Fraction
Vector = tuple[Rational, ...]
Matrix = tuple[Vector, ...]


def exact(x) -> Rational:
    """An exact rational: an int or Fraction is kept, a float raises TypeError, anything else goes through Fraction."""
    if isinstance(x, float):
        raise TypeError(f"the float {x!r} is inexact: pass an int, a Fraction or a string such as '1/2'")
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def coerce(entries: Iterable) -> Vector:
    """A vector of rationals, each entry through ``exact``."""
    return tuple(x if isinstance(x, (int, Fraction)) else exact(x) for x in entries)


def dot(u: Sequence[Rational], v: Sequence[Rational]) -> Rational:
    if len(u) != len(v):
        raise ValueError("dot product of vectors of different lengths")
    return sum(a * b for a, b in zip(u, v))


def mat_vec(m: Matrix, v: Sequence[Rational]) -> Vector:
    return tuple(dot(row, v) for row in m)


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if m else ()


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def outer(u: Sequence[Rational], v: Sequence[Rational]) -> Matrix:
    return tuple(tuple(x * y for y in v) for x in u)


def ratio(numerator: Rational, denominator: int) -> Rational:
    """numerator / denominator: an int when the division is exact, else a Fraction."""
    return numerator // denominator if numerator % denominator == 0 else Fraction(numerator, denominator)


def flatten(m: Matrix) -> Vector:
    """Row-major flattening of a matrix into a single vector."""
    return tuple(x for row in m for x in row)


def _eliminate(rows: Iterable[Sequence], full: bool = True) -> list[list[int]]:
    """Fraction-free Gauss-Jordan elimination over the integers (Bareiss).

    Each row is coerced and multiplied once by the lcm of its denominators (1
    for an int row).  Each pivot d (previous pivot prev) turns every other row,
    or only the rows below it when not full, into (d*a - f*b) // prev, exact
    because every entry is a minor of the cleared matrix.  Returns the pivot rows
    by pivot column: when full, multiples of the reduced echelon rows with one pivot.
    """
    work = []
    for row in rows:
        entries = coerce(row)
        multiplier = lcm(*(x.denominator for x in entries))
        work.append([x.numerator * (multiplier // x.denominator) for x in entries])
    ncols = len(work[0]) if work else 0
    if any(len(r) != ncols for r in work):
        raise ValueError("rows of unequal length")
    prev, found = 1, 0
    for col in range(ncols):
        if found == len(work):
            break
        pivot = next((i for i in range(found, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[found], work[pivot] = work[pivot], work[found]
        top = work[found]
        d = top[col]
        for i, row in enumerate(work):
            if i > found or (full and i < found):
                f = row[col]
                work[i] = [(d * a - f * b) // prev for a, b in zip(row, top)]
        prev = d
        found += 1
    return work[:found]


def rank(rows: Iterable[Sequence]) -> int:
    return len(_eliminate(rows, full=False))


@dataclass(frozen=True)
class LinearSubspace:
    """Linear span inside a fixed coordinate space.

    The basis is the reduced row echelon form, each row the primitive integer
    row with a positive pivot.  The constructor trusts its basis, so for bases
    built by span, dataclass equality is subspace equality.
    """

    ambient_dim: int
    basis: Matrix

    @classmethod
    def span(cls, vectors: Iterable[Sequence], ambient_dim: int | None = None) -> "LinearSubspace":
        vs = list(vectors)
        if ambient_dim is None:
            if not vs:
                raise ValueError("ambient dimension required for an empty span")
            ambient_dim = len(vs[0])
        ambient_dim = operator.index(ambient_dim)
        if ambient_dim < 0:
            raise ValueError("the ambient dimension cannot be negative")
        if any(len(v) != ambient_dim for v in vs):
            raise ValueError("vector length does not match the ambient dimension")
        basis = []
        for row in _eliminate(vs):
            content = gcd(*row) if next(filter(None, row)) > 0 else -gcd(*row)
            basis.append(tuple(x // content for x in row))
        return cls(ambient_dim, tuple(basis))

    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Sequence) -> bool:
        return self.contains_subspace(LinearSubspace.span([v], self.ambient_dim))

    def contains_subspace(self, other: "LinearSubspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("subspaces live in different ambient spaces")
        return rank(self.basis + other.basis) == self.dim()
