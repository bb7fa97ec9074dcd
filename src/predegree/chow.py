"""Chow rings of products of projective spaces with exact coefficients.

For factor dimensions (n_1, ..., n_r) the ring is the truncated polynomial ring
Q[h_1, ..., h_r] / (h_1^{n_1+1}, ..., h_r^{n_r+1}), where h_i is the hyperplane class
pulled back from the i-th factor.  Classes are stored sparsely as exponent tuple ->
coefficient.  Terms are checked once, at the public constructor ``ChowClass(...)``:
exponents pass ``operator.index`` (a float or ``Fraction`` raises TypeError), a wrong
length, then a negative exponent, raises ValueError, and a term past the truncation is
dropped.  Spaces and classes the package builds skip ``__post_init__`` through ``_trusted``
(``ChowClass._built`` drops zero terms).  An ``int`` or ``Fraction`` coefficient is kept, so
integer classes stay integer; any other passes ``linalg.exact``, the one number rule, imported then.
A class may mix codimensions, of total exponent per term.

Values are immutable once built and every operation returns a new class, so
everything here is safe to share between threads.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Mapping

if TYPE_CHECKING:
    from .linalg import Rational

Exponents = tuple[int, ...]


@dataclass(frozen=True)
class ProductSpace:
    """Ambient product of projective spaces, recorded by factor dimensions."""

    factor_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(map(operator.index, self.factor_dims))
        if len(dims) < 1:
            raise ValueError("a product space needs at least one factor")
        if min(dims) < 0:
            raise ValueError("factor dimensions must be non-negative")
        object.__setattr__(self, "factor_dims", dims)

    @property
    def num_factors(self) -> int:
        return len(self.factor_dims)

    @property
    def total_dim(self) -> int:
        return sum(self.factor_dims)

    @property
    def top_exponents(self) -> Exponents:
        """Exponent tuple of the point class h_1^{n_1} ... h_r^{n_r}."""
        return self.factor_dims


def _trusted(cls, **fields):
    built = object.__new__(cls)
    vars(built).update(fields)
    return built


def _normalize(ambient: ProductSpace, items: Iterable[tuple[Exponents, Rational]]) -> dict:
    dims = ambient.factor_dims
    terms: dict[Exponents, Rational] = {}
    for exps, coeff in items:
        exps = tuple(map(operator.index, exps))
        if len(exps) != len(dims):
            raise ValueError("exponent tuple does not match the number of factors")
        if min(exps) < 0:
            raise ValueError("negative exponent")
        if any(map(operator.gt, exps, dims)):
            # h_i^{n_i+1} = 0, so the monomial vanishes in the quotient.
            continue
        if not isinstance(coeff, (int, Fraction)):
            from .linalg import exact
            coeff = exact(coeff)
        terms[exps] = terms.get(exps, 0) + coeff
    return {e: c for e, c in terms.items() if c}


@dataclass(frozen=True)
class ChowClass:
    """Element of the Chow ring of a product of projective spaces."""

    ambient: ProductSpace
    terms: Mapping[Exponents, Rational]

    # The terms are a dict, so a class has no hash.
    __hash__ = None

    def __post_init__(self):
        object.__setattr__(self, "terms", _normalize(self.ambient, self.terms.items()))

    # -- constructors ------------------------------------------------------

    @classmethod
    def _built(cls, ambient: ProductSpace, items: Iterable[tuple[Exponents, Rational]]) -> "ChowClass":
        """Class from terms the package built: distinct exponent tuples of plain ints inside the
        truncation, with int or Fraction coefficients (not checked); zero terms are dropped."""
        return _trusted(cls, ambient=ambient, terms={exps: coeff for exps, coeff in items if coeff})

    @classmethod
    def zero(cls, ambient: ProductSpace) -> "ChowClass":
        return cls(ambient, {})

    @classmethod
    def one(cls, ambient: ProductSpace) -> "ChowClass":
        return cls(ambient, {(0,) * ambient.num_factors: 1})

    @classmethod
    def hyperplane(cls, ambient: ProductSpace, index: int = 0) -> "ChowClass":
        """The class h_index pulled back from the chosen factor."""
        index = operator.index(index)
        if not 0 <= index < ambient.num_factors:
            raise ValueError("factor index out of range")
        exps = tuple(1 if i == index else 0 for i in range(ambient.num_factors))
        return cls(ambient, {exps: 1})

    @classmethod
    def monomial(cls, ambient: ProductSpace, exps: Iterable[int], coeff=1) -> "ChowClass":
        return cls(ambient, {tuple(exps): coeff})

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exps: Iterable[int]) -> Rational:
        return self.terms.get(tuple(exps), 0)

    def constant_term(self) -> Rational:
        return self.coefficient((0,) * self.ambient.num_factors)

    def codimensions(self) -> list[int]:
        """Sorted list of codimensions in which the class has a term."""
        return sorted({sum(e) for e in self.terms})

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> "ChowClass":
        if isinstance(other, ChowClass):
            if other.ambient != self.ambient:
                raise ValueError("classes live in different ambient spaces")
            return other
        if isinstance(other, (int, Fraction)):
            return ChowClass._built(self.ambient, [((0,) * self.ambient.num_factors, other)])
        return NotImplemented

    def __add__(self, other) -> "ChowClass":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        merged = dict(self.terms)
        for exps, coeff in other.terms.items():
            merged[exps] = merged.get(exps, 0) + coeff
        return ChowClass._built(self.ambient, merged.items())

    __radd__ = __add__

    def __neg__(self) -> "ChowClass":
        return ChowClass._built(self.ambient, [(e, -c) for e, c in self.terms.items()])

    def __sub__(self, other) -> "ChowClass":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "ChowClass":
        return (-self) + other

    def __mul__(self, other) -> "ChowClass":
        if isinstance(other, (int, Fraction)):
            return ChowClass._built(self.ambient, [(e, c * other) for e, c in self.terms.items()])
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        dims = self.ambient.factor_dims
        product: dict[Exponents, Rational] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                if any(e > n for e, n in zip(exps, dims)):
                    continue
                product[exps] = product.get(exps, 0) + c1 * c2
        return ChowClass._built(self.ambient, product.items())

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "ChowClass":
        n = operator.index(n)
        if n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = ChowClass.one(self.ambient)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def invert_unit(self) -> "ChowClass":
        """Inverse of a class of the form 1 + (positive-codimension part).

        Computed by the geometric series in the nilpotent part, which
        terminates because every positive-codimension class is nilpotent in a
        truncated ring.
        """
        if self.constant_term() != 1:
            raise ValueError("only classes with constant term 1 are invertible here")
        step = 1 - self
        result = power = ChowClass.one(self.ambient)
        for _ in range(self.ambient.total_dim):
            power = power * step
            if power.is_zero:
                break
            result = result + power
        return result

    # -- grading and degree ------------------------------------------------

    def codim_part(self, j: int) -> "ChowClass":
        """The piece of the class in codimension j (total exponent j)."""
        j = operator.index(j)
        if not 0 <= j <= self.ambient.total_dim:
            raise ValueError("codimension out of range for the ambient space")
        return ChowClass._built(self.ambient, [(e, c) for e, c in self.terms.items() if sum(e) == j])

    def integrate(self) -> Rational:
        """Degree of the zero-dimensional piece: coefficient of the point class."""
        return self.coefficient(self.ambient.top_exponents)

    # -- presentation ------------------------------------------------------

    def to_records(self) -> list[dict]:
        """Serializable form: exponents in factor order, coefficients as strings."""
        records = []
        for exps in sorted(self.terms, key=lambda e: (sum(e), e)):
            records.append({"exponents": list(exps), "coeff": str(self.terms[exps])})
        return records

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        r = self.ambient.num_factors
        names = ["H"] if r == 1 else [f"h{i + 1}" for i in range(r)]
        out = ""
        for exps in sorted(self.terms, key=lambda e: (sum(e), e)):
            coeff = self.terms[exps]
            if coeff < 0:
                out += " - " if out else "-"
            elif out:
                out += " + "
            size = abs(coeff)
            monom = "*".join(
                f"{names[i]}^{e}" if e > 1 else names[i] for i, e in enumerate(exps) if e
            )
            if not monom:
                out += str(size)
            elif size == 1:
                out += monom
            else:
                out += f"{size}*{monom}"
        return out
