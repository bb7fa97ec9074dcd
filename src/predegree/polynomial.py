"""Predegree-polynomial calculus.

The predegree polynomial of a degree-d hypersurface X in P^n collects the
multidegrees a_i of the graph of the rational map extending the PGL(n+1)
action on X: a_i counts translates of X through i general points under
n^2 + 2n - i general linear conditions on the transformation.  This module
implements the class-level route to those numbers: the twist of a class by a
line bundle, coefficient extraction from a (partial) Segre class of the base
locus, the Chern-character form, and the closed-form degrees and dimension
counts used to assemble the quadric tables.

On P^N everything is an integer binomial series, so nothing here inverts a
class: the twist by O(t) sends s_j H^j to s_j sum_k C(j+k-1, k) (-t)^k H^{j+k},
and for d >= 1, a_i = d^i - sum_{j<=i} C(i, j) d^{i-j} s_j over the nonzero s_j:
each a_i costs one pass over the terms of the Segre class, in any order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, isqrt
from operator import index


class IntegralityError(ArithmeticError):
    """A quantity that must be an integer came out fractional.

    This signals an internally inconsistent input (typically a class that is
    not the Segre class of any base scheme), never a rounding problem.
    """


@dataclass(frozen=True)
class PredegreePolynomial:
    """Coefficients a_0 ... a_{n^2+2n} of the predegree polynomial.

    ``ambient_dim`` is the dimension n of the projective space containing the
    hypersurface; the space of transformations then has dimension n^2 + 2n.
    """

    ambient_dim: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        n = index(self.ambient_dim)
        if n < 1:
            raise ValueError("ambient dimension must be at least 1")
        coeffs = tuple(map(index, self.coeffs))
        if len(coeffs) != n * n + 2 * n + 1:
            raise ValueError("expected n^2 + 2n + 1 coefficients")
        if min(coeffs) < 0:
            raise ValueError("predegree coefficients are counts and cannot be negative")
        object.__setattr__(self, "ambient_dim", n)
        object.__setattr__(self, "coeffs", coeffs)

    def degree(self) -> int:
        """Largest i with a_i nonzero (0 for the zero polynomial)."""
        return max((i for i, c in enumerate(self.coeffs) if c), default=0)

    def as_string(self) -> str:
        return format_polynomial(self.coeffs)


def format_polynomial(coeffs) -> str:
    """Render coefficients as a polynomial in t; None renders as ``*`` (unknown)."""
    pieces = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if c is None:
            label = "*"
        elif c == 1 and i > 0:
            label = ""
        else:
            label = str(c)
        if i == 0:
            pieces.append(label or "1")
        elif i == 1:
            pieces.append(f"{label}t")
        else:
            pieces.append(f"{label}t^{i}")
    return " + ".join(pieces) if pieces else "0"


def tensor_class(cls: ChowClass, twist: int) -> ChowClass:
    """Twist of a class on a single projective space by O(twist).

    Acts on the codimension-j piece by division by (1 + twist*H)^j, which is
    the binomial series s_j H^j sum_k C(j+k-1, k) (-twist)^k H^k; the
    codimension-0 piece is unchanged.  The twist must be an integer.
    """
    twist = index(twist)
    ambient = cls.ambient
    if ambient.num_factors != 1:
        raise ValueError("the twist is defined on a single projective space")
    twisted = [0] * (ambient.total_dim + 1)
    for (j,), s_j in cls.terms.items():
        if j == 0:
            twisted[0] = s_j
            continue
        for k in range(ambient.total_dim - j + 1):
            twisted[j + k] += s_j * comb(j + k - 1, k) * (-twist) ** k
    return cls._built(ambient, [((c,), value) for c, value in enumerate(twisted)])


def _coefficients(n_total: int, d: int, segre_class: ChowClass, indices) -> list[int]:
    """Multidegrees a_i at the given indices, read off the Segre class in closed form.

    The degree of H^{N-i} (1 - dH)^{-1} ([P^N] - S twisted by O(-d)) folds,
    by the hockey-stick identity, into a_i = d^i - sum_{j<=i} C(i, j) d^{i-j} s_j
    over the nonzero terms s_j only.  Raises ValueError for a degree d < 1.
    """
    n_total, d = index(n_total), index(d)
    if d < 1:
        raise ValueError("the hypersurface degree d must be at least 1")
    if segre_class.ambient.factor_dims != (n_total,):
        raise ValueError("the Segre class must live on the same projective space")
    terms = segre_class.terms.items()
    coeffs = []
    for i in indices:
        value = d ** i
        for (j,), s_j in terms:
            if j <= i:
                value -= comb(i, j) * d ** (i - j) * s_j
        if value.denominator != 1:
            raise IntegralityError(f"coefficient a_{i} evaluated to the non-integer {value}")
        coeffs.append(int(value))
    return coeffs


def predegree_coefficient(ambient_total_dim: int, d: int, segre_class: ChowClass, i: int) -> int:
    """Multidegree a_i extracted from a class agreeing with the Segre class
    of the base locus up to codimension i.

    Evaluates the degree of H^{N-i} (1 - dH)^{-1} ([P^N] - S twisted by O(-d))
    for d >= 1 and insists on an integer result.
    """
    i = index(i)
    if not 0 <= i <= ambient_total_dim:
        raise ValueError("coefficient index out of range")
    return _coefficients(ambient_total_dim, d, segre_class, [i])[0]


def predegree_from_segre(ambient_total_dim: int, d: int, segre_class: ChowClass, orbit_dim: int) -> PredegreePolynomial:
    """Assemble the full polynomial from a partial Segre class.

    The caller certifies that the supplied class agrees with the Segre class
    of the base locus away from a locus of codimension greater than
    ``orbit_dim``; coefficients beyond the orbit dimension vanish.
    """
    if not 0 <= orbit_dim <= ambient_total_dim:
        raise ValueError("orbit dimension out of range")
    n = isqrt(ambient_total_dim + 1) - 1
    if (n + 1) ** 2 != ambient_total_dim + 1:
        raise ValueError("ambient dimension is not of the form n^2 + 2n")
    coeffs = _coefficients(ambient_total_dim, d, segre_class, range(orbit_dim + 1))
    coeffs += [0] * (ambient_total_dim - orbit_dim)
    return PredegreePolynomial(n, tuple(coeffs))


def chern_character_form(poly: PredegreePolynomial) -> tuple[Fraction, ...]:
    """The sequence a_i / i! as exact rationals."""
    return tuple(Fraction(c, factorial(i)) for i, c in enumerate(poly.coeffs))


def deg_so(m: int) -> int:
    """Degree of the closure of SO(m) in the projective space of matrices.

    This is 2^{m-1} det(C(2m - 2i - 2j, m - 2i)) for 1 <= i, j <= k = floor(m/2).
    Reversing the indices makes the matrix (C(x_p + x_q, x_p)) for p, q < k with
    x_p = 2p + r, r = m mod 2.  Its shifted minors G^(n)_s = det(C(x_p + x_q, x_p)),
    p, q < s, x_p = 2p + n + r, are Hankel determinants of factorials divided by
    prod (x_p!)^2, so the Desnanot-Jacobi identity gives, with
    R = prod_{p < s-1} (x_p + 1) / (x_p + 2),

        G^(n)_s G^(n+2)_{s-2} = G^(n)_{s-1} G^(n+2)_{s-1} - R^2 (G^(n+1)_{s-1})^2,

    from G^(n)_0 = 1 and G^(n)_1 = C(2(n + r), n + r): O(k^2) exact steps.  Every
    G is a principal minor of a positive definite Gram matrix, so no divisor is
    zero, and every division must be exact.
    """
    m = index(m)
    if m < 2:
        raise ValueError("the orthogonal group degree needs m >= 2")
    k, r = divmod(m, 2)
    # older[n] = G^(n)_{s-2}, old[n] = G^(n)_{s-1}, and R = num[n] / den[n].
    older = [1] * (2 * k + 1)
    old = [comb(2 * (n + r), n + r) for n in range(2 * k - 1)]
    num = [1] * (2 * k - 1)
    den = [1] * (2 * k - 1)
    for s in range(2, k + 1):
        new = []
        for n in range(2 * (k - s) + 1):
            x = 2 * s + n + r - 4
            num[n] *= x + 1
            den[n] *= x + 2
            den2 = den[n] * den[n]
            value, rest = divmod(den2 * old[n] * old[n + 2] - num[n] ** 2 * old[n + 1] ** 2, den2 * older[n + 2])
            if rest:
                raise IntegralityError(f"deg SO({m}): the minor G^({n})_{s} is not an integer")
            new.append(value)
        older, old = old, new
    return 2 ** (m - 1) * old[0]


def deg_po(m: int) -> int:
    """Degree of the closure of PO(m); equals the degree of SO(m)."""
    return deg_so(m)


def fano_dim(n: int, k: int) -> int:
    """Dimension of the family of k-planes on a smooth quadric in P^n."""
    n, k = index(n), index(k)
    if n < 1:
        raise ValueError("the quadric must live in P^n with n >= 1")
    if not 0 <= k <= (n - 1) // 2:
        raise ValueError("no k-planes of that dimension lie on a smooth quadric")
    # (n - 1 - 3k/2)(k + 1), an integer because k(k+1) is even.
    return (2 * (n - 1) - 3 * k) * (k + 1) // 2


def max_component_dim(n: int) -> int:
    """Maximal dimension of a component of the base locus for a quadric in P^n.

    The largest component fibers the k-planes on the quadric, k = floor((n-1)/2),
    over the matrices with image inside a fixed k-plane; n is checked by fano_dim.
    """
    k = (n - 1) // 2
    return fano_dim(n, k) + (n + 1) * (k + 1) - 1
