"""Segre-embedding machinery for products of projective spaces.

Covers the pushforward of monomial classes along a Segre embedding, the
inverse Chern class of the normal bundle to the embedded product, and the
resulting pushed-forward Segre class of the image, all in integer series
that need no product, power or inverse in the Chow ring.
"""

from __future__ import annotations

from itertools import product
from math import comb, factorial, prod

from .chow import ChowClass, ProductSpace


def ambient_dim(space: ProductSpace) -> int:
    """Dimension of the target projective space of the Segre embedding."""
    return prod(n + 1 for n in space.factor_dims) - 1


def multinomial(parts: tuple[int, ...]) -> int:
    return factorial(sum(parts)) // prod(factorial(p) for p in parts)


def pushforward_monomial(space: ProductSpace, exps: tuple[int, ...]) -> tuple[int, int]:
    """Pushforward of h_1^{a_1} ... h_r^{a_r} on the embedded product.

    The monomial cuts out a product of linear subspaces of dimensions
    d_i = n_i - a_i, whose image under the Segre embedding is a subvariety of
    degree (sum d_i)! / prod d_i!.  Returns (coefficient, power) of the image
    class c * H^power in the target projective space.
    """
    exps = tuple(int(e) for e in exps)
    dims = space.factor_dims
    if len(exps) != len(dims):
        raise ValueError("exponent tuple does not match the number of factors")
    if any(e < 0 or e > n for e, n in zip(exps, dims)):
        raise ValueError("exponent out of range for the ambient space")
    m = ambient_dim(space)
    complementary = tuple(n - e for e, n in zip(exps, dims))
    power = (m - space.total_dim) + sum(exps)
    return multinomial(complementary), power


def pushforward_class(cls: ChowClass) -> ChowClass:
    """Term-by-term pushforward of a class on a product to the Segre target."""
    pushed = [0] * (ambient_dim(cls.ambient) + 1)
    for exps, coeff in cls.terms.items():
        c, power = pushforward_monomial(cls.ambient, exps)
        pushed[power] += c * coeff
    return ChowClass(ProductSpace((len(pushed) - 1,)), {(j,): value for j, value in enumerate(pushed)})


def normal_inverse_chern(space: ProductSpace) -> ChowClass:
    """Inverse Chern class of the normal bundle to the Segre-embedded product.

    Equals prod (1 + h_i)^{n_i + 1} / (1 + sum h_i)^{m + 1}, m the dimension of
    the target.  The inverse denominator is the integer series
    (-1)^|e| C(m + |e|, |e|) multinomial(e) over the box e_i <= n_i; each
    numerator factor is then a convolution along axis i, n_i + 1 passes of
    multiplication by 1 + h_i: box * sum(n_i + 1) integer additions in all.
    """
    if space.num_factors < 2:
        raise ValueError("a Segre embedding needs at least two factors")
    m = ambient_dim(space)
    box = list(product(*(range(n + 1) for n in space.factor_dims)))
    series = [(-1) ** sum(e) * comb(m + sum(e), sum(e)) * multinomial(e) for e in box]
    # In lexicographic order e - u_i sits stride_i entries before e, so adding
    # it from the back of the box multiplies by 1 + h_i in place.
    stride = len(box)
    for axis, n in enumerate(space.factor_dims):
        stride //= n + 1
        raised = [at for at in reversed(range(len(box))) if box[at][axis]]
        for _ in range(n + 1):
            for at in raised:
                series[at] += series[at - stride]
    return ChowClass(space, dict(zip(box, series)))


def segre_class_pushforward(space: ProductSpace) -> ChowClass:
    """Pushed-forward Segre class of the Segre-embedded product.

    For a smooth subvariety the Segre class is the inverse normal Chern class
    capped with the fundamental class, so this is the pushforward of
    ``normal_inverse_chern``.  The leading term is deg(image) * H^codim.
    """
    return pushforward_class(normal_inverse_chern(space))
