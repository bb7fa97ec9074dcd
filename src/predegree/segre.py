"""Segre-embedding machinery for products of projective spaces.

Covers the pushforward of monomial classes along a Segre embedding, the
inverse Chern class of the normal bundle to the embedded product, and the
resulting pushed-forward Segre class of the image, all in integer series
that need no product, power or inverse in the Chow ring.
"""

from __future__ import annotations

from itertools import product
from math import factorial, perm, prod

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


def _normal_inverse_series(space: ProductSpace) -> tuple[list[tuple[int, ...]], list[int]]:
    """The exponent box e_i <= n_i in lexicographic order and, over it, the integer series
    prod (1 + h_i)^{n_i+1} / (1 + sum h_i)^{m+1}: the inverse denominator
    (-1)^|e| C(m + |e|, |e|) multinomial(e) from factorial tables, then n_i + 1 passes
    of multiplication by 1 + h_i along each axis i, box * sum(n_i + 1) additions in all."""
    if space.num_factors < 2:
        raise ValueError("a Segre embedding needs at least two factors")
    dims, m = space.factor_dims, ambient_dim(space)
    rising = [(-1) ** t * perm(m + t, t) for t in range(space.total_dim + 1)]
    fact = [factorial(k) for k in range(max(dims) + 1)]
    box = list(product(*(range(n + 1) for n in dims)))
    series = [rising[sum(e)] // prod(map(fact.__getitem__, e)) for e in box]
    # In lexicographic order e - u_i sits stride_i entries before e, so adding
    # it from the back of the box multiplies by 1 + h_i in place.
    stride = len(box)
    for axis, n in enumerate(dims):
        stride //= n + 1
        raised = [at for at in reversed(range(len(box))) if box[at][axis]]
        for _ in range(n + 1):
            for at in raised:
                series[at] += series[at - stride]
    return box, series


def normal_inverse_chern(space: ProductSpace) -> ChowClass:
    """Inverse Chern class of the normal bundle to the Segre-embedded product:
    prod (1 + h_i)^{n_i + 1} / (1 + sum h_i)^{m + 1}, m the dimension of the target."""
    return ChowClass(space, dict(zip(*_normal_inverse_series(space))))


def segre_class_pushforward(space: ProductSpace) -> ChowClass:
    """Pushed-forward Segre class of the Segre-embedded product, whose leading term is
    deg(image) * H^codim.  For a smooth subvariety the Segre class is the inverse normal
    Chern class capped with [X], so each box term c_e h^e of ``normal_inverse_chern``
    adds c_e multinomial(n - e) to H^{codim + |e|}: one product per term, no class built."""
    box, series = _normal_inverse_series(space)
    total, m = space.total_dim, ambient_dim(space)
    fact = [factorial(k) for k in range(total + 1)]
    pushed = [0] * (m + 1)
    # Read backwards, the lexicographic box lists n - e.
    for e, rest, coeff in zip(box, reversed(box), series):
        size = sum(e)
        pushed[m - total + size] += coeff * fact[total - size] // prod(map(fact.__getitem__, rest))
    return ChowClass(ProductSpace((m,)), {(j,): value for j, value in enumerate(pushed) if value})
