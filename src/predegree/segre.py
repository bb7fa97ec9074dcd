"""Segre-embedding machinery for products of projective spaces: the pushforward of
monomial classes along a Segre embedding, the inverse Chern class of the normal bundle
to the embedded product, and the pushed-forward Segre class of the image, all as
integer series with no product, power or inverse in the Chow ring.

The Segre class of the image of X = P^{n_1} x ... x P^{n_r} in P^m needs only the d + 1 degrees
deg c_j(TX) H^{d-j}, d = sum n_i: one product of r univariate polynomials gives them, and one convolution
with (-1)^t C(m + t, t) gives the class: about d^2 small integer products, no pass over the box prod(n_i + 1).
"""

from __future__ import annotations

from itertools import product
from math import comb, factorial, prod
from operator import index, mul

from .chow import ChowClass, ProductSpace, _trusted


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
    exps = tuple(map(index, exps))
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
    return ChowClass._built(ProductSpace((len(pushed) - 1,)), [((j,), c) for j, c in enumerate(pushed)])


def normal_inverse_chern(space: ProductSpace) -> ChowClass:
    """Inverse Chern class of the normal bundle to the Segre-embedded product,
    prod (1 + h_i)^{n_i + 1} / (1 + sum h_i)^{m + 1} with m the dimension of the target: the
    series (-1)^|e| C(m + |e|, |e|) multinomial(e) over the exponent box,
    times each (1 + h_i)^{n_i + 1} in n_i + 1 passes along axis i, box * sum(n_i + 1) additions."""
    if space.num_factors < 2:
        raise ValueError("a Segre embedding needs at least two factors")
    dims, m = space.factor_dims, ambient_dim(space)
    inverse = [(-1) ** t * comb(m + t, t) for t in range(space.total_dim + 1)]
    box = list(product(*(range(n + 1) for n in dims)))
    series = [inverse[sum(e)] * multinomial(e) for e in box]
    # In lexicographic order e - u_i sits stride_i entries before e, so adding
    # it from the back of the box multiplies by 1 + h_i in place.
    stride = len(box)
    for axis, n in enumerate(dims):
        stride //= n + 1
        raised = [at for at in reversed(range(len(box))) if box[at][axis]]
        for _ in range(n + 1):
            for at in raised:
                series[at] += series[at - stride]
    return ChowClass._built(space, zip(box, series))


def segre_class_pushforward(space: ProductSpace) -> ChowClass:
    """Pushed-forward Segre class of the Segre-embedded product, leading term deg(image) * H^codim.
    For the smooth image X it is c(TX) c(TP^m)^{-1} capped with [X], so it needs only alpha_j = deg c_j(TX) H^{d-j}
    = (d - j)! [x^j] prod Q_i / prod n_i! (d = sum n_i), Q_i(x) = sum_e q_e x^e with q_e = C(n_i + 1, e) n_i!/(n_i - e)!
    = q_{e-1} (n_i + 2 - e)(n_i + 1 - e) / e; then H^{m-d+k} has coefficient sum_{j<=k} inv_{k-j} alpha_j with inv_t =
    (-1)^t C(m + t, t) = -inv_{t-1} (m + t) / t, and each (d - j)! is one factorial divided down: d^2 small products."""
    if space.num_factors < 2:
        raise ValueError("a Segre embedding needs at least two factors")
    dims, total, m, chern = space.factor_dims, space.total_dim, ambient_dim(space), [1]
    for n in dims:
        grown, q = [0] * (len(chern) + n), 1
        for e in range(n + 1):
            for at, c in enumerate(chern, e):
                grown[at] += q * c
            q = q * (n + 1 - e) * (n - e) // (e + 1)
        chern = grown
    alpha, inverse, scale, f, inv = [], [], prod(map(factorial, dims)), factorial(total + 1), 1
    for j, c in enumerate(chern):
        f //= total + 1 - j
        alpha.append(f * c // scale)
        inverse.append(inv)
        inv = -inv * (m + j + 1) // (j + 1)
    terms = {(m - total + k,): v for k in range(total + 1) if (v := sum(map(mul, inverse[k::-1], alpha)))}
    return _trusted(ChowClass, ambient=_trusted(ProductSpace, factor_dims=(m,)), terms=terms)
