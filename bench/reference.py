"""Independent reference answers for the benchmark's correctness checks.

Nothing here imports predegree.  Every function is an integer closed form or
a plain loop written for the benchmark, so a wrong answer from the code under
test cannot also be the reference answer.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, factorial, prod

# Coefficients (1, 2, ..., 40) of the predegree polynomial of a smooth quadric
# surface, and deg SO(m) for m = 2..5, as published.
P3_POLYNOMIAL = (1, 2, 4, 8, 16, 32, 64, 112, 140, 40)
PINNED_DEG_SO = {2: 2, 3: 8, 4: 40, 5: 384}

# Twice the Gram matrix of x0*x3 - x1*x2, so its entries are integers.
SEGRE_QUADRIC_2M = ((0, 0, 0, 1), (0, 0, -1, 0), (0, -1, 0, 0), (1, 0, 0, 0))


def multinomial(parts) -> int:
    return factorial(sum(parts)) // prod(factorial(p) for p in parts)


def segre_target_dim(dims) -> int:
    return prod(n + 1 for n in dims) - 1


def segre_class(dims) -> list[int]:
    """Coefficients s_0..s_N of the pushed-forward Segre class of the
    Segre-embedded product of P^{n_i} in P^N.

    The inverse normal Chern class is prod (1 + h_i)^{n_i+1} times
    (1 + sum h_i)^{-(N+1)}; the coefficient of h^e in the second factor is
    (-1)^{|e|} C(N + |e|, |e|) multinomial(e).  A monomial h^e pushes forward
    to multinomial(n - e) H^{N - dim + |e|}.
    """
    n_target = segre_target_dim(dims)
    dim = sum(dims)
    s = [0] * (n_target + 1)
    for e in product(*(range(n + 1) for n in dims)):
        coeff = 0
        for a in product(*(range(x + 1) for x in e)):
            rest = tuple(x - y for x, y in zip(e, a))
            k = sum(rest)
            coeff += (
                prod(comb(n + 1, x) for n, x in zip(dims, a))
                * (-1) ** k
                * comb(n_target + k, k)
                * multinomial(rest)
            )
        s[n_target - dim + sum(e)] += multinomial(tuple(n - x for n, x in zip(dims, e))) * coeff
    return s


def predegree_coefficients(d: int, s: list[int], top: int) -> list[int]:
    """a_0..a_top from a Segre class s on P^N: a_i = d^i - sum_j C(i, j) d^(i-j) s_j.

    This is the degree of H^(N-i) (1 - dH)^(-1) ([P^N] - s twisted by O(-d)),
    with the twist expanded as sum_k C(j+k-1, k) d^k H^k on the codimension-j
    piece and the inner sum over k folded by the hockey-stick identity.
    """
    return [d**i - sum(comb(i, j) * d ** (i - j) * s[j] for j in range(i + 1)) for i in range(top + 1)]


def bareiss_det(rows) -> int:
    """Determinant of an integer matrix by fraction-free elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def deg_so(m: int) -> int:
    """2^(m-1) det(C(2m - 2i - 2j, m - 2i)) for 1 <= i, j <= m // 2."""
    size = m // 2
    rows = [[comb(2 * m - 2 * i - 2 * j, m - 2 * i) for j in range(1, size + 1)] for i in range(1, size + 1)]
    return 2 ** (m - 1) * bareiss_det(rows)


def in_base_locus(phi) -> bool:
    """Whether phi^T (2M) phi vanishes for the 4x4 rational matrix phi."""
    phi = [[Fraction(x) for x in row] for row in phi]
    m_phi = [[sum(SEGRE_QUADRIC_2M[i][k] * phi[k][j] for k in range(4)) for j in range(4)] for i in range(4)]
    return all(
        sum(phi[k][i] * m_phi[k][j] for k in range(4)) == 0 for i in range(4) for j in range(4)
    )
