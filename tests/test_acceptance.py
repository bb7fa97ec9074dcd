"""Acceptance suite: one test per release criterion, all exact (tolerance 0).

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import random
from fractions import Fraction
from itertools import accumulate, product
from math import factorial, prod

from predegree import cli
from predegree.chow import ChowClass, ProductSpace
from predegree.polynomial import deg_po, deg_so, predegree_coefficient, predegree_from_segre
from predegree.quadric import ProjMatrix, base_scheme_member, doubled_ruling_segre_class, sigma1, sigma2, table1_row, table2
from predegree.segre import normal_inverse_chern, segre_class_pushforward
from predegree.tangent import (
    CANONICAL_INTERSECTION,
    CANONICAL_RANK_ONE,
    gradient_span,
    random_projective_point,
    rank_one_matrix,
    rank_two_expected_span,
    sigma_normal_form,
    verify_gradient_rank,
    verify_tangent_intersection,
)

P15 = ProductSpace((15,))
P1x7 = ProductSpace((1, 7))


def report(number, description):
    print(f"ACCEPTANCE {number} PASS: {description}")


def test_criterion_01_quadric_polynomial_golden(capsys):
    code = cli.main(["predegree", "quadric", "--n", "3", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    import json

    coeffs = json.loads(out)["result"]["coefficients"]
    assert coeffs == [1, 2, 4, 8, 16, 32, 64, 112, 140, 40]
    with capsys.disabled():
        report(1, "predegree quadric --n 3 emits (1, 2, 4, 8, 16, 32, 64, 112, 140, 40)")


def test_criterion_02_segre_class_golden():
    result = segre_class_pushforward(P1x7)
    expected = {
        (7,): 8,
        (8,): -70,
        (9,): 344,
        (10,): -1248,
        (11,): 3720,
        (12,): -9636,
        (13,): 22440,
        (14,): -48048,
        (15,): 96096,
    }
    assert {e: int(c) for e, c in result.terms.items()} == expected
    report(2, "Segre class of the embedded P^1 x P^7 matches all nine coefficients")


def test_criterion_03_normal_inverse_expansion():
    result = normal_inverse_chern(P1x7)
    order = [
        (0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2), (0, 3), (1, 3),
        (0, 4), (1, 4), (0, 5), (1, 5), (0, 6), (1, 6), (0, 7), (1, 7),
    ]
    coefficients = [int(result.coefficient(e)) for e in order]
    assert coefficients == [
        1, -14, -8, 128, 36, -648, -120, 2400,
        330, -7260, -792, 19008, 1716, -44616, -3432, 96096,
    ]
    report(3, "inverse normal Chern class on P^1 x P^7 matches all sixteen coefficients")


def test_criterion_04_group_degrees():
    assert [deg_so(m) for m in (2, 3, 4, 5)] == [2, 8, 40, 384]
    assert all(deg_po(m) == deg_so(m) for m in (2, 3, 4, 5))
    report(4, "deg SO = 2, 8, 40, 384 for m = 2..5 and deg PO = deg SO")


def positive_roots(m):
    """Positive roots of SO(m): e_i and e_i +- e_j (type B, odd m), e_i +- e_j (type D, even m)."""
    r = m // 2
    unit = [[int(j == i) for j in range(r)] for i in range(r)]
    roots = list(unit) if m % 2 else []
    for i in range(r):
        for j in range(i + 1, r):
            roots.append([a - b for a, b in zip(unit[i], unit[j])])
            roots.append([a + b for a, b in zip(unit[i], unit[j])])
    return roots


def kazarnovskii_deg_so(m):
    """deg SO(m) as Kazarnovskii's polytope integral, independent of the determinant.

    deg SO(m) = d! * integral of prod_alpha (<x, alpha> / <rho, alpha>)^2 over
    x_1 >= ... >= x_r >= 0, sum x <= 1, with d = m(m-1)/2 and r = m // 2, doubled
    for even m (the type D chamber has both signs of x_r).  In u_j = x_j - x_{j+1}
    the region is u >= 0, sum j u_j <= 1, <x, alpha> has u_k-coefficient
    alpha_1 + ... + alpha_k, and the integral of u^a is
    prod a_j! / ((|a| + r)! prod j^(a_j + 1)).
    """
    r = m // 2
    rho = [Fraction(2 * (r - i) - 1, 2) if m % 2 else r - 1 - i for i in range(r)]
    poly = {(0,) * r: Fraction(1)}
    for alpha in positive_roots(m):
        weight = sum(a * b for a, b in zip(rho, alpha))
        form = [Fraction(c) / weight for c in accumulate(alpha)]
        for _ in range(2):
            product = {}
            for exps, c in poly.items():
                for k, f in enumerate(form):
                    if f:
                        key = exps[:k] + (exps[k] + 1,) + exps[k + 1 :]
                        product[key] = product.get(key, 0) + c * f
            poly = product
    integral = sum(
        c * prod(map(factorial, exps))
        / (factorial(sum(exps) + r) * prod(j ** (a + 1) for j, a in enumerate(exps, 1)))
        for exps, c in poly.items()
    )
    return factorial(m * (m - 1) // 2) * integral * (1 if m % 2 else 2)


def test_criterion_04_group_degrees_by_polytope_integral():
    # a second derivation of deg SO(m), next to the determinant formula
    assert [kazarnovskii_deg_so(m) for m in range(2, 10)] == [deg_so(m) for m in range(2, 10)]
    report(4, "deg SO(m) for m = 2..9 equals Kazarnovskii's polytope integral")


def test_criterion_05_table1_columns():
    expected = {1: (2, 1, 1), 2: (5, 3, 4), 3: (9, 8, 6), 4: (14, 12, 11)}
    for n, (space_dim, base_dim, doubling_limit) in expected.items():
        row = table1_row(n)
        assert row.quadric_space_dim == space_dim
        assert row.max_base_component_dim == base_dim
        for i in range(doubling_limit + 1):
            assert row.coeffs[i] == 2 ** i
    report(5, "dimension columns (2,1), (5,3), (9,8), (14,12) and doubling prefixes up to 1, 4, 6, 11")


def test_criterion_06_table2():
    assert [count for _, count in table2()] == [1, 2, 4, 8, 16, 32, 64, 112, 140, 1]
    report(6, "translate counts (1, 2, 4, 8, 16, 32, 64, 112, 140, 1)")


def test_criterion_07_bezout_property():
    for i in range(16):
        assert predegree_coefficient(15, 2, ChowClass.zero(P15), i) == 2 ** i
    report(7, "empty base class gives coefficients 2^i for i = 0..15")


def test_criterion_08_truncation_insensitivity():
    rng = random.Random(886)
    S = doubled_ruling_segre_class()
    for i in range(10):
        base = predegree_coefficient(15, 2, S, i)
        for _ in range(100):
            terms = {}
            for codim in range(i + 1, 16):
                if rng.random() < 0.7:
                    terms[(codim,)] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            tail = ChowClass(P15, terms)
            assert predegree_coefficient(15, 2, S + tail, i) == base
    report(8, "coefficients a_0..a_9 unchanged by 100 random tails per index")


def test_criterion_09_independent_oracle():
    pushed = segre_class_pushforward(ProductSpace((1, 1)))
    P3 = ProductSpace((3,))
    h = ChowClass.hyperplane(P3)
    assert pushed == 2 * h - 4 * h ** 2 + 8 * h ** 3
    # hypersurface route, using ring operations only
    oracle = (ChowClass.one(P3) + 2 * h).invert_unit() * (2 * h)
    assert oracle == pushed
    report(9, "embedded P^1 x P^1 class equals the degree-2 hypersurface oracle")


def test_criterion_10_tangent_suite():
    assert verify_gradient_rank(*CANONICAL_RANK_ONE)
    rng = random.Random(886)
    for _ in range(20):
        point = (
            random_projective_point(rng, 2),
            random_projective_point(rng, 2),
            random_projective_point(rng, 4),
        )
        assert verify_gradient_rank(*point)
        assert gradient_span(rank_one_matrix(*point)).dim() == 4
    normal_span = gradient_span(sigma_normal_form())
    assert normal_span.dim() == 7
    assert normal_span == rank_two_expected_span()
    assert verify_tangent_intersection(*CANONICAL_INTERSECTION)
    for _ in range(20):
        assert verify_tangent_intersection(
            random_projective_point(rng, 2),
            random_projective_point(rng, 2),
            random_projective_point(rng, 4),
        )
    report(10, "gradient rank 4 at 21 rank-one points, rank 7 with matching generators at the rank-two normal form, tangent intersection at 21 points")


def test_criterion_11_membership_property():
    rng = random.Random(886)
    for _ in range(100):
        p = random_projective_point(rng, 2)
        xi = (random_projective_point(rng, 4), random_projective_point(rng, 4))
        assert base_scheme_member(sigma1(p, xi))
        assert base_scheme_member(sigma2(p, xi))
    identity = ProjMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert not base_scheme_member(identity)
    report(11, "both parameterizations land in the base locus for 100 seeded samples; the identity does not")


def power_series(numerator_weights, denominator_weights, top):
    """Coefficients of t^0..t^top in prod(1 + w t) / prod(1 + w' t), as integers."""
    series = [1] + [0] * top
    for w in numerator_weights:
        for m in range(top, 0, -1):
            series[m] += w * series[m - 1]
    for w in denominator_weights:
        for m in range(1, top + 1):
            series[m] -= w * series[m - 1]
    return series


def localized_segre_sums(seed):
    """s_0..s_15 of the base locus of the P^3 quadric by the torus fixed-point sum, n = 3.

    Z~ = P(Hom(C^4, S)) over OG(2, 4), S the tautological subbundle, maps to
    P^15 = P(Hom(C^4, C^4)) onto both ruling components.  The torus acts on E_ab
    with weight w_ab = lam_a - mu_b, lam_(3-a) = -lam_a, so that it preserves
    q = x0 x3 + x1 x2.  The fixed points of Z~ are the isotropic coordinate planes
    L (one index of {0, 3} and one of {1, 2}) times the E_ij with i in L; there
    T Z~ has the weight -lam_a - lam_b of Lambda^2 S^* (L = {a, b}) and the fiber
    weights w_ab - w_ij over L x [0, 3], and T P^15 has w_ab - w_ij over all
    (a, b), both without (a, b) = (i, j).  H restricts to -w_ij, and s_c is the sum over fixed points
    of (-w_ij)^(15 - c) [c(T Z~) / c(T P^15)]_(dim Z~ - 15 + c) / e(T Z~).
    """
    rng = random.Random(seed)
    lam0, lam1 = (rng.randint(-1000, 1000) for _ in range(2))
    lam = (lam0, lam1, -lam1, -lam0)
    mu = [rng.randint(-1000, 1000) for _ in range(4)]
    w = {(a, b): lam[a] - mu[b] for a in range(4) for b in range(4)}
    ambient_dim, z_dim = 15, 8
    sums = [Fraction(0)] * (ambient_dim + 1)
    for plane in product((0, 3), (1, 2)):
        for i, j in product(plane, range(4)):
            fiber = [w[a, b] - w[i, j] for a, b in product(plane, range(4)) if (a, b) != (i, j)]
            tangent = [-lam[plane[0]] - lam[plane[1]], *fiber]
            ambient = [w[e] - w[i, j] for e in w if e != (i, j)]
            series = power_series(tangent, ambient, z_dim)
            for c in range(ambient_dim - z_dim, ambient_dim + 1):
                sums[c] += Fraction((-w[i, j]) ** (ambient_dim - c) * series[z_dim - ambient_dim + c], prod(tangent))
    return sums


def test_criterion_12_segre_class_by_torus_localization():
    # a second derivation of the whole P^3 polynomial, independent of the Segre pushforward
    sums = localized_segre_sums(seed=1)
    assert localized_segre_sums(seed=2) == sums
    assert all(s.denominator == 1 for s in sums)
    assert sums == [doubled_ruling_segre_class().coefficient((c,)) for c in range(16)]
    localized = ChowClass(P15, {(c,): s for c, s in enumerate(sums) if s})
    coeffs = predegree_from_segre(15, 2, localized, 9).coeffs
    assert coeffs == (1, 2, 4, 8, 16, 32, 64, 112, 140, 40) + (0,) * 6
    report(12, "the torus fixed-point sum over 32 points gives the doubled Segre class and the ten golden coefficients")
