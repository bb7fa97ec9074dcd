import random
from fractions import Fraction

import pytest

from predegree import quadric
from predegree.polynomial import deg_po, format_polynomial
from predegree.quadric import (
    BASE_INTERSECTION_CODIM,
    ORBIT_DIM_P3,
    ProjMatrix,
    QuadricGram,
    SEGRE_QUADRIC,
    base_scheme_member,
    doubled_ruling_segre_class,
    point_condition_gradient,
    point_condition_value,
    predegree_quadric_p3,
    sigma1,
    sigma2,
    table1_row,
    table2,
)
from predegree.segre import segre_class_pushforward
from predegree.chow import ProductSpace
from predegree.linalg import flatten, mat_mul, mat_vec, rank
from predegree.tangent import CANONICAL_RANK_ONE, POLARIZATION_POINTS, gradient_span, rank_one_matrix, sigma_normal_form

IDENTITY = ProjMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
E00 = ProjMatrix([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])


def random_fraction(rng):
    return Fraction(rng.randint(-10, 10), rng.randint(1, 10))


def random_point(rng, length):
    while True:
        candidate = tuple(random_fraction(rng) for _ in range(length))
        if any(candidate):
            return candidate


def random_nonzero_pencil(rng):
    while True:
        candidate = (random_point(rng, 4), random_point(rng, 4))
        if any(any(row) for row in candidate):
            return candidate


def test_gram_matrix_is_the_segre_quadric():
    # f(x) = x0 x3 - x1 x2
    assert SEGRE_QUADRIC.value((1, 0, 0, 0)) == 0
    assert SEGRE_QUADRIC.value((1, 0, 0, 1)) == 1
    assert SEGRE_QUADRIC.value((0, 1, 1, 0)) == -1
    assert SEGRE_QUADRIC.value((1, 1, 1, 1)) == 0


def test_gram_validation():
    with pytest.raises(ValueError, match="must be symmetric"):
        QuadricGram([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    # rank 3 with no zero row or column: the second row is 2/3 of the first
    dependent = [
        [Fraction(1, 2), Fraction(1, 3), 0, 1],
        [Fraction(1, 3), Fraction(2, 9), 0, Fraction(2, 3)],
        [0, 0, 1, 0],
        [1, Fraction(2, 3), 0, 3],
    ]
    assert [Fraction(2, 3) * x for x in dependent[0]] == dependent[1]
    for gram in ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]], dependent):
        with pytest.raises(ValueError, match=r"^the quadric must be smooth \(nonzero determinant\)$"):
            QuadricGram(gram)


def test_proj_matrix_validation():
    with pytest.raises(ValueError):
        ProjMatrix([[0] * 4] * 4)
    with pytest.raises(ValueError):
        ProjMatrix([[1, 0], [0, 1]])
    phi = ProjMatrix.from_flat([1] + [0] * 15)
    assert phi == E00
    assert rank(phi.entries) == 1
    assert rank((flatten(phi.entries), flatten(ProjMatrix.from_flat([Fraction(1, 2)] + [0] * 15).entries))) == 1
    assert rank((flatten(phi.entries), flatten(IDENTITY.entries))) != 1


def test_proportional_to_is_exact_for_int_entries():
    # a float scale 1/49 would give (1/49) * 49 == 0.9999999999999999
    ones, scaled = ProjMatrix.from_flat([1] * 16), ProjMatrix.from_flat([49] * 16)
    assert rank((flatten(ones.entries), flatten(scaled.entries))) == 1
    assert rank((flatten(scaled.entries), flatten(ones.entries))) == 1
    assert rank((flatten(ones.entries), flatten(ProjMatrix.from_flat([49] * 15 + [48]).entries))) != 1
    assert rank((flatten(ones.entries), flatten(ProjMatrix.from_flat([0] + [49] * 15).entries))) != 1


def test_point_condition_value_examples():
    assert point_condition_value(IDENTITY, (1, 0, 0, 0)) == 0
    assert point_condition_value(IDENTITY, (1, 0, 0, 1)) == 1
    with pytest.raises(ValueError):
        point_condition_value(IDENTITY, (0, 0, 0, 0))


def test_point_condition_vanishes_on_ruling_images():
    rng = random.Random(5)
    for _ in range(20):
        p, xi = random_point(rng, 2), random_nonzero_pencil(rng)
        q = random_point(rng, 4)
        assert point_condition_value(sigma1(p, xi), q) == 0
        assert point_condition_value(sigma2(p, xi), q) == 0


def test_point_condition_gradient_examples():
    grad = point_condition_gradient(E00, (1, 0, 0, 0))
    expected = tuple(
        tuple(Fraction(1) if (i, j) == (3, 0) else Fraction(0) for j in range(4)) for i in range(4)
    )
    assert grad == expected
    # q in the kernel of a rank-one matrix gives the zero gradient
    zero = point_condition_gradient(E00, (0, 1, 0, 0))
    assert all(x == 0 for row in zero for x in row)


def test_gradient_polarization_identity():
    # s_q(phi + t psi) - s_q(phi) - t^2 s_q(psi) = t < grad, psi > exactly
    rng = random.Random(17)
    for _ in range(20):
        phi = ProjMatrix([random_point(rng, 4) for _ in range(4)])
        psi = ProjMatrix([random_point(rng, 4) for _ in range(4)])
        q = random_point(rng, 4)
        t = random_fraction(rng)
        if t == 0:
            t = Fraction(1)
        mixed = ProjMatrix(
            [
                [a + t * b for a, b in zip(r1, r2)]
                for r1, r2 in zip(phi.entries, psi.entries)
            ]
        )
        lhs = (
            point_condition_value(mixed, q)
            - point_condition_value(phi, q)
            - t * t * point_condition_value(psi, q)
        )
        grad = point_condition_gradient(phi, q)
        pairing = sum(
            g * x for grow, xrow in zip(grad, psi.entries) for g, x in zip(grow, xrow)
        )
        assert lhs == t * pairing


def test_sigma_row_patterns():
    phi = sigma1((1, 0), [[1, 0, 0, 0], [0, 1, 0, 0]])
    assert phi.entries == (
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 0, 0),
        (0, 0, 0, 0),
    )
    phi2 = sigma2((1, 0), [[1, 0, 0, 0], [0, 1, 0, 0]])
    assert phi2.entries == (
        (1, 0, 0, 0),
        (0, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 0, 0),
    )


def test_sigma_rank_matches_pencil_rank():
    rng = random.Random(3)
    from predegree.linalg import rank as mat_rank

    for _ in range(20):
        p, xi = random_point(rng, 2), random_nonzero_pencil(rng)
        assert mat_rank(sigma1(p, xi).entries) == mat_rank(xi)
        assert mat_rank(sigma2(p, xi).entries) == mat_rank(xi)


def test_sigma_rejects_zero_inputs():
    with pytest.raises(ValueError):
        sigma1((0, 0), [[1, 0, 0, 0], [0, 0, 0, 0]])
    with pytest.raises(ValueError):
        sigma2((1, 0), [[0, 0, 0, 0], [0, 0, 0, 0]])


@pytest.mark.parametrize("xi", [[[1, 0, 0], [0, 1, 0]], [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]])
def test_sigma_rejects_a_p7_factor_that_is_not_2x4(xi):
    with pytest.raises(ValueError, match="^expected a 2x4 matrix$"):
        sigma1((1, 0), xi)


def test_base_scheme_membership():
    assert not base_scheme_member(IDENTITY)
    assert base_scheme_member(E00)  # image (1:0:0:0) lies on the quadric
    off_quadric = ProjMatrix([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]])
    assert not base_scheme_member(off_quadric)  # image (1:0:0:1)


def test_ruling_images_are_members():
    rng = random.Random(9)
    for _ in range(20):
        p, xi = random_point(rng, 2), random_nonzero_pencil(rng)
        assert base_scheme_member(sigma1(p, xi))
        assert base_scheme_member(sigma2(p, xi))


def test_membership_matches_point_condition_vanishing():
    # membership means every point condition vanishes; check on the spanning set
    from predegree.tangent import POLARIZATION_POINTS

    rng = random.Random(13)
    for _ in range(10):
        phi = sigma1(random_point(rng, 2), random_nonzero_pencil(rng))
        assert all(point_condition_value(phi, q) == 0 for q in POLARIZATION_POINTS)


def test_predegree_quadric_p3_golden():
    poly = predegree_quadric_p3()
    assert poly.coeffs[: ORBIT_DIM_P3 + 1] == (1, 2, 4, 8, 16, 32, 64, 112, 140, 40)
    assert poly.coeffs[0] == 1
    assert all(c == 0 for c in poly.coeffs[ORBIT_DIM_P3 + 1 :])


def test_predegree_quadric_p3_cross_checks():
    poly = predegree_quadric_p3()
    assert poly.coeffs[9] == deg_po(4)
    assert poly.coeffs[:7] == tuple(2 ** i for i in range(7))
    assert BASE_INTERSECTION_CODIM > ORBIT_DIM_P3


def test_component_classes_are_interchangeable():
    # both ruling components push to the same class, so the doubled class can
    # be assembled from either one or from the sum of the two
    one_component = segre_class_pushforward(ProductSpace((1, 7)))
    assert doubled_ruling_segre_class() == one_component + one_component
    assert doubled_ruling_segre_class() == 2 * one_component
    assert doubled_ruling_segre_class().coefficient((7,)) == 16


@pytest.mark.parametrize(
    "n,space_dim,base_dim",
    [(1, 2, 1), (2, 5, 3), (3, 9, 8), (4, 14, 12)],
)
def test_table1_dimensions(n, space_dim, base_dim):
    row = table1_row(n)
    assert row.quadric_space_dim == space_dim
    assert row.max_base_component_dim == base_dim


def test_table1_polynomials():
    assert table1_row(1).coeffs == (1, 2, 2)
    assert table1_row(2).coeffs == (1, 2, 4, 8, 16, 8)
    assert table1_row(3).coeffs == (1, 2, 4, 8, 16, 32, 64, 112, 140, 40)
    row4 = table1_row(4)
    assert row4.coeffs[:12] == tuple(2 ** i for i in range(12))
    assert row4.coeffs[12] is None and row4.coeffs[13] is None
    assert row4.coeffs[14] == 384
    assert format_polynomial(row4.coeffs).endswith("*t^12 + *t^13 + 384t^14")
    with pytest.raises(ValueError):
        table1_row(0)


def test_table1_row_keeps_an_int_n():
    row = table1_row(True)
    assert type(row.n) is int
    assert row == table1_row(1)


def test_table2_counts():
    rows = table2()
    assert rows == [
        (0, 1),
        (1, 2),
        (2, 4),
        (3, 8),
        (4, 16),
        (5, 32),
        (6, 64),
        (7, 112),
        (8, 140),
        (9, 1),
    ]
    # the top row divides the top coefficient by the stabilizer degree
    assert rows[9][1] == predegree_quadric_p3().coeffs[9] // deg_po(4)


def test_predegree_quadric_p3_checks_truncation_inequality(monkeypatch):
    monkeypatch.setattr(quadric, "BASE_INTERSECTION_CODIM", ORBIT_DIM_P3)
    with pytest.raises(ArithmeticError):
        predegree_quadric_p3()


def test_int_inputs_give_int_gradients():
    rng = random.Random(61)
    for _ in range(20):
        phi = ProjMatrix([[rng.randint(-9, 9) for _ in range(4)] for _ in range(3)] + [[1, 0, 0, 0]])
        q = tuple(rng.randint(-9, 9) for _ in range(3)) + (1,)
        assert all(type(x) is int for x in SEGRE_QUADRIC.gradient(q))
        assert all(type(x) is int for row in point_condition_gradient(phi, q) for x in row)
    assert all(type(x) is int for row in SEGRE_QUADRIC.polar for x in row)


def test_membership_matches_point_condition_vanishing_on_random_matrices():
    # members from both rulings and generic non-members, all with Fraction entries
    from predegree.tangent import POLARIZATION_POINTS

    rng = random.Random(67)
    outcomes = set()
    for index in range(30):
        if index % 3 == 2:
            phi = ProjMatrix([random_point(rng, 4) for _ in range(4)])
        else:
            phi = (sigma1, sigma2)[index % 3](random_point(rng, 2), random_nonzero_pencil(rng))
        member = base_scheme_member(phi)
        assert member == all(point_condition_value(phi, q) == 0 for q in POLARIZATION_POINTS)
        outcomes.add(member)
    assert outcomes == {True, False}


def test_value_reads_the_polar_matrix():
    assert type(SEGRE_QUADRIC.value((1, 1, 1, 1))) is int
    assert type(point_condition_value(IDENTITY, (1, 0, 0, 1))) is int
    rng = random.Random(71)
    for _ in range(20):
        m = [[random_fraction(rng) for _ in range(4)] for _ in range(4)]
        gram = [[m[i][j] + m[j][i] for j in range(4)] for i in range(4)]
        if rank(gram) < 4:
            continue
        x = random_point(rng, 4)
        expected = sum(gram[i][j] * x[i] * x[j] for i in range(4) for j in range(4))
        assert QuadricGram(gram).value(x) == expected
    half = QuadricGram([[Fraction(1, 2), 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert half.value((1, 0, 0, 0)) == Fraction(1, 2)


@pytest.mark.parametrize("point", [(1, 0, 0), (1, 0, 0, 0, 0), (0, 0, 0, 0)])
def test_point_conditions_need_a_point_of_p3(point):
    with pytest.raises(ValueError, match=r"is not a point of P\^3"):
        point_condition_value(IDENTITY, point)
    with pytest.raises(ValueError, match=r"is not a point of P\^3"):
        point_condition_gradient(IDENTITY, point)


# -- the identities for a second smooth quadric --------------------------------

# x0^2 - x1^2 + x2^2 - x3^2, and a change of coordinates B with f'(B y) = 4 (y0*y3 - y1*y2):
# B times a base point of the Segre quadric is a base point of f'.
SPLIT_DIAGONAL = QuadricGram([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]])
TO_SPLIT_DIAGONAL = ((1, 0, 0, 1), (-1, 0, 0, 1), (0, -1, 1, 0), (0, 1, 1, 0))


def to_split_diagonal(phi):
    return ProjMatrix(mat_mul(TO_SPLIT_DIAGONAL, phi.entries))


def test_second_gram_is_the_segre_quadric_in_other_coordinates():
    rng = random.Random(73)
    for _ in range(20):
        y = random_point(rng, 4)
        assert SPLIT_DIAGONAL.value(mat_vec(TO_SPLIT_DIAGONAL, y)) == 4 * SEGRE_QUADRIC.value(y)
    assert point_condition_value(IDENTITY, (1, 0, 0, 0), SPLIT_DIAGONAL) == 1
    assert point_condition_value(IDENTITY, (1, 0, 0, 0)) == 0


def test_gradient_polarization_identity_for_a_second_gram():
    rng = random.Random(79)
    for _ in range(20):
        phi = ProjMatrix([random_point(rng, 4) for _ in range(4)])
        psi = ProjMatrix([random_point(rng, 4) for _ in range(4)])
        q = random_point(rng, 4)
        t = random_fraction(rng) or Fraction(1)
        mixed = ProjMatrix([[a + t * b for a, b in zip(r1, r2)] for r1, r2 in zip(phi.entries, psi.entries)])
        lhs = (
            point_condition_value(mixed, q, SPLIT_DIAGONAL)
            - point_condition_value(phi, q, SPLIT_DIAGONAL)
            - t * t * point_condition_value(psi, q, SPLIT_DIAGONAL)
        )
        grad = point_condition_gradient(phi, q, SPLIT_DIAGONAL)
        assert lhs == t * sum(g * x for grow, xrow in zip(grad, psi.entries) for g, x in zip(grow, xrow))


def test_membership_matches_point_condition_vanishing_for_a_second_gram():
    rng = random.Random(83)
    for index in range(30):
        if index % 3 == 2:
            phi = ProjMatrix([random_point(rng, 4) for _ in range(4)])
        else:
            phi = to_split_diagonal((sigma1, sigma2)[index % 3](random_point(rng, 2), random_nonzero_pencil(rng)))
        member = base_scheme_member(phi, SPLIT_DIAGONAL)
        assert member == all(point_condition_value(phi, q, SPLIT_DIAGONAL) == 0 for q in POLARIZATION_POINTS)
        assert member == (index % 3 != 2)
    assert not base_scheme_member(to_split_diagonal(IDENTITY), SPLIT_DIAGONAL)


def test_gradient_span_identities_for_a_second_gram():
    # the ten polarization points span every gradient, and the span sizes of the strata do not
    # depend on the coordinates: 4 at rank one, 7 at rank two, 10 at an invertible matrix
    rng = random.Random(89)
    strata = [(rank_one_matrix(*CANONICAL_RANK_ONE), 4), (sigma_normal_form(), 7), (IDENTITY, 10)]
    for segre_point, dim in strata:
        phi = to_split_diagonal(segre_point)
        span = gradient_span(phi, SPLIT_DIAGONAL)
        assert span.dim() == dim
        assert span != gradient_span(phi)
        for _ in range(5):
            gradient = point_condition_gradient(phi, random_point(rng, 4), SPLIT_DIAGONAL)
            assert span.contains(flatten(gradient))


def test_table2_checks_the_stabilizer_degree_divides_the_top_coefficient(monkeypatch):
    monkeypatch.setattr(quadric, "deg_po", lambda m: 39)
    with pytest.raises(ArithmeticError, match="not a multiple"):
        table2()
