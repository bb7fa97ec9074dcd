import random
import re
from enum import IntEnum
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predegree.chow import ChowClass, ProductSpace
from predegree.polynomial import (
    IntegralityError,
    PredegreePolynomial,
    chern_character_form,
    deg_po,
    deg_so,
    fano_dim,
    format_polynomial,
    max_component_dim,
    predegree_coefficient,
    predegree_from_segre,
    tensor_class,
)
from predegree.quadric import doubled_ruling_segre_class
from predegree.quadric import table1_row

P15 = ProductSpace((15,))


def H(power=1):
    return ChowClass.hyperplane(P15) ** power


def empty(n):
    return ChowClass.zero(ProductSpace((n,)))


def test_tensor_class_fixes_codim_zero():
    one = ChowClass.one(P15)
    assert tensor_class(one, -2) == one
    assert tensor_class(one, 5) == one


def test_tensor_class_single_graded_piece():
    cls = 16 * H(7)
    expected = 16 * H(7) * ((1 - 2 * H()).invert_unit() ** 7)
    assert tensor_class(cls, -2) == expected


def test_tensor_class_needs_single_factor():
    with pytest.raises(ValueError):
        tensor_class(ChowClass.one(ProductSpace((1, 7))), -2)


def test_tensor_convention_reproduces_known_coefficients():
    # the coefficients 112, 140, 40 are sensitive to the twist convention,
    # so they pin it down
    S = doubled_ruling_segre_class()
    assert predegree_coefficient(15, 2, S, 7) == 112
    assert predegree_coefficient(15, 2, S, 8) == 140
    assert predegree_coefficient(15, 2, S, 9) == 40


def test_coefficient_with_empty_class_is_power_of_degree():
    for i in range(16):
        assert predegree_coefficient(15, 2, empty(15), i) == 2 ** i
    zero = ChowClass.zero(P15)
    for i in (0, 5, 15):
        assert predegree_coefficient(15, 2, zero, i) == 2 ** i


def test_coefficient_index_range():
    with pytest.raises(ValueError):
        predegree_coefficient(15, 2, empty(15), 16)
    with pytest.raises(ValueError):
        predegree_coefficient(15, 2, empty(15), -1)


def test_coefficient_ambient_mismatch():
    cls = ChowClass.one(ProductSpace((8,)))
    with pytest.raises(ValueError):
        predegree_coefficient(15, 2, cls, 3)


@pytest.mark.parametrize("space", [ProductSpace((8,)), ProductSpace((1, 7))])
def test_zero_class_on_wrong_space_is_rejected(space):
    zero = ChowClass.zero(space)
    with pytest.raises(ValueError, match="same projective space"):
        predegree_coefficient(15, 2, zero, 3)
    with pytest.raises(ValueError, match="same projective space"):
        predegree_from_segre(15, 2, zero, 9)


def test_coefficient_integrality_failure_signals_bad_class():
    bad = Fraction(1, 3) * H(2)
    with pytest.raises(IntegralityError):
        predegree_coefficient(15, 2, bad, 2)


def random_tail_class(rng, min_codim):
    terms = {}
    for c in range(min_codim, 16):
        if rng.random() < 0.7:
            terms[(c,)] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return ChowClass(P15, terms)


def test_truncation_insensitivity_sample():
    rng = random.Random(20260808)
    S = doubled_ruling_segre_class()
    for i in range(10):
        base = predegree_coefficient(15, 2, S, i)
        for _ in range(10):
            T = random_tail_class(rng, i + 1)
            assert predegree_coefficient(15, 2, S + T, i) == base


def test_bezout_from_truncated_class():
    # a class supported purely above codimension i contributes nothing to a_i
    rng = random.Random(11)
    for i in (0, 3, 7, 11):
        T = random_tail_class(rng, i + 1)
        assert predegree_coefficient(15, 2, T, i) == 2 ** i
    # same with the quadric pipeline class truncated to its high tail
    S = doubled_ruling_segre_class()
    for i in (7, 8, 9):
        tail = sum(
            (S.codim_part(j) for j in S.codimensions() if j > i), ChowClass.zero(P15)
        )
        assert predegree_coefficient(15, 2, tail, i) == 2 ** i


def test_general_degree_supported():
    for d in (1, 3, 5):
        for i in (0, 1, 4, 9):
            assert predegree_coefficient(15, d, empty(15), i) == d ** i
    cls = 6 * H(4)
    assert tensor_class(cls, -3) == 6 * H(4) * ((1 - 3 * H()).invert_unit() ** 4)


def test_predegree_from_segre_quadric_inputs():
    poly = predegree_from_segre(15, 2, doubled_ruling_segre_class(), 9)
    assert poly.coeffs[:10] == (1, 2, 4, 8, 16, 32, 64, 112, 140, 40)
    assert poly.coeffs[10:] == (0,) * 6
    assert poly.ambient_dim == 3


def test_predegree_from_segre_bezout():
    poly = predegree_from_segre(15, 2, empty(15), 15)
    assert poly.coeffs == tuple(2 ** i for i in range(16))


def test_predegree_from_segre_zero_orbit():
    poly = predegree_from_segre(15, 2, empty(15), 0)
    assert poly.coeffs == (1,) + (0,) * 15


def test_predegree_from_segre_validation():
    with pytest.raises(ValueError):
        predegree_from_segre(15, 2, empty(15), 16)
    with pytest.raises(ValueError):
        predegree_from_segre(14, 2, empty(14), 5)  # 14 is not n^2 + 2n


@pytest.mark.parametrize("d", [0, -2])
def test_coefficient_needs_positive_degree(d):
    # a_i counts translates; d^i would read 0 or a negative "count" here
    with pytest.raises(ValueError, match="degree d"):
        predegree_coefficient(15, d, doubled_ruling_segre_class(), 3)
    with pytest.raises(ValueError, match="degree d"):
        predegree_coefficient(15, d, empty(15), 3)


@pytest.mark.parametrize("d", [0, -2])
def test_predegree_from_segre_needs_positive_degree(d):
    with pytest.raises(ValueError, match="degree d"):
        predegree_from_segre(15, d, doubled_ruling_segre_class(), 9)
    with pytest.raises(ValueError, match="degree d"):
        predegree_from_segre(15, d, empty(15), 0)


def test_polynomial_type_validation():
    with pytest.raises(ValueError):
        PredegreePolynomial(3, (1,) * 10)  # wrong length
    with pytest.raises(ValueError):
        PredegreePolynomial(1, (1, 2, -1, 0))
    poly = PredegreePolynomial(1, (1, 2, 2, 0))
    assert len(poly.coeffs) - 1 == 3
    assert poly.degree() == 2
    assert poly.as_string() == "1 + 2t + 2t^2"
    # zero coefficients are skipped, and the zero polynomial prints as 0
    assert PredegreePolynomial(1, (1, 0, 3, 0)).as_string() == "1 + 3t^2"
    assert PredegreePolynomial(1, (0, 0, 0, 0)).as_string() == "0"


class Count(IntEnum):
    THREE = 3


@pytest.mark.parametrize("coeffs", [(1, 2.7, Fraction(7, 2), 0), (1, 2, 2.0, 0), (1, Fraction(2), 2, 0)])
def test_non_integral_polynomial_coefficients_raise(coeffs):
    with pytest.raises(TypeError):
        PredegreePolynomial(1, coeffs)


def test_int_like_polynomial_coefficients_are_coerced():
    poly = PredegreePolynomial(1, (True, 2, Count.THREE, 0))
    assert poly.coeffs == (1, 2, 3, 0)
    assert all(type(c) is int for c in poly.coeffs)


@pytest.mark.parametrize("twist", [0.5, 2.0, Fraction(1)])
def test_tensor_class_needs_an_integer_twist(twist):
    with pytest.raises(TypeError):
        tensor_class(H(2), twist)


def test_format_polynomial_sentinel():
    assert format_polynomial((1, 2, None, 8)) == "1 + 2t + *t^2 + 8t^3"
    assert format_polynomial((0, 0)) == "0"
    assert format_polynomial((1, 1, 1)) == "1 + t + t^2"
    assert format_polynomial((None, 1)) == "* + t"
    assert format_polynomial((0, 1, 0, 2)) == "t + 2t^3"
    assert format_polynomial((0, None)) == "*t"
    assert format_polynomial(()) == "0"


def test_chern_character_form():
    poly = predegree_from_segre(15, 2, doubled_ruling_segre_class(), 9)
    ch = chern_character_form(poly)
    assert ch[0] == 1
    assert ch[1] == 2
    assert ch[2] == 2
    assert ch[3] == Fraction(8, 6)
    assert ch[9] == Fraction(40, factorial(9)) == Fraction(1, 9072)
    # multiplying back by i! recovers the coefficients exactly
    assert tuple(c * factorial(i) for i, c in enumerate(ch)) == poly.coeffs


def test_chern_character_zero():
    poly = PredegreePolynomial(1, (0, 0, 0, 0))
    assert chern_character_form(poly) == (0, 0, 0, 0)


@pytest.mark.parametrize("m,expected", [(2, 2), (3, 8), (4, 40), (5, 384)])
def test_deg_so_values(m, expected):
    assert deg_so(m) == expected
    assert deg_po(m) == expected


def test_deg_so_requires_m_at_least_two():
    with pytest.raises(ValueError):
        deg_so(1)


def det_reference(rows):
    """Bareiss elimination with exact Fraction division."""
    m = [list(map(Fraction, r)) for r in rows]
    n = len(m)
    sign, prev = 1, Fraction(1)
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return Fraction(0)
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else Fraction(1)


@pytest.mark.parametrize("m", range(2, 61))
def test_deg_so_equals_determinant_formula(m):
    # the recurrence against a direct determinant of (C(2m - 2i - 2j, m - 2i)), both parities of m
    size = m // 2
    matrix = [[comb(2 * m - 2 * i - 2 * j, m - 2 * i) for j in range(1, size + 1)] for i in range(1, size + 1)]
    assert deg_so(m) == 2 ** (m - 1) * det_reference(matrix)


def test_deg_so_positive_and_deg_po_even():
    for m in range(2, 9):
        value = deg_so(m)
        assert value > 0
        if m >= 3:
            assert deg_po(m) % 2 == 0


@pytest.mark.parametrize("n,k,expected", [(3, 1, 1), (3, 0, 2), (1, 0, 0), (4, 1, 3), (5, 2, 3)])
def test_fano_dim(n, k, expected):
    assert fano_dim(n, k) == expected


def test_fano_dim_range():
    with pytest.raises(ValueError):
        fano_dim(3, 2)
    with pytest.raises(ValueError):
        fano_dim(3, -1)
    with pytest.raises(ValueError):
        fano_dim(0, 0)


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 3), (3, 8), (4, 12)])
def test_max_component_dim(n, expected):
    assert max_component_dim(n) == expected


def test_max_component_dim_consistency_with_pipeline():
    # codimension of the largest base component for n = 3 is 15 - 8 = 7, so
    # the doubling coefficients hold exactly up to degree 6
    assert 15 - max_component_dim(3) == 7
    poly = predegree_from_segre(15, 2, doubled_ruling_segre_class(), 9)
    assert poly.coeffs[:7] == tuple(2 ** i for i in range(7))


# -- closed forms against the generic Chow-ring route ------------------------


def twist_reference(cls, twist):
    """The codimension-j piece times (1 + twist*H)^{-j}, by generic inversion."""
    inverse = (1 + twist * ChowClass.hyperplane(cls.ambient)).invert_unit()
    pieces = (cls.codim_part(j) * inverse ** j for j in cls.codimensions())
    return sum(pieces, ChowClass.zero(cls.ambient))


def coefficient_reference(cls, d, i):
    """deg H^{N-i} (1 - dH)^{-1} ([P^N] - S twisted by O(-d)), unrounded."""
    h = ChowClass.hyperplane(cls.ambient)
    n_total = cls.ambient.total_dim
    bracket = 1 - twist_reference(cls, -d)
    return (h ** (n_total - i) * (1 - d * h).invert_unit() * bracket).integrate()


def projective_classes(dims, integers=st.integers(-99, 99)):
    coeffs = st.one_of(integers, st.fractions(min_value=-10, max_value=10, max_denominator=4))

    def classes_on(n_total):
        exponents = st.integers(0, n_total).map(lambda j: (j,))
        terms = st.dictionaries(exponents, coeffs, min_size=1, max_size=8)
        return terms.map(lambda t: ChowClass(ProductSpace((n_total,)), t))

    return dims.flatmap(classes_on)


@settings(max_examples=60, deadline=None)
@given(projective_classes(st.integers(0, 15)), st.integers(-4, 4))
def test_tensor_class_matches_generic_inversion(cls, twist):
    assert tensor_class(cls, twist) == twist_reference(cls, twist)


@settings(max_examples=60, deadline=None)
@given(projective_classes(st.integers(0, 15)), st.integers(1, 4), st.data())
def test_coefficient_matches_generic_inversion(cls, d, data):
    n_total = cls.ambient.total_dim
    i = data.draw(st.integers(0, n_total))
    expected = coefficient_reference(cls, d, i)
    if expected.denominator != 1:
        message = re.escape(f"a_{i} evaluated to the non-integer {expected}")
        with pytest.raises(IntegralityError, match=message):
            predegree_coefficient(n_total, d, cls, i)
    else:
        assert predegree_coefficient(n_total, d, cls, i) == expected


# Mostly non-positive integer s_j keep many polynomials non-negative.
@settings(max_examples=40, deadline=None)
@given(
    projective_classes(st.sampled_from([3, 8, 15]), st.integers(-9, 1)), st.integers(1, 4), st.data()
)
def test_polynomial_matches_generic_inversion(cls, d, data):
    n_total = cls.ambient.total_dim
    orbit_dim = data.draw(st.integers(0, n_total))
    expected = [coefficient_reference(cls, d, i) for i in range(orbit_dim + 1)]
    fractional = [i for i, value in enumerate(expected) if value.denominator != 1]
    if fractional:
        i = fractional[0]
        message = re.escape(f"a_{i} evaluated to the non-integer {expected[i]}")
        with pytest.raises(IntegralityError, match=message):
            predegree_from_segre(n_total, d, cls, orbit_dim)
    elif any(value < 0 for value in expected):
        with pytest.raises(ValueError, match="negative"):
            predegree_from_segre(n_total, d, cls, orbit_dim)
    else:
        poly = predegree_from_segre(n_total, d, cls, orbit_dim)
        assert poly.coeffs == tuple(expected) + (0,) * (n_total - orbit_dim)


# Mostly non-positive s_j on P^N, N = n^2 + 2n, keep many coefficients non-negative.
def target_classes(coeffs):
    return st.sampled_from([3, 8, 15]).flatmap(
        lambda n: st.dictionaries(st.integers(0, n).map(lambda j: (j,)), coeffs, min_size=1, max_size=8).map(
            lambda terms: ChowClass(ProductSpace((n,)), terms)
        )
    )


integer_classes = target_classes(st.integers(-9, 1))
mixed_classes = target_classes(st.one_of(st.integers(-9, 1), st.fractions(-9, 1, max_denominator=4)))


def coefficient_or_error(cls, d, i):
    try:
        return predegree_coefficient(cls.ambient.total_dim, d, cls, i)
    except IntegralityError as error:
        return str(error)


def polynomial_or_error(cls, d, orbit_dim):
    try:
        return predegree_from_segre(cls.ambient.total_dim, d, cls, orbit_dim).coeffs
    except (IntegralityError, ValueError) as error:
        return type(error).__name__, str(error)


@settings(max_examples=60, deadline=None)
@given(
    projective_classes(st.one_of(st.sampled_from([3, 8, 15]), st.integers(0, 15))),
    st.integers(1, 4),
    st.randoms(use_true_random=False),
)
def test_coefficients_do_not_depend_on_term_order(cls, d, rng):
    items = list(cls.terms.items())
    rng.shuffle(items)
    orders = [ChowClass(cls.ambient, dict(items)), ChowClass(cls.ambient, dict(sorted(items, reverse=True)))]
    n_total = cls.ambient.total_dim
    for i in range(n_total + 1):
        expected = coefficient_or_error(cls, d, i)
        assert all(coefficient_or_error(other, d, i) == expected for other in orders)
        if n_total in (3, 8, 15):
            expected = polynomial_or_error(cls, d, i)
            assert all(polynomial_or_error(other, d, i) == expected for other in orders)


def test_fraction_class_raises_at_its_first_non_integral_index():
    # a_1 = 2 - 2 and a_2 = 4 - 2*2*2 are integers; a_3 = 8 - 3*4*2 - 1/3 is not.
    cls = ChowClass(P15, {(3,): Fraction(1, 3), (1,): Fraction(2)})
    assert [predegree_coefficient(15, 2, cls, i) for i in range(3)] == [1, 0, -4]
    assert all(type(predegree_coefficient(15, 2, cls, i)) is int for i in range(3))
    for call in (lambda: predegree_coefficient(15, 2, cls, 3), lambda: predegree_from_segre(15, 2, cls, 9)):
        with pytest.raises(IntegralityError, match=re.escape("coefficient a_3 evaluated to the non-integer -49/3")):
            call()


@settings(max_examples=60, deadline=None)
@given(st.one_of(integer_classes, mixed_classes), st.integers(1, 4))
def test_polynomial_coefficients_are_the_single_coefficients(cls, d):
    n_total = cls.ambient.total_dim
    single = [coefficient_or_error(cls, d, i) for i in range(n_total + 1)]
    for orbit_dim in range(n_total + 1):
        prefix = single[: orbit_dim + 1]
        # The whole prefix is checked for integrality before any sign.
        error = next((value for value in prefix if isinstance(value, str)), None)
        if error is not None:
            assert polynomial_or_error(cls, d, orbit_dim) == ("IntegralityError", error)
        elif min(prefix) < 0:
            with pytest.raises(ValueError, match="negative"):
                predegree_from_segre(n_total, d, cls, orbit_dim)
        else:
            poly = predegree_from_segre(n_total, d, cls, orbit_dim)
            assert poly.coeffs[: orbit_dim + 1] == tuple(prefix)
            assert all(type(c) is int for c in poly.coeffs)


@pytest.mark.parametrize("ambient_dim", [1.0, 1.5, Fraction(1)])
def test_non_index_ambient_dim_raises(ambient_dim):
    with pytest.raises(TypeError):
        PredegreePolynomial(ambient_dim, (1, 2, 2, 0))


def test_int_like_ambient_dim_is_coerced():
    poly = PredegreePolynomial(True, (1, 2, 2, 0))
    assert poly.ambient_dim == 1 and type(poly.ambient_dim) is int
    three = PredegreePolynomial(Count.THREE, (1,) + (0,) * 15)
    assert type(three.ambient_dim) is int and len(three.coeffs) - 1 == 15


@pytest.mark.parametrize(
    "call",
    [
        lambda: predegree_coefficient(15, 2.0, empty(15), 3),
        lambda: predegree_coefficient(15, 2, empty(15), 3.0),
        lambda: predegree_coefficient(15.0, 2, empty(15), 3),
        lambda: predegree_coefficient(15, Fraction(2), empty(15), 3),
        lambda: predegree_from_segre(15, 2.0, empty(15), 9),
        lambda: predegree_from_segre(15, 2, empty(15), 9.0),
        lambda: fano_dim(3, 1.0),
        lambda: deg_so(4.0),
        lambda: deg_so(Fraction(4)),
    ],
    ids=["d", "i", "ambient_total_dim", "fraction d", "from_segre d", "orbit_dim", "fano_dim k", "m", "fraction m"],
)
def test_non_integral_sizes_raise_type_error(call):
    with pytest.raises(TypeError):
        call()


@pytest.mark.parametrize(
    "call", [lambda n: fano_dim(n, 0), max_component_dim, table1_row], ids=["fano_dim", "max_component_dim", "table1_row"]
)
def test_quadric_ambient_dim_is_checked_once(call):
    with pytest.raises(TypeError):
        call(3.0)
    with pytest.raises(ValueError, match="n >= 1"):
        call(0)


# -- every a_i from its unfolded definition ----------------------------------


def unfolded_coefficients(cls, d):
    """a_0 ... a_N as deg H^{N-i} (1 - dH)^{-1} ([P^N] - tensor_class(S, -d)) in the generic ring."""
    h = ChowClass.hyperplane(cls.ambient)
    n_total = cls.ambient.total_dim
    tail = (1 - d * h).invert_unit() * (1 - tensor_class(cls, -d))
    return tuple((h ** (n_total - i) * tail).integrate() for i in range(n_total + 1))


def test_quadric_coefficients_match_their_unfolded_definition():
    unfolded = unfolded_coefficients(doubled_ruling_segre_class(), 2)
    assert unfolded[:10] == (1, 2, 4, 8, 16, 32, 64, 112, 140, 40)


def test_folded_coefficients_match_their_unfolded_definition_on_random_integer_classes():
    rng = random.Random(20261019)
    for _ in range(30):
        cls = ChowClass(P15, {(j,): rng.randint(-20, 20) for j in range(16) if rng.random() < 0.6})
        for d in range(1, 5):
            unfolded = unfolded_coefficients(cls, d)
            assert tuple(predegree_coefficient(15, d, cls, i) for i in range(16)) == unfolded


@pytest.mark.parametrize("ambient_dim", [0, -1])
def test_polynomial_needs_a_positive_ambient_dim(ambient_dim):
    with pytest.raises(ValueError, match="at least 1"):
        PredegreePolynomial(ambient_dim, (1,))
