from collections.abc import Hashable
from enum import IntEnum
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predegree.chow import ChowClass, ProductSpace

P15 = ProductSpace((15,))
P1x7 = ProductSpace((1, 7))


def H(power=1):
    return ChowClass.hyperplane(P15) ** power


def k(index, power=1):
    return ChowClass.hyperplane(P1x7, index) ** power


def test_product_space_validation():
    assert ProductSpace((1, 7)).total_dim == 8
    assert ProductSpace((15,)).num_factors == 1
    with pytest.raises(ValueError):
        ProductSpace(())
    with pytest.raises(ValueError):
        ProductSpace((1, -2))


def test_class_normalization():
    cls = ChowClass(P15, {(16,): 5})  # vanishes in the truncation
    assert cls.is_zero
    cls = ChowClass(P15, {(3,): 0})
    assert cls.is_zero
    with pytest.raises(ValueError):
        ChowClass(P15, {(1, 1): 1})
    with pytest.raises(ValueError):
        ChowClass(P15, {(-1,): 1})


def test_add_examples():
    one = ChowClass.one(P15)
    assert (one + (-one)).is_zero
    mixed = 2 * H() + 3 * H(2)
    assert mixed.coefficient((1,)) == 2
    assert mixed.coefficient((2,)) == 3
    with pytest.raises(ValueError):
        ChowClass.one(P15) + ChowClass.one(P1x7)


def test_mul_truncation_examples():
    assert (H(8) * H(8)).is_zero
    assert (k(0) * k(0)).is_zero
    square = (1 + k(0) + k(1)) ** 2
    assert square == 1 + 2 * k(0) + 2 * k(1) + 2 * k(0) * k(1) + k(1, 2)
    with pytest.raises(ValueError):
        H() * k(0)


SCALARS = st.one_of(
    st.integers(-50, 50),
    st.sampled_from([0, -1, True]),
    st.fractions(min_value=-10, max_value=10, max_denominator=6),
)


@st.composite
def product_classes(draw):
    """A class on a product of 1-3 factors with int and Fraction coefficients."""
    dims = tuple(draw(st.lists(st.integers(0, 4), min_size=1, max_size=3)))
    exponents = st.tuples(*(st.integers(0, n) for n in dims))
    coeffs = st.one_of(st.integers(-50, 50), st.fractions(min_value=-10, max_value=10, max_denominator=6))
    return ChowClass(ProductSpace(dims), draw(st.dictionaries(exponents, coeffs, max_size=6)))


def typed_terms(cls):
    return [(exps, coeff, type(coeff)) for exps, coeff in cls.terms.items()]


@settings(max_examples=100, deadline=None)
@given(product_classes(), SCALARS)
def test_scalar_multiple_is_the_product_with_a_constant_class(cls, scalar):
    constant = ChowClass(cls.ambient, {(0,) * cls.ambient.num_factors: scalar})
    expected = typed_terms(cls * constant)
    assert typed_terms(scalar * cls) == expected
    assert typed_terms(cls * scalar) == expected
    assert (0 * cls).terms == {} and (cls * Fraction(0)).terms == {}
    with pytest.raises(TypeError):
        0.5 * cls
    with pytest.raises(TypeError):
        cls * 0.5


@pytest.mark.parametrize("n,products", [(0, 0), (1, 1), (2, 2), (3, 3), (15, 7), (16, 5)])
def test_pow_squares_only_for_bits_still_to_come(monkeypatch, n, products):
    x = 1 + H()
    calls = []
    mul = ChowClass.__mul__

    def counting_mul(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(ChowClass, "__mul__", counting_mul)
    power = x ** n
    assert len(calls) == products
    assert power.terms == {(j,): comb(n, j) for j in range(min(n, 15) + 1)}


def test_invert_geometric_series():
    inv = (1 - 2 * H()).invert_unit()
    assert inv == sum((2 ** i * H(i) for i in range(16)), ChowClass.zero(P15))


def test_invert_identity():
    one = ChowClass.one(P15)
    assert one.invert_unit() == one


def test_invert_requires_unit():
    with pytest.raises(ValueError):
        (2 * ChowClass.one(P15)).invert_unit()
    with pytest.raises(ValueError):
        H().invert_unit()


# the sixteen coefficients of (1+k1)^2 (1+k2)^8 / (1+k1+k2)^16, indexed by
# (e1, e2); hand-checked in low degrees and pinned as a regression value.
NORMAL_INVERSE_17 = {
    (0, 0): 1,
    (1, 0): -14,
    (0, 1): -8,
    (1, 1): 128,
    (0, 2): 36,
    (1, 2): -648,
    (0, 3): -120,
    (1, 3): 2400,
    (0, 4): 330,
    (1, 4): -7260,
    (0, 5): -792,
    (1, 5): 19008,
    (0, 6): 1716,
    (1, 6): -44616,
    (0, 7): -3432,
    (1, 7): 96096,
}


def test_invert_quotient_expansion():
    one = ChowClass.one(P1x7)
    numerator = (one + k(0)) ** 2 * (one + k(1)) ** 8
    denominator = (one + k(0) + k(1)) ** 16
    result = numerator * denominator.invert_unit()
    assert dict(result.terms) == {e: Fraction(c) for e, c in NORMAL_INVERSE_17.items()}


def test_integrate_examples():
    assert H(15).integrate() == 1
    assert (k(0) * k(1, 7)).integrate() == 1
    assert H(7).integrate() == 0


def test_codim_part_examples():
    cls = 8 * H(7) - 70 * H(8)
    assert cls.codim_part(7) == 8 * H(7)
    assert (1 + H()).codim_part(5).is_zero
    cls2 = k(0) + k(1)
    assert cls2.codim_part(1) == cls2
    with pytest.raises(ValueError):
        H().codim_part(16)


def test_to_records_round_trip():
    cls = 8 * H(7) - Fraction(1, 2) * H(8)
    records = cls.to_records()
    assert records == [
        {"exponents": [7], "coeff": "8"},
        {"exponents": [8], "coeff": "-1/2"},
    ]
    rebuilt = ChowClass(P15, {tuple(r["exponents"]): Fraction(r["coeff"]) for r in records})
    assert rebuilt == cls


def test_classes_are_explicitly_unhashable():
    assert not isinstance(H(), Hashable)
    with pytest.raises(TypeError):
        hash(H())


def test_int_and_fraction_coefficients_keep_their_type():
    integral = 2 * (1 + H()) * H(3) - H(2)
    assert integral.terms and all(type(c) is int for c in integral.terms.values())
    rational = Fraction(1, 2) * integral
    assert all(type(c) is Fraction for c in rational.terms.values())
    assert type(ChowClass.monomial(P15, (2,), "3/4").coefficient((2,))) is Fraction


class Exponent(IntEnum):
    TWO = 2


def test_int_like_exponents_are_coerced():
    assert ChowClass(P15, {(True,): 1}) == ChowClass(P15, {(1,): 1})
    cls = ChowClass(P1x7, {(True, Exponent.TWO): 3})
    assert dict(cls.terms) == {(1, 2): 3}
    assert all(type(e) is int for e in next(iter(cls.terms)))


@pytest.mark.parametrize("dims", [(2.5, 1.9), (Fraction(2), 1), (1.0, 7)])
def test_non_integral_factor_dims_raise(dims):
    with pytest.raises(TypeError):
        ProductSpace(dims)


@pytest.mark.parametrize("exps", [(0.5, 1.7), (Fraction(1), 2), (1, 2.0)])
def test_non_integral_exponents_raise(exps):
    with pytest.raises(TypeError):
        ChowClass(P1x7, {exps: 3})


@pytest.mark.parametrize(
    "build",
    [
        lambda: ChowClass.hyperplane(P1x7, 0.0),
        lambda: H().codim_part(1.0),
        lambda: H() ** 2.0,
        lambda: H() ** Fraction(2),
    ],
    ids=["hyperplane index", "codim_part j", "float exponent", "Fraction exponent"],
)
def test_non_integral_indices_raise(build):
    with pytest.raises(TypeError):
        build()


def test_out_of_range_indices_still_raise_value_error():
    with pytest.raises(ValueError, match="factor index"):
        ChowClass.hyperplane(P1x7, 2)
    with pytest.raises(ValueError, match="codimension"):
        H().codim_part(-1)
    with pytest.raises(ValueError, match="non-negative"):
        H() ** -1


def test_negative_exponent_raises_before_truncation():
    # 9 > 7 alone would drop the term; the negative exponent must still raise.
    with pytest.raises(ValueError, match="negative exponent"):
        ChowClass(P1x7, {(-1, 9): 1})


def test_wrong_length_raises_even_with_zero_coefficient():
    with pytest.raises(ValueError, match="number of factors"):
        ChowClass(P15, {(1, 1): 0})
    with pytest.raises(ValueError, match="number of factors"):
        ChowClass(P1x7, {(0, 1, 2): 0})


def test_terms_past_truncation_are_dropped():
    cls = ChowClass(P1x7, {(2, 0): 3, (0, 8): -1, (1, 7): 5})
    assert dict(cls.terms) == {(1, 7): 5}


def test_str_rendering():
    assert str(ChowClass.zero(P15)) == "0"
    assert str(1 - 2 * H()) == "1 - 2*H"
    assert str(k(0) * k(1)) == "h1*h2"


# -- property tests --------------------------------------------------------


def classes(ambient):
    exponents = st.tuples(*(st.integers(0, n) for n in ambient.factor_dims))
    coeffs = st.fractions(min_value=-10, max_value=10, max_denominator=6)
    return st.dictionaries(exponents, coeffs, max_size=5).map(lambda d: ChowClass(ambient, d))


def unit_classes(ambient):
    def make_unit(cls):
        zero_exps = (0,) * ambient.num_factors
        adjust = dict(cls.terms)
        adjust[zero_exps] = Fraction(1)
        return ChowClass(ambient, adjust)

    return classes(ambient).map(make_unit)


@settings(max_examples=40, deadline=None)
@given(classes(P1x7), classes(P1x7), classes(P1x7))
def test_ring_axioms_product_space(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(classes(P15), classes(P15), classes(P15))
def test_ring_axioms_p15(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=30, deadline=None)
@given(unit_classes(P1x7))
def test_invert_unit_two_sided(a):
    inv = a.invert_unit()
    assert a * inv == ChowClass.one(P1x7)
    assert inv * a == ChowClass.one(P1x7)


@settings(max_examples=40, deadline=None)
@given(classes(P1x7), classes(P1x7))
def test_truncation_soundness(a, b):
    product = a * b
    dims = P1x7.factor_dims
    for exps in product.terms:
        assert all(0 <= e <= n for e, n in zip(exps, dims))


@settings(max_examples=40, deadline=None)
@given(classes(P1x7), classes(P1x7))
def test_integrate_mul_symmetric(a, b):
    assert (a * b).integrate() == (b * a).integrate()


@pytest.mark.parametrize("coeff", [0.1, 0.5, 3.0])
def test_float_coefficients_raise(coeff):
    # a float has no exact value to keep: 0.1 would become 3602879701896397/2^55
    with pytest.raises(TypeError):
        ChowClass.monomial(P15, (2,), coeff)
    with pytest.raises(TypeError):
        ChowClass(P1x7, {(1, 2): coeff})


def test_exact_coefficients_are_kept():
    assert ChowClass.monomial(P15, (2,), 3).coefficient((2,)) == 3
    assert ChowClass.monomial(P15, (2,), Fraction(1, 10)).coefficient((2,)) == Fraction(1, 10)
    assert ChowClass.monomial(P15, (2,), "1/2").coefficient((2,)) == Fraction(1, 2)


def test_str_renders_a_coefficient_of_minus_one_as_a_sign():
    assert str(-H()) == "-H"
    assert str(1 - H()) == "1 - H"
    assert str(H() - H(2)) == "H - H^2"
    assert str(-(k(0) * k(1, 2))) == "-h1*h2^2"
    assert str(Fraction(-1, 2) * H()) == "-1/2*H"
    assert str(Fraction(3, 2) - Fraction(1, 2) * H(2)) == "3/2 - 1/2*H^2"
    assert str(-3 + H()) == "-3 + H"
    assert str(Fraction(-2, 3) * k(0) * k(1) - 1) == "-1 - 2/3*h1*h2"


@pytest.mark.parametrize(
    "call",
    [lambda c: c + "x", lambda c: c - "x", lambda c: c * 1.5, lambda c: "x" * c],
    ids=["add", "sub", "mul float", "rmul str"],
)
def test_unsupported_operands_raise_type_error(call):
    with pytest.raises(TypeError):
        call(1 + H())


class One:
    def __index__(self):
        return 1


def test_exponents_indexing_to_one_tuple_accumulate_then_cancel():
    # terms are summed per exponent tuple first, and only the zero sums are dropped
    assert ChowClass(P15, {(1,): 1, (One(),): -1}).is_zero
    assert ChowClass(P15, {(1,): 1, (One(),): -1, (One(),): 2}).terms == {(1,): 2}
