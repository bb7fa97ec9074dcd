from fractions import Fraction
from itertools import permutations
from math import comb, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from predegree.chow import ChowClass, ProductSpace
from predegree.polynomial import tensor_class
from predegree.segre import (
    ambient_dim,
    multinomial,
    normal_inverse_chern,
    pushforward_class,
    pushforward_monomial,
    segre_class_pushforward,
)

from test_chow import NORMAL_INVERSE_17

P1x7 = ProductSpace((1, 7))
P1x1 = ProductSpace((1, 1))

# pushed-forward Segre class of P^1 x P^7 in P^15: coefficient of H^power
SEGRE_17 = {
    7: 8,
    8: -70,
    9: 344,
    10: -1248,
    11: 3720,
    12: -9636,
    13: 22440,
    14: -48048,
    15: 96096,
}


@pytest.mark.parametrize(
    "dims,expected",
    [((1, 7), 15), ((1, 1), 3), ((3, 3), 15), ((2, 2), 8)],
)
def test_ambient_dim(dims, expected):
    assert ambient_dim(ProductSpace(dims)) == expected


def test_pushforward_monomial_base_case():
    assert pushforward_monomial(P1x7, (0, 0)) == (8, 7)
    assert pushforward_monomial(P1x1, (1, 1)) == (1, 3)


def test_pushforward_monomial_binomial_table():
    # coefficient C(8 - n - m, 7 - m) at power 7 + n + m for all valid (n, m)
    for n in range(2):
        for m in range(8):
            coeff, power = pushforward_monomial(P1x7, (n, m))
            assert coeff == comb(8 - n - m, 7 - m)
            assert power == 7 + n + m


def test_pushforward_monomial_rejects_out_of_range():
    with pytest.raises(ValueError):
        pushforward_monomial(P1x7, (2, 0))
    with pytest.raises(ValueError):
        pushforward_monomial(P1x7, (0, 8))
    with pytest.raises(ValueError):
        pushforward_monomial(P1x7, (0,))


@pytest.mark.parametrize("exps", [(0.9, 0.2), (Fraction(1), 0), (0, 7.0)])
def test_pushforward_monomial_rejects_non_integral_exponents(exps):
    with pytest.raises(TypeError):
        pushforward_monomial(P1x7, exps)


def test_pushforward_class_examples():
    k1 = ChowClass.hyperplane(P1x1, 0)
    k2 = ChowClass.hyperplane(P1x1, 1)
    cls = 1 - 2 * k1 - 2 * k2 + 8 * k1 * k2
    pushed = pushforward_class(cls)
    P3 = ProductSpace((3,))
    h = ChowClass.hyperplane(P3)
    assert pushed == 2 * h - 4 * h ** 2 + 8 * h ** 3

    k1, k2 = ChowClass.hyperplane(P1x7, 0), ChowClass.hyperplane(P1x7, 1)
    pushed = pushforward_class(-14 * k1 - 8 * k2)
    assert dict(pushed.terms) == {(8,): -70}

    assert pushforward_class(ChowClass.zero(P1x7)).is_zero


def test_normal_inverse_chern_17():
    result = normal_inverse_chern(P1x7)
    assert {e: int(c) for e, c in result.terms.items()} == NORMAL_INVERSE_17


def test_normal_inverse_chern_11():
    k1 = ChowClass.hyperplane(P1x1, 0)
    k2 = ChowClass.hyperplane(P1x1, 1)
    assert normal_inverse_chern(P1x1) == 1 - 2 * k1 - 2 * k2 + 8 * k1 * k2


def test_normal_inverse_chern_constant_term():
    for dims in [(1, 1), (1, 7), (3, 3), (1, 2, 3)]:
        assert normal_inverse_chern(ProductSpace(dims)).constant_term() == 1


def test_normal_inverse_chern_needs_two_factors():
    with pytest.raises(ValueError):
        normal_inverse_chern(ProductSpace((5,)))


def test_segre_class_pushforward_needs_two_factors():
    with pytest.raises(ValueError, match="two factors"):
        segre_class_pushforward(ProductSpace((5,)))


def test_segre_class_pushforward_17():
    result = segre_class_pushforward(P1x7)
    assert {e[0]: int(c) for e, c in result.terms.items()} == SEGRE_17


def test_segre_class_pushforward_11_is_hypersurface_class():
    # independent oracle: the image is a quadric surface in P^3, whose Segre
    # class is (1 + 2H)^{-1} * 2H, computed with ring operations only
    P3 = ProductSpace((3,))
    h = ChowClass.hyperplane(P3)
    oracle = (1 + 2 * h).invert_unit() * (2 * h)
    assert segre_class_pushforward(P1x1) == oracle
    assert oracle == 2 * h - 4 * h ** 2 + 8 * h ** 3


@pytest.mark.parametrize("dims", [(1, 1), (1, 7), (3, 3), (2, 2), (1, 2, 3)])
def test_pushforward_preserves_dimension(dims):
    space = ProductSpace(dims)
    m = ambient_dim(space)
    from itertools import product

    for exps in product(*(range(n + 1) for n in space.factor_dims)):
        _, power = pushforward_monomial(space, exps)
        assert space.total_dim - sum(exps) == m - power


@pytest.mark.parametrize("dims", [(1, 1), (1, 7), (3, 3), (2, 2), (1, 2, 3)])
def test_segre_class_leading_term_is_variety_degree(dims):
    space = ProductSpace(dims)
    pushed = segre_class_pushforward(space)
    codim = ambient_dim(space) - space.total_dim
    assert min(pushed.codimensions()) == codim
    assert pushed.coefficient((codim,)) == multinomial(space.factor_dims)


def normal_inverse_reference(space):
    """prod (1 + h_i)^{n_i + 1} / (1 + sum h_i)^{m + 1} by powers and generic inversion."""
    one = ChowClass.one(space)
    hyperplanes = [ChowClass.hyperplane(space, i) for i in range(space.num_factors)]
    numerator = one
    for h, n in zip(hyperplanes, space.factor_dims):
        numerator = numerator * (one + h) ** (n + 1)
    denominator = (one + sum(hyperplanes, ChowClass.zero(space))) ** (ambient_dim(space) + 1)
    return numerator * denominator.invert_unit()


@settings(max_examples=30, deadline=None)
@given(
    st.one_of(
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    )
)
def test_normal_inverse_chern_matches_generic_inversion(dims):
    space = ProductSpace(dims)
    assert normal_inverse_chern(space) == normal_inverse_reference(space)


@st.composite
def segre_factors(draw, max_box=64, max_factors=4):
    """Two to max_factors factor dimensions with exponent box prod(n_i + 1) <= max_box."""
    dims, box = [], 1
    for _ in range(draw(st.integers(2, max_factors))):
        n = draw(st.integers(0, max_box // box - 1))
        dims.append(n)
        box *= n + 1
    return tuple(draw(st.permutations(dims)))


@settings(max_examples=25, deadline=None)
@given(segre_factors())
def test_segre_class_matches_generic_inversion(dims):
    space = ProductSpace(dims)
    assert prod(n + 1 for n in dims) <= 64
    reference = normal_inverse_reference(space)
    assert normal_inverse_chern(space) == reference
    assert segre_class_pushforward(space) == pushforward_class(reference)


@settings(max_examples=60, deadline=None)
@given(segre_factors(max_box=256, max_factors=5))
@example((0, 3))
@example((0, 0))
@example((1, 1, 1, 1, 1))
@example((2, 0, 1, 2, 3))
@example((15, 15))
@example((1, 127))
def test_fused_segre_class_matches_composed_path(dims):
    # The whole range the CLI admits: prod(n_i + 1) <= cli.MAX_SEGRE_BOX.
    space = ProductSpace(dims)
    assert prod(n + 1 for n in dims) <= 256
    fused = segre_class_pushforward(space)
    assert fused == pushforward_class(normal_inverse_chern(space))
    assert all(type(c) is int for c in fused.terms.values())


def test_integer_inputs_keep_int_coefficients():
    segre_class = segre_class_pushforward(P1x7)
    h = ChowClass.hyperplane(segre_class.ambient)
    classes = [
        normal_inverse_chern(ProductSpace((2, 1, 3))),
        segre_class,
        2 * segre_class,
        tensor_class(segre_class, -2),
        segre_class * (1 - 2 * h),
    ]
    for cls in classes:
        assert cls.terms and all(type(c) is int for c in cls.terms.values())


def sorted_factor_tuples(max_box):
    """Every non-decreasing tuple of 2 to 5 factor dimensions with prod(n_i + 1) <= max_box."""
    def extend(prefix, box):
        if len(prefix) >= 2:
            yield prefix
        if len(prefix) < 5:
            for n in range(prefix[-1] if prefix else 0, max_box // box):
                yield from extend(prefix + (n,), box * (n + 1))

    return list(extend((), 1))


SMALL_FACTOR_TUPLES = sorted_factor_tuples(64)


def test_small_factor_tuples_are_enumerated():
    assert len(SMALL_FACTOR_TUPLES) == 717
    assert (0, 0) in SMALL_FACTOR_TUPLES and (0, 63) in SMALL_FACTOR_TUPLES
    assert (1, 1, 1, 1, 1) in SMALL_FACTOR_TUPLES and (1, 1, 1, 1, 1, 1) not in SMALL_FACTOR_TUPLES


def test_segre_class_on_every_small_product():
    # Three checks that share no code with segre_class_pushforward: the composed
    # box path, the Euler characteristic deg c_top(TX) = prod(n_i + 1) read off
    # c(TP^m) = (1 + H)^{m+1} times the Segre class, and the leading term deg X.
    for dims in SMALL_FACTOR_TUPLES:
        space = ProductSpace(dims)
        m, codim = ambient_dim(space), ambient_dim(space) - sum(dims)
        cls = segre_class_pushforward(space)
        assert cls == pushforward_class(normal_inverse_chern(space)), dims
        s = [cls.coefficient((j,)) for j in range(m + 1)]
        assert sum(comb(m + 1, m - j) * s[j] for j in range(m + 1)) == prod(n + 1 for n in dims), dims
        assert s[:codim] == [0] * codim and s[codim] == multinomial(dims), dims


@pytest.mark.parametrize("dims", [(0, 1, 3), (1, 2, 3), (2, 0, 4, 1), (1, 1, 2, 0, 1), (3, 15)])
def test_segre_class_is_symmetric_in_the_factors(dims):
    expected = segre_class_pushforward(ProductSpace(dims))
    for order in set(permutations(dims)):
        assert segre_class_pushforward(ProductSpace(order)) == expected, order
