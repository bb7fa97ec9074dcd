"""Classes the package builds itself skip the public constructor's checks.

Every such result must still be exactly what the checked path would make of
its terms and its ambient space: these tests rebuild each result through
``ChowClass(...)`` and ``ProductSpace(...)`` and compare term by term,
coefficient type included, and dimension by dimension.
"""

from fractions import Fraction
from operator import add

from hypothesis import given, settings
from hypothesis import strategies as st

from predegree.chow import ChowClass, ProductSpace
from predegree.polynomial import tensor_class
from predegree.segre import normal_inverse_chern, pushforward_class, segre_class_pushforward

from test_segre import SMALL_FACTOR_TUPLES

COEFFS = st.one_of(
    st.integers(-50, 50),
    st.fractions(min_value=-10, max_value=10, max_denominator=6),
)


def assert_canonical(r):
    """r is what the public constructors make of r's own ambient space and terms."""
    checked = ProductSpace(r.ambient.factor_dims)
    assert r.ambient == checked and hash(r.ambient) == hash(checked)
    assert type(r.ambient.factor_dims) is tuple and all(type(n) is int for n in r.ambient.factor_dims)
    rebuilt = ChowClass(r.ambient, dict(r.terms))
    typed = {e: (c, type(c)) for e, c in r.terms.items()}
    assert typed == {e: (c, type(c)) for e, c in rebuilt.terms.items()}
    assert all(type(e) is int for exps in r.terms for e in exps)
    assert all(c != 0 for c in r.terms.values())
    assert (r - r).is_zero


def reference_product(a, b):
    """Plain double loop over the terms; the public constructor truncates."""
    terms = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            exps = tuple(map(add, e1, e2))
            terms[exps] = terms.get(exps, 0) + c1 * c2
    return ChowClass(a.ambient, terms)


@st.composite
def class_pairs(draw):
    """Two classes on one product of 1-3 factors; b cancels some terms of a."""
    dims = tuple(draw(st.lists(st.integers(0, 4), min_size=1, max_size=3)))
    space = ProductSpace(dims)
    exponents = st.tuples(*(st.integers(0, n) for n in dims))
    a_terms = draw(st.dictionaries(exponents, COEFFS, max_size=6))
    cancelled = draw(st.lists(st.sampled_from(sorted(a_terms)), unique=True)) if a_terms else []
    b_terms = draw(st.dictionaries(exponents, COEFFS, max_size=4))
    b_terms.update({e: -a_terms[e] for e in cancelled})
    return ChowClass(space, a_terms), ChowClass(space, b_terms)


@settings(max_examples=80, deadline=None)
@given(class_pairs(), COEFFS, st.integers(0, 4))
def test_ring_results_match_the_checked_constructor(pair, scalar, power):
    a, b = pair
    space = a.ambient
    unit = ChowClass(space, {**a.terms, (0,) * space.num_factors: 1})
    results = [
        a + b, b + a, a - b, -a, a * b, b * a,
        scalar * a, a * scalar, a + scalar, scalar - a, a * 0,
        a ** power, unit.invert_unit(),
        *(a.codim_part(j) for j in range(space.total_dim + 1)),
        pushforward_class(a),
    ]
    if space.num_factors >= 2:
        results += [segre_class_pushforward(space), normal_inverse_chern(space)]
    else:
        results += [tensor_class(a, twist) for twist in (-2, 1, 3)]
    for r in results:
        assert_canonical(r)
    assert (a - a).is_zero
    assert a + b == ChowClass(space, {e: a.coefficient(e) + b.coefficient(e) for e in {*a.terms, *b.terms}})
    assert a * b == reference_product(a, b)
    assert unit * unit.invert_unit() == ChowClass.one(space)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 15), st.data())
def test_cancelling_sums_keep_no_zero_terms(n, data):
    space = ProductSpace((n,))
    exponents = st.integers(0, n).map(lambda j: (j,))
    terms = data.draw(st.dictionaries(exponents, COEFFS, min_size=1, max_size=6))
    a = ChowClass(space, terms)
    opposite = ChowClass(space, {e: -Fraction(c) for e, c in terms.items()})
    for r in (a + opposite, opposite + a, a - a, a * 0, 0 * a, (a + opposite).codim_part(0)):
        assert r.is_zero and r.terms == {}


def test_segre_classes_of_every_small_product_are_canonical():
    # segre_class_pushforward builds its target space P^m past ProductSpace's checks.
    for dims in SMALL_FACTOR_TUPLES:
        assert_canonical(segre_class_pushforward(ProductSpace(dims)))
