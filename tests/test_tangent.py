import dataclasses
import random
from fractions import Fraction

import pytest

from predegree import tangent
from predegree.linalg import LinearSubspace, dot, flatten, rank
from predegree.quadric import MATRIX_SIDE, ProjMatrix, point_condition_gradient, sigma1, sigma2
from predegree.quadric import QuadricGram, point_condition_value
from predegree.tangent import (
    CANONICAL_INTERSECTION,
    CANONICAL_RANK_ONE,
    MATRIX_SPACE_DIM,
    POLARIZATION_POINTS,
    RANK_TWO_NORMAL_FORM,
    gradient_span,
    pencil_matrix,
    quadric_point,
    random_projective_point,
    rank_one_matrix,
    rank_two_expected_span,
    run_tangent_checks,
    sigma_normal_form,
    tangent_intersection_locus,
    tangent_ruling_component,
    verify_gradient_rank,
    verify_tangent_intersection,
)

IDENTITY = ProjMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])


def coordinate_subspace(indices):
    vectors = []
    for idx in indices:
        v = [Fraction(0)] * MATRIX_SPACE_DIM
        v[idx] = Fraction(1)
        vectors.append(v)
    return LinearSubspace.span(vectors, MATRIX_SPACE_DIM)


def entry(i, j):
    return 4 * i + j


def random_pencil(rng):
    """Random 2x4 matrix of rank 2: two sampled points of P^3, redrawn until they are distinct."""
    while True:
        candidate = (random_projective_point(rng, MATRIX_SIDE), random_projective_point(rng, MATRIX_SIDE))
        if rank(candidate) == 2:
            return candidate


def test_polarization_set():
    assert len(POLARIZATION_POINTS) == 10
    assert len({tuple(q) for q in POLARIZATION_POINTS}) == 10


def test_gradient_span_rank_one_normal_form():
    phi = rank_one_matrix(*CANONICAL_RANK_ONE)
    assert phi.entries[0][0] == 1 and rank(phi.entries) == 1
    span = gradient_span(phi)
    # gradients span exactly the last row of the matrix space, so the common
    # tangent space of all point conditions is the projective P^11 where that
    # row vanishes
    assert span == coordinate_subspace([entry(3, j) for j in range(4)])
    assert span.dim() == 4
    assert MATRIX_SPACE_DIM - 1 - span.dim() == 11


def test_gradient_span_rank_two_normal_form():
    span = gradient_span(sigma_normal_form())
    assert span.dim() == 7
    assert span == rank_two_expected_span()


def test_gradient_span_rank_two_random_points():
    rng = random.Random(23)
    for _ in range(10):
        p = random_projective_point(rng, 2)
        xi = random_pencil(rng)
        assert gradient_span(sigma1(p, xi)).dim() == 7
        assert gradient_span(sigma2(p, xi)).dim() == 7


def test_gradient_span_invertible_matrix():
    # regression value: the full polarization family spans the 10-dimensional
    # space of symmetric-form gradients at an invertible matrix
    assert gradient_span(IDENTITY).dim() == 10


def test_tangent_ruling_canonical_lists():
    # at the canonical intersection point the two ruling tangent spaces are
    # coordinate subspaces
    p, q, k = CANONICAL_INTERSECTION
    t1 = tangent_ruling_component(1, q, pencil_matrix(p, k))
    expected1 = coordinate_subspace(
        [entry(0, 2)] + [entry(2, j) for j in range(4)] + [entry(3, j) for j in range(4)]
    )
    assert t1 == expected1
    t2 = tangent_ruling_component(2, p, pencil_matrix(q, k))
    expected2 = coordinate_subspace(
        [entry(0, j) for j in range(4)] + [entry(2, j) for j in range(4)] + [entry(3, 2)]
    )
    assert t2 == expected2


def test_tangent_ruling_dimension_and_containment():
    rng = random.Random(31)
    for index in range(20):
        p = random_projective_point(rng, 2)
        if index % 2:
            xi = random_pencil(rng)
        else:
            # rank-one pencils land on the intersection of the two components
            xi = pencil_matrix(random_projective_point(rng, 2), random_projective_point(rng, 4))
        t1 = tangent_ruling_component(1, p, xi)
        t2 = tangent_ruling_component(2, p, xi)
        assert t1.dim() == 9 and t2.dim() == 9
        assert t1.contains(flatten(sigma1(p, xi).entries))
        assert t2.contains(flatten(sigma2(p, xi).entries))


def test_tangent_ruling_validation():
    with pytest.raises(ValueError):
        tangent_ruling_component(3, (1, 0), ((1, 0, 0, 0), (0, 0, 0, 0)))
    with pytest.raises(ValueError):
        tangent_ruling_component(1, (0, 0), ((1, 0, 0, 0), (0, 0, 0, 0)))


def test_tangent_intersection_locus_canonical():
    locus = tangent_intersection_locus(*CANONICAL_INTERSECTION)
    expected = coordinate_subspace(
        [entry(0, 2)] + [entry(2, j) for j in range(4)] + [entry(3, 2)]
    )
    assert locus == expected
    assert locus.dim() == 6
    assert locus.dim() - 1 == 5


def test_tangent_intersection_locus_random():
    rng = random.Random(37)
    for _ in range(20):
        p = random_projective_point(rng, 2)
        q = random_projective_point(rng, 2)
        k = random_projective_point(rng, 4)
        locus = tangent_intersection_locus(p, q, k)
        assert locus.dim() == 6
        t1 = tangent_ruling_component(1, q, pencil_matrix(p, k))
        t2 = tangent_ruling_component(2, p, pencil_matrix(q, k))
        assert t1.contains_subspace(locus)
        assert t2.contains_subspace(locus)


def test_verify_tangent_intersection_canonical_and_random():
    assert verify_tangent_intersection(*CANONICAL_INTERSECTION)
    rng = random.Random(41)
    for _ in range(20):
        assert verify_tangent_intersection(
            random_projective_point(rng, 2),
            random_projective_point(rng, 2),
            random_projective_point(rng, 4),
        )


def substitute_ruling_tangent(monkeypatch, which, space):
    """Make tangent_ruling_component return space for the given component, and the true tangent for the other."""
    ruling = tangent.tangent_ruling_component
    monkeypatch.setattr(
        tangent, "tangent_ruling_component", lambda w, *args: space if w == which else ruling(w, *args)
    )


def test_negative_control_perturbed_basis(monkeypatch):
    # harness sanity check: replacing a ruling tangent direction that carries
    # part of the intersection by an unrelated vector breaks the identity for
    # this seed
    p, q, k = CANONICAL_INTERSECTION
    t1 = tangent_ruling_component(1, q, pencil_matrix(p, k))
    rng = random.Random(2)
    perturbed_vectors = [random_projective_point(rng, 16)] + list(t1.basis[1:])
    perturbed = LinearSubspace.span(perturbed_vectors, MATRIX_SPACE_DIM)
    substitute_ruling_tangent(monkeypatch, 1, perturbed)
    assert verify_tangent_intersection(p, q, k) is False


def test_negative_control_equal_ruling_tangents(monkeypatch):
    # T2 replaced by T1: both contain the locus tangent, so only the dimension
    # of the intersection (9, not 6) can reject it
    p, q, k = CANONICAL_INTERSECTION
    t1 = tangent_ruling_component(1, q, pencil_matrix(p, k))
    assert t1.contains_subspace(tangent_intersection_locus(p, q, k))
    substitute_ruling_tangent(monkeypatch, 2, t1)
    assert verify_tangent_intersection(p, q, k) is False


def test_verify_gradient_rank_canonical_and_random():
    assert verify_gradient_rank(*CANONICAL_RANK_ONE)
    rng = random.Random(43)
    for _ in range(20):
        assert verify_gradient_rank(
            random_projective_point(rng, 2),
            random_projective_point(rng, 2),
            random_projective_point(rng, 4),
        )


def test_tangent_bases_hold_only_ints():
    # every point, direction and gradient on the tangent path is an int, and
    # so is every basis row made from them
    def int_basis(space):
        return all(type(x) is int for row in space.basis for x in row)

    def check_point(p, q, k):
        assert int_basis(gradient_span(rank_one_matrix(p, q, k)))
        assert int_basis(tangent_ruling_component(1, q, pencil_matrix(p, k)))
        assert int_basis(tangent_ruling_component(2, p, pencil_matrix(q, k)))
        assert int_basis(tangent_intersection_locus(p, q, k))

    check_point(*CANONICAL_RANK_ONE)
    check_point(*CANONICAL_INTERSECTION)
    assert int_basis(gradient_span(sigma_normal_form()))
    assert int_basis(tangent_ruling_component(1, *RANK_TWO_NORMAL_FORM))
    rng = random.Random(59)
    for _ in range(10):
        check_point(*(random_projective_point(rng, length) for length in (2, 2, MATRIX_SIDE)))


def test_gradient_rank_distinguishes_strata():
    # rank-two points of the ruling components have a seven-dimensional
    # gradient span instead of four
    span = gradient_span(sigma_normal_form())
    assert span.dim() == 7 != 4


def test_ruling_tangents_inside_common_tangent():
    # at a base point every ruling tangent direction annihilates every
    # point-condition gradient
    rng = random.Random(47)
    for _ in range(10):
        p = random_projective_point(rng, 2)
        xi = random_pencil(rng)
        for which, sigma in ((1, sigma1), (2, sigma2)):
            phi = sigma(p, xi)
            tangent = tangent_ruling_component(which, p, xi)
            for q in POLARIZATION_POINTS:
                grad = flatten(point_condition_gradient(phi, q))
                assert all(dot(grad, t) == 0 for t in tangent.basis)


def test_tangency_pairing_identity():
    # the pairing of the gradient with psi equals grad f at phi(q) applied to
    # psi(q); in particular it vanishes when q is in the kernel of psi
    from predegree.quadric import SEGRE_QUADRIC

    rng = random.Random(53)
    for _ in range(20):
        phi = ProjMatrix([random_projective_point(rng, 4) for _ in range(4)])
        psi = ProjMatrix([random_projective_point(rng, 4) for _ in range(4)])
        q = random_projective_point(rng, 4)
        grad = flatten(point_condition_gradient(phi, q))
        pairing = dot(grad, flatten(psi.entries))
        form_gradient = SEGRE_QUADRIC.gradient(phi.apply(q))
        assert pairing == dot(form_gradient, psi.apply(q))


def test_gradient_nonzero_off_kernel():
    # the quadric is smooth, so the gradient only vanishes when phi(q) does
    rng = random.Random(59)
    for _ in range(20):
        phi = ProjMatrix([random_projective_point(rng, 4) for _ in range(4)])
        q = random_projective_point(rng, 4)
        image = phi.apply(q)
        grad = flatten(point_condition_gradient(phi, q))
        if any(image):
            assert any(grad)
        else:
            assert not any(grad)


def test_run_tangent_checks_passes():
    report = run_tangent_checks(seed=123, samples=5)
    assert report.all_passed
    names = [c.name for c in report.checks]
    assert "gradient-rank-canonical" in names
    assert "gradient-span-rank-two-normal-form" in names
    payload = report.to_payload()
    assert payload["seed"] == 123
    assert payload["all_passed"] is True
    assert len(payload["checks"]) == len(report.checks)


def test_reports_are_frozen():
    # README promises immutable values; a report cannot change after it is made.
    report = run_tangent_checks(seed=0, samples=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.checks[0].passed = False
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.seed = 1
    with pytest.raises(AttributeError):
        report.checks.append(report.checks[0])
    with pytest.raises(TypeError):
        hash(report)
    with pytest.raises(TypeError):
        hash(report.checks[0])


def test_run_tangent_checks_takes_an_integral_sample_count(monkeypatch):
    assert run_tangent_checks(0, True).to_payload()["samples"] == 1
    monkeypatch.setattr(tangent, "gradient_span", lambda *args: pytest.fail("a check ran before the count was checked"))
    with pytest.raises(TypeError):
        run_tangent_checks(0, 2.0)


# -- the integer sampler against the Fraction sampler it replaced -------------


def fraction_point(rng, length):
    """The seeded Fraction sampler: coordinates a/b, -10 <= a <= 10, 1 <= b <= 10."""
    while True:
        candidate = tuple(Fraction(rng.randint(-10, 10), rng.randint(1, 10)) for _ in range(length))
        if any(candidate):
            return candidate


def test_random_projective_point_scales_the_fraction_sample_to_ints():
    for seed in range(40):
        for length in (1, 2, 4, 16):
            rng, reference = random.Random(seed), random.Random(seed)
            for _ in range(3):
                point = random_projective_point(rng, length)
                expected = fraction_point(reference, length)
                assert {type(x) for x in point} == {int}
                assert LinearSubspace.span([point]) == LinearSubspace.span([expected])
                assert rng.getstate() == reference.getstate()


def test_random_pencil_draws_each_possible_rank():
    rng = random.Random(0)
    for _ in range(20):
        pencil = random_pencil(rng)
        assert LinearSubspace.span(pencil, 4).dim() == 2
        assert all(any(row) for row in pencil)


@pytest.mark.parametrize("which", [1, 2])
@pytest.mark.parametrize(
    "p,xi",
    [
        ((1, 0), ((1, 0, 0), (0, 1, 0))),  # a 2x3 xi
        ((1, 0), ((0, 0, 0, 0), (0, 0, 0, 0))),  # a zero xi
        ((1, 0, 0), ((1, 0, 0, 0), (0, 1, 0, 0))),  # p of the wrong length
        ((1, 0), ((1, 2, 3, 4, 5, 6, 7, 8),)),  # xi with the right entry count but one row
    ],
)
def test_tangent_ruling_rejects_malformed_points(which, p, xi):
    with pytest.raises(ValueError):
        tangent_ruling_component(which, p, xi)


# -- one number rule and one point check at the boundary -----------------------

ROWS_WITH_A_FLOAT = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0.5]]
FLOAT_INPUTS = {
    "ProjMatrix": lambda: ProjMatrix(ROWS_WITH_A_FLOAT),
    "from_flat": lambda: ProjMatrix.from_flat([0.5] + [0] * 15),
    "QuadricGram": lambda: QuadricGram(ROWS_WITH_A_FLOAT),
    "rank": lambda: rank([[1, 0.1]]),
    "LinearSubspace.span": lambda: LinearSubspace.span([[1, 0.1]]),
    "point_condition_value": lambda: point_condition_value(IDENTITY, (1, 0, 0, 0.1)),
    "sigma1": lambda: sigma1((1, 0.5), ((1, 0, 0, 0), (0, 1, 0, 0))),
    "tangent_intersection_locus": lambda: tangent_intersection_locus((1, 0), (0, 1), (0, 0, 1, 0.1)),
}


@pytest.mark.parametrize("build", FLOAT_INPUTS.values(), ids=FLOAT_INPUTS.keys())
def test_float_inputs_raise_type_error(build):
    # 0.1 has no exact value to keep: Fraction(0.1) is 3602879701896397/2^55
    with pytest.raises(TypeError, match="inexact"):
        build()


def test_p1_arguments_are_checked_as_points():
    with pytest.raises(ValueError, match=r"\(1 : 2 : 3\) is not a point of P\^1"):
        quadric_point((1, 2, 3), (1, 0))
    with pytest.raises(ValueError, match=r"\(0 : 0\) is not a point of P\^1"):
        pencil_matrix((0, 0), (1, 0, 0, 0))
    with pytest.raises(ValueError, match=r"is not a point of P\^3"):
        pencil_matrix((1, 0), (1, 0, 0))
    assert pencil_matrix((1, 2), (1, 0, 0, 3)) == ((1, 0, 0, 3), (2, 0, 0, 6))


@pytest.mark.parametrize("length", [0, -1])
def test_random_projective_point_rejects_empty_lengths_before_drawing(length):
    rng = random.Random(0)
    with pytest.raises(ValueError, match="at least one coordinate"):
        random_projective_point(rng, length)
    assert rng.getstate() == random.Random(0).getstate()
    with pytest.raises(TypeError):
        random_projective_point(rng, 2.0)


def test_run_tangent_checks_takes_an_integral_seed(monkeypatch):
    report = run_tangent_checks(True, 1)
    assert report.to_payload()["seed"] == 1
    assert report == run_tangent_checks(1, 1)
    monkeypatch.setattr(tangent, "gradient_span", lambda *args: pytest.fail("a check ran before the seed was checked"))
    with pytest.raises(TypeError):
        run_tangent_checks(1.5, 1)


# -- a battery that fails records what failed ----------------------------------


def test_wrong_gradient_span_size_fails_the_rank_checks(monkeypatch):
    # three gradients instead of four at every rank-one point
    monkeypatch.setattr(tangent, "gradient_span", lambda *args: coordinate_subspace([0, 1, 2]))
    assert verify_gradient_rank(*CANONICAL_RANK_ONE) is False
    report = run_tangent_checks(seed=7, samples=3)
    passed = {c.name: c.passed for c in report.checks}
    assert passed == {
        "gradient-rank-canonical": False,
        "gradient-rank-random": False,
        "gradient-span-rank-two-normal-form": False,
        "tangent-intersection-canonical": True,
        "tangent-intersection-random": True,
    }
    assert report.checks[1].detail == {"samples": 3, "failures": [0, 1, 2]}
    assert report.all_passed is False


def failing_on_calls(failing):
    """verify_tangent_intersection that fails on the given calls, counted from 0 (the canonical point)."""
    calls = []

    def check(p, q, k):
        calls.append((p, q, k))
        return len(calls) - 1 not in failing and verify_tangent_intersection(p, q, k)

    return check


def test_failing_samples_are_recorded_by_index(monkeypatch):
    monkeypatch.setattr(tangent, "verify_tangent_intersection", failing_on_calls({2, 4}))
    payload = run_tangent_checks(seed=7, samples=4).to_payload()
    checks = {c["name"]: c for c in payload["checks"]}
    assert checks["tangent-intersection-canonical"]["passed"] is True
    assert checks["tangent-intersection-random"] == {
        "name": "tangent-intersection-random",
        "passed": False,
        "detail": {"samples": 4, "failures": [1, 3]},
    }
    assert [c["name"] for c in payload["checks"] if not c["passed"]] == ["tangent-intersection-random"]
    assert payload["all_passed"] is False
