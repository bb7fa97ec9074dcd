"""Exact tangent-space checks at points of the base locus.

The base locus of the quadric pipeline is swept out by two ruling components
meeting along the rank-one matrices with image on the quadric.  Everything
proved about tangent spaces there is finite linear algebra once one key fact
is used: the gradient of a point condition depends on the point q only
through the symmetric tensor q q^T, so the span of the gradients over the ten
points {e_i} and {e_i + e_j} equals the span over all of P^3.

Every size here derives from the matrix side ``quadric.MATRIX_SIDE`` (4).
Matrices are flattened row-major: the entry a_{i,j} is coordinate
MATRIX_SIDE * i + j of a vector of length MATRIX_SPACE_DIM = MATRIX_SIDE ** 2.
"""

from __future__ import annotations

import operator
import random
from dataclasses import asdict, dataclass, field
from itertools import combinations
from math import gcd, lcm
from typing import Sequence

from .linalg import LinearSubspace, Matrix, Vector, coerce, dot, flatten, outer, rank
from .quadric import MATRIX_SIDE, SEGRE_QUADRIC, ProjMatrix, QuadricGram, point_condition_gradient, projective_point
from .quadric import sigma1, sigma2


# e_i and e_i + e_j: enough points to span every symmetric tensor q q^T.
POLARIZATION_POINTS: tuple[Vector, ...] = tuple(
    tuple(int(c in subset) for c in range(MATRIX_SIDE))
    for size in (1, 2)
    for subset in combinations(range(MATRIX_SIDE), size)
)

MATRIX_SPACE_DIM = MATRIX_SIDE ** 2


def _multilinear_tangent(f, *args: Vector) -> LinearSubspace:
    """Tangent space at f(*args) to the image of a multilinear map f.

    Spanned by f with one argument replaced by a coordinate unit vector, over
    every argument slot and every coordinate of that slot.
    """
    directions = []
    for slot, arg in enumerate(args):
        for c in range(len(arg)):
            unit = tuple(int(j == c) for j in range(len(arg)))
            directions.append(f(*args[:slot], unit, *args[slot + 1 :]))
    return LinearSubspace.span(directions)


def gradient_span(phi: ProjMatrix, gram: QuadricGram = SEGRE_QUADRIC) -> LinearSubspace:
    """Span of the point-condition gradients at phi over all points of P^3.

    The common tangent space of all point conditions at phi is the annihilator
    of this span, of projective dimension MATRIX_SPACE_DIM - 1 - span.dim().
    """
    gradients = [
        flatten(point_condition_gradient(phi, q, gram)) for q in POLARIZATION_POINTS
    ]
    return LinearSubspace.span(gradients, MATRIX_SPACE_DIM)


def tangent_ruling_component(which: int, p: Sequence, xi: Sequence[Sequence]) -> LinearSubspace:
    """Embedded tangent space to a ruling component at the point (p, xi).

    Spanned by the images under the bilinear ruling map of the eight
    coordinate directions in the P^7 factor and the two coordinate directions
    in the P^1 factor; the result always has linear dimension 9 (a projective
    P^8).  The inputs are checked by sigma1 or sigma2 at (p, xi) itself.
    """
    if which not in (1, 2):
        raise ValueError("the ruling component index is 1 or 2")
    sigma = sigma1 if which == 1 else sigma2
    sigma(p, xi)
    return _multilinear_tangent(
        lambda s, t: flatten(sigma(s, (t[:MATRIX_SIDE], t[MATRIX_SIDE:])).entries), coerce(p), flatten(map(coerce, xi))
    )


def quadric_point(p: Sequence, q: Sequence) -> Vector:
    """Point of the quadric surface parameterized by P^1 x P^1.

    Coordinate ordering (p0*q0 : p1*q0 : p0*q1 : p1*q1); the image satisfies
    x0*x3 - x1*x2 = 0.
    """
    p0, p1 = projective_point(p, 2)
    q0, q1 = projective_point(q, 2)
    return (p0 * q0, p1 * q0, p0 * q1, p1 * q1)


def rank_one_matrix(p: Sequence, q: Sequence, k: Sequence) -> ProjMatrix:
    """Rank-one matrix with image the quadric point of (p, q) and kernel the
    plane annihilated by k."""
    return ProjMatrix(outer(quadric_point(p, q), projective_point(k, MATRIX_SIDE)))


def pencil_matrix(a: Sequence, k: Sequence) -> Matrix:
    """The 2x4 matrix a k^T, the P^7 coordinate of a rank-one intersection point."""
    return outer(projective_point(a, 2), projective_point(k, MATRIX_SIDE))


def tangent_intersection_locus(p: Sequence, q: Sequence, k: Sequence) -> LinearSubspace:
    """Tangent space to the locus where the two ruling components meet.

    That locus is the rank-one matrices with image on the quadric,
    parameterized trilinearly by (p, q, k); the tangent space is the span of
    the lifts of all coordinate directions and has linear dimension 6 (a
    projective P^5).
    """
    pv, qv, kv = projective_point(p, 2), projective_point(q, 2), projective_point(k, MATRIX_SIDE)
    return _multilinear_tangent(lambda a, b, c: flatten(outer(quadric_point(a, b), c)), pv, qv, kv)


def verify_tangent_intersection(p: Sequence, q: Sequence, k: Sequence) -> bool:
    """Check that the two ruling tangent spaces T1 and T2 meet exactly in the
    tangent space E of the intersection locus at the rank-one point of (p, q, k).

    Both contain E, and by the Grassmann formula the intersection has
    dimension dim T1 + dim T2 - rank(T1 + T2), which must equal dim E: so the
    intersection is E and no larger.
    """
    t1 = tangent_ruling_component(1, q, pencil_matrix(p, k))
    t2 = tangent_ruling_component(2, p, pencil_matrix(q, k))
    expected = tangent_intersection_locus(p, q, k)
    return (
        t1.contains_subspace(expected)
        and t2.contains_subspace(expected)
        and rank(t1.basis + t2.basis) == t1.dim() + t2.dim() - expected.dim()
    )


def verify_gradient_rank(p: Sequence, q: Sequence, k: Sequence) -> bool:
    """Check the two facts that make the rank-one stratum uniform:

    the point-condition gradients at the rank-one point span exactly four
    dimensions (so the common tangent space is a projective P^11), and that
    common tangent space contains the tangent space of the intersection locus.
    """
    phi = rank_one_matrix(p, q, k)
    span = gradient_span(phi)
    if span.dim() != MATRIX_SIDE:
        return False
    locus = tangent_intersection_locus(p, q, k)
    return all(dot(g, t) == 0 for g in span.basis for t in locus.basis)


# Canonical sample points: the rank-one matrix E_00 (image (1:0:0:0), kernel
# x0 = 0) and the rank-one matrix E_22 used for the intersection check.
CANONICAL_RANK_ONE = ((1, 0), (1, 0), (1, 0, 0, 0))
CANONICAL_INTERSECTION = ((1, 0), (0, 1), (0, 0, 1, 0))

# Rank-two normal form on the first ruling component: rows (e0; e1) in the
# P^7 factor.
RANK_TWO_NORMAL_FORM = ((1, 0), ((1, 0, 0, 0), (0, 1, 0, 0)))


def sigma_normal_form() -> ProjMatrix:
    """The rank-two normal form on the first ruling component."""
    return sigma1(*RANK_TWO_NORMAL_FORM)


# Gradient span at the rank-two normal form, as {(i, j): coefficient of
# a_{i,j}}: one mixed generator a_{2,0} - a_{3,1} plus six single coordinates.
_RANK_TWO_GENERATORS = [
    {(2, 0): 1, (3, 1): -1},
    {(2, 1): 1},
    {(2, 2): 1},
    {(2, 3): 1},
    {(3, 0): 1},
    {(3, 2): 1},
    {(3, 3): 1},
]


def rank_two_expected_span() -> LinearSubspace:
    vectors = [[gen.get(divmod(c, MATRIX_SIDE), 0) for c in range(MATRIX_SPACE_DIM)] for gen in _RANK_TWO_GENERATORS]
    return LinearSubspace.span(vectors, MATRIX_SPACE_DIM)


# -- seeded sampling -------------------------------------------------------


def random_projective_point(rng: random.Random, length: int) -> Vector:
    """Nonzero point with coordinates a/b, -10 <= a <= 10 and 1 <= b <= 10,
    returned as ints: the point times the lcm of its reduced denominators."""
    if operator.index(length) < 1:
        raise ValueError("a projective point needs at least one coordinate")
    while True:
        draws = [(rng.randint(-10, 10), rng.randint(1, 10)) for _ in range(length)]
        if any(a for a, _ in draws):
            scale = lcm(*(b // gcd(a, b) for a, b in draws))
            return tuple(a * scale // b for a, b in draws)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TangentReport:
    seed: int
    samples: int
    checks: list[CheckResult]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_payload(self) -> dict:
        return {
            "seed": self.seed,
            "samples": self.samples,
            "all_passed": self.all_passed,
            "checks": [asdict(c) for c in self.checks],
        }


def _random_check(name: str, check, rng: random.Random, samples: int) -> CheckResult:
    """Run check on seeded random points (p, q, k) of P^1 x P^1 x P^3, recording failing indices."""
    failures = []
    for index in range(samples):
        p, q, k = (random_projective_point(rng, length) for length in (2, 2, MATRIX_SIDE))
        if not check(p, q, k):
            failures.append(index)
    return CheckResult(name, not failures, {"samples": samples, "failures": failures})


def run_tangent_checks(seed: int = 0, samples: int = 20) -> TangentReport:
    """Run the full battery of tangent-space checks.

    Failures report the seed so any run can be reproduced exactly.  At least
    one sample is required, so the random checks never pass vacuously.
    """
    seed, samples = operator.index(seed), operator.index(samples)
    if samples < 1:
        raise ValueError("the tangent checks need at least one random sample")
    rng = random.Random(seed)
    checks: list[CheckResult] = []

    span = gradient_span(rank_one_matrix(*CANONICAL_RANK_ONE))
    checks.append(
        CheckResult(
            "gradient-rank-canonical",
            verify_gradient_rank(*CANONICAL_RANK_ONE),
            {
                "gradient_span_dim": span.dim(),
                "common_tangent_projective_dim": MATRIX_SPACE_DIM - 1 - span.dim(),
            },
        )
    )

    checks.append(_random_check("gradient-rank-random", verify_gradient_rank, rng, samples))

    normal_span = gradient_span(sigma_normal_form())
    checks.append(
        CheckResult(
            "gradient-span-rank-two-normal-form",
            normal_span == rank_two_expected_span(),
            {"gradient_span_dim": normal_span.dim()},
        )
    )

    checks.append(
        CheckResult(
            "tangent-intersection-canonical",
            verify_tangent_intersection(*CANONICAL_INTERSECTION),
            {},
        )
    )

    checks.append(_random_check("tangent-intersection-random", verify_tangent_intersection, rng, samples))

    return TangentReport(seed, samples, checks)
