"""The four benchmark workloads: query generation and answer checks.

A run repeats one round of queries.  Every round of a workload holds the same
multiset of query kinds and sizes; the seed draws the order and the free
parameters (coefficient index, random points, tangent-check seeds).  Each
round starts from empty caches, as a fresh ``predegree`` process does.

Every check compares against ``reference`` or against pinned published
values, never against the function being timed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import json
import os
import random
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, prod
from pathlib import Path
from typing import Callable

import reference

chow = importlib.import_module("predegree.chow")
cli = importlib.import_module("predegree.cli")
polynomial = importlib.import_module("predegree.polynomial")
quadric = importlib.import_module("predegree.quadric")
segre = importlib.import_module("predegree.segre")
tangent = importlib.import_module("predegree.tangent")

PACKAGE_MODULES = (chow, cli, polynomial, quadric, segre, tangent, importlib.import_module("predegree.linalg"))


@dataclass
class Query:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    # (N, d) for queries that go through the twist caches.
    cache_key: tuple | None = None
    # Same work without a process boundary, for traced runs (cli only).
    inprocess_call: Callable[[], object] | None = None
    props: dict = field(default_factory=dict)


def reset_caches():
    """Empty every memo cache in the package, as a new process would have."""
    for module in PACKAGE_MODULES:
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def _safe(check):
    def guarded(result):
        try:
            return bool(check(result))
        except Exception:
            return False

    return guarded


def _rational(rng: random.Random, bound: int = 9) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def _nonzero_vector(rng: random.Random, length: int) -> tuple:
    while True:
        v = tuple(_rational(rng) for _ in range(length))
        if any(v):
            return v


# -- classes ---------------------------------------------------------------

# Segre-embedded products with target P^N for N from 3 to 35.
SEGRE_PRODUCTS = [
    (1, 1), (1, 2), (1, 1, 1), (2, 2), (2, 3), (1, 7), (1, 1, 1, 1), (3, 4), (4, 4), (2, 2, 2), (3, 7), (2, 10), (5, 5),
]
# Full polynomials predegree_from_segre(N, d, mult * S, orbit_dim) for N of the
# form n^2 + 2n; orbit_dim is the longest prefix whose coefficients are all
# non-negative, so every input is one the library accepts.
FROM_SEGRE = [((1, 1), 1, 3), ((2, 2), 1, 2), ((3, 3), 2, 2), ((1, 7), 2, 2), ((4, 4), 1, 3), ((5, 5), 1, 2)]
DEGREES = (2, 3, 4)


@lru_cache(maxsize=None)
def _segre_reference(dims) -> tuple[int, ...]:
    return tuple(reference.segre_class(dims))


def _segre_input(dims, mult: int):
    """The class mult * S on P^N, built from the reference coefficients."""
    s = _segre_reference(dims)
    return chow.ChowClass(chow.ProductSpace((len(s) - 1,)), {(j,): mult * c for j, c in enumerate(s) if c})


def _segre_query(dims) -> Query:
    s = _segre_reference(dims)
    n_target = len(s) - 1
    codim = n_target - sum(dims)

    def check(cls):
        coeffs = [cls.coefficient((j,)) for j in range(n_target + 1)]
        euler = sum(comb(n_target + 1, n_target - j) * c for j, c in enumerate(coeffs))
        return (
            cls.ambient.factor_dims == (n_target,)
            and euler == prod(n + 1 for n in dims)
            and coeffs[codim] == reference.multinomial(dims)
            and not any(coeffs[:codim])
            and coeffs == list(s)
        )

    return Query(
        "segre_class", lambda: segre.segre_class_pushforward(chow.ProductSpace(dims)), _safe(check),
        props={"N": n_target},
    )


def _coefficient_query(dims, d: int, i: int) -> Query:
    s = _segre_reference(dims)
    n_target = len(s) - 1
    expected = reference.predegree_coefficients(d, list(s), i)[i]
    cls = _segre_input(dims, 1)

    def check(value):
        below_codim = i >= n_target - sum(dims) or value == d**i
        return type(value) is int and value == expected and below_codim

    return Query(
        "coefficient", lambda: polynomial.predegree_coefficient(n_target, d, cls, i), _safe(check),
        cache_key=(n_target, d), props={"N": n_target, "codim": n_target - sum(dims)},
    )


def _from_segre_query(dims, mult: int, d: int) -> Query:
    s = [mult * c for c in _segre_reference(dims)]
    n_target = len(s) - 1
    full = reference.predegree_coefficients(d, s, n_target)
    orbit_dim = next((i for i, a in enumerate(full) if a < 0), n_target + 1) - 1
    expected = tuple(full[: orbit_dim + 1]) + (0,) * (n_target - orbit_dim)
    cls = _segre_input(dims, mult)
    return Query(
        "from_segre", lambda: polynomial.predegree_from_segre(n_target, d, cls, orbit_dim),
        _safe(lambda poly: poly.coeffs == expected), cache_key=(n_target, d),
        props={"N": n_target, "codim": n_target - sum(dims)},
    )


def _p3_query() -> Query:
    expected = reference.P3_POLYNOMIAL + (0,) * 6
    return Query(
        "quadric_p3", lambda: quadric.predegree_quadric_p3(), _safe(lambda poly: poly.coeffs == expected),
        cache_key=(15, 2), props={"N": 15, "codim": 7},
    )


def classes_round(rng: random.Random, tiny: bool = False) -> list[Query]:
    if tiny:
        return [_segre_query((1, 2)), _coefficient_query((1, 1), 2, 2), _p3_query()]
    queries = [_segre_query(dims) for dims in SEGRE_PRODUCTS]
    for dims in SEGRE_PRODUCTS:
        n_target = reference.segre_target_dim(dims)
        # One index from each third of 0..N, and a reuse query from the middle
        # third, so the rounds of all seeds ask for about the same work.
        middle = (n_target // 3 + 1, 2 * n_target // 3)
        thirds = [(0, middle[0] - 1), middle, (middle[1] + 1, n_target)]
        rng.shuffle(thirds)
        for d, (low, high) in zip(DEGREES, thirds):
            queries.append(_coefficient_query(dims, d, rng.randint(low, high)))
        queries.append(_coefficient_query(dims, rng.choice(DEGREES), rng.randint(*middle)))
    queries += [_from_segre_query(*spec) for spec in FROM_SEGRE]
    queries.append(_p3_query())
    rng.shuffle(queries)
    # The first query on an (N, d) pair fills the twist caches for it.  Make it
    # the coefficient query on the class of lowest codimension, which fills
    # them all, so which query pays for the fill does not depend on the seed.
    groups = defaultdict(list)
    for index, query in enumerate(queries):
        if query.cache_key is not None:
            groups[query.cache_key].append(index)
    for indices in groups.values():
        members = sorted((queries[i] for i in indices), key=lambda q: (q.kind != "coefficient", q.props["codim"]))
        for i, query in zip(indices, members):
            queries[i] = query
    return queries


def classes_properties(queries: list[Query]) -> dict:
    seen, reused, keyed = set(), 0, 0
    for q in queries:
        if q.cache_key is not None:
            keyed += 1
            reused += q.cache_key in seen
            seen.add(q.cache_key)
    sizes = [q.props["N"] for q in queries]
    return {
        "queries_per_round": len(queries),
        "N_range": [min(sizes), max(sizes)],
        "reuse_share": reused / len(queries),
        "reuse_share_of_cached_queries": reused / keyed,
        "distinct_N_d_pairs": len(seen),
    }


# -- tangents --------------------------------------------------------------

# Sample counts repeat in blocks, so p50 and p90 each fall inside a block of
# equal-size checks rather than between two sizes.
TANGENT_SAMPLES = (1, 1, 1, 2, 2, 3, 4, 4) * 3
MEMBER_QUERIES = ("sigma1", "sigma2", "generic", "generic") * 3


def _tangent_query(seed: int, samples: int) -> Query:
    def check(report):
        return report.all_passed and report.seed == seed and report.samples == samples and len(report.checks) == 5

    return Query(
        "tangent_checks", lambda: tangent.run_tangent_checks(seed, samples=samples), _safe(check),
        props={"samples": samples},
    )


def _ruling_matrix(which: str, p, xi) -> list[tuple]:
    """The ruling parameterizations written out: rows s_a * t_b of the 2x4 xi."""
    top, bottom = xi
    rows = (top, bottom, top, bottom) if which == "sigma1" else (top, top, bottom, bottom)
    scales = (p[0], p[0], p[1], p[1]) if which == "sigma1" else (p[0], p[1], p[0], p[1])
    return [tuple(s * t for t in row) for s, row in zip(scales, rows)]


def _member_query(rng: random.Random, which: str) -> Query:
    if which == "generic":
        phi = tuple(_nonzero_vector(rng, 4) for _ in range(4))
        expected = reference.in_base_locus(phi)
        call = lambda: quadric.base_scheme_member(quadric.ProjMatrix(phi))  # noqa: E731
    else:
        p = _nonzero_vector(rng, 2)
        xi = (_nonzero_vector(rng, 4), _nonzero_vector(rng, 4))
        expected = reference.in_base_locus(_ruling_matrix(which, p, xi))
        call = lambda: quadric.base_scheme_member(getattr(quadric, which)(p, xi))  # noqa: E731
    return Query("member", call, _safe(lambda value: value is expected), props={"input": which})


def tangents_round(rng: random.Random, tiny: bool = False) -> list[Query]:
    if tiny:
        return [_tangent_query(rng.randrange(2**31), 1), _member_query(rng, "sigma2"), _member_query(rng, "generic")]
    queries = [_tangent_query(rng.randrange(2**31), s) for s in TANGENT_SAMPLES]
    queries += [_member_query(rng, which) for which in MEMBER_QUERIES]
    rng.shuffle(queries)
    return queries


def tangents_properties(queries: list[Query]) -> dict:
    samples = sorted(q.props["samples"] for q in queries if "samples" in q.props)
    return {
        "queries_per_round": len(queries),
        "tangent_sample_counts": samples,
        "member_inputs": sorted(q.props["input"] for q in queries if "input" in q.props),
        "member_share": sum(q.kind == "member" for q in queries) / len(queries),
    }


# -- degrees ---------------------------------------------------------------

# One m per matrix size k = m // 2 from 1 to 40, so every round does the same
# determinants up to parity; the seed picks m = 2k or 2k + 1.
MATRIX_SIZES = range(1, 41)


_deg_so_reference = lru_cache(maxsize=None)(reference.deg_so)


def _degree_query(m: int, name: str) -> Query:
    def check(value):
        return type(value) is int and value == _deg_so_reference(m) and value == reference.PINNED_DEG_SO.get(m, value)

    return Query(name, lambda: getattr(polynomial, name)(m), _safe(check), props={"m": m})


def degrees_round(rng: random.Random, tiny: bool = False) -> list[Query]:
    ms = list(range(2, 9)) if tiny else [min(2 * k + rng.randint(0, 1), 80) for k in MATRIX_SIZES]
    rng.shuffle(ms)
    return [_degree_query(m, rng.choice(("deg_so", "deg_po"))) for m in ms]


def degrees_properties(queries: list[Query]) -> dict:
    ms = [q.props["m"] for q in queries]
    return {"queries_per_round": len(queries), "m_range": [min(ms), max(ms)]}


# -- cli -------------------------------------------------------------------

GOLDEN_PATH = Path(__file__).with_name("cli_golden.json")
# A member of the base locus (sigma1 of (1 : 2) and a rational 2x4 matrix)
# and a matrix of full rank, which is not.
MEMBER_MATRIX = "1/2,0,3/2,0,0,1,0,-1,1,0,3,0,0,2,0,-2"
NON_MEMBER_MATRIX = "1,2,0,0,0,1,0,0,0,0,1,0,0,0,0,1"
CLI_COMMANDS = [
    ["predegree", "quadric", "--n", "3"],
    ["predegree", "quadric", "--n", "4"],
    ["table", "--which", "1"],
    ["table", "--which", "2"],
    ["segre-class", "--factors", "3,7"],
    ["deg-so", "--m", "60"],
    ["coeff", "--i", "8", "--double"],
    ["member", "--matrix", MEMBER_MATRIX],
    ["member", "--matrix", NON_MEMBER_MATRIX],
]
CLI_ARGVS = [argv + mode for argv in CLI_COMMANDS for mode in ([], ["--json"])]
# verify has no text mode; one run per round with a seed drawn from these.
VERIFY_SEEDS = range(8)


def _verify_argv(seed: int) -> list[str]:
    return ["verify", "tangents", "--seed", str(seed), "--samples", "20"]


def cli_argv_list() -> list[list[str]]:
    """Every command line whose output is pinned in cli_golden.json."""
    return CLI_ARGVS + [_verify_argv(k) for k in VERIFY_SEEDS]


@lru_cache(maxsize=None)
def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def cli_environment(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def _cli_query(root: Path, argv: list[str]) -> Query:
    expected = _golden()[" ".join(argv)].encode()
    env = cli_environment(root)

    def run_process():
        proc = subprocess.run([sys.executable, "-m", "predegree.cli", *argv], cwd=root, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=False)
        return proc.returncode, proc.stdout

    def run_inprocess():
        reset_caches()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        return code, out.getvalue().encode()

    return Query("cli", run_process, _safe(lambda result: result == (0, expected)),
                 inprocess_call=run_inprocess, props={"argv": " ".join(argv)})


def cli_round(rng: random.Random, root: Path, tiny: bool = False) -> list[Query]:
    if tiny:
        return [_cli_query(root, CLI_COMMANDS[1] + ["--json"]), _cli_query(root, CLI_COMMANDS[7])]
    argvs = CLI_ARGVS + [_verify_argv(rng.choice(VERIFY_SEEDS))]
    rng.shuffle(argvs)
    return [_cli_query(root, argv) for argv in argvs]


def cli_properties(queries: list[Query]) -> dict:
    return {"queries_per_round": len(queries), "commands": sorted(q.props["argv"] for q in queries)}


# -- corruption for the non-vacuity check ------------------------------------


def corrupt(result):
    """A plausible wrong answer of the same type as ``result``."""
    if isinstance(result, bool):
        return not result
    if isinstance(result, int):
        return result + 1
    if isinstance(result, tuple):  # (exit code, stdout) of a cli command
        return result[0], result[1] + b" "
    if isinstance(result, chow.ChowClass):
        return result + chow.ChowClass.monomial(result.ambient, result.ambient.top_exponents)
    if isinstance(result, polynomial.PredegreePolynomial):
        coeffs = list(result.coeffs)
        coeffs[-1] += 1
        return dataclasses.replace(result, coeffs=tuple(coeffs))
    if isinstance(result, tangent.TangentReport):
        failing = tangent.CheckResult("corrupted", False)
        return dataclasses.replace(result, checks=[*result.checks, failing])
    raise TypeError(f"no corruption defined for {type(result).__name__}")


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: Callable[..., list[Query]]
    properties: Callable[[list[Query]], dict]
    setup_import: str


def workloads(root: Path) -> dict[str, Workload]:
    return {
        "classes": Workload("classes", classes_round, classes_properties, "predegree"),
        "tangents": Workload("tangents", tangents_round, tangents_properties, "predegree"),
        "degrees": Workload("degrees", degrees_round, degrees_properties, "predegree"),
        "cli": Workload("cli", lambda rng, tiny=False: cli_round(rng, root, tiny), cli_properties, "predegree.cli"),
    }
