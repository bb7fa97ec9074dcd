"""Command-line interface.

Each cmd_* function returns (result, text).  main prints the text, or under --json
the payload {"command": ..., "inputs": {...}, "result": {...}}, whose inputs are the
parsed arguments; verify has no text and always prints the payload.  main alone
serializes, by one rule: an integer is a JSON number if it fits in 64 bits, else a
decimal string, and a rational is its string ("1/2"), as is each segre-class coefficient.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 internal
integrality failure.

``import predegree`` loads submodules on first use, and each command loads
only the modules it runs: every command needs ``polynomial``, imported here,
while a cmd_* that needs ``quadric``, ``segre`` or ``tangent`` imports it itself
(``chow`` comes with ``segre``, ``linalg`` with the other two), and main loads
``json`` only to print a payload.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .polynomial import IntegralityError, deg_po, deg_so, format_polynomial, predegree_coefficient

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_INTEGRALITY = 3

_INT64_MAX = 2**63 - 1

# The Segre class costs about d^2 small products, d = sum n_i; within this limit on prod(n_i + 1) the
# heaviest inputs take 7-12 ms (0,255), 1.4-2.3 ms (1,127) and 0.12-0.21 ms (15,15) in process.
MAX_SEGRE_BOX = 256
# deg SO(m) takes O(m^2) exact steps on integers of up to a few thousand bits: in process on a
# 2-core x86-64 box with Python 3.11, m = 100 takes about 40 ms, m = 150 0.35 s and m = 200 1.5 s,
# so the limit keeps every accepted group size well under a second.
MAX_GROUP_M = 100
# In process on a 2-core x86-64 box with Python 3.11, run_tangent_checks(0, 200) takes 0.57-0.72 s, about
# 3 ms a sample, and 1000 samples take about 3 s.
MAX_TANGENT_SAMPLES = 1000
# a_i has about i * log10(d) digits: the largest answer within both limits has 766.
MAX_COEFF_DEGREE = 1000

# What every cmd_* returns: (result, text); text is None where the command prints only JSON.
Outcome = tuple[dict, str | None]


def _json_ints(value):
    """The payload with every integer past 64 bits and every rational as a string; the rest passes unchanged."""
    if isinstance(value, dict):
        return {key: _json_ints(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_json_ints(item) for item in value]
    if isinstance(value, Fraction) or (isinstance(value, int) and not -_INT64_MAX - 1 <= value <= _INT64_MAX):
        return str(value)
    return value


def check_limit(label: str, value: int, limit: int) -> None:
    """The one rule for user sizes: past its limit, a value is a usage error (exit 2)."""
    if value > limit:
        raise ValueError(f"{label} {value} exceeds the limit of {limit}")


def _list_parser(convert, expected: str):
    """An argparse type for a comma-separated list of convert(part); a bad part is a usage error."""
    def parse(raw: str) -> list:
        try:
            return [convert(part) for part in raw.split(",")]
        except (ValueError, ZeroDivisionError) as exc:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {raw!r}") from exc
    return parse


parse_int_list = _list_parser(int, "a comma-separated integer list")
parse_rational_list = _list_parser(Fraction, "comma-separated rationals")


def _segre_space(flag: str, factors: list[int]) -> ProductSpace:
    from . import segre
    from .chow import ProductSpace

    space = ProductSpace(tuple(factors))
    box = segre.ambient_dim(space) + 1
    check_limit(f"{flag} {','.join(map(str, factors))}: the factor box prod(n_i + 1) =", box, MAX_SEGRE_BOX)
    return space


def _row_result(row) -> dict:
    return {
        "quadric_space_dim": row.quadric_space_dim,
        "max_base_component_dim": row.max_base_component_dim,
        "coefficients": list(row.coeffs),
        "polynomial": format_polynomial(row.coeffs),
    }


def cmd_predegree(args) -> Outcome:
    from .quadric import table1_row

    check_limit(f"--n {args.n}: the group size n + 1 =", args.n + 1, MAX_GROUP_M)
    result = _row_result(table1_row(args.n))
    return result, result["polynomial"]


def cmd_segre_class(args) -> Outcome:
    from . import segre

    space = _segre_space("--factors", args.factors)
    cls = segre.segre_class_pushforward(space)
    result = {"ambient_dim": segre.ambient_dim(space), "terms": cls.to_records()}
    return result, str(cls)


def cmd_group_degree(args) -> Outcome:
    check_limit("--m", args.m, MAX_GROUP_M)
    value = deg_so(args.m) if args.command == "deg-so" else deg_po(args.m)
    return {"degree": value}, str(value)


def cmd_table(args) -> Outcome:
    from .quadric import table1_row, table2

    if args.which == 1:
        rows = [{"n": n, **_row_result(table1_row(n))} for n in range(1, 5)]
        text = "\n".join(
            f"n={r['n']}  dim quadric space={r['quadric_space_dim']}  "
            f"max base component dim={r['max_base_component_dim']}  {r['polynomial']}"
            for r in rows
        )
    else:
        rows = [{"dim_l": d, "count": c} for d, c in table2()]
        text = "\n".join(f"dim L = {r['dim_l']}: {r['count']}" for r in rows)
    return {"rows": rows}, text


def cmd_verify(args) -> Outcome:
    from .tangent import run_tangent_checks

    check_limit("--samples", args.samples, MAX_TANGENT_SAMPLES)
    report = run_tangent_checks(seed=args.seed, samples=args.samples)
    return report.to_payload(), None


def cmd_member(args) -> Outcome:
    from .quadric import ProjMatrix, base_scheme_member

    phi = ProjMatrix.from_flat(args.matrix)
    member = base_scheme_member(phi)
    return {"member": member}, "true" if member else "false"


def cmd_coeff(args) -> Outcome:
    from . import segre

    space = _segre_space("--segre-factors", args.segre_factors)
    check_limit("--d", args.d, MAX_COEFF_DEGREE)
    cls = segre.segre_class_pushforward(space)
    if args.double:
        cls = 2 * cls
    ambient = segre.ambient_dim(space)
    value = predegree_coefficient(ambient, args.d, cls, args.i)
    return {"coefficient": value}, str(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="predegree",
        description="Exact intersection-theory calculator for quadric orbit invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predegree", help="predegree polynomial of a smooth quadric")
    p.add_argument("target", choices=["quadric"])
    p.add_argument("--n", type=int, required=True,
                   help=f"dimension of the ambient P^n, at most {MAX_GROUP_M - 1}")
    p.set_defaults(func=cmd_predegree)

    p = sub.add_parser("segre-class", help="pushed-forward Segre class of a Segre embedding")
    p.add_argument("--factors", type=parse_int_list, required=True, metavar="n1,n2,...",
                   help=f"factor dimensions, with prod(n_i + 1) at most {MAX_SEGRE_BOX}")
    p.set_defaults(func=cmd_segre_class)

    for name in ("deg-so", "deg-po"):
        p = sub.add_parser(name, help=f"degree of the closure of {name.split('-')[1].upper()}(m)")
        p.add_argument("--m", type=int, required=True, help=f"group size, at most {MAX_GROUP_M}")
        p.set_defaults(func=cmd_group_degree)

    p = sub.add_parser("table", help="summary tables for smooth quadrics")
    p.add_argument("--which", type=int, choices=[1, 2], required=True)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="exact tangent-space verification")
    p.add_argument("what", choices=["tangents"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=20, help=f"random samples, 1 to {MAX_TANGENT_SAMPLES}")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("member", help="membership of a matrix in the base locus")
    p.add_argument("--matrix", type=parse_rational_list, required=True, metavar="r0c0,...,r3c3")
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("coeff", help="single predegree coefficient from a Segre class")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--d", type=int, default=2, help=f"hypersurface degree, 1 to {MAX_COEFF_DEGREE}")
    p.add_argument("--segre-factors", type=parse_int_list, default=[1, 7], metavar="n1,n2,...",
                   help=f"Segre factor dimensions, with prod(n_i + 1) at most {MAX_SEGRE_BOX}")
    p.add_argument("--double", action="store_true", help="use twice the Segre class")
    p.set_defaults(func=cmd_coeff)

    # Last, so that [--json] ends each usage line; verify always prints JSON.
    for name, p in sub.choices.items():
        if name != "verify":
            p.add_argument("--json", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result, text = args.func(args)
    except IntegralityError as exc:
        print(f"internal integrality failure: {exc}", file=sys.stderr)
        return EXIT_INTEGRALITY
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if text is None or args.json:
        import json

        inputs = {key: value for key, value in vars(args).items() if key not in ("command", "json", "func")}
        print(json.dumps(_json_ints({"command": args.command, "inputs": inputs, "result": result}), indent=2))
    else:
        print(text)
    # Only a tangent report carries all_passed.
    return EXIT_OK if result.get("all_passed", True) else EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
