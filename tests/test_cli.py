import json
from pathlib import Path

import pytest

from predegree import cli, polynomial, segre, tangent
from predegree.polynomial import IntegralityError
from predegree.tangent import CheckResult, TangentReport

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "bench" / "cli_golden.json"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_predegree_quadric_text(capsys):
    code, out, _ = run_cli(capsys, "predegree", "quadric", "--n", "3")
    assert code == 0
    assert out.strip() == (
        "1 + 2t + 4t^2 + 8t^3 + 16t^4 + 32t^5 + 64t^6 + 112t^7 + 140t^8 + 40t^9"
    )


def test_predegree_quadric_json(capsys):
    code, out, _ = run_cli(capsys, "predegree", "quadric", "--n", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "predegree"
    assert payload["inputs"] == {"target": "quadric", "n": 3}
    assert payload["result"]["coefficients"] == [1, 2, 4, 8, 16, 32, 64, 112, 140, 40]


def test_predegree_quadric_n4_sentinels(capsys):
    code, out, _ = run_cli(capsys, "predegree", "quadric", "--n", "4", "--json")
    assert code == 0
    coeffs = json.loads(out)["result"]["coefficients"]
    assert coeffs[:12] == [2 ** i for i in range(12)]
    assert coeffs[12] is None and coeffs[13] is None
    assert coeffs[14] == 384


def test_deg_so_and_po(capsys):
    for name in ("deg-so", "deg-po"):
        code, out, _ = run_cli(capsys, name, "--m", "5")
        assert code == 0
        assert out.strip() == "384"


def test_segre_class_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "segre-class", "--factors", "1,7")
    assert code == 0
    assert out.strip() == (
        "8*H^7 - 70*H^8 + 344*H^9 - 1248*H^10 + 3720*H^11 - 9636*H^12"
        " + 22440*H^13 - 48048*H^14 + 96096*H^15"
    )
    code, out, _ = run_cli(capsys, "segre-class", "--factors", "1,7", "--json")
    payload = json.loads(out)
    assert payload["result"]["ambient_dim"] == 15
    coeffs = {r["exponents"][0]: r["coeff"] for r in payload["result"]["terms"]}
    assert coeffs == {
        7: "8",
        8: "-70",
        9: "344",
        10: "-1248",
        11: "3720",
        12: "-9636",
        13: "22440",
        14: "-48048",
        15: "96096",
    }


def test_json_round_trip_is_byte_identical(capsys):
    for argv in (
        ["predegree", "quadric", "--n", "3", "--json"],
        ["segre-class", "--factors", "1,7", "--json"],
        ["table", "--which", "2", "--json"],
        ["coeff", "--i", "8", "--double", "--json"],
    ):
        _, out, _ = run_cli(capsys, *argv)
        assert json.dumps(json.loads(out), indent=2) + "\n" == out


def test_text_and_json_agree(capsys):
    _, text, _ = run_cli(capsys, "deg-so", "--m", "4")
    _, out, _ = run_cli(capsys, "deg-so", "--m", "4", "--json")
    assert json.loads(out)["result"]["degree"] == int(text)


def test_table_1(capsys):
    code, out, _ = run_cli(capsys, "table", "--which", "1", "--json")
    assert code == 0
    rows = json.loads(out)["result"]["rows"]
    assert [(r["n"], r["quadric_space_dim"], r["max_base_component_dim"]) for r in rows] == [
        (1, 2, 1),
        (2, 5, 3),
        (3, 9, 8),
        (4, 14, 12),
    ]
    assert rows[0]["polynomial"] == "1 + 2t + 2t^2"
    # unknown slots stay JSON null
    assert rows[3]["coefficients"][12:] == [None, None, 384]


def test_table_2(capsys):
    code, out, _ = run_cli(capsys, "table", "--which", "2", "--json")
    assert code == 0
    rows = json.loads(out)["result"]["rows"]
    assert [r["count"] for r in rows] == [1, 2, 4, 8, 16, 32, 64, 112, 140, 1]
    code, out, _ = run_cli(capsys, "table", "--which", "2")
    assert "dim L = 7: 112" in out


def test_member(capsys):
    identity = "1,0,0,0,0,1,0,0,0,0,1,0,0,0,0,1"
    code, out, _ = run_cli(capsys, "member", "--matrix", identity)
    assert code == 0 and out.strip() == "false"
    rank_one = "1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0"
    code, out, _ = run_cli(capsys, "member", "--matrix", rank_one)
    assert code == 0 and out.strip() == "true"
    # rationals are accepted as p/q
    halves = ",".join(["1/2", "0", "0", "0"] + ["0"] * 12)
    code, out, _ = run_cli(capsys, "member", "--matrix", halves)
    assert code == 0 and out.strip() == "true"


def test_member_json_echoes_rationals_in_lowest_terms(capsys):
    # 0.5 and 2/4 are echoed as "1/2" and answered as the 1/2 spelling is
    payloads = []
    for half in ("1/2", "0.5", "2/4"):
        code, out, _ = run_cli(capsys, "member", "--matrix", ",".join([half] + ["0"] * 14 + [half]), "--json")
        assert code == 0
        payloads.append(json.loads(out))
    assert payloads[0]["inputs"] == {"matrix": ["1/2"] + ["0"] * 14 + ["1/2"]}
    assert payloads[0]["result"] == {"member": False}
    assert payloads[1] == payloads[2] == payloads[0]


def test_coeff_values(capsys):
    for i, expected in ((7, "112"), (8, "140"), (9, "40")):
        code, out, _ = run_cli(capsys, "coeff", "--i", str(i), "--double")
        assert code == 0
        assert out.strip() == expected
    # without doubling, the single-component class gives different numbers
    code, out, _ = run_cli(capsys, "coeff", "--i", "6")
    assert code == 0 and out.strip() == "64"


def test_verify_tangents(capsys):
    code, out, _ = run_cli(capsys, "verify", "tangents", "--seed", "5", "--samples", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["all_passed"] is True
    assert payload["inputs"] == {"what": "tangents", "seed": 5, "samples": 3}


@pytest.mark.parametrize(
    "seed,printed",
    [(2**63 - 1, 2**63 - 1), (-(2**63), -(2**63)), (2**63, str(2**63)), (-(2**63) - 1, str(-(2**63) - 1))],
)
def test_json_integers_past_64_bits_print_as_strings(capsys, seed, printed):
    code, out, _ = run_cli(capsys, "verify", "tangents", f"--seed={seed}", "--samples", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["inputs"]["seed"] == printed and payload["result"]["seed"] == printed
    assert payload["result"]["all_passed"] is True


def test_verify_failure_exit_code(capsys, monkeypatch):
    failing = TangentReport(0, 1, [CheckResult("stub", False, {})])
    monkeypatch.setattr(tangent, "run_tangent_checks", lambda seed, samples: failing)
    code, out, _ = run_cli(capsys, "verify", "tangents")
    assert code == 1
    assert json.loads(out)["result"]["all_passed"] is False


def test_failing_battery_exits_with_its_payload(capsys, monkeypatch):
    calls = []

    def check(p, q, k):
        # fail the canonical point (call 1) and the third random sample (call 4)
        calls.append((p, q, k))
        return len(calls) not in (1, 4)

    monkeypatch.setattr(tangent, "verify_tangent_intersection", check)
    code, out, _ = run_cli(capsys, "verify", "tangents", "--seed", "5", "--samples", "3")
    assert code == 1
    payload = json.loads(out)
    assert payload["inputs"] == {"what": "tangents", "seed": 5, "samples": 3}
    failed = {c["name"]: c["detail"] for c in payload["result"]["checks"] if not c["passed"]}
    assert failed == {
        "tangent-intersection-canonical": {},
        "tangent-intersection-random": {"samples": 3, "failures": [2]},
    }
    assert payload["result"]["all_passed"] is False


def test_usage_error_exit_codes(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["predegree", "quadric"])  # missing --n
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2
    # domain errors map to the usage exit code without a traceback
    code, _, err = run_cli(capsys, "member", "--matrix", "1,0,0")
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "deg-so", "--m", "1")
    assert code == 2


def test_integrality_failure_exit_code(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise IntegralityError("stub")

    monkeypatch.setattr(cli, "predegree_coefficient", boom)
    code, _, err = run_cli(capsys, "coeff", "--i", "3")
    assert code == 3
    assert "integrality" in err


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_tangents_needs_samples(capsys, samples):
    code, out, err = run_cli(capsys, "verify", "tangents", "--samples", samples)
    assert code == 2
    assert out == "" and "error" in err


def test_deg_so_integrality_failure_exit_code(capsys, monkeypatch):
    # wrong start values G_1 leave a remainder in the exact division of the recurrence
    monkeypatch.setattr(polynomial, "comb", lambda n, k: 1)
    with pytest.raises(IntegralityError):
        polynomial.deg_so(4)
    code, _, err = run_cli(capsys, "deg-so", "--m", "4")
    assert code == 3
    assert "integrality" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["segre-class", "--factors", "15,16"],
        ["segre-class", "--factors", "1,1,1,1,1,1,1,1,1"],
        ["coeff", "--i", "3", "--segre-factors", "16,15"],
    ],
)
def test_segre_factor_box_is_bounded(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == "" and "exceeds the limit of 256" in err


def test_segre_factor_box_limit_is_inclusive(capsys):
    code, out, _ = run_cli(capsys, "coeff", "--i", "0", "--segre-factors", "15,15")
    assert code == 0 and out == "1\n"


@pytest.mark.parametrize(
    "argv",
    [["deg-so", "--m", "101"], ["deg-po", "--m", "101"], ["predegree", "quadric", "--n", "100", "--json"]],
)
def test_group_size_is_bounded(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == "" and "limit of 100" in err


def test_group_size_limit_is_inclusive(capsys, monkeypatch):
    # The stub records that each command asked for m = 100 (deg_so(100) itself takes about 40 ms).
    requested = []
    stub = lambda m: requested.append(m) or 7  # noqa: E731
    monkeypatch.setattr(cli, "deg_so", stub)
    monkeypatch.setattr(polynomial, "deg_so", stub)
    for name in ("deg-so", "deg-po"):
        code, out, _ = run_cli(capsys, name, "--m", "100")
        assert code == 0 and out == "7\n"
    code, out, _ = run_cli(capsys, "predegree", "quadric", "--n", "99")
    assert code == 0 and out.endswith(" + *t^5048 + 7t^5049\n")
    assert requested == [100, 100, 100]


@pytest.mark.parametrize("samples", ["1001", "100000"])
def test_tangent_samples_are_bounded(capsys, monkeypatch, samples):
    requested = []
    monkeypatch.setattr(tangent, "run_tangent_checks", lambda seed, samples: requested.append(samples))
    code, out, err = run_cli(capsys, "verify", "tangents", "--samples", samples)
    assert code == 2
    assert out == "" and "limit of 1000" in err
    assert requested == []


def test_tangent_samples_limit_is_inclusive(capsys, monkeypatch):
    # 1000 real samples take about 7 s; the stub records what the CLI asked for.
    requested = []

    def stub(seed, samples):
        requested.append(samples)
        return TangentReport(seed, samples, [CheckResult("stub", True, {})])

    monkeypatch.setattr(tangent, "run_tangent_checks", stub)
    for samples in ("200", "1000"):
        code, out, _ = run_cli(capsys, "verify", "tangents", "--samples", samples)
        assert code == 0 and json.loads(out)["result"]["all_passed"] is True
    assert requested == [200, 1000]


@pytest.mark.parametrize("d", ["0", "-2"])
def test_coeff_degree_must_be_positive(capsys, d):
    code, out, err = run_cli(capsys, "coeff", "--i", "3", "--d", d)
    assert code == 2
    assert out == "" and "degree d" in err


@pytest.mark.parametrize("d", ["1001", "100000000000000000000"])
def test_coeff_degree_is_bounded(capsys, monkeypatch, d):
    # Past the limit nothing is computed; the stubs record any attempt.
    requested = []
    monkeypatch.setattr(segre, "segre_class_pushforward", lambda space: requested.append(space))
    monkeypatch.setattr(cli, "predegree_coefficient", lambda *args: requested.append(args) or 7)
    code, out, err = run_cli(capsys, "coeff", "--segre-factors", "1,127", "--i", "255", "--d", d)
    assert code == 2
    assert out == "" and "limit of 1000" in err
    assert requested == []


def test_coeff_degree_limit_is_inclusive(capsys):
    # The largest answer within both limits still prints as a decimal integer.
    code, out, _ = run_cli(capsys, "coeff", "--segre-factors", "0,255", "--i", "255", "--d", "1000", "--double")
    assert code == 0 and len(out.strip().lstrip("-")) == 766
    code, out, _ = run_cli(capsys, "coeff", "--i", "3", "--d", "1000", "--json")
    assert code == 0 and json.loads(out)["result"]["coefficient"] == 1000**3


def test_golden_outputs(capsys):
    """Every pinned command prints exactly its recorded bytes."""
    golden = json.loads(GOLDEN_PATH.read_text())
    assert golden, "the golden file must pin at least one command"
    for command, expected in golden.items():
        code, out, _ = run_cli(capsys, *command.split())
        assert code == 0, command
        assert out == expected, command


def test_malformed_factor_list_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["segre-class", "--factors", "x"])
    assert exc.value.code == 2
    assert "expected a comma-separated integer list" in capsys.readouterr().err
