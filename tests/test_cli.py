"""CLI surface: subcommands, formats, exit codes."""

import io
import json

import pytest

from redundarith import _kernels, codes, reducer
from redundarith.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mul_json(capsys):
    code, out, _ = run(capsys, "mul", "200", "131", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["rows"] == 2
    value = sum(
        d * 2**j for row in obj["digits"] for j, d in enumerate(reversed(row))
    )
    assert value == 200 * 131


def test_mul_signed_text(capsys):
    code, out, _ = run(capsys, "mul", "0b10101", "0b01101", "--width", "5", "--signed")
    assert code == 0
    assert "value -143" in out


def test_mul_signed_needs_equal_widths(capsys):
    code, _, err = run(capsys, "mul", "0b101", "0b1101", "--signed")
    assert code == 2
    assert err == "error: --signed needs equal operand widths\n"


def test_add_and_reduce_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "add", "25", "17", "--width", "6")
    assert code == 0
    f = tmp_path / "two_row.txt"
    f.write_text(out)
    code, out2, _ = run(capsys, "reduce", str(f))
    assert code == 0
    assert out2.startswith("mrc 2")


def events_of(err):
    events = [json.loads(line) for line in err.splitlines()]
    assert events and all("op" in e for e in events)
    return events


def test_reduce_trace(capsys, tmp_path):
    f = tmp_path / "code.txt"
    f.write_text("mrc 5 4 2 0\n" + "1111\n" * 5)
    code, _, err = run(capsys, "reduce", str(f), "--trace")
    assert code == 0
    events = events_of(err)
    assert [(e["rows_in"], e["rows_out"]) for e in events] == [(5, 3), (3, 2)]
    # digit matrices are written MSB first, as in the code's JSON form
    want = reducer.reduce_to_two(codes.from_text(f.read_text()))
    assert events[-1]["digits"] == codes.to_json_dict(want)["digits"]


def test_reduce_trace_reduces_once(capsys, tmp_path, monkeypatch):
    text = "mrc 9 4 2 0\n" + "1111\n" * 9
    f = tmp_path / "code.txt"
    f.write_text(text)
    plan = reducer.stage_plan(9, 2)
    want = codes.to_text(reducer.reduce_to_two(codes.from_text(text)))
    stages = []
    once, to_two = _kernels.reduce_once_digits, _kernels.reduce_to_two_digits

    def count_once(digits, q):
        stages.append(1)
        return once(digits, q)

    def count_to_two(digits, q):
        out, n = to_two(digits, q)
        stages.append(n)
        return out, n

    monkeypatch.setattr(_kernels, "reduce_once_digits", count_once)
    monkeypatch.setattr(_kernels, "reduce_to_two_digits", count_to_two)
    code, out, _ = run(capsys, "reduce", str(f), "--trace")
    assert code == 0
    assert sum(stages) == plan.stages
    assert out == want


TRACED_COMMANDS = (  # argv, ops its trace holds
    (("reduce", "{code}"), {"reduce"}),
    (("div", "45", "57", "2", "3", "--method", "eager"), {"divide"}),
    (("eval", "3/4 * (2 - 5) + div(5, 7, 2, 3)"), {"sub", "mul", "add", "divide", "reduce"}),
)


@pytest.mark.parametrize("argv,ops", TRACED_COMMANDS, ids=("reduce", "div", "eval"))
@pytest.mark.parametrize("as_json", (False, True), ids=("text", "json"))
def test_trace_leaves_stdout_alone(capsys, tmp_path, argv, ops, as_json):
    f = tmp_path / "code.txt"
    f.write_text("mrc 9 4 2 0\n" + "1011\n" * 9)
    argv = [arg.format(code=f) for arg in argv] + (["--json"] if as_json else [])
    code, plain, err = run(capsys, *argv)
    assert code == 0 and err == ""
    code, traced, err = run(capsys, *argv, "--trace")
    assert code == 0
    assert traced == plain
    if as_json:
        json.loads(traced)
    assert {e["op"] for e in events_of(err)} == ops


def test_traced_usage_error_prints_one_line(capsys):
    for argv in (("div", "14", "7", "2", "2"), ("eval", "1 + 2 + div(22, 7, 2, 3)")):
        code, out, err = run(capsys, *argv, "--trace")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_reduce_outside_numeric_domain_is_usage_error(capsys, tmp_path):
    q = 2**61
    cases = (
        f"mrc 5 2 {q} 0\n" + f"{q - 1} {q - 1}\n" * 5,  # int64 column sums overflow
        f"mrc 1 1 {2**64} 0\n{2**64 - 1}\n",  # digit does not fit int64
    )
    for i, text in enumerate(cases):
        f = tmp_path / f"code{i}.txt"
        f.write_text(text)
        code, out, err = run(capsys, "reduce", str(f))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_add_radix_above_36(capsys):
    code, out, _ = run(capsys, "add", "100", "100", "--radix", "40", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["radix"] == 40
    assert sum(d * 40**j for row in obj["digits"] for j, d in enumerate(reversed(row))) == 200
    code, out, err = run(capsys, "add", "100", "100", "--radix", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_div_identity_and_json(capsys):
    code, out, _ = run(capsys, "div", "5", "7", "4", "4", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["digits"] == [11, 6, 13, 11]
    assert obj["residual"] == 3
    assert obj["identity"] is True


def test_div_usage_error(capsys):
    code, _, err = run(capsys, "div", "14", "7", "2", "2")
    assert code == 2
    assert "error:" in err
    # the scale size is checked before radix**k is computed
    code, out, err = run(capsys, "div", "5", "7", "30000000", "1", "--radix", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_accumulate_stdin_style(capsys, tmp_path):
    f = tmp_path / "stream.txt"
    f.write_text("10110\n01101\n11111\n00001\n")
    code, out, _ = run(capsys, "accumulate", str(f), "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["total"] == str(22 + 13 + 31 + 1)


def test_accumulate_pairs(capsys, tmp_path):
    f = tmp_path / "stream.txt"
    f.write_text("111\n111\n101\n010\n")
    code, out, _ = run(capsys, "accumulate", str(f), "--pairs", "--json")
    assert code == 0
    assert json.loads(out)["total"] == str(7 + 7 + 5 + 2)


def test_accumulate_rejects_nonbinary(capsys, tmp_path):
    f = tmp_path / "stream.txt"
    f.write_text("012\n")
    code, _, err = run(capsys, "accumulate", str(f))
    assert code == 2
    assert "binary" in err


def test_map_command(capsys):
    code, out, _ = run(
        capsys, "map", "a=200", "b=131", "c=77", "--width", "8", "--json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["total"] == str(200 * 131 + 77)


def test_map_rejects_unknown_operand(capsys):
    code, _, err = run(capsys, "map", "zz=1", "--width", "8")
    assert code == 2
    assert "unknown operand" in err


def test_report_exit_zero_and_json(capsys):
    for table in ("2.1", "3.1", "3.2"):
        code, out, _ = run(capsys, "report", "--table", table, "--json")
        assert code == 0
        assert json.loads(out)["mismatches"] == []


def test_fuzz_seed_env(capsys, monkeypatch):
    monkeypatch.setenv("REDUNDARITH_SEED", "9")
    code, out, _ = run(capsys, "fuzz", "--trials", "14", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["seed"] == 9
    assert obj["passed"] == 14


def test_fuzz_rejects_negative_trials(capsys):
    code, out, err = run(capsys, "fuzz", "--trials", "-5")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_fuzz_seed_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("REDUNDARITH_SEED", "9")
    code, out, _ = run(capsys, "fuzz", "--trials", "7", "--seed", "4", "--json")
    assert code == 0
    assert json.loads(out)["seed"] == 4


def test_eval_command(capsys):
    code, out, _ = run(capsys, "eval", "3/4 * (2 - 5) + div(5, 7, 2, 3)")
    assert code == 0
    assert "value -99/64" in out


def test_eval_error_is_usage(capsys):
    code, _, err = run(capsys, "eval", "1 +")
    assert code == 2
    assert "error:" in err


def test_eval_nesting_limit_is_usage_error(capsys):
    code, out, err = run(capsys, "eval", "(" * 3000 + "1" + ")" * 3000)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "nested deeper" in err


def test_bad_operand_is_usage_error(capsys):
    code, _, err = run(capsys, "mul", "abc", "2")
    assert code == 2
    assert "neither an integer" in err
    # past Python's 4300-digit int-string limit: named, and not echoed whole
    code, out, err = run(capsys, "add", "9" * 5000, "1", "--radix", "10")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err) < 200 and "5000 digits" in err


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_malformed_json_code_is_usage_error(capsys, monkeypatch):
    for digits in ("5", "[5]", "[[null]]", "[[1.7]]"):
        text = '{"rows": 1, "width": 1, "radix": 2, "lsb_exp": 0, "digits": %s}' % digits
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run(capsys, "reduce", "-")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
