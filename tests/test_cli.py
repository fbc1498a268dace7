"""CLI surface: subcommands, formats, exit codes."""

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


def test_reduce_trace(capsys, tmp_path):
    f = tmp_path / "code.txt"
    f.write_text("mrc 5 4 2 0\n" + "1111\n" * 5)
    code, out, _ = run(capsys, "reduce", str(f), "--trace")
    assert code == 0
    assert "stage 1: 3 rows" in out
    assert "stage 2: 2 rows" in out


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
    # the last traced stage is printed, then emitted as the result
    assert out.endswith(f"stage {plan.stages}: 2 rows\n" + want + want)


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


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
