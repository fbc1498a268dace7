"""CLI surface: subcommands, formats, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from redundarith import (_kernels, accumulator, cli, codes, divider, evalexpr, map_unit,
                         multiplier, reducer)
from redundarith.cli import main
from redundarith.codes import make_from_value
from redundarith.report import FUZZ_OPS, TABLE_KINDS, fuzz_verify, report_tables

ROOT = Path(__file__).resolve().parent.parent


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
    assert err == "error: signed operands must share a width\n"


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
    calls = []
    real = _kernels.reduce_packed

    def counted(rows, width, limit=None):
        out = real(rows, width, limit)
        calls.append((len(rows), limit, out[2]))
        return out

    # the whole binary reduction is one call of the one stage loop
    monkeypatch.setattr(_kernels, "reduce_packed", counted)
    code, out, err = run(capsys, "reduce", str(f), "--trace")
    assert code == 0
    assert calls == [(9, None, plan.stages)]
    assert [e["rows_in"] for e in events_of(err)] == list(plan.row_counts[:-1])
    assert out == want


TRACED_COMMANDS = {  # id: (argv, ops its trace holds)
    "reduce": (("reduce", "{code}"), {"reduce"}),
    "div": (("div", "45", "57", "2", "3", "--method", "eager"), {"divide"}),
    "eval": (("eval", "3/4 * (2 - 5) + div(5, 7, 2, 3)"), {"sub", "mul", "add", "divide", "reduce"}),
    "add": (("add", "25", "17", "--width", "6"), {"reduce"}),
    "mul": (("mul", "200", "131"), {"reduce"}),
    "mac": (("mac", "1000", "200", "131", "--width", "8", "--acc-width", "16"), {"reduce"}),
    "map": (("map", "a=200", "b=131", "c=77", "--width", "8"), {"reduce"}),
    "fuzz": (("fuzz", "--trials", "2", "--scope", "mul"), {"reduce"}),
    "accumulate": (("accumulate", "{stream}"), {"stream"}),
    "report": (("report", "--table", "2.1"), set()),
}


@pytest.mark.parametrize("argv,ops", TRACED_COMMANDS.values(), ids=TRACED_COMMANDS.keys())
@pytest.mark.parametrize("as_json", (False, True), ids=("text", "json"))
def test_trace_leaves_stdout_alone(capsys, tmp_path, argv, ops, as_json):
    f = tmp_path / "code.txt"
    f.write_text("mrc 9 4 2 0\n" + "1011\n" * 9)
    stream = tmp_path / "stream.txt"
    stream.write_text("10110\n01101\n11111\n")
    argv = [arg.format(code=f, stream=stream) for arg in argv] + (["--json"] if as_json else [])
    code, plain, err = run(capsys, *argv)
    assert code == 0 and err == ""
    code, traced, err = run(capsys, *argv, "--trace")
    assert code == 0
    assert traced == plain
    if as_json:
        json.loads(traced)
    assert {json.loads(line)["op"] for line in err.splitlines()} == ops


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
    # an eager comparator bank is capped before it is built
    code, out, err = run(capsys, "div", "1", str(2**4000 + 1), "19", "1", "--method", "eager")
    assert (code, out) == (2, "")
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
    # the line number counts blank and comment lines; a multi-byte or a
    # control character is as wrong as a digit 2, and the first bad row
    # wins over a row past --width
    for text, flags, line in (("# head\n\n101\n1\u00e901\n0\n", (), 4),
                              ("1\n1 0\n", (), 2), ("1\n\n0\t1\n", (), 3), ("1\x0001\n", (), 1),
                              ("0101\n012\n", ("--width", "3"), 2), ("11\n\u20ac\n", ("--pairs",), 2)):
        f.write_text(text, encoding="utf-8")
        assert run(capsys, "accumulate", str(f), *flags) == (2, "", f"error: line {line}: operand rows must be binary\n")
    for text, flags, message in (("# only a comment\n\n", (), "no operand rows found"),
                                 ("101\n", ("--width", "2"), "operand row 1 wider than --width 2"),
                                 ("11\n01\n10\n", ("--pairs",), "--pairs needs an even number of rows")):
        f.write_text(text)
        code, out, err = run(capsys, "accumulate", str(f), *flags)
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_map_command(capsys):
    code, out, _ = run(
        capsys, "map", "a=200", "b=131", "c=77", "--width", "8", "--json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["total"] == str(200 * 131 + 77)
    # the delay and gate models, as nested JSON fields and as dotted text lines
    code, out, _ = run(capsys, "map", "a=3", "b=5", "--width", "24", "--timing", "--gates", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["timing"]["source"] == "reference" and obj["timing"]["total"] == 14
    assert set(obj["gates"]) == {"pp_and_gates", "counter_gates", "total"}
    code, out, _ = run(capsys, "map", "a=3", "b=5", "--width", "24", "--timing", "--gates")
    assert code == 0
    assert out.splitlines()[2:] == [
        "timing.total 14", "timing.source reference", "timing.derived_levels [5, 3, 2]",
        "timing.derived_total 11", "gates.pp_and_gates 576", "gates.counter_gates 11636",
        "gates.total 12212",
    ]


def test_map_rejects_unknown_operand(capsys):
    # map_eval names them, `cfg` too, which is its positional parameter
    for name in ("zz", "x", "cfg"):
        code, out, err = run(capsys, "map", f"{name}=1", "--width", "4")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "unknown operand" in err


def test_add_pads_only_a_one_row_operand(capsys, tmp_path):
    path = tmp_path / "op.txt"
    path.write_text("mrc 3 3 2 0\n001\n010\n100\n")
    assert run(capsys, "add", f"@{path}", "5") == (2, "", "error: operands must be 2-row codes\n")
    path.write_text("mrc 1 3 2 0\n111\n")
    assert run(capsys, "add", f"@{path}", "5") == run(capsys, "add", "7", "5")


def test_negative_integer_operand_is_a_usage_error(capsys):
    code, out, err = run(capsys, "map", "a=1", "b=2", "c=-3", "--width", "8")
    assert (code, out) == (2, "")
    assert err == "error: integer operands must be non-negative; use eval for signs\n"


@pytest.mark.parametrize("first", ("a", "A"))
def test_map_operand_given_twice_is_a_usage_error(capsys, first):
    code, out, err = run(capsys, "map", f"{first}=1", "a=2", "b=3", "--width", "4")
    assert (code, out, err) == (2, "", "error: operand a given twice\n")


def test_map_operand_rule_is_one_error_line(capsys, tmp_path):
    two = tmp_path / "two.txt"
    two.write_text("mrc 2 4 2 0\n0001\n0010\n")
    argv = ("map", "a=3", "b=5", f"c=@{two}", "--width", "4")
    assert run(capsys, *argv, "--tc") == (2, "", "error: operand c must be a 1-row code\n")
    assert run(capsys, *argv) == (0, "total 18\noverflow_count 0\n", "")


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
    # a negative seed once failed inside numpy, with its message
    assert run(capsys, "fuzz", "--seed", "-1") == (2, "", "error: seed must be >= 0\n")


def test_fuzz_seed_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("REDUNDARITH_SEED", "9")
    code, out, _ = run(capsys, "fuzz", "--trials", "7", "--seed", "4", "--json")
    assert code == 0
    assert json.loads(out)["seed"] == 4


# int() once read "1_0" as 10 and " 7" as 7
@pytest.mark.parametrize("text", ["1_0", " 7", "7 ", "+7", "-1", "abc", "", "\u0663"])
def test_fuzz_seed_env_takes_ascii_decimals_only(capsys, monkeypatch, text):
    monkeypatch.setenv(cli.SEED_ENV, text)
    assert run(capsys, "fuzz", "--trials", "1") == (
        2, "", f"error: $REDUNDARITH_SEED must be ASCII decimal digits, got {text!r}\n")


def test_fuzz_seed_env_past_the_int_string_limit(capsys, monkeypatch):
    # int() once failed with Python's own message, which names no variable
    monkeypatch.setenv(cli.SEED_ENV, "9" * 5000)
    limit = codes.int_string_limit()
    assert run(capsys, "fuzz", "--trials", "1") == (
        2, "", f"error: $REDUNDARITH_SEED has 5000 digits, past Python's limit of {limit}\n")


def test_fuzz_empty_scope_is_a_usage_error(capsys):
    # "" once ran all seven ops
    for scope in ("", "mul,", ","):
        assert run(capsys, "fuzz", "--scope", scope) == (2, "", "error: unknown fuzz ops: ['']\n")


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


def test_decimal_operand_may_have_leading_zeros(capsys):
    # read in base 10, as --width 012 and eval 007 are; prefixed text keeps base 0
    for out_flags in ((), ("--json",)):
        twelve = run(capsys, "add", "12", "1", *out_flags)
        assert twelve[0] == 0
        for spec in ("012", "0012", "0xc", "0o14", "0b1100"):
            assert run(capsys, "add", spec, "1", *out_flags) == twelve
    assert run(capsys, "add", "abc", "1") == (
        2, "", "error: operand 'abc' is neither an integer nor @file nor '-'\n")


LONG_INT_ARGV = {  # id: an argv with one integer argument of 5000 digits
    "div-x": ("div", "N", "3", "1", "1"), "div-z": ("div", "1", "N", "1", "1"),
    "div-k": ("div", "1", "3", "N", "1"), "div-iters": ("div", "1", "3", "1", "N"),
    "div-radix": ("div", "1", "3", "1", "1", "--radix", "N"),
    "add-radix": ("add", "1", "2", "--radix", "N"),
    "add-width": ("add", "1", "2", "--width", "N"),
    "mul-width": ("mul", "1", "2", "--width", "N"),
    "mac-width": ("mac", "1", "2", "3", "--width", "N"),
    "mac-acc-width": ("mac", "1", "2", "3", "--acc-width", "N"),
    "accumulate-width": ("accumulate", "-", "--width", "N"),
    "map-width": ("map", "a=1", "b=2", "--width", "N"),
    "fuzz-trials": ("fuzz", "--trials", "N"), "fuzz-seed": ("fuzz", "--seed", "N"),
}


@pytest.mark.parametrize("argv", LONG_INT_ARGV.values(), ids=LONG_INT_ARGV.keys())
def test_long_integer_argument_is_named_by_its_digit_count(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    status, out, err, exited = call([arg.replace("N", "9" * 5000) for arg in argv])
    assert (status, out, exited) == (2, "", True)
    assert len(err) < 300 and "has 5000 digits, past Python's limit of" in err


# the same arguments at 4000 digits, inside the int-string limit: argparse
# converts them and the library's checks name them by their size.  Left
# out, as 4000 digits is a valid request there: div's z (any divisor), fuzz
# --seed (any seed) and fuzz --trials (it runs for as long as asked)
LONG_INT_ARGV_4000 = {key: (argv, "1\n") for key, argv in LONG_INT_ARGV.items()
                      if key not in ("div-z", "fuzz-seed", "fuzz-trials")} | {
    "reduce-radix": (("reduce", "-"), "mrc 2 1 N 0\n0\n0\n"),
    "eval-div-x": (("eval", "div(N, 3, 1, 1)"), ""), "eval-div-k": (("eval", "div(1, 3, N, 1)"), ""),
    "eval-div-iters": (("eval", "div(1, 3, 1, N)"), ""),
    "eval-div-negative": (("eval", "div(0-N*N, 3, 1, 1)"), ""),
    "eval-denominator": (("eval", "1 + 1/N"), ""),
}


@pytest.mark.parametrize("argv, stdin", LONG_INT_ARGV_4000.values(), ids=LONG_INT_ARGV_4000.keys())
def test_4000_digit_argument_is_named_by_its_size(argv, stdin):
    status, out, err, exited = call([arg.replace("N", "9" * 4000) for arg in argv],
                                    stdin.replace("N", "9" * 4000))
    assert (status, out, exited) == (2, "", False)
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 300


def test_result_past_the_digit_limit_is_named_by_its_size():
    # exactly what Python cannot print is refused: `limit` digits print, `limit + 1` do not
    limit = codes.int_string_limit()
    assert call(("eval", "9" * limit)) == (0, f"value {'9' * limit}\n", "", False)
    for argv, stdin, field, value in ((("eval", "9" * limit + " + 1"), "", "value", 10**limit),
                                      (("eval", "9" * 4000 + "*" + "9" * 4000), "", "value", (10**4000 - 1) ** 2),
                                      (("accumulate", "-"), "1" * 20000 + "\n", "total", 2**20000 - 1)):
        bits = value.bit_length()
        for flags in ((), ("--json",)):
            assert call(argv + flags, stdin) == (
                2, "", f"error: {field} is a {bits}-bit number, more than Python's limit of {limit} digits\n", False)


def test_traced_field_past_the_digit_limit_writes_only_the_error():
    # the events are written after stdout, so they are serialised first
    status, out, err, exited = call(("eval", "9" * 4000 + "*" + "9" * 4000 + "*0", "--trace"))
    assert (status, out, exited) == (2, "", False)
    bits, limit = ((10**4000 - 1) ** 2).bit_length(), codes.int_string_limit()
    assert err == f"error: trace field is a {bits}-bit number, more than Python's limit of {limit} digits\n"


@pytest.mark.parametrize("width,bits", (("9" * 4000, 13288), ("-" + "9" * 4300, 14285)))
def test_long_width_is_named_by_its_bit_size(capsys, width, bits):
    # within the int-string limit (a sign is no digit), so argparse converts
    # it and the range check names it
    code, out, err = run(capsys, "add", "1", "2", "--width", width)
    assert (code, out) == (2, "")
    assert err == f"error: a {bits}-bit --width is outside 0..{cli.MAX_WIDTH}\n"


@pytest.mark.parametrize("argv", (("add", "1", "2"), ("div", "1", "3", "1", "1")), ids=("add", "div"))
def test_long_radix_is_named_by_its_bit_size(capsys, argv):
    # within the int-string limit, so argparse converts it; the column-sum
    # check (add) and the quotient's print check (div) name it by its size
    code, out, err = run(capsys, *argv, "--radix", str(10**4000))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err) < 300 and "a 13288-bit radix" in err


def test_bad_integer_argument_keeps_the_argparse_message():
    status, out, err, exited = call(("div", "x1", "3", "1", "1"))
    assert (status, out, exited) == (2, "", True)
    assert err.endswith("redundarith div: error: argument x: invalid int value: 'x1'\n")


def test_long_value_error_names_its_size(capsys):
    # a width overflow echoes a long value by its bit count, not its text,
    # so one past Python's int-string limit still gets the width error
    for value in ("9" * 4000, "0x" + "f" * 5000):
        code, out, err = run(capsys, "add", value, "1", "--width", "3")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err) < 200 and "width 3" in err


def test_long_hex_operand_adds_exactly(capsys):
    # the natural width of a long literal is worked out in linear time
    value = int("f" * 40000, 16)
    code, out, _ = run(capsys, "add", "0x" + "f" * 40000, "1", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["radix"] == 2 and obj["lsb_exp"] == 0
    assert sum(int("".join(map(str, row)), 2) for row in obj["digits"]) == value + 1


@pytest.mark.parametrize(
    "argv",
    (
        ("add", "1", "2", "--width", str(cli.MAX_WIDTH + 1)),
        ("mul", "1", "2", "--width", str(cli.MAX_WIDTH + 1)),
        ("mac", "1", "2", "3", "--acc-width", str(cli.MAX_WIDTH + 1)),
        ("accumulate", "-", "--width", str(cli.MAX_WIDTH + 1)),
        ("mul", "3", "5", "--width", "20000"),  # a 20000 x 39999 partial-product matrix
        ("mul", "0x" + "f" * 5000, "1"),  # a natural width of 20000
        ("mac", "1", "3", "5", "--width", "2000"),
        ("mac", "1", "3", "5", "--width", "64", "--acc-width", str(cli.MAX_WIDTH)),
        ("div", "1", "3", "1", "100000"),  # a quotient past the int-string limit
        ("eval", "div(1, 3, 1, 100000)"),
        ("eval", "1 + " + "9" * 5000),  # a literal past the int-string limit
    ),
    ids=("add", "mul", "mac", "accumulate", "mul-matrix", "mul-natural", "mac-matrix",
         "mac-acc-matrix", "div", "eval-div", "eval-literal"),
)
def test_oversized_input_is_rejected_up_front(capsys, monkeypatch, argv):
    # the stream is never read: the width is checked first
    monkeypatch.setattr("sys.stdin", io.StringIO("1\n"))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200


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


@pytest.mark.parametrize("text", (
    "",
    "mrc 2 3 2\n101\n011\n",  # short header
    "mrc 2 3 2 x\n101\n011\n",
    "mrc 2 3 2 0\n101\n",  # a row missing
    "mrc 1 3 2 0\n1011\n",  # a row too wide
    "mrc 1 3 2 0\n102\n",  # a digit past the radix
    "mrc 1 3 1 0\n000\n",
    "mrc 1 3 2 0\n1x1\n",
    '{"rows": 1, "width": 2, "radix": 2, "lsb_exp": 0, "digits": [[1]]}',
    '{"rows": 1, "width": 1, "radix": 2, "digits": [[1]]}',
    '{"rows": 1, "width": 1',
    "[[1]]",
))
def test_malformed_code_on_stdin_is_usage_error(text):
    status, out, err, exited = call(("reduce", "-"), stdin=text)
    assert (status, out, exited) == (2, "", False)
    assert err.startswith("error: ") and err.count("\n") == 1


def test_div_radix_and_k_are_checked_before_the_dividend(capsys):
    for argv, message in ((("1", "3", "1", "4", "--radix", "0"), "radix must be >= 2"),
                          (("1", "3", "1", "4", "--radix", "1"), "radix must be >= 2"),
                          (("20", "3", "0", "4"), "k must be >= 1"),
                          (("1", "3", "-100", "-1000"), "iters must be >= 1")):
        code, out, err = run(capsys, "div", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv,flag",
    (
        (("mul", "0", "0", "--width", "-1"), "--width -1"),
        (("add", "0", "0", "--width", "-2", "--radix", "3"), "--width -2"),
        (("mac", "1", "2", "3", "--acc-width", "-1"), "--acc-width -1"),
        (("accumulate", "-", "--width", "-1"), "--width -1"),
    ),
    ids=("mul", "add", "mac", "accumulate"),
)
def test_negative_width_is_a_usage_error_naming_its_flag(capsys, monkeypatch, argv, flag):
    monkeypatch.setattr("sys.stdin", io.StringIO("1\n"))
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {flag} is outside 0..{cli.MAX_WIDTH}\n")


# ---------------------------------------------------------------------------
# many main calls in one process share one parser


def call(argv, stdin="1\n"):
    """main(argv) in this process, with `stdin` (one binary row by default)
    on stdin: (status, stdout, stderr, whether argparse exited with SystemExit)."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            return main(list(argv)), out.getvalue(), err.getvalue(), False
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue(), True


def fresh_process(argv, seed):
    """The same call in a new `python -m redundarith.cli` process."""
    env = dict(os.environ, COLUMNS="80")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop(cli.SEED_ENV, None)
    if seed is not None:
        env[cli.SEED_ENV] = seed
    proc = subprocess.run([sys.executable, "-m", "redundarith.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


REENTRANT = {  # id: (first argv, its $REDUNDARITH_SEED, its status), (second argv, its seed)
    "usage-error-then-good": ((("mul", "45", "57", "--frob"), None, 2),
                              (("mul", "45", "57", "--width", "6"), None)),
    "json-then-plain": ((("div", "45", "57", "2", "3", "--json"), None, 0),
                        (("div", "45", "57", "2", "3"), None)),
    "fuzz-seed-changes": ((("fuzz", "--trials", "6", "--json"), "3", 0),
                          (("fuzz", "--trials", "6", "--json"), "8")),
    "call-then-help": ((("map", "a=3", "b=5", "--width", "4", "--tc"), None, 0),
                       (("mac", "--help"), None)),
}


def _set_seed(monkeypatch, seed):
    if seed is None:
        monkeypatch.delenv(cli.SEED_ENV, raising=False)
    else:
        monkeypatch.setenv(cli.SEED_ENV, seed)


@pytest.mark.parametrize("first,second", REENTRANT.values(), ids=REENTRANT.keys())
def test_main_is_reentrant(monkeypatch, first, second):
    # nothing of the first call shows in the second: its output is a fresh process's
    monkeypatch.setenv("COLUMNS", "80")
    (argv, seed, status), (argv2, seed2) = first, second
    _set_seed(monkeypatch, seed)
    assert call(argv)[0] == status
    _set_seed(monkeypatch, seed2)
    assert call(argv2)[:3] == fresh_process(argv2, seed2)


# ---------------------------------------------------------------------------
# differential: every --json equals the library result


def checked_json(*argv, stdin="1\n"):
    status, out, err, _ = call(argv, stdin)
    assert (status, err) == (0, ""), err
    return json.loads(out)


def twos(value, width):
    return value - (value >> (width - 1) << width)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.booleans())
def test_mul_json_equals_library(data, signed):
    width = data.draw(st.integers(2 if signed else 1, 64))  # a signed operand needs a sign bit
    a, b = (data.draw(st.integers(0, 2**width - 1)) for _ in range(2))
    got = checked_json("mul", str(a), str(b), "--width", str(width), "--json",
                       *(["--signed"] if signed else []))
    want = multiplier.multiply(make_from_value(a, 1, width), make_from_value(b, 1, width),
                               signed=signed)
    if signed:
        value = multiplier.signed_product_value(want, width)
        assert value == twos(a, width) * twos(b, width)
        assert got == {"product": codes.to_json_dict(want), "value": str(value)}
    else:
        assert got == codes.to_json_dict(want)
        assert codes.scaled_value(want) == a * b


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 64), st.integers(1, 64))
def test_mac_json_equals_library(data, width, acc_width):
    f = data.draw(st.integers(0, 2**acc_width - 1))
    a, b = (data.draw(st.integers(0, 2**width - 1)) for _ in range(2))
    got = checked_json("mac", str(f), str(a), str(b), "--width", str(width),
                       "--acc-width", str(acc_width), "--json")
    want = multiplier.fused_mac(make_from_value(f, 2, acc_width), make_from_value(a, 1, width),
                                make_from_value(b, 1, width))
    assert got == codes.to_json_dict(want)
    assert codes.scaled_value(want) == f + a * b


@settings(max_examples=80, deadline=None)
@given(st.sampled_from((2, 3)), st.integers(0, 64), *[st.integers(0, 3**64 - 1)] * 2)
@example(radix=3, width=0, a=0, b=0)  # --width 0 stays valid
def test_add_json_equals_library(radix, width, a, b):
    a, b = a % radix**width, b % radix**width
    got = checked_json("add", str(a), str(b), "--width", str(width), "--radix", str(radix),
                       "--json")
    x, y = (make_from_value(v, 2, width, radix) for v in (a, b))
    want = reducer.add_two_row(x, y)
    assert got == codes.to_json_dict(want)
    assert codes.scaled_value(want) == a + b


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(("bisect", "eager")), st.sampled_from((2, 3)),
       st.integers(1, 4), st.integers(1, 16))
def test_div_json_equals_library(data, method, radix, k, iters):
    z = data.draw(st.integers(1, 2**40))
    x = data.draw(st.integers(0, radix * z - 1))
    got = checked_json("div", str(x), str(z), str(k), str(iters), "--radix", str(radix),
                       "--method", method, "--json")
    digits, residual = divider.divide(x, z, k, iters, radix=radix, method=method)
    quotient = divider.quotient_value(digits, k, radix)
    assert got == {"digits": digits, "residual": residual, "quotient": str(quotient),
                   "identity": True}


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(2, 64), st.booleans(),
       st.lists(st.sampled_from(map_unit.ADDITIVE_OPERANDS), unique=True))
def test_map_json_equals_library(data, width, tc, addends):
    values = {name: data.draw(st.integers(0, 2**width - 1)) for name in ("a", "b", *addends)}
    got = checked_json("map", *(f"{n}={v}" for n, v in values.items()), "--width", str(width),
                       "--json", *(["--tc"] if tc else []))
    cfg = map_unit.MapConfig(width, signedness="twos-complement" if tc else "unsigned-direct")
    state = map_unit.map_eval(cfg, **{n: make_from_value(v, 1, width) for n, v in values.items()})
    want = {"total": str(map_unit.map_total(state)), "overflow_count": state.overflow_count}
    if tc:
        want["signed_total"] = str(map_unit.map_signed_total(state))
    assert got == want


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from((2, 3)), st.integers(1, 9), st.integers(0, 40),
       st.integers(-3, 3), st.booleans())
def test_reduce_json_equals_library(data, radix, rows, width, lsb_exp, json_in):
    digits = data.draw(st.lists(st.lists(st.integers(0, radix - 1), min_size=width,
                                         max_size=width), min_size=rows, max_size=rows))
    code = codes.MultiRowCode(rows, width, radix, lsb_exp, digits)
    text = codes.to_json(code) if json_in else codes.to_text(code)
    got = checked_json("reduce", "-", "--json", stdin=text)
    want = code if rows == 1 else reducer.reduce_to_two(code)  # one row is emitted as given
    assert got == codes.to_json_dict(want)
    assert codes.value_of(want) == sum(d * Fraction(radix) ** (j + lsb_exp)
                                       for row in digits for j, d in enumerate(row))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.booleans(), st.sampled_from(("exact", "xor")),
       st.lists(st.integers(0, 2**12 - 1), min_size=2, max_size=20))
@example(width=2, pairs=True, mode="xor", raw=[3] * 8)  # the xor counter loses count here
def test_accumulate_json_equals_library(width, pairs, mode, raw):
    values = [v % 2**width for v in raw[: len(raw) // 2 * 2 if pairs else len(raw)]]
    text = "".join(f"{v:0{width}b}\n" for v in values)
    got = checked_json("accumulate", "-", "--counter-mode", mode, "--json",
                       *(["--pairs"] if pairs else []), stdin=text)
    bits = np.array([[v >> j & 1 for j in range(width)] for v in values])
    ops = (bits[0::2], bits[1::2]) if pairs else (bits,)
    acc = accumulator.acc_run(accumulator.acc_new(width, counter_mode=mode), *ops)
    total = accumulator.acc_total(acc)
    assert got == {"width": width, "steps": len(values) // (1 + pairs),
                   "overflow_count": acc.overflow_count, "total": str(total)}
    if mode == "exact":
        assert total == sum(values)


@pytest.mark.parametrize("table", TABLE_KINDS)
def test_report_json_equals_library(table):
    rep = report_tables(table)
    assert call(("report", "--table", table, "--json")) == (rep.exit_code, rep.to_json() + "\n",
                                                            "", False)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 8),
       st.lists(st.sampled_from(FUZZ_OPS), min_size=1, max_size=4))
def test_fuzz_json_equals_library(seed, trials, scope):
    got = call(("fuzz", "--seed", str(seed), "--trials", str(trials), "--scope", ",".join(scope),
                "--json"))
    result = fuzz_verify(seed=seed, trials=trials, scope=scope)
    assert got == (result.exit_code, result.to_json() + "\n", "", False)


def _literal():
    whole = st.integers(0, 10**6).map(lambda n: (str(n), Fraction(n)))
    halves = st.tuples(st.integers(0, 999), st.integers(0, 6)).map(
        lambda t: (f"{t[0]}/{1 << t[1]}", Fraction(t[0], 1 << t[1])))
    return whole | halves


def _operation(inner):
    def join(t):
        (lt, lv), op, (rt, rv) = t
        value = lv + rv if op == "+" else lv - rv if op == "-" else lv * rv
        return f"({lt} {op} {rt})", value
    negated = inner.map(lambda e: (f"(-{e[0]})", -e[1]))
    return st.tuples(inner, st.sampled_from("+-*"), inner).map(join) | negated


@settings(max_examples=80, deadline=None)
@given(st.recursive(_literal(), _operation, max_leaves=6))
def test_eval_json_equals_library(expression):
    text, value = expression  # never starts with '-', which argparse would take for a flag
    got = checked_json("eval", text, "--json")
    result = evalexpr.evaluate(text)
    assert result.value == value
    assert got == {"value": str(value), "pos": codes.to_json_dict(result.code.pos),
                   "neg": codes.to_json_dict(result.code.neg)}


# ---------------------------------------------------------------------------
# both output forms: main writes the text form, or the payload as one sorted JSON line

CODE_TEXT = "mrc 5 3 2 0\n101\n011\n110\n001\n111\n"
PAIR_ROWS = "1011\n0110\n"
OUTPUT_FORMS = {  # id: (argv, stdin, its text stdout, byte for byte)
    "reduce": (("reduce", "-"), CODE_TEXT,
        "mrc 2 6 2 0\n001110\n001000\n"),
    "add-radix-3": (("add", "7", "5", "--radix", "3"), None,
        "mrc 2 3 3 0\n000\n110\n"),
    "mul": (("mul", "45", "57", "--width", "6"), None,
        "mrc 2 14 2 0\n00010111100101\n00010000100000\n"),
    "mul-signed": (("mul", "13", "6", "--width", "4", "--signed"), None,
        "mrc 2 10 2 0\n0000001110\n0001100000\nvalue -18\n"),
    "mac": (("mac", "100", "13", "11", "--width", "4"), None,
        "mrc 2 10 2 0\n0011000011\n0000110000\n"),
    "div-eager": (("div", "45", "57", "2", "3", "--method", "eager"), None,
        "digits 3 0 2\nresidual 30\nquotient 25/32\n"),
    "accumulate-pairs": (("accumulate", "-", "--pairs"), PAIR_ROWS,
        "total 17\noverflow_count 0\n"),
    "map": (("map", "a=3", "b=3", "--width", "2", "--tc", "--timing", "--gates"), None,
        ("total 9\n"
         "overflow_count 1\n"
         "signed_total 1\n"
         "timing.total 9\n"
         "timing.source derived\n"
         "timing.derived_levels [4, 2, 2]\n"
         "timing.derived_total 9\n"
         "gates.pp_and_gates 4\n"
         "gates.counter_gates 203\n"
         "gates.total 207\n")),
    "report-2.1": (("report", "--table", "2.1"), None,
        ("report 2.1\n"
         "m        m2  m3  m4  stages  derived\n"
         "3        2           1       ok\n"
         "4..7     3   2       2       ok\n"
         "8..15    4   3   2   3       ok\n"
         "16..31   5   3   2   3       ok\n"
         "32..63   6   3   2   3       ok\n"
         "64..127  7   3   2   3       ok\n")),
    "report-3.1": (("report", "--table", "3.1"), None,
        ("report 3.1\n"
         "m        delay           tree_depth  agrees\n"
         "3..4     2*t_and + t_cc  2           ok\n"
         "5..7     3*t_and + t_cc  3           ok\n"
         "8..16    4*t_and + t_cc  3..4        see notes\n"
         "17..32   5*t_and + t_cc  5           ok\n"
         "33..64   6*t_and + t_cc  6           ok\n"
         "65..128  7*t_and + t_cc  7           ok\n"
         "note: m=8: levels: band assigns 4 levels but a full pairwise merge tree over "
         "8 inputs has depth ceil(log2 8) = 3; the band boundary at 8 appears shifted by one\n")),
    "report-3.2": (("report", "--table", "3.2"), None,
        ("report 3.2\n"
         "m   tables      tables_derived  sigma_and  structural_exact  structural_square\n"
         "3   1/1/0/0/0   1/1/0/0/0       10         10                13\n"
         "4   2/1/0/0/0   2/1/0/0/0       17         17                17\n"
         "6   3/1/0/0/0   3/1/1/0/0       36         36                46\n"
         "8   4/2/0/0/0   4/2/1/0/0       59         59                59\n"
         "10  5/2/1/1/0   5/2/1/1/0       90         90                144\n"
         "12  6/3/1/1/0   6/3/1/1/0       121        121               157\n"
         "14  7/3/1/1/0   7/3/2/1/0       158        158               186\n"
         "16  8/4/2/1/0   8/4/2/1/0       199        199               199\n"
         "18  9/4/2/1/1   9/4/2/1/1       254        254               492\n"
         "20  10/5/2/1/1  10/5/2/1/1      301        301               505\n"
         "22  11/5/3/1/1  11/5/3/1/1      354        354               534\n"
         "24  12/6/3/1/1  12/6/3/1/1      411        411               547\n"
         "26  13/6/3/2/1  13/6/3/2/1      476        476               632\n"
         "28  14/7/3/2/1  14/7/3/2/1      541        541               645\n"
         "30  15/7/4/2/1  15/7/4/2/1      582        612               674\n"
         "32  16/8/4/2/1  16/8/4/2/1      687        687               687\n"
         "64              32/16/8/4/2/1   2463       2463              2463\n"
         "note: m=6: m_counts: listed tables (3x type 1, 1x type 2) leave two partial "
         "counts unmerged; a complete tree needs one type-3 table\n"
         "note: m=8: m_counts: listed tables (4x type 1, 2x type 2) omit the final "
         "type-3 table of a full 8-input tree\n"
         "note: m=14: m_counts: listed tables do not merge all inputs; the derived "
         "tree uses two type-3 tables, the table lists one\n"
         "note: m=30: sigma_and: 582 breaks monotonicity between 541 (m=28) and 687 "
         "(m=32); the exact-cell structural model gives 612\n")),
    "fuzz": (("fuzz", "--trials", "3", "--seed", "1"), None,
        "fuzz seed=1 trials=3 scope=reduce,add,mul,mac,div,map,acc\npassed 3/3\n"),
    "eval": (("eval", "3*5 - 7/2"), None,
        "value 23/2\n"),
}


@pytest.mark.parametrize("argv,stdin,text", OUTPUT_FORMS.values(), ids=OUTPUT_FORMS.keys())
def test_output_forms(argv, stdin, text):
    assert call(argv, stdin) == (0, text, "", False)
    status, out, err, _ = call((*argv, "--json"), stdin)
    assert (status, err) == (0, "")
    assert out.count("\n") == 1 and out == json.dumps(json.loads(out), sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# bad argv: exit 2, never a traceback

GOOD_ARGV = (
    ("reduce", "-"), ("add", "1", "2"), ("mul", "3", "5"), ("mac", "1", "2", "3"),
    ("div", "5", "7", "2", "3"), ("accumulate", "-"), ("map", "a=1", "b=2", "--width", "8"),
    ("report", "--table", "2.1"), ("fuzz", "--trials", "1"), ("eval", "1 + 2"),
)
WIDTH_ARGV = {  # flag: the argv it is appended to
    "--width": (("add", "1", "2"), ("mul", "3", "5"), ("mac", "1", "2", "3"), ("accumulate", "-")),
    "--acc-width": (("mac", "1", "2", "3"),),
}
OFF_SIZE = st.integers(-(2**70), -1) | st.integers(cli.MAX_WIDTH + 1, 2**70)


@st.composite
def bad_argv(draw):
    kind = draw(st.sampled_from(("flag", "width", "map-width", "div", "operand")))
    if kind == "flag":  # no real option starts with --no-such-, so none is abbreviated
        suffix = draw(st.text("abcdefghijklmnopqrstuvwxyz-", min_size=1, max_size=8))
        return [*draw(st.sampled_from(GOOD_ARGV)), "--no-such-" + suffix]
    if kind == "width":
        flag = draw(st.sampled_from(sorted(WIDTH_ARGV)))
        return [*draw(st.sampled_from(WIDTH_ARGV[flag])), flag, str(draw(OFF_SIZE))]
    if kind == "map-width":
        width = draw(st.integers(-(2**70), 1) | st.integers(122, 2**70))
        return ["map", "a=1", "b=2", "--width", str(width)]
    if kind == "div":  # x is outside 0 <= x < radix * z, and maybe more is wrong
        radix, z = draw(st.integers(-3, 4)), draw(st.integers(-5, 2**40))
        lo = max(radix * z, 0)  # can pass 2**41, so the upper range starts at lo
        x = draw(st.integers(-(2**40), -1) | st.integers(lo, lo + 2**41))
        k, iters = draw(st.integers(-2, 4)), draw(st.integers(-2, 16))
        return ["div", str(x), str(z), str(k), str(iters), "--radix", str(radix)]
    item = draw(st.one_of(
        st.text("abc0123", min_size=1, max_size=6),  # no '='
        st.text("mnopqrstuvwxyz", max_size=3).map(lambda name: f"{name}=1"),  # unknown name
        # a and b are given already, and a name given twice is its own error
        st.text("ghijkz_.", max_size=6).map(lambda v: f"c={v}"),  # not an integer
        st.integers(1, 2**70).map(lambda v: f"c=-{v}"),  # negative
    ))
    return ["map", "a=1", "b=2", item, "--width", "8"]


@settings(max_examples=300, deadline=None)
@given(bad_argv())
def test_bad_argv_exits_two_without_traceback(argv):
    status, out, err, exited = call(argv)
    assert status == 2 and out == "" and "Traceback" not in err
    if exited:  # argparse: its usage, then one "prog: error:" line
        assert err.startswith("usage: redundarith")
        assert err.splitlines()[-1].startswith("redundarith") and ": error: " in err
    else:
        assert err.startswith("error: ") and err.count("\n") == 1


def test_file_and_stdin_operands_read_like_integers(tmp_path):
    # an operand may be a code, in a file or on stdin, as text or JSON
    seven = codes.make_from_value(7, 1, None)
    for form in (codes.to_text(seven), codes.to_json(seven)):
        path = tmp_path / "op.txt"
        path.write_text(form)
        for command in ("add", "mul"):
            for out_flags in ((), ("--json",)):
                want = call((command, "7", "5", *out_flags))
                assert want[0] == 0
                assert call((command, f"@{path}", "5", *out_flags)) == want
                assert call((command, "5", "-", *out_flags), stdin=form) == call((command, "5", "7", *out_flags))
