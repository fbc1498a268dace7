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
    once, to_two = _kernels.reduce_once_packed, _kernels.reduce_to_two_packed

    def count_once(rows, width):
        stages.append(1)
        return once(rows, width)

    def count_to_two(rows, width):
        out, out_width, n = to_two(rows, width)
        stages.append(n)
        return out, out_width, n

    monkeypatch.setattr(_kernels, "reduce_once_packed", count_once)
    monkeypatch.setattr(_kernels, "reduce_to_two_packed", count_to_two)
    code, out, _ = run(capsys, "reduce", str(f), "--trace")
    assert code == 0
    assert sum(stages) == plan.stages
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
    "accumulate": (("accumulate", "{stream}"), set()),
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
        st.text("ghijkz_.", max_size=6).map(lambda v: f"a={v}"),  # not an integer
        st.integers(1, 2**70).map(lambda v: f"b=-{v}"),  # negative
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
