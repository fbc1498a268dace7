"""Expression language: grammar, engine routing, error positions."""

from fractions import Fraction

import pytest

from redundarith import trace
from redundarith.evalexpr import MAX_DEPTH, EvalError, evaluate


def test_integer_arithmetic():
    assert evaluate("2 + 3 * 4").value == 14
    assert evaluate("(2 + 3) * 4").value == 20
    assert evaluate("10 - 4 - 3").value == 3
    assert evaluate("-5 + 2").value == -3
    assert evaluate("- (2 * 3)").value == -6


def test_rational_literals_bind_tightly():
    assert evaluate("3/4").value == Fraction(3, 4)
    assert evaluate("3/4 * 2").value == Fraction(3, 2)
    assert evaluate("1/2 + 1/4").value == Fraction(3, 4)
    assert evaluate("2 * 3/4").value == Fraction(3, 2)


def test_slash_is_not_general_division():
    with pytest.raises(EvalError):
        evaluate("(1 + 2) / 4")
    with pytest.raises(EvalError):
        evaluate("x / 4")


def test_non_binary_denominator_rejected():
    with pytest.raises(EvalError) as err:
        evaluate("1/3")
    assert "not representable" in str(err.value)


def test_mul_function_matches_operator():
    assert evaluate("mul(13, 11)").value == evaluate("13 * 11").value == 143
    assert evaluate("mul(3/4, -8)").value == -6


def test_div_function_truncates():
    got = evaluate("div(5, 7, 4, 4)")
    assert got.value == Fraction(0b1011_0110_1101_1011, 2**16)
    # exact division leaves no truncation: 3/2 comes out whole
    assert evaluate("div(3, 2, 1, 2)").value == Fraction(3, 2)


def test_div_argument_validation():
    with pytest.raises(EvalError):
        evaluate("div(5, 7, 4)")  # arity
    with pytest.raises(EvalError):
        evaluate("div(1/2, 7, 1, 1)")  # non-integer argument
    with pytest.raises(EvalError):
        evaluate("div(22, 7, 2, 3)")  # dividend out of the divider's range
    # the divider's own checks, reported at the call
    for text, message in (("div(5, 0, 1, 1)", "divisor must be positive (at offset 0)"),
                          ("1 + div(5, 7, 0, 1)", "k must be >= 1 (at offset 4)"),
                          ("div(5, 7, 1, 0)", "iters must be >= 1 (at offset 0)"),
                          ("div(5, 0, 0, 0)", "iters must be >= 1 (at offset 0)")):
        with pytest.raises(EvalError) as err:
            evaluate(text)
        assert str(err.value) == message


def test_literal_past_the_int_string_limit():
    # Python will not convert it; the parser names its size at its offset
    for text, pos in (("9" * 5000, 0), ("1 + 1/" + "2" * 5000, 6)):
        with pytest.raises(EvalError) as err:
            evaluate(text)
        assert err.value.pos == pos
        assert "has 5000 digits" in str(err.value)


def test_signed_mixed_expression():
    got = evaluate("3/4 * (2 - 5) + div(5, 7, 2, 3)")
    assert got.value == Fraction(-99, 64)


def test_steps_record_engine_calls():
    with trace.record() as events:
        evaluate("1 + 2 * 3")
    steps = [(e["op"], e["x"], e["y"], e["result"]) for e in events if e["op"] != "reduce"]
    assert steps == [("mul", 2, 3, 6), ("add", 1, 6, 7)]


def test_error_positions():
    with pytest.raises(EvalError) as err:
        evaluate("1 + $")
    assert err.value.pos == 4
    with pytest.raises(EvalError) as err:
        evaluate("1 + (2")
    assert err.value.pos == 6
    with pytest.raises(EvalError) as err:
        evaluate("frob(1)")
    assert err.value.pos == 0


def test_nesting_depth_is_capped():
    # MAX_DEPTH - 1 parentheses around a literal nest exactly MAX_DEPTH atoms
    k = MAX_DEPTH - 1
    assert evaluate("(" * k + "1" + ")" * k).value == 1
    assert evaluate("-" * k + "1").value == (-1) ** k
    # the cap is hit at the atom one level deeper, not by a RecursionError
    for text in ("(" * 3000 + "1" + ")" * 3000, "-" * 3000 + "1"):
        with pytest.raises(EvalError) as err:
            evaluate(text)
        assert err.value.pos == MAX_DEPTH
    with pytest.raises(EvalError) as err:
        evaluate("mul(1, " * 3000 + "1" + ")" * 3000)
    assert err.value.pos == 7 * (MAX_DEPTH - 1) + 4  # first argument of the deepest mul


def test_result_code_holds_the_value():
    from redundarith.codes import quad_value

    result = evaluate("7 - 9")
    assert quad_value(result.code) == -2
