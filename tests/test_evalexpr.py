"""Expression language: grammar, engine routing, error positions."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from redundarith import trace
from redundarith.codes import (
    MultiRowCode,
    QuadSignedCode,
    make_from_value,
    quad_from_value,
    quad_negate,
    quad_value,
    to_json,
    to_json_dict,
    with_lsb_exp,
)
from redundarith.evalexpr import MAX_DEPTH, EvalError, evaluate
from redundarith.multiplier import multiply
from redundarith.reducer import quad_add, quad_sub


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
    for text, message in (("div(5, 0, 1, 1)", "divisor must be >= 1 (at offset 0)"),
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
    for text, message in (("1 + mul(1)", "mul takes 2 arguments (at offset 4)"),
                          ("1/", "expected integer after '/' (at offset 2)"),
                          ("2 * 1/0", "zero denominator (at offset 6)")):
        with pytest.raises(EvalError) as err:
            evaluate(text)
        assert str(err.value) == message


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


@pytest.mark.parametrize("text, message", [
    ("", "unexpected 'end of input' (at offset 0)"),
    ("   ", "unexpected 'end of input' (at offset 3)"),
    ("1 + $", "unexpected character '$' (at offset 4)"),
    ("(1", "expected ')', found '' (at offset 2)"),
    ("1 2", "unexpected '2' after expression (at offset 2)"),
    ("1,2", "unexpected ',' after expression (at offset 1)"),
    (")", "unexpected ')' (at offset 0)"),
    ("1/2/", "unexpected '/' after expression (at offset 3)"),
])
def test_tokenizer_messages_and_offsets(text, message):
    with pytest.raises(EvalError) as err:
        evaluate(text)
    assert str(err.value) == message


def test_tokenizer_skips_any_whitespace_and_reads_any_digits():
    assert evaluate("\t1\n+\xa02").value == 3
    assert evaluate("\u0663 + 1").value == 4  # ARABIC-INDIC DIGIT THREE
    assert evaluate("1 /2").value == evaluate("1/ 2").value == Fraction(1, 2)


# an expression tree: a literal (num, den or None), ("neg", e), or
# (op, x, y) with op one of "+", "-", "*" and "m" for mul(x, y)
_LITERAL = st.tuples(st.integers(0, 999), st.sampled_from((None, 1, 2, 4, 8, 16)))


def _tree(inner):
    return st.tuples(st.sampled_from("+-*m"), inner, inner) | st.tuples(st.just("neg"), inner)


def _text(node) -> str:
    if type(node[0]) is int:
        return str(node[0]) if node[1] is None else f"{node[0]}/{node[1]}"
    if node[0] == "neg":
        return "-" + _text(node[1])
    op, x, y = node[0], _text(node[1]), _text(node[2])
    return f"mul({x}, {y})" if op == "m" else f"({x} {op} {y})"


def _reference(node) -> QuadSignedCode:
    """The evaluator's codes as built on Fraction values, from public
    primitives: every literal and factor at its natural alignment."""
    if type(node[0]) is int:
        v = Fraction(node[0], node[1] or 1)
        return quad_from_value(v, None, 2, -(v.denominator.bit_length() - 1))
    if node[0] == "neg":
        return quad_negate(_reference(node[1]))
    op, x, y = node[0], _reference(node[1]), _reference(node[2])
    if op in "+-":
        e = min(x.pos.lsb_exp, y.pos.lsb_exp)
        x, y = (QuadSignedCode(pos=with_lsb_exp(q.pos, e), neg=with_lsb_exp(q.neg, e)) for q in (x, y))
        return quad_add(x, y) if op == "+" else quad_sub(x, y)
    vx, vy = quad_value(x), quad_value(y)
    product = multiply(*(make_from_value(abs(v), 1, None, 2, -(v.denominator.bit_length() - 1))
                         for v in (vx, vy)))
    zero = MultiRowCode.zero(2, product.width, 2, product.lsb_exp)
    if vx * vy < 0:
        return QuadSignedCode(pos=zero, neg=product)
    return QuadSignedCode(pos=product, neg=zero)


@settings(max_examples=150, deadline=None)
@given(st.recursive(_LITERAL, _tree, max_leaves=8))
@example((0, None))
@example(("neg", (0, None)))
@example((0, 4))
@example(("m", (0, None), ("neg", (3, 4))))
@example(("-", (7, 8), (7, 8)))
@example(("*", ("neg", ("neg", ("neg", (1, 2)))), ("neg", (0, 16))))
def test_codes_equal_the_fraction_reference(tree):
    got, want = evaluate(_text(tree)), _reference(tree)
    assert got.value == quad_value(want)
    assert (to_json(got.code.pos), to_json(got.code.neg)) == (to_json(want.pos), to_json(want.neg))


def test_code_layout_pins():
    def layout(text):
        code = evaluate(text).code
        return [(part.width, part.lsb_exp) for part in (code.pos, code.neg)]

    assert layout("0/4") == [(1, 0)] * 2
    assert layout("mul(0, -3/4)") == [(2, -2)] * 2
    code = evaluate("7/8 - 7/8").code
    for part in (code.pos, code.neg):
        assert (to_json_dict(part)["digits"], part.lsb_exp) == ([[1, 1, 1], [0, 0, 0]], -3)
