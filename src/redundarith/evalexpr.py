"""Small expression language that drives the arithmetic engines.

Grammar (whitespace between tokens is ignored)::

    expr   := term (('+' | '-') term)*
    term   := atom ('*' atom)*
    atom   := NUMBER | '-' atom | '(' expr ')' | call
    call   := NAME '(' expr (',' expr)* ')'
    NUMBER := INT ('/' INT)?

The '/' only forms rational literals; it binds tighter than any
operator and is not a general division operator.  Values live as
sign-magnitude pairs of 2-row codes: '+' and '-' run through the
stack-and-reduce adder, '*' and mul(a, b) through the partial-product
multiplier, div(x, z, k, iters) through the scaled-table divider and
yields the truncated quotient.  Everything is radix 2, so literals must
have power-of-two denominators.  Parentheses, unary minus and calls may
nest at most MAX_DEPTH deep.

Inside the parser a value is a quad code read as a scaled int, the sum
of its rows in units of 2**lsb_exp: a literal is built from its integer
numerator and lsb_exp, '*' reads its signs and magnitudes from the rows,
and only the final value and a '/' literal go through Fraction.

Each '+', '-' and '*' reports an "add", "sub" or "mul" event to an
active `trace.record()`; their Fraction fields are built only then.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from . import divider, multiplier, reducer, trace
from .codes import (MultiRowCode, QuadSignedCode, made_code, made_quad, past_digit_limit, quad_from_value,
                    quad_negate, quad_value, shown, with_lsb_exp)


class EvalError(ValueError):
    """Parse or evaluation failure, carrying the offset in the source text."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


# deepest atom nesting the recursive-descent parser accepts
MAX_DEPTH = 100

# one token after optional whitespace; every position matches, so the
# matches tile the text up to the zero-width "end"
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_]\w*)|(?P<op>[-+*/(),])|(?P<end>\Z)|(?P<bad>.))", re.S
)


def tokenize(text: str) -> list:
    """(kind, text, pos) tuples, kind "num", "name" or "op", ending with
    ("end", "", len(text))."""
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        pos = match.start(kind)
        if kind == "bad":
            raise EvalError(f"unexpected character {text[pos]!r}", pos)
        if kind == "num" and (past := past_digit_limit(match[kind])):
            raise EvalError(f"integer literal {past}", pos)
        tokens.append((kind, match[kind], pos))
        if kind == "end":
            return tokens


class EvalResult(NamedTuple):
    value: Fraction
    code: QuadSignedCode


def _requad(q: QuadSignedCode, lsb_exp: int) -> QuadSignedCode:
    if q.pos.lsb_exp == lsb_exp:
        return q
    return made_quad(with_lsb_exp(q.pos, lsb_exp), with_lsb_exp(q.neg, lsb_exp))


def _aligned(x: QuadSignedCode, y: QuadSignedCode):
    e = min(x.pos.lsb_exp, y.pos.lsb_exp)
    return _requad(x, e), _requad(y, e)


def _scaled(q: QuadSignedCode) -> int:
    """The value of `q` in units of 2**q.pos.lsb_exp."""
    return sum(q.pos.packed) - sum(q.neg.packed)


def _unsigned_row(mag: int, lsb_exp: int) -> MultiRowCode:
    """Canonical 1-row encoding of mag * 2**lsb_exp (lsb_exp <= 0) at its
    natural alignment, the lsb_exp of its reduced denominator."""
    if not mag:
        return made_code((0,), 1, 2, 0)
    cut = min((mag & -mag).bit_length() - 1, -lsb_exp)  # trailing zero bits
    return made_code((mag >> cut,), (mag >> cut).bit_length(), 2, lsb_exp + cut)


class _Parser:
    """Recursive descent over the tokens.  Values are quad codes, read as
    scaled ints: every code in the parser is radix 2 with lsb_exp <= 0."""

    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.i = 0
        self.depth = 0

    # token helpers ---------------------------------------------------
    def _next(self) -> tuple:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def _take(self, *ops: str) -> str | None:
        """The next token's text, consumed, if it is one of `ops`."""
        text = self.tokens[self.i][1]
        if text in ops:
            self.i += 1
            return text
        return None

    def _expect_op(self, op: str) -> None:
        _, text, pos = self._next()
        if text != op:
            raise EvalError(f"expected {op!r}, found {text!r}", pos)

    # engine plumbing -------------------------------------------------
    def _add(self, x, y, sign: str) -> QuadSignedCode:
        x, y = _aligned(x, y)
        out = reducer.quad_add(x, y) if sign == "+" else reducer.quad_sub(x, y)
        events = trace.sink()
        if events is not None:
            events.append({"op": "add" if sign == "+" else "sub", "x": quad_value(x),
                           "y": quad_value(y), "result": quad_value(out)})
        return out

    def _mul(self, x, y) -> QuadSignedCode:
        sx, sy = _scaled(x), _scaled(y)
        product = multiplier.multiply(_unsigned_row(abs(sx), x.pos.lsb_exp),
                                      _unsigned_row(abs(sy), y.pos.lsb_exp))
        zero = made_code((0, 0), product.width, 2, product.lsb_exp)
        out = made_quad(zero, product) if sx < 0 < sy or sy < 0 < sx else made_quad(product, zero)
        events = trace.sink()
        if events is not None:
            events.append({"op": "mul", "x": quad_value(x), "y": quad_value(y),
                           "result": quad_value(out)})
        return out

    def _int_arg(self, q: QuadSignedCode, name: str, pos: int) -> int:
        v, rem = divmod(_scaled(q), 1 << -q.pos.lsb_exp)
        if rem or v < 0:
            raise EvalError(f"{name} requires non-negative integers, got {shown(quad_value(q))}", pos)
        return v

    def _call(self, name: str, pos: int) -> QuadSignedCode:
        self._expect_op("(")
        argpos = [self.tokens[self.i][2]]
        args = [self.expr()]
        while self._take(","):
            argpos.append(self.tokens[self.i][2])
            args.append(self.expr())
        self._expect_op(")")
        if name == "mul":
            if len(args) != 2:
                raise EvalError("mul takes 2 arguments", pos)
            return self._mul(args[0], args[1])
        if name == "div":
            if len(args) != 4:
                raise EvalError("div takes 4 arguments: x, z, k, iters", pos)
            x, z, k, iters = (
                self._int_arg(a, "div", p) for a, p in zip(args, argpos)
            )
            try:
                divider.check_printable(k, iters)
                digits, _ = divider.divide(x, z, k, iters)
            except ValueError as exc:
                raise EvalError(str(exc), pos) from None
            return quad_from_value(divider.quotient_value(digits, k), None, 2, -k * iters)
        raise EvalError(f"unknown function {name!r}", pos)

    # grammar ---------------------------------------------------------
    def expr(self) -> QuadSignedCode:
        left = self.term()
        while sign := self._take("+", "-"):
            left = self._add(left, self.term(), sign)
        return left

    def term(self) -> QuadSignedCode:
        left = self.atom()
        while self._take("*"):
            left = self._mul(left, self.atom())
        return left

    def atom(self) -> QuadSignedCode:
        # each nesting level is a few Python frames, so cap it well below
        # the interpreter's recursion limit
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise EvalError(f"expression nested deeper than {MAX_DEPTH}", self.tokens[self.i][2])
        try:
            return self._atom()
        finally:
            self.depth -= 1

    def _atom(self) -> QuadSignedCode:
        kind, text, pos = self._next()
        if kind == "num":
            num, lsb_exp = int(text), 0
            if self._take("/"):
                den_kind, den_text, den_pos = self._next()
                if den_kind != "num":
                    raise EvalError("expected integer after '/'", den_pos)
                den = int(den_text)
                if den == 0:
                    raise EvalError("zero denominator", den_pos)
                value = Fraction(num, den)
                if value.denominator & (value.denominator - 1):
                    raise EvalError(f"{shown(value)} is not representable at radix 2", pos)
                num, lsb_exp = value.numerator, 1 - value.denominator.bit_length()
            zero = made_code((0, 0), max(num.bit_length(), 1), 2, lsb_exp)
            return made_quad(made_code((num, 0), zero.width, 2, lsb_exp), zero)
        if text == "-":
            return quad_negate(self.atom())
        if text == "(":
            inner = self.expr()
            self._expect_op(")")
            return inner
        if kind == "name":
            return self._call(text, pos)
        raise EvalError(f"unexpected {text or 'end of input'!r}", pos)

    def parse(self) -> QuadSignedCode:
        out = self.expr()
        kind, text, pos = self.tokens[self.i]
        if kind != "end":
            raise EvalError(f"unexpected {text!r} after expression", pos)
        return out


def evaluate(text: str) -> EvalResult:
    code = _Parser(text).parse()
    return EvalResult(value=quad_value(code), code=code)
