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

Each '+', '-' and '*' reports an "add", "sub" or "mul" event to an
active `trace.record()`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from . import divider, multiplier, reducer, trace
from .codes import (
    MultiRowCode,
    QuadSignedCode,
    int_string_limit,
    make_from_value,
    quad_from_value,
    quad_negate,
    quad_value,
    with_lsb_exp,
)


class EvalError(ValueError):
    """Parse or evaluation failure, carrying the offset in the source text."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


@dataclass(frozen=True)
class Token:
    kind: str  # "num" | "name" | "op" | "end"
    text: str
    pos: int


# deepest atom nesting the recursive-descent parser accepts
MAX_DEPTH = 100

_TOKEN_RE = re.compile(r"(?P<num>\d+)|(?P<name>[A-Za-z_]\w*)|(?P<op>[-+*/(),])")


def tokenize(text: str) -> list:
    tokens = []
    i = 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        match = _TOKEN_RE.match(text, i)
        if match is None:
            raise EvalError(f"unexpected character {text[i]!r}", i)
        kind = match.lastgroup
        tokens.append(Token(kind, match.group(), i))
        i = match.end()
    tokens.append(Token("end", "", len(text)))
    return tokens


@dataclass
class EvalResult:
    value: Fraction
    code: QuadSignedCode


def _requad(q: QuadSignedCode, lsb_exp: int) -> QuadSignedCode:
    return QuadSignedCode(
        pos=with_lsb_exp(q.pos, lsb_exp), neg=with_lsb_exp(q.neg, lsb_exp)
    )


def _aligned(x: QuadSignedCode, y: QuadSignedCode):
    e = min(x.pos.lsb_exp, y.pos.lsb_exp)
    return _requad(x, e), _requad(y, e)


def _unsigned_row(value: Fraction) -> MultiRowCode:
    """Canonical 1-row encoding of |value| at its natural alignment."""
    mag = abs(value)
    return make_from_value(mag, 1, None, 2, -(mag.denominator.bit_length() - 1))


def _literal(tok: Token) -> int:
    """An integer literal's value; one past the int-string limit is an error."""
    limit = int_string_limit()
    if 0 < limit < len(tok.text):
        raise EvalError(f"integer literal has {len(tok.text)} digits, past Python's "
                        f"limit of {limit}", tok.pos)
    return int(tok.text)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.i = 0
        self.depth = 0

    # token helpers ---------------------------------------------------
    def _peek(self) -> Token:
        return self.tokens[self.i]

    def _next(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def _expect_op(self, text: str) -> Token:
        tok = self._next()
        if tok.kind != "op" or tok.text != text:
            raise EvalError(f"expected {text!r}, found {tok.text!r}", tok.pos)
        return tok

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
        vx, vy = quad_value(x), quad_value(y)
        a = _unsigned_row(vx)
        b = _unsigned_row(vy)
        product = multiplier.multiply(a, b)
        zero = MultiRowCode.zero(2, product.width, 2, product.lsb_exp)
        negative = (vx < 0) != (vy < 0) and vx != 0 and vy != 0
        out = (
            QuadSignedCode(pos=zero, neg=product)
            if negative
            else QuadSignedCode(pos=product, neg=zero)
        )
        events = trace.sink()
        if events is not None:
            events.append({"op": "mul", "x": vx, "y": vy, "result": quad_value(out)})
        return out

    def _int_arg(self, q: QuadSignedCode, name: str, pos: int) -> int:
        v = quad_value(q)
        if v.denominator != 1 or v < 0:
            raise EvalError(f"{name} requires non-negative integers, got {v}", pos)
        return int(v)

    def _call(self, name: Token) -> QuadSignedCode:
        self._expect_op("(")
        argpos = [self._peek().pos]
        args = [self.expr()]
        while self._peek().kind == "op" and self._peek().text == ",":
            self._next()
            argpos.append(self._peek().pos)
            args.append(self.expr())
        self._expect_op(")")
        if name.text == "mul":
            if len(args) != 2:
                raise EvalError("mul takes 2 arguments", name.pos)
            return self._mul(args[0], args[1])
        if name.text == "div":
            if len(args) != 4:
                raise EvalError("div takes 4 arguments: x, z, k, iters", name.pos)
            x, z, k, iters = (
                self._int_arg(a, "div", p) for a, p in zip(args, argpos)
            )
            try:
                divider.check_printable(k, iters)
                digits, _ = divider.divide(x, z, k, iters)
            except ValueError as exc:
                raise EvalError(str(exc), name.pos) from None
            return quad_from_value(divider.quotient_value(digits, k), None, 2, -k * iters)
        raise EvalError(f"unknown function {name.text!r}", name.pos)

    # grammar ---------------------------------------------------------
    def expr(self) -> QuadSignedCode:
        left = self.term()
        while self._peek().kind == "op" and self._peek().text in "+-":
            sign = self._next().text
            left = self._add(left, self.term(), sign)
        return left

    def term(self) -> QuadSignedCode:
        left = self.atom()
        while self._peek().kind == "op" and self._peek().text == "*":
            self._next()
            left = self._mul(left, self.atom())
        return left

    def atom(self) -> QuadSignedCode:
        # each nesting level is a few Python frames, so cap it well below
        # the interpreter's recursion limit
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise EvalError(f"expression nested deeper than {MAX_DEPTH}", self._peek().pos)
        try:
            return self._atom()
        finally:
            self.depth -= 1

    def _atom(self) -> QuadSignedCode:
        tok = self._next()
        if tok.kind == "num":
            value = Fraction(_literal(tok))
            if self._peek().kind == "op" and self._peek().text == "/":
                self._next()
                den = self._next()
                if den.kind != "num":
                    raise EvalError("expected integer after '/'", den.pos)
                den_value = _literal(den)
                if den_value == 0:
                    raise EvalError("zero denominator", den.pos)
                value /= den_value
            if value.denominator & (value.denominator - 1):
                raise EvalError(
                    f"{value} is not representable at radix 2", tok.pos
                )
            return quad_from_value(value, None, 2, -(value.denominator.bit_length() - 1))
        if tok.kind == "op" and tok.text == "-":
            return quad_negate(self.atom())
        if tok.kind == "op" and tok.text == "(":
            inner = self.expr()
            self._expect_op(")")
            return inner
        if tok.kind == "name":
            return self._call(tok)
        raise EvalError(f"unexpected {tok.text or 'end of input'!r}", tok.pos)

    def parse(self) -> QuadSignedCode:
        out = self.expr()
        tail = self._peek()
        if tail.kind != "end":
            raise EvalError(f"unexpected {tail.text!r} after expression", tail.pos)
        return out


def evaluate(text: str) -> EvalResult:
    parser = _Parser(text)
    code = parser.parse()
    return EvalResult(value=quad_value(code), code=code)
