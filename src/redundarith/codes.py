"""Multi-row digit codes: the data type everything else operates on.

A code is an m x n matrix of radix-q digits in which every digit of
column j carries the same weight q**(j + lsb_exp).  The value is the
plain weighted sum over all rows, so a number has many representations
and addition can be done without carry propagation (see reducer).

Columns are indexed LSB-first internally; the text format prints rows
MSB-first because that is what humans expect to read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np


class WidthOverflowError(ValueError):
    """Value needs more columns than the requested width."""


class GranularityError(ValueError):
    """Value is not a multiple of radix**lsb_exp."""


class CodeFormatError(ValueError):
    """Malformed text or JSON serialization."""


class NumericDomainError(ValueError):
    """Shape whose worst column sum rows * (radix - 1) exceeds int64."""


# largest column sum the int64 kernels hold exactly
MAX_COLUMN_SUM = (1 << 63) - 1


def _as_digit_matrix(digits, rows: int, width: int, radix: int) -> np.ndarray:
    try:
        arr = np.asarray(digits, dtype=np.int64)
    except OverflowError:
        raise ValueError(f"digits out of range for radix {radix}") from None
    if arr.ndim != 2:
        raise ValueError(f"digit matrix must be 2-D, got ndim={arr.ndim}")
    if arr.shape != (rows, width):
        raise ValueError(f"digit matrix shape {arr.shape} != ({rows}, {width})")
    # read as uint64 a negative digit is >= 2**63, and the numeric-domain
    # check keeps radix <= 2**63, so one max checks both ends of the range
    if width and rows and int(arr.view(np.uint64).max()) >= radix:
        raise ValueError(f"digits out of range for radix {radix}")
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class MultiRowCode:
    """Immutable m x n digit matrix with per-column weights q**(j + lsb_exp)."""

    rows: int
    width: int
    radix: int
    lsb_exp: int
    digits: np.ndarray

    def __post_init__(self):
        if self.rows < 1:
            raise ValueError("rows must be >= 1")
        if self.width < 0:
            raise ValueError("width must be >= 0")
        if self.radix < 2:
            raise ValueError("radix must be >= 2")
        # the reduction kernels sum columns in int64; the largest stage
        # weight radix**(m2 - 1) is at most the same worst column sum
        if self.rows * (self.radix - 1) > MAX_COLUMN_SUM:
            raise NumericDomainError(
                f"{self.rows} rows at radix {self.radix}: column sums can "
                f"exceed 2**63 - 1"
            )
        object.__setattr__(
            self,
            "digits",
            _as_digit_matrix(self.digits, self.rows, self.width, self.radix),
        )

    @classmethod
    def from_digits(cls, digits, radix: int = 2, lsb_exp: int = 0) -> "MultiRowCode":
        # the constructor converts to int64, so a digit too wide for it is
        # reported as out of range
        arr = np.asarray(digits)
        if arr.ndim == 1:
            arr = arr[None, :]
        return cls(arr.shape[0], arr.shape[1], radix, lsb_exp, arr)

    @classmethod
    def zero(
        cls, rows: int, width: int, radix: int = 2, lsb_exp: int = 0
    ) -> "MultiRowCode":
        return cls(rows, width, radix, lsb_exp, np.zeros((rows, width), np.int64))

    def column(self, j: int) -> np.ndarray:
        return self.digits[:, j]

    def __eq__(self, other) -> bool:
        # codes compare by represented value, not by digit layout
        if not isinstance(other, MultiRowCode):
            return NotImplemented
        return value_of(self) == value_of(other)

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"MultiRowCode(rows={self.rows}, width={self.width}, "
            f"radix={self.radix}, lsb_exp={self.lsb_exp}, value={value_of(self)})"
        )


def scaled_value(code: MultiRowCode) -> int:
    """Exact integer value ignoring lsb_exp: sum of digit * radix**j."""
    if code.width == 0:
        return 0
    if code.radix == 2:
        # each bit row packs into one int
        packed = np.packbits(code.digits, axis=1, bitorder="little")
        return sum(int.from_bytes(row.tobytes(), "little") for row in packed)
    total = 0
    for d in reversed(code.digits.sum(axis=0, dtype=np.int64).tolist()):
        total = total * code.radix + d
    return total


def scale_fraction(scaled: int, radix: int, lsb_exp: int) -> Fraction:
    """scaled * radix**lsb_exp as an exact Fraction, in integer arithmetic."""
    if lsb_exp >= 0:
        return Fraction(scaled * radix**lsb_exp)
    return Fraction(scaled, radix**-lsb_exp)


def value_of(code: MultiRowCode) -> Fraction:
    """Exact value of the code as a rational number."""
    return scale_fraction(scaled_value(code), code.radix, code.lsb_exp)


def make_from_value(
    value,
    rows: int,
    width: int,
    radix: int = 2,
    lsb_exp: int = 0,
) -> MultiRowCode:
    """Encode a non-negative number canonically: digits in row 0, rest zero.

    `value` may be an int or Fraction; it must be a non-negative multiple
    of radix**lsb_exp and fit in `width` columns.
    """
    if isinstance(value, int):
        num, den = value, 1
    else:
        v = Fraction(value)
        num, den = v.numerator, v.denominator
    if num < 0:
        raise ValueError("value must be non-negative")
    if lsb_exp >= 0:
        den *= radix**lsb_exp
    else:
        num *= radix**-lsb_exp
    n, rem = divmod(num, den)
    if rem:
        raise GranularityError(
            f"{value} is not a multiple of {radix}**{lsb_exp}"
        )
    if n >= radix**width:
        raise WidthOverflowError(
            f"value {value} does not fit in width {width} at radix {radix}"
        )
    row = []
    while n:
        n, d = divmod(n, radix)
        row.append(d)
    digits = np.zeros((rows, width), dtype=np.int64)
    digits[0, : len(row)] = row
    return MultiRowCode(rows, width, radix, lsb_exp, digits)


def with_lsb_exp(code: MultiRowCode, lsb_exp: int) -> MultiRowCode:
    """Re-align a code to a new lsb_exp without changing its value.

    Lowering the exponent widens the matrix with zero LSB columns.
    Raising it drops LSB columns, which is only legal when they are zero.
    """
    shift = code.lsb_exp - lsb_exp
    if shift == 0:
        return code
    if shift > 0:
        digits = np.zeros((code.rows, code.width + shift), dtype=np.int64)
        digits[:, shift:] = code.digits
    else:
        cut = -shift
        if cut > code.width or code.digits[:, :cut].any():
            raise GranularityError(
                f"cannot raise lsb_exp to {lsb_exp}: low columns are not zero"
            )
        digits = code.digits[:, cut:].copy()
    return MultiRowCode(code.rows, digits.shape[1], code.radix, lsb_exp, digits)


@dataclass(frozen=True, eq=False)
class QuadSignedCode:
    """Signed value held as a pair of 2-row codes: value(pos) - value(neg).

    Negation swaps the parts, so no complement encoding is ever needed.
    """

    pos: MultiRowCode
    neg: MultiRowCode

    def __post_init__(self):
        for part in (self.pos, self.neg):
            if part.rows != 2:
                raise ValueError("quad parts must be 2-row codes")
        if (
            self.pos.radix != self.neg.radix
            or self.pos.lsb_exp != self.neg.lsb_exp
        ):
            raise ValueError("quad parts must share radix and lsb_exp")

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuadSignedCode):
            return NotImplemented
        return quad_value(self) == quad_value(other)

    __hash__ = None

    def __repr__(self) -> str:
        return f"QuadSignedCode(value={quad_value(self)})"


def quad_value(code: QuadSignedCode) -> Fraction:
    return value_of(code.pos) - value_of(code.neg)


def quad_negate(code: QuadSignedCode) -> QuadSignedCode:
    return QuadSignedCode(pos=code.neg, neg=code.pos)


def quad_from_value(
    value, width: int, radix: int = 2, lsb_exp: int = 0
) -> QuadSignedCode:
    v = Fraction(value)
    mag = make_from_value(abs(v), 2, width, radix, lsb_exp)
    zero = MultiRowCode.zero(2, width, radix, lsb_exp)
    if v >= 0:
        return QuadSignedCode(pos=mag, neg=zero)
    return QuadSignedCode(pos=zero, neg=mag)


# ---------------------------------------------------------------------------
# serialization
#
# text format:  header "mrc <rows> <width> <radix> <lsb_exp>", then one line
# per row, digits MSB-first.  Radix <= 10 uses contiguous digit characters;
# larger radixes separate digits with spaces.


def to_text(code: MultiRowCode) -> str:
    lines = [f"mrc {code.rows} {code.width} {code.radix} {code.lsb_exp}"]
    for i in range(code.rows):
        row = code.digits[i, ::-1]
        if code.radix <= 10:
            lines.append("".join(str(int(d)) for d in row))
        else:
            lines.append(" ".join(str(int(d)) for d in row))
    return "\n".join(lines) + "\n"


def from_text(text: str) -> MultiRowCode:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise CodeFormatError("empty input")
    head = lines[0].split()
    if len(head) != 5 or head[0] != "mrc":
        raise CodeFormatError(f"bad header: {lines[0]!r}")
    try:
        rows, width, radix, lsb_exp = (int(x) for x in head[1:])
    except ValueError as exc:
        raise CodeFormatError(f"bad header numbers: {lines[0]!r}") from exc
    if len(lines) - 1 != rows:
        raise CodeFormatError(f"expected {rows} digit rows, got {len(lines) - 1}")
    digits = []
    for i, ln in enumerate(lines[1:]):
        if radix <= 10:
            parts = list(ln.strip())
        else:
            parts = ln.split()
        if len(parts) != width:
            raise CodeFormatError(f"row {i}: expected {width} digits, got {len(parts)}")
        try:
            digits.append([int(p) for p in reversed(parts)])
        except ValueError as exc:
            raise CodeFormatError(f"row {i}: non-numeric digit") from exc
    return _parsed_code(rows, width, radix, lsb_exp, digits)


def _parsed_code(rows, width, radix, lsb_exp, digits) -> MultiRowCode:
    """Build a parsed code; bad digits are a format error, a shape outside
    the numeric domain keeps its own error."""
    try:
        return MultiRowCode(rows, width, radix, lsb_exp, digits)
    except NumericDomainError:
        raise
    except ValueError as exc:
        raise CodeFormatError(str(exc)) from exc


def to_json_dict(code: MultiRowCode) -> dict:
    return {
        "rows": code.rows,
        "width": code.width,
        "radix": code.radix,
        "lsb_exp": code.lsb_exp,
        "digits": [[int(d) for d in code.digits[i, ::-1]] for i in range(code.rows)],
    }


def to_json(code: MultiRowCode) -> str:
    return json.dumps(to_json_dict(code), sort_keys=True)


def from_json_dict(obj: dict) -> MultiRowCode:
    try:
        rows = int(obj["rows"])
        width = int(obj["width"])
        radix = int(obj["radix"])
        lsb_exp = int(obj["lsb_exp"])
        raw = obj["digits"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CodeFormatError(f"bad JSON code object: {exc}") from exc
    if len(raw) != rows:
        raise CodeFormatError(f"expected {rows} digit rows, got {len(raw)}")
    digits = []
    for i, row in enumerate(raw):
        if len(row) != width:
            raise CodeFormatError(f"row {i}: expected {width} digits")
        digits.append([int(d) for d in reversed(row)])
    return _parsed_code(rows, width, radix, lsb_exp, digits)


def from_json(text: str) -> MultiRowCode:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CodeFormatError(f"bad JSON: {exc}") from exc
    return from_json_dict(obj)
