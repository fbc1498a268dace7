"""Multi-row digit codes: the data type everything else operates on.

A code is an m x n matrix of radix-q digits in which every digit of
column j carries the same weight q**(j + lsb_exp).  The value is the
plain weighted sum over all rows, so a number has many representations
and addition can be done without carry propagation (see reducer).

Columns are indexed LSB-first internally; the text format prints rows
MSB-first because that is what humans expect to read.  A binary code
holds each row as one int, bit j in column j, and builds its digit
matrix only when it is read; the numpy matrix is the storage at radix > 2.

numpy is imported by the functions that use it, on their first call:
binary codes are built, read, reduced, valued and written without it.
What loads it is a radix > 2 code, checked construction from a digit
matrix (the constructor and `from_digits`), a `digits` read, and
`pack_rows`, `pack_columns` or `unpack_rows`.  `pack_rows` reads the rows
of a 0/1 matrix as ints and `pack_columns` its columns; the accumulator's
column body reads a stream's columns with it.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:
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


def check_int(name: str, value, lo: int | None = None, hi: int | None = None) -> None:
    """Reject anything but a plain int in lo..hi (either end may be open;
    `hi` needs `lo`): bool is an int subclass, and a float makes shapes,
    digits and totals inexact."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int")
    if lo is not None and value < lo or hi is not None and value > hi:
        bounds = f">= {shown(lo)}" if hi is None else f"in {shown(lo)}..{shown(hi)}"
        raise ValueError(f"{name} must be {bounds}")


def check_operand(code: MultiRowCode, name: str, rows: tuple | None = None, lsb_exp: int | None = None,
                  min_width: int = 0, max_width: int | None = None) -> None:
    """Reject a code an engine cannot take as its operand `name`: it must
    be binary, have one of the row counts `rows`, sit on the grid of
    `lsb_exp` and be min_width .. max_width columns wide (None: any)."""
    if code.radix != 2:
        raise ValueError(f"{name} must be binary")
    if rows is not None and code.rows not in rows:
        raise ValueError(f"{name} must be a {' or '.join(f'{r}-row' for r in rows)} code")
    if lsb_exp is not None and code.lsb_exp != lsb_exp:
        raise ValueError(f"{name} lsb_exp must be {shown(lsb_exp)}")
    if code.width < min_width or max_width is not None and code.width > max_width:
        check_int(f"{name} width", code.width, min_width, max_width)  # raises, naming the range


def _check_fields(rows, width, radix, lsb_exp) -> None:
    # one test when all four are ints in range; the loop only names the culprit, a non-int first
    if (not type(rows) is type(width) is type(radix) is type(lsb_exp) is int
            or rows < 1 or width < 0 or radix < 2):
        fields = (("rows", rows, 1), ("width", width, 0), ("radix", radix, 2), ("lsb_exp", lsb_exp, None))
        for name, value, lo in sorted(fields, key=lambda field: type(field[1]) is int):
            check_int(name, value, lo)
    # the reduction kernels sum columns in int64; the largest stage
    # weight radix**(m2 - 1) is at most the same worst column sum
    if rows * (radix - 1) > MAX_COLUMN_SUM:
        raise NumericDomainError(f"{shown(rows, 'row count')} at {shown(radix, 'radix')}: "
                                 "column sums can exceed 2**63 - 1")


def _as_digit_matrix(values, shape: tuple, radix: int, name: str = "digits") -> np.ndarray:
    """`values` as an integer array of `shape` (a str entry matches any
    length) holding digits 0 .. radix-1.  Integer and bool arrays pass with
    no copy; anything else is converted to int64, which must change no
    entry, so 0.5 and "1" are rejected rather than truncated or parsed."""
    import numpy as np

    arr = np.asarray(values)
    kind = arr.dtype.kind
    if kind not in "biu" or not arr.dtype.isnative:
        try:
            with np.errstate(invalid="ignore"):  # nan and inf fail the comparison
                exact = arr.astype(np.int64) if kind in "fiuO" else None
        except (OverflowError, TypeError, ValueError):
            exact = None
        if exact is None or not (exact == arr).all():
            raise _entry_error(name, radix)
        arr, kind = exact, "i"
    if arr.shape != shape and (arr.ndim != len(shape) or any(
            type(want) is int and want != got for want, got in zip(shape, arr.shape))):
        want = ", ".join(w if type(w) is str else shown(w) for w in shape)
        raise ValueError(f"{name} shape {arr.shape} != ({want})")
    # read as unsigned, a negative entry is at least 2**(bits - 1) and every
    # other signed entry is below it, so one max checks both ends
    if kind != "b" and arr.size:
        top = int(arr.view(f"u{arr.itemsize}").max())
        if top >= radix or kind == "i" and top >> 8 * arr.itemsize - 1:
            raise _entry_error(name, radix)
    return arr


def _entry_error(name: str, radix: int) -> ValueError:
    return ValueError(f"{name} entries must be 0 or 1" if name != "digits" else
                      f"digits out of range for {shown(radix, 'radix')}")


class MultiRowCode:
    """Immutable m x n digit matrix with per-column weights q**(j + lsb_exp).

    The constructor checks a digit matrix and keeps one form of its own,
    never the caller's array.  At radix 2 that is the rows as ints in
    `packed`, bit j in column j, and the read-only int64 `digits` is built
    from them on first read; above, `packed` is None and `digits` is a
    read-only int64 copy.  Engine output is built by `made_code`.
    """

    rows: int
    width: int
    radix: int
    lsb_exp: int
    packed: tuple | None

    def __init__(self, rows: int, width: int, radix: int, lsb_exp: int, digits):
        self.__post_init__(rows, width, radix, lsb_exp, digits)

    def __post_init__(self, rows, width, radix, lsb_exp, digits):
        _check_fields(rows, width, radix, lsb_exp)
        digits = _as_digit_matrix(digits, (rows, width), radix)
        _store(self, pack_rows(digits) if radix == 2 else digits.astype("int64"), width, radix, lsb_exp)

    @property
    def digits(self) -> np.ndarray:
        if self._digits is None:
            vars(self)["_digits"] = unpack_rows(self.packed, self.width)
        return self._digits

    def __setattr__(self, name, value):
        raise AttributeError(f"MultiRowCode is immutable: cannot set {name}")

    @classmethod
    def from_digits(cls, digits, radix: int = 2, lsb_exp: int = 0) -> "MultiRowCode":
        import numpy as np

        arr = np.asarray(digits)
        if arr.ndim == 0:
            raise ValueError("digits shape () is neither a row nor a matrix")
        if arr.ndim == 1:
            arr = arr[None, :]
        return cls(arr.shape[0], arr.shape[1], radix, lsb_exp, arr)

    @classmethod
    def zero(cls, rows: int, width: int, radix: int = 2, lsb_exp: int = 0) -> "MultiRowCode":
        _check_fields(rows, width, radix, lsb_exp)
        return make_from_value(0, rows, width, radix, lsb_exp)

    def __eq__(self, other) -> bool:
        # codes compare by represented value, not by digit layout
        if not isinstance(other, MultiRowCode):
            return NotImplemented
        return value_of(self) == value_of(other)

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"MultiRowCode(rows={self.rows}, width={self.width}, "
            f"radix={self.radix}, lsb_exp={self.lsb_exp}, value={shown(value_of(self))})"
        )


def made_code(rows, width: int, radix: int = 2, lsb_exp: int = 0) -> MultiRowCode:
    """A code of engine output, unchecked; `_store` alone decides how a code
    stores its rows.  At radix 2 `rows` are ints below 2**width, bit j
    in column j; above, an int64 (rows, width) matrix of digits below
    `radix` that the caller hands over.  The engines keep those ranges by
    construction, and no digit matrix is built at radix 2."""
    return _store(object.__new__(MultiRowCode), rows, width, radix, lsb_exp)


def _store(code: MultiRowCode, rows, width: int, radix: int, lsb_exp: int) -> MultiRowCode:
    """Fill `code` with rows in the one stored form (see made_code), one write per field."""
    fields = code.__dict__
    fields["rows"] = len(rows)
    fields["width"] = width
    fields["radix"] = radix
    fields["lsb_exp"] = lsb_exp
    if radix == 2:
        fields["packed"], fields["_digits"] = tuple(rows), None
    else:
        rows.flags.writeable = False
        fields["packed"], fields["_digits"] = None, rows
    return code


def stack_codes(parts, width: int = 0) -> MultiRowCode:
    """The rows of codes of one radix and lsb_exp, in order, as one code.

    It is as wide as the widest part, or `width` if that is wider; every
    row is zero-padded on the MSB side.
    """
    first = parts[0]
    width = max(width, *(part.width for part in parts))
    if first.radix == 2:
        return made_code([row for part in parts for row in part.packed], width, 2, first.lsb_exp)
    import numpy as np

    digits = np.zeros((sum(part.rows for part in parts), width), dtype=np.int64)
    top = 0
    for part in parts:
        digits[top : top + part.rows, : part.width] = part.digits
        top += part.rows
    return made_code(digits, width, first.radix, first.lsb_exp)


@lru_cache(maxsize=65)
def _bit_weights(width: int) -> np.ndarray:
    """Read-only uint64 vector 1 << j, j < width <= 64."""
    import numpy as np

    w = np.left_shift(np.uint64(1), np.arange(width, dtype=np.uint64))
    w.flags.writeable = False
    return w


def pack_rows(bits) -> list:
    """Each row of a 0/1 matrix as one int, bit j in column j."""
    import numpy as np

    bits = np.asarray(bits)
    rows, width = bits.shape
    if width <= 64 and rows * width <= 1536:
        # one product with the weights 1 << j.  Integer matmul has no BLAS path: from about 2048
        # cells packbits wins, e.g. uint8 (32, 64) 3.8 against 4.2 us, (256, 64) 9.9 against 20.1 us
        return (bits.astype(np.uint64, copy=False) @ _bit_weights(width)).tolist()
    # packbits runs several times faster on contiguous uint8 rows than on int64 or strided ones
    # (the cast goes first: a transposing uint8 copy is the cheap one); up to 8 bytes, a uint64 view
    bits = np.ascontiguousarray(bits.astype(np.uint8, copy=False))
    packed = np.packbits(bits, axis=1, bitorder="little")
    nbytes = packed.shape[1]
    if nbytes <= 8:
        words = np.zeros((rows, 8), dtype=np.uint8)
        words[:, :nbytes] = packed
        return words.view("<u8").ravel().tolist()
    raw = packed.tobytes()
    return [int.from_bytes(raw[i : i + nbytes], "little") for i in range(0, rows * nbytes, nbytes)]


def pack_columns(bits) -> list:
    """Each column of a (steps, n) 0/1 matrix as one int, bit t at step t:
    pack_rows(bits.T), without its transposing copy of the whole matrix.

    A little-endian uint64 lane holds one step of eight columns, a 0/1 byte
    each, so the sum of lane_k << k over eight steps k puts those steps of
    column 8w + i into byte i of lane w; no byte carries into the next.
    Only these packed bytes, an eighth of the matrix, are transposed.
    """
    import numpy as np

    bits = np.asarray(bits)
    steps, n = bits.shape
    if steps < 256:
        # the lanes' fixed cost loses to the one transposing copy here
        return pack_rows(bits.T)
    if bits.dtype != np.uint8 or steps % 8 or n % 8 or not bits.flags.c_contiguous:
        padded = np.zeros((-(-steps // 8) * 8, -(-n // 8) * 8), dtype=np.uint8)
        padded[:steps, :n] = bits
        bits = padded
    nbytes = bits.shape[0] // 8
    # (steps/8, n/8) lanes, each the sum of lane_k << k over its block of eight steps
    packed = _bit_weights(8) @ bits.view("<u8").reshape(nbytes, 8, -1)
    # byte i of lane w is column 8w + i on any host; the transposing copy puts each column's bytes in a row
    raw = packed.astype("<u8", copy=False).view(np.uint8).T.tobytes()
    return [int.from_bytes(raw[i : i + nbytes], "little") for i in range(0, n * nbytes, nbytes)]


def unpack_rows(ints, width: int) -> np.ndarray:
    """Bits 0 .. width-1 of each non-negative int as one row of a read-only
    int64 0/1 matrix, bit j in column j: the inverse of pack_rows."""
    import numpy as np

    nbytes = -(-width // 8)
    raw = np.frombuffer(b"".join(v.to_bytes(nbytes, "little") for v in ints), dtype=np.uint8)
    bits = np.unpackbits(raw.reshape(len(ints), nbytes), axis=1, count=width, bitorder="little")
    out = bits.astype(np.int64)
    out.flags.writeable = False
    return out


def scaled_value(code: MultiRowCode) -> int:
    """Exact integer value ignoring lsb_exp: sum of digit * radix**j."""
    if code.radix == 2:
        return sum(code.packed)
    total = 0
    for d in reversed(code.digits.sum(axis=0, dtype="int64").tolist()):
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


# int_string_limit(): the most decimal digits Python converts between int and str (0 when unlimited)
int_string_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


def shown(value, noun: str = "") -> str:
    """A number in text a user reads: "10", or "radix 10" with a `noun`, while its numerator and
    denominator fit in 128 bits; past that its size, "a 13288-bit value" or "a 13288-bit radix"."""
    v = Fraction(value)  # int(): a numpy integer's parts keep its type
    bits = (abs(int(v.numerator)) | int(v.denominator)).bit_length()
    if bits > 128:
        return f"a {bits}-bit {noun or 'value'}"
    return f"{noun} {value}" if noun else str(value)


def past_digit_limit(value) -> str:
    """Why Python would not convert `value` between int and decimal text under its limit, else "":
    text read in is named by its digit count, an int or Fraction to write out by its size.  A
    number below 2**(3 * limit) < 10**limit costs one bit_length comparison."""
    limit = int_string_limit()
    if isinstance(value, str):
        if 0 < limit < len(value) and (digits := sum(map(str.isdigit, value))) > limit:
            return f"has {digits} digits, past Python's limit of {limit}"
        return ""
    num, den = abs(value.numerator), value.denominator
    if not limit or (num | den).bit_length() <= 3 * limit or max(num, den) < 10**limit:
        return ""
    return f"is {shown(value, 'number')}, more than Python's limit of {limit} digits"


def clipped(text: str) -> str:
    """Text that is not a number, as an error echoes it: past 40 characters, its first 40 and "..."."""
    return text if len(text) <= 40 else text[:40] + "..."


def _exact_value(value):
    """`value` as an int or Fraction.  Text is not parsed, bool is not a
    number, and what Fraction cannot convert (None, complex, nan) fails."""
    if type(value) is int:
        return value
    if not isinstance(value, (str, bool)):
        try:
            return Fraction(value)
        except (OverflowError, TypeError, ValueError):
            pass
    raise ValueError(f"value must be a finite number, not {type(value).__name__}")


def make_from_value(
    value,
    rows: int,
    width: int | None,
    radix: int = 2,
    lsb_exp: int = 0,
) -> MultiRowCode:
    """Encode a non-negative number canonically: digits in row 0, rest zero.

    `value` is a number (see _exact_value); it must be a non-negative
    multiple of radix**lsb_exp and fit in `width` columns.  `width=None`
    takes as few columns as the value needs, and at least one.
    """
    _check_fields(rows, 0 if width is None else width, radix, lsb_exp)
    v = _exact_value(value)
    # int(): a numpy integer's parts keep its type; an int needs no split
    n, den = (v, 1) if type(v) is int else (int(v.numerator), int(v.denominator))
    if n < 0:
        raise ValueError("value must be non-negative")
    if lsb_exp > 0:
        den *= radix**lsb_exp
    elif lsb_exp < 0:
        n *= radix**-lsb_exp
    if den != 1:  # an int at lsb_exp <= 0 needs no division
        n, rem = divmod(n, den)
        if rem:
            raise GranularityError(f"{shown(value, 'value')} is not a multiple of "
                                   f"{shown(radix)}**{shown(lsb_exp)}")
    if radix == 2:
        ndigits = n.bit_length()
    else:
        # stop one digit past the width: that digit already overflows it
        row = []
        while n and (width is None or len(row) <= width):
            n, d = divmod(n, radix)
            row.append(d)
        ndigits = len(row)
    width = max(ndigits, 1) if width is None else width
    if ndigits > width:
        raise WidthOverflowError(f"{shown(value, 'value')} does not fit in {shown(width, 'width')} "
                                 f"at {shown(radix, 'radix')}")
    if radix == 2:
        return made_code((n,) + (0,) * (rows - 1), width, 2, lsb_exp)
    import numpy as np

    digits = np.zeros((rows, width), dtype=np.int64)
    digits[0, :ndigits] = row
    return made_code(digits, width, radix, lsb_exp)


def with_lsb_exp(code: MultiRowCode, lsb_exp: int) -> MultiRowCode:
    """Re-align a code to a new lsb_exp without changing its value.

    Lowering the exponent widens the matrix with zero LSB columns.
    Raising it drops LSB columns, which is only legal when they are zero.
    """
    check_int("lsb_exp", lsb_exp)
    shift = code.lsb_exp - lsb_exp
    binary = code.radix == 2
    if shift < 0:
        cut = -shift
        if cut > code.width or (
            any(row & ((1 << cut) - 1) for row in code.packed) if binary else code.digits[:, :cut].any()
        ):
            raise GranularityError(
                f"cannot raise lsb_exp to {shown(lsb_exp)}: low columns are not zero"
            )
    if binary:
        rows = [row << shift if shift > 0 else row >> -shift for row in code.packed]
        return made_code(rows, code.width + shift, 2, lsb_exp)
    if shift > 0:
        import numpy as np

        digits = np.zeros((code.rows, code.width + shift), dtype=np.int64)
        digits[:, shift:] = code.digits
    else:
        digits = code.digits[:, -shift:].copy()
    return made_code(digits, digits.shape[1], code.radix, lsb_exp)


class QuadSignedCode:
    """Signed value held as a pair of 2-row codes: value(pos) - value(neg).

    Negation swaps the parts, so no complement encoding is ever needed.
    """

    pos: MultiRowCode
    neg: MultiRowCode

    def __init__(self, pos: MultiRowCode, neg: MultiRowCode):
        for part in (pos, neg):
            if part.rows != 2:
                raise ValueError("quad parts must be 2-row codes")
        if pos.radix != neg.radix or pos.lsb_exp != neg.lsb_exp:
            raise ValueError("quad parts must share radix and lsb_exp")
        vars(self).update(pos=pos, neg=neg)

    def __setattr__(self, name, value):
        raise AttributeError(f"QuadSignedCode is immutable: cannot set {name}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuadSignedCode):
            return NotImplemented
        return quad_value(self) == quad_value(other)

    __hash__ = None

    def __repr__(self) -> str:
        return f"QuadSignedCode(value={shown(quad_value(self))})"


def quad_value(code: QuadSignedCode) -> Fraction:
    return value_of(code.pos) - value_of(code.neg)


def made_quad(pos: MultiRowCode, neg: MultiRowCode) -> QuadSignedCode:
    """A quad code of parts the library already holds as valid 2-row codes
    of one radix and lsb_exp, unchecked: the quad counterpart of made_code."""
    quad = object.__new__(QuadSignedCode)
    vars(quad).update(pos=pos, neg=neg)
    return quad


def quad_negate(code: QuadSignedCode) -> QuadSignedCode:
    return made_quad(code.neg, code.pos)


def quad_from_value(
    value, width: int | None, radix: int = 2, lsb_exp: int = 0
) -> QuadSignedCode:
    """Canonical quad code of a signed value; `width` as in make_from_value."""
    v = _exact_value(value)
    mag = make_from_value(abs(v), 2, width, radix, lsb_exp)
    zero = MultiRowCode.zero(2, mag.width, radix, lsb_exp)
    return made_quad(mag, zero) if v >= 0 else made_quad(zero, mag)


# ---------------------------------------------------------------------------
# serialization
#
# text format:  header "mrc <rows> <width> <radix> <lsb_exp>", then one line
# per row, digits MSB-first.  Radix <= 10 uses contiguous digit characters;
# larger radixes separate digits with spaces.


_BIT_VALUES = bytes.maketrans(b"01", b"\0\1")
_BIT_CHARS = bytes.maketrans(b"\0\1", b"01")  # its inverse


def _bit_texts(code: MultiRowCode) -> list:
    """The rows of a binary code as MSB-first "0"/"1" strings, from `packed`.
    The bit set at `width` makes format() write every column, none at width 0."""
    top = 1 << code.width
    return [format(row | top, "b")[1:] for row in code.packed]


def msb_rows(code: MultiRowCode) -> list:
    """The rows of a code as lists of digits, most significant first: the
    row order of the text and JSON formats.  A binary code is written from
    `packed`, with no digit matrix."""
    if code.radix == 2:
        return [list(text.encode().translate(_BIT_VALUES)) for text in _bit_texts(code)]
    return code.digits[:, ::-1].tolist()


def to_text(code: MultiRowCode) -> str:
    lines = [f"mrc {code.rows} {code.width} {code.radix} {code.lsb_exp}"]
    if code.radix == 2:
        lines += _bit_texts(code)
    else:
        sep = "" if code.radix <= 10 else " "
        lines += [sep.join(map(str, row)) for row in msb_rows(code)]
    return "\n".join(lines) + "\n"


def from_text(text: str) -> MultiRowCode:
    """Parse the text format.  The header is the first non-blank line and
    the next `rows` lines are the rows, which are empty at width 0; any
    later line must be blank."""
    lines = text.splitlines()
    start = next((i for i, ln in enumerate(lines) if ln.strip()), None)
    if start is None:
        raise CodeFormatError("empty input")
    head = lines[start].split()
    if len(head) != 5 or head[0] != "mrc":
        raise CodeFormatError(f"bad header: {clipped(lines[start])!r}")
    if not all(_is_decimal(x.removeprefix("-")) for x in head[1:]):
        raise CodeFormatError(f"bad header numbers: {clipped(lines[start])!r}")
    rows, width, radix, lsb_exp = map(_field_int, _HEADER_FIELDS, head[1:])
    body = lines[start + 1 :]
    # a non-blank line past the rows counts as one more row
    body = body[: max(rows, 0)] + [ln for ln in body[max(rows, 0) :] if ln.strip()]
    digits = []
    for i, ln in enumerate(body):
        parts = ln.strip() if radix <= 10 else ln.split()
        if not all(map(_is_decimal, parts)):
            raise CodeFormatError(f"row {i}: non-numeric digit")
        digits.append([int(p) for p in parts])
    return _parsed_code(rows, width, radix, lsb_exp, digits)


_HEADER_FIELDS = ("rows", "width", "radix", "lsb_exp")


def _field_int(name: str, text: str) -> int:
    """A code field's decimal text as an int; past Python's digit limit, a format error naming the field."""
    if past := past_digit_limit(text):
        raise CodeFormatError(f"{name} {past}")
    return int(text)


class _LongDigits(str):
    """A JSON integer past Python's digit limit, kept as its text for `from_json` to name."""


def _json_int(text: str):
    return _LongDigits(text) if past_digit_limit(text) else int(text)


def _is_decimal(text: str) -> bool:
    """ASCII digits only: `int` also takes other Unicode digits, `_` and signs."""
    return text.isascii() and text.isdigit()


def _parsed_code(rows, width, radix, lsb_exp, msb_first) -> MultiRowCode:
    """Build a parsed code from its header fields and MSB-first digit rows.

    The fields pass the constructor's checks first and the digits must be
    ints (bool is not); anything malformed is a format error, while a shape
    outside the numeric domain keeps its own error.
    """
    try:
        _check_fields(rows, width, radix, lsb_exp)
        if not isinstance(msb_first, (list, tuple)) or len(msb_first) != rows:
            raise CodeFormatError(f"expected a list of {shown(rows)} digit rows")
        for i, row in enumerate(msb_first):
            if not isinstance(row, (list, tuple)) or len(row) != width:
                raise CodeFormatError(f"row {i}: expected {shown(width)} digits")
            if any(type(d) is not int for d in row):
                raise CodeFormatError(f"row {i}: digits must be integers")
        if radix != 2:
            return MultiRowCode(rows, width, radix, lsb_exp, [row[::-1] for row in msb_first])
        if width and not 0 <= min(map(min, msb_first)) <= max(map(max, msb_first)) <= 1:
            raise CodeFormatError("digits out of range for radix 2")
        return made_code([int(bytes(row).translate(_BIT_CHARS) or b"0", 2) for row in msb_first],
                         width, 2, lsb_exp)
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
        "digits": msb_rows(code),
    }


def to_json(code: MultiRowCode) -> str:
    return json.dumps(to_json_dict(code), sort_keys=True)


def from_json_dict(obj: dict) -> MultiRowCode:
    try:
        fields = [obj[key] for key in ("rows", "width", "radix", "lsb_exp", "digits")]
    except (KeyError, TypeError) as exc:
        raise CodeFormatError(f"bad JSON code object: {exc}") from exc
    return _parsed_code(*fields)


def from_json(text: str) -> MultiRowCode:
    try:
        obj = json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise CodeFormatError(f"bad JSON: {exc}") from exc
    if isinstance(obj, dict):
        for name in _HEADER_FIELDS:
            if type(obj.get(name)) is _LongDigits:
                _field_int(name, obj[name])  # raises, naming the field
    return from_json_dict(obj)
