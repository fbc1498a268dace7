"""Text and JSON serialization round trips."""

import json

import numpy as np
import pytest

from redundarith.codes import (
    CodeFormatError,
    MultiRowCode,
    from_json,
    from_text,
    make_from_value,
    to_json,
    to_text,
)

from conftest import random_code


def test_text_round_trip(rng):
    # a binary code is read into `packed` with no digit matrix, a radix > 2
    # one through the constructor; both must be the constructor's code
    for width in range(131):
        for rows in range(1, 6):
            for radix in (2, 3, 10, 16):
                lsb_exp = (width + rows + radix) % 7 - 3
                digits = rng.integers(0, radix, size=(rows, width))
                digits[0] = radix - 1  # the MSB column set
                want = MultiRowCode(rows, width, radix, lsb_exp, digits)
                for got in (from_text(to_text(want)), from_json(to_json(want))):
                    assert (got.packed, got.width, got.radix, got.lsb_exp) == (
                        want.packed, want.width, want.radix, want.lsb_exp)
                    assert np.array_equal(got.digits, want.digits)


def test_width_zero_text_round_trip():
    # each row of a width-0 code is an empty line, which the reader keeps
    for radix, rows in ((2, 1), (2, 2), (3, 4), (16, 3)):
        code = MultiRowCode.zero(rows, 0, radix, 2)
        text = to_text(code)
        assert text == f"mrc {rows} 0 {radix} 2\n" + "\n" * rows
        for framed in (text, "\n \n" + text + "\n\n"):
            again = from_text(framed)
            assert (again.rows, again.width, again.radix, again.lsb_exp) == (rows, 0, radix, 2)
            assert again.digits.shape == (rows, 0)
    with pytest.raises(CodeFormatError):
        from_text("mrc 2 0 2 0\n\n\n1\n")  # a line past the rows


def test_text_is_msb_first():
    code = make_from_value(6, 1, 4, 2)
    assert to_text(code).splitlines()[1] == "0110"


def test_json_round_trip(rng):
    code = random_code(rng, 4, 10, 16, lsb_exp=-3)
    again = from_json(to_json(code))
    assert np.array_equal(again.digits, code.digits)
    assert again.radix == 16 and again.lsb_exp == -3


def test_from_text_rejects_garbage():
    with pytest.raises(CodeFormatError):
        from_text("not a header\n01\n")
    with pytest.raises(CodeFormatError, match=r"^digits out of range for radix 2$"):
        from_text("mrc 1 2 2 0\n09\n")
    with pytest.raises(CodeFormatError, match=r"^row 0: non-numeric digit$"):
        from_text("mrc 1 2 2 0\n-1\n")
    with pytest.raises(CodeFormatError):
        from_text("mrc 2 2 2 0\n01\n")  # missing a row
    for row in ("011", "0x"):  # a row too wide, a non-numeric digit
        with pytest.raises(CodeFormatError):
            from_text(f"mrc 1 2 2 0\n{row}\n")
    # digits and header fields are ASCII decimals: `int` also reads other
    # Unicode digits, "_" separators and signs (values 3 and 165, width 10)
    for text in ("mrc 1 2 2 0\n1\u0661\n", "mrc 1 2 16 0\n1_0 +5\n", "mrc 1 2 16 0\n15 -5\n"):
        with pytest.raises(CodeFormatError, match=r"^row 0: non-numeric digit$"):
            from_text(text)
    for head in ("mrc 1 1_0 2 0", "mrc 1 2 --1 0", "mrc 1 2 2 +0"):
        with pytest.raises(CodeFormatError, match=r"^bad header numbers: "):
            from_text(f"{head}\n01\n")
    assert from_text("mrc 1 2 2 -1\n11\n").lsb_exp == -1


def test_from_json_rejects_bad_digits():
    with pytest.raises(CodeFormatError):
        from_json('{"rows": 1, "width": 2, "radix": 2, "lsb_exp": 0, "digits": [[9, 0]]}')
    # header fields and digits must be JSON integers: no bool, float,
    # string or null; rows must be lists of the declared count and width
    head = '{"rows": %s, "width": 1, "radix": 2, "lsb_exp": %s, "digits": %s}'
    bad = [("1", "0", d) for d in ("5", "[5]", "[[null]]", "[[1.7]]", '[["1"]]', "[[true]]")]
    bad += [("1.9", "0", "[[1]]"), ("true", "0", "[[1]]"), ("1", "null", "[[1]]")]
    bad += [("2", "0", "[[1]]"), ("2", "0", "[[1], 3]"), ("1", "0", "[[1, 0]]")]
    for fields in bad:
        with pytest.raises(CodeFormatError):
            from_json(head % fields)
    for text in ('{"rows": 1, "width": 1, "radix": 2, "digits": [[1]]}', "[1, 2]", "7"):
        with pytest.raises(CodeFormatError):
            from_json(text)


@pytest.mark.parametrize("field", ("rows", "width", "radix", "lsb_exp"))
def test_header_field_past_the_digit_limit_is_named(field):
    # counted before `int` reads it: a format error naming the field, in
    # both formats, not Python's own int-string error
    long = "9" * 5000
    fields = {"rows": "1", "width": "1", "radix": "2", "lsb_exp": "0", field: long}
    message = rf"^{field} has 5000 digits, past Python's limit of \d+$"
    with pytest.raises(CodeFormatError, match=message):
        from_text("mrc {rows} {width} {radix} {lsb_exp}\n1\n".format(**fields))
    with pytest.raises(CodeFormatError, match=message):
        from_json('{"rows": %(rows)s, "width": %(width)s, "radix": %(radix)s, "lsb_exp": %(lsb_exp)s, '
                  '"digits": [[1]]}' % fields)
    # a long digit is no int; a long header line is cut at 40 characters
    with pytest.raises(CodeFormatError, match=r"^row 0: digits must be integers$"):
        from_json('{"rows": 1, "width": 1, "radix": 2, "lsb_exp": 0, "digits": [[%s]]}' % long)
    with pytest.raises(CodeFormatError, match=rf"^bad header numbers: 'mrc 1 1 2 x{'9' * 29}\.\.\.'$"):
        from_text(f"mrc 1 1 2 x{long}\n1\n")


@pytest.mark.parametrize("digit, message", [
    (2, "digits out of range for radix 2"),
    (-1, "digits out of range for radix 2"),
    (10**30, "digits out of range for radix 2"),
    (True, "row 1: digits must be integers"),
    (1.0, "row 1: digits must be integers"),
    ("1", "row 1: digits must be integers"),
])
def test_binary_reader_errors(digit, message):
    code = {"rows": 2, "width": 2, "radix": 2, "lsb_exp": 0, "digits": [[1, 0], [digit, 1]]}
    # every row's digits must be ints before any digit's range is checked,
    # so a digit out of range in row 0 changes no message
    for first in (1, 2):
        code["digits"][0][0] = first
        with pytest.raises(CodeFormatError, match=f"^{message}$") as err:
            from_json(json.dumps(code))
        assert err.type is CodeFormatError
