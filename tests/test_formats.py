"""Text and JSON serialization round trips."""

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
    for radix in (2, 3, 10, 16):
        for _ in range(20):
            code = random_code(
                rng, int(rng.integers(1, 6)), int(rng.integers(1, 20)), radix,
                lsb_exp=int(rng.integers(-8, 9)),
            )
            again = from_text(to_text(code))
            assert again.rows == code.rows
            assert again.width == code.width
            assert again.radix == code.radix
            assert again.lsb_exp == code.lsb_exp
            assert np.array_equal(again.digits, code.digits)


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
    with pytest.raises(CodeFormatError):
        from_text("mrc 1 2 2 0\n09\n")  # digit 9 out of range for radix 2
    with pytest.raises(CodeFormatError):
        from_text("mrc 2 2 2 0\n01\n")  # missing a row
    for row in ("011", "0x"):  # a row too wide, a non-numeric digit
        with pytest.raises(CodeFormatError):
            from_text(f"mrc 1 2 2 0\n{row}\n")


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
