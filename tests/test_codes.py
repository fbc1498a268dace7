"""Digit-matrix container: construction, values, canonical encoding."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redundarith.codes import (
    GranularityError,
    MultiRowCode,
    NumericDomainError,
    QuadSignedCode,
    WidthOverflowError,
    from_text,
    make_from_value,
    quad_from_value,
    quad_negate,
    quad_value,
    scaled_value,
    value_of,
    with_lsb_exp,
)
from redundarith.oracle import exact_scaled_value
from redundarith.reducer import reduce_to_two

from conftest import random_code


def test_construction_validates_shape_and_digits():
    with pytest.raises(ValueError):
        MultiRowCode(2, 3, 2, 0, np.zeros((3, 3), dtype=np.int64))
    with pytest.raises(ValueError):
        MultiRowCode(1, 2, 2, 0, np.array([[0, 2]], dtype=np.int64))
    with pytest.raises(ValueError):
        MultiRowCode(1, 2, 2, 0, np.array([[0, -1]], dtype=np.int64))
    with pytest.raises(ValueError):
        MultiRowCode(1, 2, 1, 0, np.zeros((1, 2), dtype=np.int64))
    for digit in (2**64 - 1, 2**70):  # too wide for int64
        with pytest.raises(ValueError):
            MultiRowCode.from_digits([[digit]], radix=2**63)


def test_column_sum_domain_is_enforced():
    # 5 rows of maximum digits at radix 2**61 would overflow int64 column sums
    q = 2**61
    with pytest.raises(NumericDomainError):
        MultiRowCode(5, 3, q, 0, [[q - 1] * 3] * 5)
    # a radix-2**64 digit does not fit int64: rejected before conversion
    with pytest.raises(NumericDomainError):
        MultiRowCode(1, 1, 2**64, 0, [[2**64 - 1]])
    with pytest.raises(NumericDomainError):
        from_text(f"mrc 1 1 {2**64} 0\n{2**64 - 1}\n")
    # the widest radix a 3-row code allows still reduces exactly
    q = (2**63 - 1) // 3 + 1
    code = MultiRowCode(3, 4, q, 0, [[q - 1] * 4] * 3)
    out = reduce_to_two(code)
    assert value_of(out) == value_of(code) == 3 * (q**4 - 1)


def test_digits_are_read_only():
    code = MultiRowCode.zero(2, 4, 2, 0)
    with pytest.raises(ValueError):
        code.digits[0, 0] = 1


def test_value_matches_slow_reference(rng):
    for radix in (2, 3, 10):
        for _ in range(50):
            rows = int(rng.integers(1, 9))
            width = int(rng.integers(1, 40))
            code = random_code(rng, rows, width, radix)
            assert scaled_value(code) == exact_scaled_value(
                code.digits.tolist(), radix
            )


def test_value_respects_lsb_exp():
    code = MultiRowCode(1, 3, 2, -2, np.array([[1, 1, 1]], dtype=np.int64))
    assert value_of(code) == Fraction(7, 4)
    code = MultiRowCode(1, 3, 10, 2, np.array([[3, 2, 1]], dtype=np.int64))
    assert value_of(code) == 12300


def test_make_from_value_round_trips(rng):
    for radix in (2, 3, 10):
        for _ in range(50):
            v = int(rng.integers(0, 10**6))
            code = make_from_value(v, 3, 40, radix)
            assert value_of(code) == v
            assert code.digits[1:].sum() == 0
    # every accepted input type encodes the same digits
    for v in (6, True, np.int64(6), Fraction(6)):
        code = make_from_value(v, 2, 8, 2)
        assert value_of(code) == v
        assert code.digits[0].tolist() == [int(d) for d in format(int(v), "08b")[::-1]]
    for radix in (2, 3):
        assert value_of(make_from_value(radix**8 - 1, 1, 8, radix)) == radix**8 - 1
    assert value_of(make_from_value(Fraction(13, 8), 1, 5, 2, -3)) == Fraction(13, 8)
    assert value_of(make_from_value(5, 1, 6, 2, -3)) == 5  # int input, negative lsb_exp
    assert value_of(make_from_value(18, 1, 2, 3, 2)) == 18  # int input, positive lsb_exp
    empty = make_from_value(0, 1, 0, 2)
    assert empty.width == 0 and value_of(empty) == 0


def test_make_from_value_rejects_bad_inputs():
    with pytest.raises(WidthOverflowError):
        make_from_value(256, 1, 8, 2)
    for radix in (2, 3):
        with pytest.raises(WidthOverflowError):
            make_from_value(radix**8, 1, 8, radix)
    with pytest.raises(WidthOverflowError):
        make_from_value(1, 1, 0, 2)
    with pytest.raises(GranularityError):
        make_from_value(Fraction(1, 3), 1, 8, 2, -4)
    with pytest.raises(GranularityError):
        make_from_value(10, 1, 8, 2, 2)  # int input, not a multiple of 2**2
    with pytest.raises(ValueError):
        make_from_value(-1, 1, 8, 2)
    with pytest.raises(ValueError):
        make_from_value(Fraction(-1, 2), 1, 8, 2, -1)


def test_with_lsb_exp_preserves_value():
    code = make_from_value(13, 2, 6, 2)
    lowered = with_lsb_exp(code, -3)
    assert lowered.lsb_exp == -3
    assert lowered.width == 9
    assert value_of(lowered) == 13
    assert value_of(with_lsb_exp(lowered, 0)) == 13
    with pytest.raises(GranularityError):
        with_lsb_exp(make_from_value(13, 1, 6, 2), 1)


def test_equality_is_by_value_not_layout():
    a = make_from_value(6, 2, 4, 2)
    b = MultiRowCode(2, 4, 2, 0, np.array([[0, 1, 0, 0], [0, 0, 1, 0]], dtype=np.int64))
    assert a == b
    assert a != make_from_value(7, 2, 4, 2)


def test_quad_signed_arithmetic_identities():
    q = quad_from_value(Fraction(-11, 16), 8, 2, -4)
    assert quad_value(q) == Fraction(-11, 16)
    assert quad_value(quad_negate(q)) == Fraction(11, 16)
    z = quad_from_value(0, 4)
    assert quad_value(z) == 0


def test_quad_parts_must_be_two_rows():
    one_row = make_from_value(1, 1, 4, 2)
    with pytest.raises(ValueError):
        QuadSignedCode(pos=one_row, neg=one_row)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 6),
    width=st.integers(1, 24),
    radix=st.sampled_from([2, 3, 10]),
    data=st.data(),
)
def test_scaled_value_hypothesis(rows, width, radix, data):
    digits = data.draw(
        st.lists(
            st.lists(st.integers(0, radix - 1), min_size=width, max_size=width),
            min_size=rows,
            max_size=rows,
        )
    )
    code = MultiRowCode(rows, width, radix, 0, np.array(digits, dtype=np.int64))
    assert scaled_value(code) == exact_scaled_value(digits, radix)
