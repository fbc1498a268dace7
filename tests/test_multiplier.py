"""Partial-product multiplier: layouts, values, fused accumulate, delay."""

from fractions import Fraction

import numpy as np
import pytest

from redundarith import _kernels
from redundarith.codes import MultiRowCode, make_from_value, scaled_value, value_of
from redundarith.multiplier import (
    fused_mac,
    mac_injection_stage,
    mul_delay,
    multiply,
    pp_matrix_signed,
    pp_matrix_unsigned,
    signed_operand_value,
    signed_product_value,
)


def _row(bits, lsb_exp=0):
    arr = np.array([bits], dtype=np.int64)
    return MultiRowCode(1, arr.shape[1], 2, lsb_exp, arr)


def _signed_pp_reference(abits, bbits):
    # cell by cell, the layout in pp_matrix_signed's docstring
    n = len(abits) - 1
    rows = np.zeros((n + 3, 2 * n + 1), dtype=np.int64)
    for j in range(n):
        for i in range(n):
            rows[j, i + j] = abits[i] * bbits[j]  # magnitude * magnitude
        rows[n, n + j] = 1 - abits[n] * bbits[j]  # -(sign_a * mag_b), inverted
        rows[n + 1, n + j] = 1 - bbits[n] * abits[j]  # -(sign_b * mag_a), inverted
    rows[n, 2 * n] = abits[n] * bbits[n]  # sign * sign
    rows[n + 2, n + 1] = 1  # constant correction
    return rows


def test_packed_partial_products_match_the_references(rng):
    for w in range(2, 65):
        ones = np.ones(w, dtype=np.int64)
        pairs = [(rng.integers(0, 2, w), rng.integers(0, 2, w)) for _ in range(3)]
        pairs += [(ones, ones), (ones, rng.integers(0, 2, w)), (rng.integers(0, 2, w), ones)]
        for abits, bbits in pairs:
            a, b = _row(abits), _row(bbits)
            short = _row(bbits[: max(1, w // 3)])  # unsigned operands may differ in width
            for x, y in ((a, b), (a, short), (short, a)):
                m = pp_matrix_unsigned(x, y).matrix
                assert all(row >> m.width == 0 for row in m.packed)
                np.testing.assert_array_equal(
                    m.digits, _kernels.pp_unsigned_digits(x.digits[0], y.digits[0]))
            m = pp_matrix_signed(a, b).matrix
            assert all(row >> m.width == 0 for row in m.packed)
            np.testing.assert_array_equal(m.digits, _signed_pp_reference(abits, bbits))


def test_unsigned_pp_matrix_shape_and_value():
    a = make_from_value(13, 1, 4, 2)
    b = make_from_value(11, 1, 4, 2)
    ppm = pp_matrix_unsigned(a, b)
    assert ppm.matrix.rows == 4
    assert ppm.matrix.width == 7
    assert ppm.bias_scaled == 0
    assert scaled_value(ppm.matrix) == 13 * 11


def test_unsigned_multiply_random(rng):
    for _ in range(100):
        wa = int(rng.integers(1, 17))
        wb = int(rng.integers(1, 17))
        av = int(rng.integers(0, 1 << wa))
        bv = int(rng.integers(0, 1 << wb))
        out = multiply(make_from_value(av, 1, wa), make_from_value(bv, 1, wb))
        assert out.rows == 2
        assert value_of(out) == av * bv


def test_multiply_carries_lsb_exp():
    a = _row([1, 0, 1], lsb_exp=-2)  # 5/4
    b = _row([1, 1], lsb_exp=-1)  # 3/2
    out = multiply(a, b)
    assert out.lsb_exp == -3
    assert value_of(out) == Fraction(15, 8)


def test_signed_operand_reading():
    assert signed_operand_value(_row([1, 0, 1, 0, 1], lsb_exp=-4)) == Fraction(-11, 16)
    assert signed_operand_value(_row([1, 0, 1, 1, 0], lsb_exp=-4)) == Fraction(13, 16)
    assert signed_operand_value(_row([0, 0, 0, 1])) == -8


def test_signed_pp_matrix_frozen_layout():
    # w=5 operands: -11/16 and 13/16 on a 9-column grid with 7 rows
    a = _row([1, 0, 1, 0, 1], lsb_exp=-4)
    b = _row([1, 0, 1, 1, 0], lsb_exp=-4)
    ppm = pp_matrix_signed(a, b)
    m = ppm.matrix
    assert (m.rows, m.width) == (7, 9)
    assert ppm.bias_scaled == 1 << 9
    expected = np.array(
        [
            [1, 0, 1, 0, 0, 0, 0, 0, 0],  # magnitude row gated by b0
            [0, 0, 0, 0, 0, 0, 0, 0, 0],  # b1 = 0
            [0, 0, 1, 0, 1, 0, 0, 0, 0],  # b2 = 1, shifted 2
            [0, 0, 0, 1, 0, 1, 0, 0, 0],  # b3 = 1, shifted 3
            [0, 0, 0, 0, 0, 1, 0, 0, 0],  # 1 - sign_a*mag_b, sign product 0 at col 8
            [0, 0, 0, 0, 1, 1, 1, 1, 0],  # 1 - sign_b*mag_a (sign_b = 0: all ones)
            [0, 0, 0, 0, 0, 1, 0, 0, 0],  # constant correction at column n+1
        ],
        dtype=np.int64,
    )
    assert np.array_equal(m.digits, expected)
    # raw matrix value = product + bias on the scaled grid
    assert scaled_value(m) == -143 + 512


def test_signed_multiply_round_trip():
    a = _row([1, 0, 1, 0, 1], lsb_exp=-4)
    b = _row([1, 0, 1, 1, 0], lsb_exp=-4)
    p = multiply(a, b, signed=True)
    assert signed_product_value(p, 5) == Fraction(-143, 256)


def test_signed_multiply_exhaustive_small():
    for ar in range(16):
        for br in range(16):
            a = _row([(ar >> i) & 1 for i in range(4)])
            b = _row([(br >> i) & 1 for i in range(4)])
            want = signed_operand_value(a) * signed_operand_value(b)
            got = signed_product_value(multiply(a, b, signed=True), 4)
            assert got == want, (ar, br)


def test_signed_requires_matching_widths():
    with pytest.raises(ValueError):
        pp_matrix_signed(_row([1, 0, 1]), _row([1, 0, 1, 1]))
    with pytest.raises(ValueError):
        pp_matrix_signed(_row([1]), _row([1]))


def test_mac_injection_stage_prefers_stage_one():
    # 16 product rows + 2 feedback rows: 5 + 2 = 7 stays in the 3-stage band
    assert mac_injection_stage(16, 2) == (1, 3)
    # 6 + 2 = 8 would add a stage, but 63 + 2 = 65 does not: inject at 0
    assert mac_injection_stage(63, 2) == (0, 3)
    # nothing keeps the bare count for a 3-row product; take the minimum
    assert mac_injection_stage(3, 2) == (0, 2)


def test_fused_mac_values(rng):
    for _ in range(60):
        w = int(rng.integers(2, 10))
        av = int(rng.integers(0, 1 << w))
        bv = int(rng.integers(0, 1 << w))
        fv = int(rng.integers(0, 1 << (2 * w)))
        f = make_from_value(fv, 2, 2 * w)
        out = fused_mac(f, make_from_value(av, 1, w), make_from_value(bv, 1, w))
        assert out.rows == 2
        assert value_of(out) == fv + av * bv


def test_fused_mac_requires_aligned_feedback():
    f = make_from_value(5, 2, 8, 2, lsb_exp=-1)
    with pytest.raises(ValueError):
        fused_mac(f, make_from_value(3, 1, 4), make_from_value(3, 1, 4))


def test_mul_delay_reference_width():
    assert mul_delay(63) == 14
    assert mul_delay(63, accounting="per-stage") == 15
    assert mul_delay(3) == 1 + 3 + 1  # AND + depth(3 rows -> two stages) + encoders
