"""Partial-product multiplier: layouts, values, fused accumulate, delay."""

import random
from fractions import Fraction

import numpy as np
import pytest

from redundarith import _kernels, trace
from redundarith.codes import MultiRowCode, made_code, make_from_value, scaled_value, value_of
from redundarith.multiplier import (
    fused_mac,
    mac_injection_stage,
    mul_delay,
    multiply,
    pp_matrix_signed,
    pp_matrix_unsigned,
    signed_operand_value,
    signed_bias,
    signed_product_value,
)
from redundarith.reducer import reduce_rows, reduce_to_two


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
                m = pp_matrix_unsigned(x, y)
                assert all(row >> m.width == 0 for row in m.packed)
                np.testing.assert_array_equal(
                    m.digits, _kernels.pp_unsigned_digits(x.digits[0], y.digits[0]))
            m = pp_matrix_signed(a, b)
            assert all(row >> m.width == 0 for row in m.packed)
            np.testing.assert_array_equal(m.digits, _signed_pp_reference(abits, bbits))


def test_unsigned_pp_matrix_shape_and_value():
    a = make_from_value(13, 1, 4, 2)
    b = make_from_value(11, 1, 4, 2)
    m = pp_matrix_unsigned(a, b)
    assert m.rows == 4
    assert m.width == 7
    assert scaled_value(m) == 13 * 11


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
    m = pp_matrix_signed(a, b)
    assert (m.rows, m.width) == (7, 9)
    assert signed_bias(5) == 1 << 9
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
    # the operand width that reads a signed product is checked like any other
    product = multiply(make_from_value(3, 1, 4), make_from_value(5, 1, 4), signed=True)
    for width, message in ((1, ">= 2"), (0, ">= 2"), (True, "an int"), (2.0, "an int"), ("4", "an int")):
        with pytest.raises(ValueError, match=rf"^operand_width must be {message}$"):
            signed_product_value(product, width)


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


def test_fused_mac_runs_the_stage_total_of_its_injection_stage(rng):
    # a 1-bit multiplier stacks 1 + f rows: one stage for f = 2 or 3
    assert mac_injection_stage(1, 2) == (0, 1)
    for wb in range(1, 17):
        for f_rows in (2, 3):
            f = make_from_value(int(rng.integers(0, 1 << 16)), f_rows, 16)
            a = make_from_value(int(rng.integers(0, 1 << 8)), 1, 8)
            b = make_from_value(int(rng.integers(0, 1 << wb)), 1, wb)
            with trace.record() as events:
                out = fused_mac(f, a, b)
            assert len(events) == mac_injection_stage(wb, f_rows)[1], (wb, f_rows)
            assert value_of(out) == value_of(f) + value_of(a) * value_of(b)


def test_traced_fused_mac_runs_its_model_stage_total():
    # square products at w = 2..64 with 2- and 3-row feedback: the stages
    # a traced fused_mac reports equal mac_injection_stage's total
    rng = random.Random(7)
    for w in range(2, 65):
        for f_rows in (2, 3):
            f = make_from_value(rng.getrandbits(2 * w), f_rows, 2 * w)
            a, b = make_from_value(rng.getrandbits(w), 1, w), make_from_value(rng.getrandbits(w), 1, w)
            with trace.record() as events:
                out = fused_mac(f, a, b)
            assert len(events) == mac_injection_stage(w, f_rows)[1], (w, f_rows)
            assert value_of(out) == value_of(f) + value_of(a) * value_of(b)


def test_fused_mac_stage_drift_is_caught(monkeypatch):
    # a product that runs one stage past its injection stage: 63 rows
    # reduce to 6 and 6 + 2 feedback rows take three more stages, one
    # more than mac_injection_stage(63, 2) == (0, 3) charges
    real = _kernels.reduce_packed

    def one_stage_late(rows, width, limit=None):
        return real(rows, width, None if limit is None else limit + 1)

    monkeypatch.setattr(_kernels, "reduce_packed", one_stage_late)
    f = make_from_value(5, 2, 16)
    a, b = make_from_value(3, 1, 8), make_from_value(2**63 - 1, 1, 63)
    with pytest.raises(RuntimeError, match=r"^fused_mac ran 4 stages, mac_injection_stage gives 3$"):
        fused_mac(f, a, b)


def test_fused_mac_requires_aligned_feedback():
    f = make_from_value(5, 2, 8, 2, lsb_exp=-1)
    with pytest.raises(ValueError, match="^feedback lsb_exp must be 0$"):
        fused_mac(f, make_from_value(3, 1, 4), make_from_value(3, 1, 4))
    # operands are one binary row, feedback two or three binary rows
    a = make_from_value(3, 1, 4)
    cases = (
        (lambda: multiply(make_from_value(3, 2, 4), a), "^multiplier operand must be a 1-row code$"),
        (lambda: multiply(a, make_from_value(3, 1, 4, 3)), "^multiplier operand must be binary$"),
        (lambda: multiply(a, make_from_value(0, 1, 0)), r"^multiplier operand width must be >= 1$"),
        (lambda: multiply(a, make_from_value(1, 1, 1), signed=True), r"^signed operand width must be >= 2$"),
        (lambda: fused_mac(make_from_value(5, 1, 8), a, a), "^feedback must be a 2-row or 3-row code$"),
        (lambda: fused_mac(make_from_value(5, 2, 8, 3), a, a), "^feedback must be binary$"),
        # a radix-3 product once read as -3
        (lambda: signed_product_value(make_from_value(5, 1, 3, radix=3), 2), "^product must be binary$"),
        (lambda: mul_delay(1), "^n must be >= 2$"),
        (lambda: mac_injection_stage(0, 2), "^pp_rows must be >= 1$"),
        # these once returned (3, 3) and (1, 3)
        (lambda: mac_injection_stage(8, -5), "^feedback_rows must be >= 1$"),
        (lambda: mac_injection_stage(8, 0), "^feedback_rows must be >= 1$"),
        (lambda: mac_injection_stage(8, 2.0), "^feedback_rows must be an int$"),
        (lambda: mac_injection_stage(8, True), "^feedback_rows must be an int$"),
    )
    for call, message in cases:
        with pytest.raises(ValueError, match=message):
            call()


def test_mul_delay_reference_width():
    assert mul_delay(63) == 14
    assert mul_delay(63, accounting="per-stage") == 15
    assert mul_delay(3) == 1 + 3 + 1  # AND + depth(3 rows -> two stages) + encoders
    assert mul_delay(2) == 1  # two rows need no reduction: the AND level alone


def _matrix_route_mac(f, a, b):
    # fused_mac built as the matrix code first: its first s stages alone,
    # then the feedback rows join and the stack reduces to two
    pp = pp_matrix_unsigned(a, b)
    s, _ = mac_injection_stage(pp.rows, f.rows)
    rows, width, _ = _kernels.reduce_packed(pp.packed, pp.width, s)
    rows, width = reduce_rows([*rows, *f.packed], max(width, f.width))
    return tuple(rows), width, pp.lsb_exp


def _fields(code):
    return code.packed, code.width, code.lsb_exp


@pytest.mark.parametrize("w", [1, 2, 8, 24, 64])
def test_products_equal_the_matrix_route_bit_for_bit(w):
    # multiply and fused_mac build no matrix code; their rows, width and
    # lsb_exp are those of reducing the public partial-product matrix
    draw = random.Random(w)
    for _ in range(40):
        ea, eb = draw.randint(-3, 2), draw.randint(-3, 2)
        wb = draw.randint(1, w)  # unsigned operands may differ in width
        a = made_code((draw.getrandbits(w),), w, 2, ea)
        b = made_code((draw.getrandbits(wb),), wb, 2, eb)
        assert _fields(multiply(a, b)) == _fields(reduce_to_two(pp_matrix_unsigned(a, b)))
        if w > 1:  # signed operands share a width of at least 2
            b_signed = made_code((draw.getrandbits(w),), w, 2, eb)
            want = reduce_to_two(pp_matrix_signed(a, b_signed))
            assert _fields(multiply(a, b_signed, signed=True)) == _fields(want)
        fw = draw.randint(1, w + wb)
        f = made_code([draw.getrandbits(fw) for _ in range(draw.choice((2, 3)))], fw, 2, ea + eb)
        assert _fields(fused_mac(f, a, b)) == _matrix_route_mac(f, a, b)


def test_products_keep_their_operand_errors():
    # one operand check serves every product; each rejection keeps the
    # type and text it had when each function checked its own operands
    a, a5, one = make_from_value(3, 1, 4), make_from_value(3, 1, 5), make_from_value(1, 1, 1)
    ternary, two_row = make_from_value(3, 1, 4, 3), make_from_value(3, 2, 4)
    f, f_low = make_from_value(5, 2, 8), make_from_value(5, 2, 8, 2, lsb_exp=-1)
    cases = (
        (lambda: multiply(a, ternary), "multiplier operand must be binary"),
        (lambda: pp_matrix_unsigned(ternary, a), "multiplier operand must be binary"),
        (lambda: multiply(ternary, a, signed=True), "signed operand must be binary"),
        (lambda: pp_matrix_signed(a, ternary), "signed operand must be binary"),
        (lambda: fused_mac(f, a, ternary), "multiplier operand must be binary"),
        (lambda: multiply(two_row, a), "multiplier operand must be a 1-row code"),
        (lambda: pp_matrix_unsigned(a, two_row), "multiplier operand must be a 1-row code"),
        (lambda: multiply(a, two_row, signed=True), "signed operand must be a 1-row code"),
        (lambda: pp_matrix_signed(two_row, a), "signed operand must be a 1-row code"),
        (lambda: fused_mac(f, two_row, a), "multiplier operand must be a 1-row code"),
        (lambda: fused_mac(f_low, a, a), "feedback lsb_exp must be 0"),
        # the operands are checked before the injection stage reads b's width
        (lambda: fused_mac(f, a, make_from_value(0, 1, 0)), "multiplier operand width must be >= 1"),
        (lambda: multiply(one, a, signed=True), "signed operand width must be >= 2"),
        (lambda: pp_matrix_signed(one, one), "signed operand width must be >= 2"),
        (lambda: multiply(a, a5, signed=True), "signed operands must share a width"),
        (lambda: pp_matrix_signed(a5, a), "signed operands must share a width"),
    )
    for call, message in cases:
        with pytest.raises(ValueError) as err:
            call()
        assert type(err.value) is ValueError and str(err.value) == message
