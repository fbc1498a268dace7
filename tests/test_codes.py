"""Digit-matrix container: construction, values, canonical encoding."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redundarith import codes, map_unit
from redundarith.codes import (
    GranularityError,
    MultiRowCode,
    NumericDomainError,
    QuadSignedCode,
    WidthOverflowError,
    from_text,
    make_from_value,
    pack_rows,
    quad_from_value,
    quad_negate,
    quad_value,
    scaled_value,
    stack_codes,
    unpack_rows,
    value_of,
    with_lsb_exp,
)
from redundarith.multiplier import fused_mac, multiply, signed_product_value
from redundarith.oracle import exact_scaled_value
from redundarith.reducer import add_two_row, reduce_to_two

from conftest import random_code


def test_construction_validates_shape_and_digits():
    with pytest.raises(ValueError):
        MultiRowCode(2, 3, 2, 0, np.zeros((3, 3), dtype=np.int64))
    for bad in (2, -1):  # radix 2 packs its rows, after the same check
        with pytest.raises(ValueError, match=r"^digits out of range for radix 2$"):
            MultiRowCode(1, 2, 2, 0, np.array([[0, bad]], dtype=np.int64))
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
    with pytest.raises(AttributeError):
        code.width = 3


def test_binary_engines_build_no_digit_matrix(monkeypatch):
    calls = []
    real = codes.unpack_rows

    def counting(ints, width):
        calls.append(width)
        return real(ints, width)

    monkeypatch.setattr(codes, "unpack_rows", counting)
    for w in (1, 8, 24, 64):
        a, b = make_from_value(2**w - 1, 1, w), make_from_value(w, 1, w)
        assert value_of(multiply(a, b)) == (2**w - 1) * w
        if w > 1:
            assert signed_product_value(multiply(a, b, signed=True), w) == -w
        f = make_from_value(3, 2, 2 * w)
        assert value_of(fused_mac(f, a, b)) == (2**w - 1) * w + 3
        assert value_of(add_two_row(f, f)) == 6
        if w > 1:
            state = map_unit.map_eval(map_unit.MapConfig(w), a=a, b=b, c=a)
            assert map_unit.map_total(state) == (2**w - 1) * (w + 1)
    assert calls == []
    out = multiply(a, b)
    assert out.digits is out.digits  # built on the first read only
    assert calls == [out.width]


def test_lazy_digits_equal_the_constructed_matrix(rng):
    for width in (0, 1, 7, 8, 9, 63, 64, 65, 130):
        for rows in (1, 2, 5):
            value = int.from_bytes(rng.bytes(17), "little") % 2**width
            lazy = make_from_value(value, rows, width)
            digits = lazy.digits
            assert digits.dtype == np.int64 and digits.shape == (rows, width)
            assert not digits.flags.writeable and digits.flags.c_contiguous
            built = np.zeros((rows, width), dtype=np.int64)
            built[0] = [value >> j & 1 for j in range(width)]
            code = MultiRowCode(rows, width, 2, 0, built)
            np.testing.assert_array_equal(digits, code.digits)
            assert code.packed == lazy.packed
    for _ in range(20):  # a reduced code's rows, packed again from its digits
        out = reduce_to_two(random_code(rng, int(rng.integers(3, 40)), int(rng.integers(0, 70))))
        again = MultiRowCode(2, out.width, 2, 0, out.digits)
        assert again.packed == out.packed and again.digits.dtype == np.int64


def test_value_matches_slow_reference(rng):
    for radix in (2, 3, 10):
        for _ in range(50):
            rows = int(rng.integers(1, 9))
            width = int(rng.integers(1, 40))
            code = random_code(rng, rows, width, radix)
            assert scaled_value(code) == exact_scaled_value(
                code.digits.tolist(), radix
            )
    # bit rows across the byte and 64-bit word edges, random and all ones
    for width in (1, 7, 8, 9, 63, 64, 65, 130):
        for rows in (1, 2, 5):
            for code in (random_code(rng, rows, width), MultiRowCode.from_digits(np.ones((rows, width)))):
                want = exact_scaled_value(code.digits.tolist(), 2)
                assert sum(pack_rows(code.digits)) == scaled_value(code) == want


def test_pack_rows_and_unpack_row_round_trip(rng):
    # both packer branches (one uint64 word per row, from_bytes beyond it)
    # and the chunk height of the accumulator streams
    for width in (0, 1, 7, 8, 9, 63, 64, 65, 130):
        for rows in (1, 2, 4096):
            for bits in (rng.integers(0, 2, (rows, width)), np.ones((rows, width), np.int64)):
                ints = pack_rows(bits)
                assert len(ints) == rows
                assert sum(ints) == exact_scaled_value(bits.tolist(), 2)
                assert all(x < 1 << width for x in ints)
                back = unpack_rows(ints, width)
                assert back.shape == (rows, width) and back.dtype == np.int64
                assert np.array_equal(back, bits)


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
    # width=None: as few columns as the value needs, and at least one
    for v, radix, width in ((0, 2, 1), (1, 2, 1), (255, 2, 8), (256, 2, 9), (0, 10, 1), (999, 10, 3)):
        assert make_from_value(v, 1, None, radix).width == width
    assert make_from_value(Fraction(13, 8), 1, None, 2, -3).width == 4
    assert make_from_value(np.int64(6), 1, None).width == 3
    assert quad_from_value(Fraction(-11, 16), None, 2, -4).neg.width == 4
    big = 2**200000 - 1
    code = make_from_value(big, 1, None)
    assert code.width == 200000 and scaled_value(code) == big and code.digits.all()


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
    with pytest.raises(ValueError, match="rows"):
        make_from_value(0, 0, 3)
    # a negative width is named as such, not as an overflow of the value
    for value, width, radix in ((0, -1, 2), (5, -3, 3)):
        with pytest.raises(ValueError, match=r"^width must be >= 0$"):
            make_from_value(value, 1, width, radix)
    # a radix below 2 fails at once, at a natural width too
    for radix in (1, 0, -2):
        for width in (None, 8):
            with pytest.raises(ValueError, match=r"^radix must be >= 2$"):
                make_from_value(5, 1, width, radix)
    # a long value is echoed by its size, not its text
    for value, err in ((2**20000 - 1, WidthOverflowError), (Fraction(1, 3**9000), GranularityError)):
        with pytest.raises(err, match=r"^a \d+-bit value") as info:
            make_from_value(value, 1, 3, 2, -4)
        assert len(str(info.value)) < 100


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


def test_stack_codes_pads_each_part_on_the_msb_side():
    for radix in (2, 3):
        a = MultiRowCode(2, 3, radix, -1, [[1, 0, 1], [0, 1, 1]])
        b = MultiRowCode(1, 1, radix, -1, [[1]])
        empty = MultiRowCode.zero(1, 0, radix, -1)
        out = stack_codes((a, b))
        assert (out.radix, out.lsb_exp) == (radix, -1)
        assert out.digits.tolist() == [[1, 0, 1], [0, 1, 1], [1, 0, 0]]
        out = stack_codes((b, empty, a), 4)
        assert out.digits.tolist() == [[1, 0, 0, 0], [0, 0, 0, 0], [1, 0, 1, 0], [0, 1, 1, 0]]
        assert value_of(out) == value_of(a) + value_of(b)
        # a width below the widest part does not cut it
        assert stack_codes((a,), 1).digits.tolist() == a.digits.tolist()
