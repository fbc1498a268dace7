"""Digit-matrix container: construction, values, canonical encoding."""

from decimal import Decimal
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
    check_int,
    from_text,
    make_from_value,
    pack_columns,
    pack_rows,
    past_digit_limit,
    quad_from_value,
    quad_negate,
    quad_value,
    scaled_value,
    shown,
    stack_codes,
    unpack_rows,
    value_of,
    with_lsb_exp,
)
from redundarith.compressor import delay_levels
from redundarith.divider import build_scale, check_printable, divide
from redundarith.evalexpr import EvalError, evaluate
from redundarith.multiplier import fused_mac, multiply, signed_product_value
from redundarith.oracle import exact_scaled_value, exact_value
from redundarith.reducer import StagePlan, add_two_row, reduce_to_two

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
    # each of these once built a code: an inexact value, 0.5 read as 0,
    # "9" parsed as 9, a float width
    with pytest.raises(ValueError, match=r"^lsb_exp must be an int$"):
        MultiRowCode(2, 3, 2, 0.5, [[1, 0, 1], [0, 1, 1]])
    for radix, digits in ((2, [[0.5, 1.5]]), (10, [["9", "1"]])):
        with pytest.raises(ValueError, match=rf"^digits out of range for radix {radix}$"):
            MultiRowCode(1, 2, radix, 0, digits)
    with pytest.raises(ValueError, match=r"^width must be an int$"):
        MultiRowCode.zero(2, 3.0)
    # a 0-d input once failed with an IndexError
    for scalar in (5, np.int64(5)):
        with pytest.raises(ValueError, match=r"^digits shape \(\) "):
            MultiRowCode.from_digits(scalar)


def test_code_shares_no_memory_with_its_input():
    # the constructor keeps one form of its own: later writes to the
    # caller's array, or to the array it views, change no code
    for radix in (2, 3, 10):
        whole = np.zeros((1, 4), dtype=np.int64)
        base = np.zeros((3, 4), dtype=np.int64)
        view = base[:1]
        for built, given, writes in ((MultiRowCode(1, 4, radix, 0, whole), whole, (whole,)),
                                     (MultiRowCode.from_digits(view, radix), view, (view, base))):
            assert given.flags.writeable and base.flags.writeable
            assert built.digits is not given
            assert not any(np.shares_memory(built.digits, arr) for arr in writes)
            assert not built.digits.flags.writeable
            for arr in writes:
                arr[0, 0] = 1
                assert value_of(built) == 0 and not built.digits.any()
            if radix == 2:
                assert built.packed == (0,)


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
            lsb_exp = int(rng.integers(-3, 4))
            code = random_code(rng, rows, width, radix, lsb_exp)
            assert scaled_value(code) == exact_scaled_value(
                code.digits.tolist(), radix
            )
            assert value_of(code) == exact_value(code.digits.tolist(), radix, lsb_exp)
    # bit rows across the byte and 64-bit word edges, random and all ones
    for width in (1, 7, 8, 9, 63, 64, 65, 130):
        for rows in (1, 2, 5):
            for code in (random_code(rng, rows, width), MultiRowCode.from_digits(np.ones((rows, width)))):
                want = exact_scaled_value(code.digits.tolist(), 2)
                assert sum(pack_rows(code.digits)) == scaled_value(code) == want


def test_pack_rows_and_unpack_row_round_trip(rng):
    # every packer branch (one matrix product up to 64 columns and 1536
    # cells, np.packbits read as uint64 words for taller matrices, and
    # from_bytes beyond 64 columns), every dtype the library packs, and the
    # transposed views that give the accumulator streams their operand
    # columns, row by row against a pure-int reference
    for width in (0, 1, 7, 8, 9, 63, 64, 65, 128, 130):
        for rows in (0, 1, 2, 24, 25, 33, 256, 4096):
            bits = rng.integers(0, 2, (rows, width), dtype=np.uint8)
            if rows:
                bits[-1] = 1  # an all-ones row sets bit 63 of a 64-column word
            want = [sum(int(b) << j for j, b in enumerate(row)) for row in bits.tolist()]
            for dtype in (bool, np.uint8, np.int64):
                for view in (bits.astype(dtype), np.ascontiguousarray(bits.T, dtype=dtype).T):
                    ints = pack_rows(view)
                    assert ints == want, (width, rows, dtype)
                    assert all(type(x) is int for x in ints)
                    back = unpack_rows(ints, width)
                    assert back.shape == (rows, width) and back.dtype == np.int64
                    assert np.array_equal(back, bits)


def test_pack_columns_equals_pure_int_reference(rng):
    # both branches (pack_rows(bits.T) below 256 steps, the uint64 lanes
    # beyond), the padding of steps, columns, dtype and layout, and the
    # lanes' eighth-step and eighth-column edges
    for steps in (0, 1, 7, 8, 9, 63, 64, 65, 255, 256, 1000, 4097):
        for width in (0, 1, 7, 8, 9, 16, 63, 64, 65, 130):
            bits = rng.integers(0, 2, (steps, width), dtype=np.uint8)
            if steps:
                bits[-1] = 1  # an all-ones last step sets the top bit of every column
            want = [sum(int(b) << t for t, b in enumerate(col)) for col in bits.T.tolist()]
            for dtype in (bool, np.uint8, np.int64):
                c_order = bits.astype(dtype)
                for view in (c_order, np.asfortranarray(c_order), np.ascontiguousarray(c_order.T).T):
                    cols = pack_columns(view)
                    assert cols == want == pack_rows(view.T), (steps, width, dtype)
                    assert all(type(x) is int for x in cols)


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
    for v in (6, np.int64(6), np.uint8(6), Fraction(6), Decimal(6), 6.0):
        code = make_from_value(v, 2, 8, 2)
        assert value_of(code) == v
        assert code.digits[0].tolist() == [int(d) for d in format(int(v), "08b")[::-1]]
    assert value_of(make_from_value(Decimal("1.25"), 1, 4, 2, -2)) == Fraction(5, 4)
    assert value_of(make_from_value(0.375, 1, 4, 2, -3)) == Fraction(3, 8)
    assert quad_value(quad_from_value(-0.5, 2, 2, -1)) == Fraction(-1, 2)
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
    # a float radix, width or lsb_exp is not a plain int
    for call in (lambda: make_from_value(6, 1, 4, 2.5), lambda: quad_from_value(3, 4.0),
                 lambda: with_lsb_exp(make_from_value(4, 1, 4), 1.0)):
        with pytest.raises(ValueError, match="must be an int"):
            call()
    # text is not parsed and bool is not a number; what Fraction cannot
    # convert is a ValueError too, not a TypeError or an OverflowError
    bad_values = ("3", "1/2", b"3", True, np.True_, 1j, None, float("inf"), float("nan"),
                  Decimal("NaN"), [3])
    for value in bad_values:
        for call in (lambda: make_from_value(value, 1, 4, 2, -1), lambda: quad_from_value(value, 4)):
            with pytest.raises(ValueError, match=r"^value must be a finite number, not "):
                call()
    with pytest.raises(ValueError, match=r"^value must be a finite number, not str$"):
        quad_from_value("-3", 4)
    # a long value is echoed by its size, not its text
    for value, err in ((2**20000 - 1, WidthOverflowError), (Fraction(1, 3**9000), GranularityError)):
        with pytest.raises(err, match=r"^a \d+-bit value") as info:
            make_from_value(value, 1, 3, 2, -4)
        assert len(str(info.value)) < 100


def test_shown_names_a_long_number_by_its_bit_size():
    # exact up to 128 bits in numerator and denominator, by size beyond
    top = 2**128 - 1
    assert [shown(v) for v in (top, -top, Fraction(1, top), 2.5)] == [str(top), str(-top), f"1/{top}", "2.5"]
    assert shown(2**128) == shown(-(2**128)) == shown(Fraction(3, 2**128)) == "a 129-bit value"
    assert (shown(10, "radix"), shown(10**4000, "radix")) == ("radix 10", "a 13288-bit radix")
    # a numpy integer once raised AttributeError here, in place of the width error
    with pytest.raises(WidthOverflowError, match="^value 50 does not fit in width 3 at radix 2$"):
        make_from_value(np.int64(50), 1, 3)


def test_past_digit_limit_refuses_exactly_what_python_refuses():
    limit = codes.int_string_limit()
    # 2**(3 * limit + 1) is past the one-comparison bound, with fewer digits than the limit
    for value in (10**limit - 1, -(10**limit - 1), Fraction(1, 10**limit - 1), 2 ** (3 * limit + 1)):
        assert past_digit_limit(value) == ""
        str(value)
    for value in (10**limit, -(10**limit), Fraction(10**limit + 1, 3), Fraction(1, 10**limit)):
        assert past_digit_limit(value) == f"is {shown(value, 'number')}, more than Python's limit of {limit} digits"
        with pytest.raises(ValueError):
            str(value)
    # text read in is counted by its digits, leading zeros too
    assert past_digit_limit("9" * limit) == past_digit_limit("-" + "9" * limit) == ""
    for text in ("9" * (limit + 1), "0" * (limit + 1), "-" + "9" * (limit + 1)):
        assert past_digit_limit(text) == f"has {limit + 1} digits, past Python's limit of {limit}"
        with pytest.raises(ValueError):
            int(text)


# id: a call with one caller-given number n of 1000 or 4000 digits, which
# its error must name by its size; divide's iters is left out, as a huge
# iteration count is a valid request that runs without bound
LONG_LIBRARY_ARGUMENT = {
    "divide-radix": lambda n: divide(1, 3, 1, 1, radix=n),
    "divide-k": lambda n: divide(1, 3, n, 1),
    "divide-dividend": lambda n: divide(2 * n + 5, n, 1, 1),
    "build_scale-radix": lambda n: build_scale(3, 1, n),
    "build_scale-k": lambda n: build_scale(3, n, extended=True),
    "check_printable-k": lambda n: check_printable(n, 1),
    "check_printable-iters": lambda n: check_printable(1, n),
    "check_printable-radix": lambda n: check_printable(1, 4, n),
    "check_int-lo": lambda n: check_int("x", 0, n),
    "check_int-hi": lambda n: check_int("x", 2 * n, -n, n),
    "make_from_value-width": lambda n: make_from_value(n, 1, 3),
    "make_from_value-grid": lambda n: make_from_value(Fraction(1, n), 1, None, 2, -4),
    "make_from_value-radix": lambda n: make_from_value(1, 1, 1, n),
    "make_from_value-rows": lambda n: make_from_value(1, n, 1),
    "construct-width": lambda n: MultiRowCode(1, n, 2, 0, [[1]]),
    "with_lsb_exp": lambda n: with_lsb_exp(make_from_value(1, 1, 1), n),
    "delay_levels-m": lambda n: delay_levels(n),
    "stage_plan-step": lambda n: StagePlan([n, 2], 2),
}


@pytest.mark.parametrize("digits", (1000, 4000))
@pytest.mark.parametrize("call", LONG_LIBRARY_ARGUMENT.values(), ids=LONG_LIBRARY_ARGUMENT.keys())
def test_long_library_argument_is_named_by_its_size(call, digits):
    with pytest.raises(ValueError) as info:
        call(10**digits - 1)
    assert len(str(info.value)) < 300


@pytest.mark.parametrize("digits", (1000, 4000))
@pytest.mark.parametrize("text, pos", (("div(N, 3, 1, 1)", 0), ("div(1, 3, N, 1)", 0), ("div(1, 3, 1, N)", 0),
                                       ("div(0-N*N, 3, 1, 1)", 4), ("1 + 1/N", 4)))
def test_long_eval_argument_is_named_by_its_size(text, pos, digits):
    with pytest.raises(EvalError) as info:
        evaluate(text.replace("N", "9" * digits))
    assert info.value.pos == pos and len(str(info.value)) < 300


def test_with_lsb_exp_preserves_value():
    code = make_from_value(13, 2, 6, 2)
    lowered = with_lsb_exp(code, -3)
    assert lowered.lsb_exp == -3
    assert lowered.width == 9
    assert value_of(lowered) == 13
    assert value_of(with_lsb_exp(lowered, 0)) == 13
    assert with_lsb_exp(code, 0).packed == code.packed
    with pytest.raises(GranularityError):
        with_lsb_exp(make_from_value(13, 1, 6, 2), 1)


@pytest.mark.parametrize("radix", [2, 3])
def test_with_lsb_exp_moves_digit_columns(radix):
    """Binary codes shift their packed rows; both radixes must match the
    digit matrix with zero columns added or dropped on the LSB side."""
    rng = np.random.default_rng(radix)
    for _ in range(50):
        rows, width, shift = int(rng.integers(1, 4)), int(rng.integers(0, 70)), int(rng.integers(1, 6))
        digits = rng.integers(0, radix, size=(rows, width), dtype=np.int64)
        code = MultiRowCode(rows, width, radix, 0, digits)
        lowered = with_lsb_exp(code, -shift)
        want = np.concatenate([np.zeros((rows, shift), dtype=np.int64), digits], axis=1)
        assert (lowered.width, lowered.lsb_exp) == (width + shift, -shift)
        assert np.array_equal(lowered.digits, want)
        assert np.array_equal(with_lsb_exp(lowered, 0).digits, digits)
        assert np.array_equal(with_lsb_exp(code, 0).digits, digits)
        if width:
            # a nonzero digit in any row's low columns blocks the raise
            low = digits.copy()
            low[-1, 0] = 1
            with pytest.raises(GranularityError, match="low columns are not zero"):
                with_lsb_exp(MultiRowCode(rows, width, radix, 0, low), 1)
        with pytest.raises(GranularityError, match="low columns are not zero"):
            with_lsb_exp(code, width + 1)


def test_equality_is_by_value_not_layout():
    a = make_from_value(6, 2, 4, 2)
    b = MultiRowCode(2, 4, 2, 0, np.array([[0, 1, 0, 0], [0, 0, 1, 0]], dtype=np.int64))
    assert a == b
    assert a != make_from_value(7, 2, 4, 2)
    # a 1-D row is a one-row code
    assert MultiRowCode.from_digits([0, 1, 1]) == make_from_value(6, 1, 3)
    # a code is not a number, whatever its value
    assert (make_from_value(5, 1, 3) == 5) is False
    assert repr(a) == "MultiRowCode(rows=2, width=4, radix=2, lsb_exp=0, value=6)"


def test_quad_signed_arithmetic_identities():
    q = quad_from_value(Fraction(-11, 16), 8, 2, -4)
    assert quad_value(q) == Fraction(-11, 16)
    assert quad_value(quad_negate(q)) == Fraction(11, 16)
    z = quad_from_value(0, 4)
    assert quad_value(z) == 0
    # quad codes compare by value, across widths
    assert quad_from_value(-3, 4) == quad_from_value(-3, 9)
    assert quad_from_value(-3, 4) != quad_from_value(3, 4)
    assert (quad_from_value(-3, 4) == -3) is False
    assert repr(q) == "QuadSignedCode(value=-11/16)"


def test_quad_parts_must_be_two_rows():
    one_row = make_from_value(1, 1, 4, 2)
    with pytest.raises(ValueError):
        QuadSignedCode(pos=one_row, neg=one_row)
    two_rows = make_from_value(1, 2, 4, 2)
    for other in (make_from_value(1, 2, 4, 3), make_from_value(1, 2, 4, 2, -1)):
        with pytest.raises(ValueError, match="^quad parts must share radix and lsb_exp$"):
            QuadSignedCode(pos=two_rows, neg=other)


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
