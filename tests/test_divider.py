"""Table-driven division: digit selection, identities, worked example."""

import math
import re
import tracemalloc
from fractions import Fraction

import pytest

from redundarith import codes, trace
from redundarith.divider import (
    MAX_BANK_BITS,
    _comparison_width,
    build_scale,
    check_printable,
    divide,
    quotient_value,
    select_digit,
    thermometer_flags,
)
from redundarith.oracle import restoring_division_digits


def test_build_scale_entries():
    scale = build_scale(7, 2, radix=2)
    assert scale.entries == (0, 7, 14, 21)
    extended = build_scale(7, 2, radix=2, extended=True)
    assert extended.entries == tuple(7 * d for d in range(8))
    assert extended.size == 8


def test_build_scale_bounds():
    with pytest.raises(ValueError):
        build_scale(0, 2)
    with pytest.raises(ValueError):
        build_scale(3, 0)
    with pytest.raises(ValueError):
        build_scale(1, 30)  # table would exceed MAX_SCALE_ENTRIES
    with pytest.raises(ValueError):
        build_scale(3, 10**9, 3)  # rejected before 3**(10**9) is computed


def test_select_digit_is_floor_division(rng):
    for _ in range(200):
        z = int(rng.integers(1, 1000))
        k = int(rng.integers(1, 5))
        scale = build_scale(z, k, radix=2)
        r = int(rng.integers(0, scale.size * z))
        for method in ("bisect", "eager"):
            h, residual = select_digit(r, scale, method=method)
            assert h == r // z
            assert residual == r % z


def test_thermometer_flags_are_monotone(rng):
    scale = build_scale(13, 3, radix=2)
    for _ in range(50):
        r = int(rng.integers(0, scale.size * 13))
        flags = thermometer_flags(r, scale)
        assert len(flags) == scale.size
        assert all(a >= b for a, b in zip(flags, flags[1:]))
        assert sum(flags) == r // 13 + 1  # entry 0 always fits


def test_worked_example_5_over_7():
    digits, residual = divide(5, 7, 4, 4)
    assert digits == [11, 6, 13, 11]
    assert residual == 3
    q = quotient_value(digits, 4)
    assert q == Fraction(5, 7) - Fraction(residual, 7 * 2**16)
    assert 0 <= residual < 7


def test_divide_identity_and_residual_bound(rng):
    for radix in (2, 10):
        for _ in range(100):
            z = int(rng.integers(1, 4096))
            x = int(rng.integers(0, radix * z))
            k = int(rng.integers(1, 4))
            iters = int(rng.integers(1, 5))
            digits, residual = divide(x, z, k, iters, radix=radix)
            q_scaled = 0
            for d in digits:
                q_scaled = q_scaled * radix**k + d
            assert x * radix ** (k * iters) == z * q_scaled + residual
            assert 0 <= residual < z
    for radix in (2, 3, 10):
        for k in range(1, 5):
            for iters in range(1, 6):
                z = int(rng.integers(1, 4096))
                x = int(rng.integers(0, radix * z))
                digits, residual = divide(x, z, k, iters, radix=radix)
                want = sum(Fraction(d, radix ** (k * (j + 1))) for j, d in enumerate(digits))
                assert quotient_value(digits, k, radix) == want
                assert want == Fraction(x, z) - Fraction(residual, z * radix ** (k * iters))


def test_divide_matches_restoring_oracle(rng):
    for _ in range(100):
        z = int(rng.integers(1, 512))
        x = int(rng.integers(0, 2 * z))
        k = int(rng.integers(1, 5))
        iters = int(rng.integers(1, 5))
        assert divide(x, z, k, iters) == restoring_division_digits(x, z, k, iters, 2)


def test_k1_is_bitwise_restoring():
    digits, residual = divide(5, 7, 1, 8)
    # 5/7 = 0.10110110... in binary
    assert digits == [1, 0, 1, 1, 0, 1, 1, 0]
    want, want_res = restoring_division_digits(5, 7, 1, 8, 2)
    assert (digits, residual) == (want, want_res)


def test_eager_and_bisect_agree(rng):
    for _ in range(60):
        z = int(rng.integers(1, 1024))
        x = int(rng.integers(0, 2 * z))
        k = int(rng.integers(1, 4))
        assert divide(x, z, k, 3, method="eager") == divide(x, z, k, 3, method="bisect")


def test_trace_records_iterations():
    with trace.record() as events:
        divide(5, 7, 4, 2, method="eager")
    assert [e["op"] for e in events] == ["divide", "divide"]
    assert [e["iteration"] for e in events] == [1, 2]
    assert [e["digit"] for e in events] == [11, 6]
    assert events[0]["thermometer"] is not None


def test_divide_rejects_out_of_range():
    for x in (14, -1):  # x must stay below radix*z
        with pytest.raises(ValueError, match=r"^dividend must be in 0\.\.13$"):
            divide(x, 7, 2, 2)
    # a bound past 128 bits is named by its size
    with pytest.raises(ValueError, match=r"^dividend must be in 0\.\.a 20001-bit value$"):
        divide(1 << 20001, 1 << 20000, 1, 1)
    with pytest.raises(ValueError, match="^divisor must be >= 1$"):
        divide(5, 0, 2, 2)
    with pytest.raises(ValueError, match="^k must be >= 1$"):
        divide(5, 7, 0, 2)
    with pytest.raises(ValueError, match="^iters must be >= 1$"):
        divide(5, 7, 2, 0)
    with pytest.raises(ValueError):
        divide(5, 7, 10**9, 1, radix=3)  # scale size checked before radix**k
    # the radix and k are checked before the dividend range
    for radix in (1, 0, -2):
        with pytest.raises(ValueError, match=r"^radix must be >= 2$"):
            divide(1, 3, 1, 4, radix=radix)
    with pytest.raises(ValueError, match=r"^k must be >= 1$"):
        divide(20, 3, 0, 4)
    # quotient_value([1], 0) once read 1
    with pytest.raises(ValueError, match=r"^k must be >= 1$"):
        quotient_value([1], 0)
    with pytest.raises(ValueError, match=r"^radix must be >= 2$"):
        quotient_value([1], 1, radix=1)
    # digits outside divide's range: quotient_value([5], 1) once read 5/2
    # and quotient_value([-1], 1) read -1/2
    for digits, k, radix, j, top in (([5], 1, 2, 0, 3), ([-1], 1, 2, 0, 3),
                                     ([3, 2], 1, 2, 1, 1), ([1, -1], 2, 10, 1, 99),
                                     ([7, 100, 3], 2, 10, 1, 99)):
        with pytest.raises(ValueError, match=f"^{re.escape(f'quotient digit {j} must be in 0..{top}')}$"):
            quotient_value(digits, k, radix)
    assert quotient_value([3, 1], 1) == Fraction(7, 4) and quotient_value([999, 99], 2, 10) == Fraction(99999, 10**4)
    # the oracle rejects the same inputs
    with pytest.raises(ZeroDivisionError, match="^divisor must be positive$"):
        restoring_division_digits(5, 0, 2, 2)
    for x in (14, -1):
        with pytest.raises(ValueError, match=r"^dividend out of range \(need 0 <= x < radix\*z\)$"):
            restoring_division_digits(x, 7, 2, 2)
    # one digit selection takes a residual below size * z
    scale = build_scale(7, 2)
    cases = ((lambda: select_digit(-1, scale), r"^residual must be in 0\.\.27$"),
             (lambda: select_digit(scale.size * 7, scale, "eager"), r"^residual must be in 0\.\.27$"),
             (lambda: select_digit(3, scale, method="bogus"), "^method must be 'bisect' or 'eager'$"),
             (lambda: thermometer_flags(scale.size * 7, scale), r"^residual must be in 0\.\.27$"))
    for call, message in cases:
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("call", [
    lambda: divide(2.5, 7, 1, 3),  # gave a float residual 6.0
    lambda: divide(1, 7.5, 1, 3),  # gave a residual of 0.5
    lambda: divide(1, True, 1, 3),
    lambda: divide(True, 7, 1, 3),
    lambda: divide(1, 7, 1.0, 3),
    lambda: divide(1, 7, 1, 3.0),
    lambda: divide(1, 7, 1, 3, radix=2.0),
    lambda: build_scale(2.5, 1),  # built float entries
    lambda: build_scale(7, 2.0),
    lambda: build_scale(7, 1, radix=2.0),
    lambda: build_scale(7, True),
    lambda: select_digit(3.0, build_scale(7, 1)),
    lambda: select_digit(True, build_scale(7, 1), method="eager"),
    lambda: quotient_value([1], 1.0),  # raised a TypeError
    lambda: quotient_value([1], 1, radix=2.0),
    lambda: quotient_value([True], 1),  # read as 1
    lambda: quotient_value([1.5], 1),  # raised a TypeError
    lambda: quotient_value([0, 1.0], 1),
])
def test_divider_rejects_non_int_arguments(call):
    with pytest.raises(ValueError, match="must be an int"):
        call()


def _scales(z):
    for radix, ks in ((2, (1, 2, 3)), (3, (1, 2)), (10, (1, 2))):
        for k in ks:
            for extended in (False, True):
                yield build_scale(z, k, radix, extended=extended)


def _oracle_digit(r, scale):
    # one oracle iteration with k = e emits a group of e+1 radix-q digits;
    # on divisor z*q**e that group is r // z, for r < q**(e+1) * z = size * z
    e = 0
    while scale.radix ** (e + 1) < scale.size:
        e += 1
    (h,), rest = restoring_division_digits(r, scale.z * scale.radix**e, e, 1, scale.radix)
    return h, rest // scale.radix**e


def test_eager_bisect_floor_and_oracle_agree(rng):
    for z in (1, 2, 7, 1000, (1 << 23) | 0x2F1A35):
        for scale in _scales(z):
            top = scale.size * z
            edges = [0, z - 1, z, top - 1]
            for r in edges + [int(rng.integers(0, top)) for _ in range(8)]:
                want = divmod(r, z)
                assert select_digit(r, scale, "eager") == want
                assert select_digit(r, scale, "bisect") == want
                assert _oracle_digit(r, scale) == want
                assert thermometer_flags(r, scale) == tuple(int(e <= r) for e in scale.entries)


def test_divide_matches_oracle_at_dividend_edges():
    for radix in (2, 3, 10):
        for z in (1, 7, 1000):
            for x in (0, z - 1, z, radix * z - 1):
                for k in (1, 2):
                    want = restoring_division_digits(x, z, k, 3, radix)
                    for method in ("bisect", "eager"):
                        assert divide(x, z, k, 3, radix=radix, method=method) == want


def test_eager_at_the_largest_scale():
    z = (1 << 23) | 0x2F1A35
    scale = build_scale(z, 19, 2, extended=True)
    assert scale.size == 1 << 20
    for r in (0, z - 1, z, scale.size * z - 1, 123456 * z + 17):
        want = divmod(r, z)
        assert select_digit(r, scale, "eager") == want
        assert select_digit(r, scale, "bisect") == want
        assert _oracle_digit(r, scale) == want


def test_bank_equals_closed_form():
    # field d holds 2**W - d*z: bank = (rep << W) - z * sum(d * B**d)
    for z in (1, 7, 1000):
        for scale in _scales(z):
            w, n = _comparison_width(scale), scale.size
            b = 1 << (w + 1)
            rep = (b**n - 1) // (b - 1)
            idx = (b - n * b**n + (n - 1) * b ** (n + 1)) // (b - 1) ** 2
            assert scale._bank == (w, rep, (rep << w) - z * idx)


def test_non_monotone_comparator_vector_is_caught():
    # clear field 0's flag: the bank then reads entry 0 as above every residual
    scale = build_scale(7, 2)
    w, rep, bank = scale._bank
    vars(scale)["_bank"] = (w, rep, bank - (1 << (w - 1)))
    with pytest.raises(RuntimeError, match=r"^comparator vector \(0, 1, 1, 0\) is not monotone$"):
        select_digit(15, scale, "eager")


def test_oversized_eager_bank_is_refused_before_it_is_built():
    # 2**20 fields of about 4000 bits each would take about 500 MB
    z = 2**4000 + 1
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"passes the limit of {MAX_BANK_BITS}"):
            divide(1, z, 19, 1, method="eager")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert divide(1, z, 19, 1) == ([0], 1 << 19)


def test_build_scale_allocates_no_table():
    tracemalloc.start()
    try:
        scale = build_scale((1 << 23) | 0x2F1A35, 19, extended=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert scale.size == 1 << 20
    assert peak < 64 * 1024


def test_check_printable_verdicts():
    # refused once radix**(k*iters + 1) has more than `limit` digits, in
    # integer arithmetic; where the old float test (k*iters + 1) *
    # log10(radix) >= limit did not overflow, the verdict is the same
    limit = codes.int_string_limit()
    two = (10**limit - 1).bit_length()  # least n with 2**n >= 10**limit
    cases = (((4, 3, 2), False), ((19, 1, 2), False), ((2, 3, 2), False), ((4, 4, 2), False),
             ((1, two - 2, 2), False), ((1, two - 1, 2), True), ((1, limit - 2, 10), False),
             ((1, limit - 1, 10), True), ((2, limit // 2, 10), True), ((3, 1, 10**1000), False),
             ((4000, 4000, 2), True), ((1, 100000, 2), True), ((1, 1, 10**4000), True),
             ((0, 5, 2), False), ((1, 0, 2), False), ((1, 1, 1), False))  # the last three: left to divide
    for (k, iters, radix), refused in cases:
        if min(radix - 1, k, iters) > 0:
            assert ((k * iters + 1) * math.log10(radix) >= limit) == refused
        try:
            check_printable(k, iters, radix)
        except ValueError:
            assert refused, (k, iters, radix)
        else:
            assert not refused, (k, iters, radix)
    # a k or iters too large for a float is refused, not an OverflowError
    for k, iters in ((10**400, 1), (1, 10**400)):
        with pytest.raises(ValueError, match=r"make a quotient past Python's limit of \d+ digits"):
            check_printable(k, iters)
