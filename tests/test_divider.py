"""Table-driven division: digit selection, identities, worked example."""

from fractions import Fraction

import pytest

from redundarith import trace
from redundarith.divider import (
    build_scale,
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
    with pytest.raises(ValueError):
        divide(14, 7, 2, 2)  # x must stay below radix*z
    with pytest.raises(ValueError):
        divide(-1, 7, 2, 2)
    with pytest.raises(ValueError):
        divide(5, 0, 2, 2)
    with pytest.raises(ValueError):
        divide(5, 7, 0, 2)
    with pytest.raises(ValueError):
        divide(5, 7, 2, 0)
    with pytest.raises(ValueError):
        divide(5, 7, 10**9, 1, radix=3)  # scale size checked before radix**k
    # the radix and k are checked before the dividend range
    for radix in (1, 0, -2):
        with pytest.raises(ValueError, match=r"^radix must be >= 2$"):
            divide(1, 3, 1, 4, radix=radix)
    with pytest.raises(ValueError, match=r"^k must be >= 1$"):
        divide(20, 3, 0, 4)
