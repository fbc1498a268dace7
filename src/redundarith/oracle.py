"""Independent reference implementations used to check the fast paths.

Everything in here is pure Python over exact big integers and never
calls into the numpy kernels, so a bug cannot hide on both sides
of a comparison.  Tests and the fuzz harness build on these.
"""

from __future__ import annotations

from fractions import Fraction


def exact_scaled_value(digit_rows, radix: int) -> int:
    """Weighted digit sum, digits LSB-first per row, as a Python int."""
    total = 0
    for row in digit_rows:
        acc = 0
        for d in reversed(list(row)):
            acc = acc * radix + int(d)
        total += acc
    return total


def exact_value(digit_rows, radix: int, lsb_exp: int) -> Fraction:
    return exact_scaled_value(digit_rows, radix) * Fraction(radix) ** lsb_exp


def restoring_division_digits(
    x: int, z: int, k: int, iters: int, radix: int = 2
) -> tuple[list[int], int]:
    """Schoolbook restoring division emitting one radix-`radix` digit at a
    time, regrouped into radix**k digits.

    The first group carries k+1 single digits (integer digit included),
    matching a divider whose first iteration may emit a digit up to
    radix**(k+1) - 1.  Returns (digit groups, final remainder).
    """
    if z <= 0:
        raise ZeroDivisionError("divisor must be positive")
    if not 0 <= x < radix * z:
        raise ValueError("dividend out of range (need 0 <= x < radix*z)")
    single = []
    r = x
    # integer-position digit first: x < radix*z so it is a single digit
    d = 0
    while r >= z:
        r -= z
        d += 1
    single.append(d)
    for _ in range(k * iters):
        r *= radix
        d = 0
        while r >= z:
            r -= z
            d += 1
        single.append(d)
    groups = []
    pos = 0
    for it in range(iters):
        take = k + 1 if it == 0 else k
        g = 0
        for _ in range(take):
            g = g * radix + single[pos]
            pos += 1
        groups.append(g)
    return groups, r
