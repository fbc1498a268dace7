"""High-radix division by a table of divisor multiples (a digital scale).

A scale for divisor z holds the multiples d*z for every digit d of the
working radix q**k.  One iteration compares the shifted residual against
the scale, takes the largest entry not exceeding it (the shortage rule),
emits that d as the next quotient digit and keeps the difference as the
new residual.  With k=1, q=2 this is plain restoring division.

The first iteration gets an extended scale of q**(k+1) entries because a
normalized quotient can reach q - epsilon, so its leading digit carries
the integer position too.

method="eager" compares the way the hardware does: every entry at once,
each comparator reading the sign of r - d*z off a complement-code
addition.  The comparator bank is one wide addition on one int (SWAR:
Lamport, "Multiple Byte Processing with Full-Word Instructions", 1975).
Field d, W+1 bits wide, holds the complement 2**W - d*z; adding r to
every field at once and reading bit W-1 of each gives the thermometer
vector, whose count of set flags is the digit plus one.  The scale is
arithmetic, so method="bisect", the software fast path, is the floor
division r // z.  Both paths are exposed and must agree.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from . import trace
from .codes import check_int, int_string_limit, past_digit_limit, shown

MAX_SCALE_ENTRIES = 1 << 20
MAX_BANK_BITS = 64 * MAX_SCALE_ENTRIES  # bits of one eager comparator bank (8 MiB)


class _ScaleTable(NamedTuple):
    z: int
    k: int
    radix: int
    size: int


class ScaleTable(_ScaleTable):
    """Multiples d*z for d = 0 .. size-1, listed by `entries` when read."""

    # no __slots__: the instance __dict__ holds the cached `_bank`

    def __setattr__(self, name, value):
        raise AttributeError(f"ScaleTable is immutable: cannot set {name}")

    @property
    def entries(self) -> tuple:
        return tuple(range(0, self.size * self.z, self.z))

    @cached_property
    def _bank(self) -> tuple:
        """(W, rep, bank): the comparison width, a 1 at the bottom of every
        (W+1)-bit field, and field d holding the complement 2**W - d*z, so
        bank = (rep << W) - z * sum(d << d*(W+1)).

        Built by doubling over the bits of size, fields m .. 2m-1 being
        fields 0 .. m-1 less m*z: linear in the bank's length, with no
        per-field loop and no long division."""
        width = _comparison_width(self)
        field = width + 1
        if self.size * field > MAX_BANK_BITS:
            raise ValueError(f"eager bank of {self.size} x {field} bits passes the limit of {MAX_BANK_BITS}")
        rep, bank, m = 1, 1 << width, 1  # fields 0 .. m-1
        for bit in bin(self.size)[3:]:
            bank |= (bank - m * self.z * rep) << m * field
            rep |= rep << m * field
            m *= 2
            if bit == "1":
                bank |= ((1 << width) - m * self.z) << m * field
                rep |= 1 << m * field
                m += 1
        return width, rep, bank


def build_scale(z: int, k: int, radix: int = 2, extended: bool = False) -> ScaleTable:
    """Scale of q**k (or q**(k+1) when extended) multiples of z."""
    check_int("divisor", z, 1)
    check_int("k", k, 1)
    check_int("radix", radix, 2)
    exp = k + 1 if extended else k
    # radix >= 2, so an exponent past the limit's bit count is over the
    # limit at any radix: reject it before computing the power
    if exp >= MAX_SCALE_ENTRIES.bit_length() or radix**exp > MAX_SCALE_ENTRIES:
        raise ValueError(f"{shown(radix, 'radix')} to the power {shown(exp)} passes the limit "
                         f"of {MAX_SCALE_ENTRIES} scale entries")
    return ScaleTable(z=z, k=k, radix=radix, size=radix**exp)


def _comparison_width(scale: ScaleTable) -> int:
    bound = scale.size * scale.z  # residuals and entries both lie below this
    return max((bound - 1).bit_length(), 1) + 1  # one sign position above the magnitude


def _select(r: int, scale: ScaleTable, method: str) -> tuple:
    """(h, flags): the digit `select_digit` returns and, for "eager", the
    comparator flags as an int (flag d at bit d*(W+1)); None for "bisect"."""
    check_int("residual", r, 0, scale.size * scale.z - 1)
    if method == "bisect":
        return r // scale.z, None
    if method != "eager":
        raise ValueError("method must be 'bisect' or 'eager'")
    width, rep, bank = scale._bank
    # field d of the sum is 2**W + r - d*z, whose bit W-1 is the sign of
    # r - d*z; the flag is its inverse, taken by xor with rep
    flags = (((bank + r * rep) >> (width - 1)) & rep) ^ rep
    h = flags.bit_count() - 1
    if flags != rep & ((1 << (h + 1) * (width + 1)) - 1):
        raise RuntimeError(f"comparator vector {_thermometer(flags, scale)} is not monotone")
    return h, flags


def select_digit(
    r: int, scale: ScaleTable, method: str = "bisect"
) -> tuple[int, int]:
    """Largest digit h with h*z <= r, and the shortage r - h*z.

    method="eager" runs every scale entry's complement comparator in one
    wide addition and decodes the thermometer vector; method="bisect" is
    the software fast path.  Both agree by construction.
    """
    h, _ = _select(r, scale, method)
    return h, r - h * scale.z


def _thermometer(flags: int, scale: ScaleTable) -> tuple:
    """The flags int as one 0/1 entry per scale entry, entry 0 first."""
    field = scale._bank[0] + 1
    return tuple(map(int, format(flags, f"0{scale.size * field}b")[::-field]))


def thermometer_flags(r: int, scale: ScaleTable) -> tuple:
    """Per-entry comparator outputs (1 while entry <= r), the sign of a
    complement-code addition each."""
    return _thermometer(_select(r, scale, "eager")[1], scale)


def divide(
    x: int,
    z: int,
    k: int,
    iters: int,
    radix: int = 2,
    method: str = "bisect",
) -> tuple[list[int], int]:
    """Iterative scale division of x by z, k digits of radix `radix` per
    iteration after the first (which also covers the integer position).

    Returns (digits, residual) satisfying exactly
        x * radix**(k*iters) == z * Q + residual,
    with Q = sum of digits[j] * radix**(k*(iters-1-j)).  Each iteration
    reports a "divide" event to an active `trace.record()`.
    """
    check_int("iters", iters, 1)
    # the scales check z, k and the radix, which the dividend range depends on
    first = build_scale(z, k, radix, extended=True)
    rest = build_scale(z, k, radix)
    check_int("dividend", x, 0, radix * z - 1)
    step = rest.size  # radix**k
    digits = []
    residual = x
    events = trace.sink()
    for it in range(1, iters + 1):
        scale = first if it == 1 else rest
        shifted = residual * step
        h, flags = _select(shifted, scale, method)
        residual = shifted - h * z
        digits.append(h)
        if events is not None:
            events.append({"op": "divide", "iteration": it, "digit": h, "residual": residual,
                           "thermometer": None if flags is None else _thermometer(flags, scale)})
    return digits, residual


def check_printable(k: int, iters: int, radix: int = 2) -> None:
    """Reject, before dividing, a quotient Python could not print: its
    numerator and denominator stay below radix**(k*iters + 1), and Python
    writes no int of more decimal digits than its int-string limit.  A
    radix below 2, or k or iters below 1, is left to `divide` to reject."""
    limit, n = int_string_limit(), k * iters + 1
    # radix**n >= 2**(4 * limit) > 10**limit needs no power; below, the power has under 8 * limit bits
    if limit and min(radix - 1, k, iters) > 0 and (
            (radix.bit_length() - 1) * n >= 4 * limit or past_digit_limit(radix**n)):
        raise ValueError(f"{shown(k, 'k')}, {shown(iters, 'iters')} and {shown(radix, 'radix')} make a "
                         f"quotient past Python's limit of {limit} digits for printing an integer")


def quotient_value(digits: list, k: int, radix: int = 2) -> Fraction:
    """Value of a digit string as a truncated quotient: digit j weighs
    radix**(-k*(j+1)).  Each digit is an int in the range `divide` gives
    it: below radix**(k+1) for the first, which covers the integer
    position too, and below radix**k after it."""
    check_int("k", k, 1)
    check_int("radix", radix, 2)
    step = radix**k
    q = 0
    for j, d in enumerate(digits):
        check_int(f"quotient digit {j}", d, 0, (step * radix if j == 0 else step) - 1)
        q = q * step + d
    return Fraction(q, step ** len(digits))
