"""High-radix division by a table of divisor multiples (a digital scale).

A scale for divisor z holds the multiples d*z for every digit d of the
working radix q**k.  One iteration compares the shifted residual against
the scale, takes the largest entry not exceeding it (the shortage rule),
emits that d as the next quotient digit and keeps the difference as the
new residual.  With k=1, q=2 this is plain restoring division.

The first iteration gets an extended scale of q**(k+1) entries because a
normalized quotient can reach q - epsilon, so its leading digit carries
the integer position too.

Comparisons are modeled the way the hardware does them: the sign bit of
entry - r is extracted through complement-code addition for every entry
at once, giving a thermometer vector whose last set bit is the digit.  A
binary search over the sorted entries gives the same answer faster; both
paths are exposed and must agree.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from . import trace
from .codes import int_string_limit

MAX_SCALE_ENTRIES = 1 << 20


@dataclass(frozen=True)
class ScaleTable:
    """Multiples d*z for d = 0 .. size-1."""

    z: int
    k: int
    radix: int
    entries: tuple

    @property
    def size(self) -> int:
        return len(self.entries)


def build_scale(z: int, k: int, radix: int = 2, extended: bool = False) -> ScaleTable:
    """Scale of q**k (or q**(k+1) when extended) multiples of z."""
    if z <= 0:
        raise ValueError("divisor must be positive")
    if k < 1:
        raise ValueError("k must be >= 1")
    if radix < 2:
        raise ValueError("radix must be >= 2")
    exp = k + 1 if extended else k
    # radix >= 2, so an exponent past the limit's bit count is over the
    # limit at any radix: reject it before computing the power
    if exp >= MAX_SCALE_ENTRIES.bit_length() or radix**exp > MAX_SCALE_ENTRIES:
        raise ValueError(f"scale would need {radix}**{exp} entries (limit {MAX_SCALE_ENTRIES})")
    size = radix**exp
    return ScaleTable(z=z, k=k, radix=radix, entries=tuple(d * z for d in range(size)))


def _sign_via_complement(entry: int, r: int, width: int) -> int:
    """1 when entry <= r, computed as the sign bit of r - entry.

    r - entry is formed by adding the two's complement of entry over a
    fixed `width`-bit grid; the top bit read back is the sign.
    """
    mask = (1 << width) - 1
    total = (r + ((~entry + 1) & mask)) & mask
    sign = (total >> (width - 1)) & 1
    return 1 - sign  # sign clear means entry <= r


def _comparison_width(scale: ScaleTable) -> int:
    bound = scale.size * scale.z  # residuals and entries both lie below this
    return max((bound - 1).bit_length(), 1) + 1  # one sign position above the magnitude


def select_digit(
    r: int, scale: ScaleTable, method: str = "bisect"
) -> tuple[int, int]:
    """Largest digit h with h*z <= r, and the shortage r - h*z.

    method="eager" evaluates every scale entry through the complement
    comparator and decodes the thermometer vector; method="bisect" is
    the software fast path.  Both agree by construction.
    """
    if r < 0:
        raise ValueError("residual must be non-negative")
    if r >= scale.size * scale.z:
        raise ValueError("residual out of scale range")
    if method == "bisect":
        h = bisect_right(scale.entries, r) - 1
    elif method == "eager":
        flags = thermometer_flags(r, scale)
        if any(prev < cur for prev, cur in zip(flags, flags[1:])):
            raise RuntimeError(f"comparator vector {flags} is not monotone")
        h = sum(flags) - 1
    else:
        raise ValueError("method must be 'bisect' or 'eager'")
    return h, r - scale.entries[h]


def thermometer_flags(r: int, scale: ScaleTable) -> tuple:
    """Per-entry comparator outputs (1 while entry <= r), MSB of a
    complement-code addition each."""
    width = _comparison_width(scale)
    return tuple(
        _sign_via_complement(entry, r, width) for entry in scale.entries
    )


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
    if iters < 1:
        raise ValueError("iters must be >= 1")
    # the scales check z, k and the radix, which the dividend range depends on
    first = build_scale(z, k, radix, extended=True)
    rest = build_scale(z, k, radix)
    if not 0 <= x < radix * z:
        raise ValueError("dividend out of range (need 0 <= x < radix*z)")
    step = rest.size  # radix**k
    digits = []
    residual = x
    events = trace.sink()
    for it in range(1, iters + 1):
        scale = first if it == 1 else rest
        shifted = residual * step
        h, residual = select_digit(shifted, scale, method)
        digits.append(h)
        if events is not None:
            flags = thermometer_flags(shifted, scale) if method == "eager" else None
            events.append({"op": "divide", "iteration": it, "digit": h, "residual": residual,
                           "thermometer": flags})
    return digits, residual


def check_printable(k: int, iters: int, radix: int = 2) -> None:
    """Reject, before dividing, a quotient Python could not print: its
    numerator and denominator stay below radix**(k*iters + 1), and Python
    writes no int of more decimal digits than its int-string limit.  A
    radix below 2, or k or iters below 1, is left to `divide` to reject."""
    limit = int_string_limit()
    if limit and min(radix - 1, k, iters) > 0 and (k * iters + 1) * math.log10(radix) >= limit:
        raise ValueError(f"a quotient of {k * iters} radix-{radix} digits passes Python's "
                         f"limit of {limit} digits for printing an integer")


def quotient_value(digits: list, k: int, radix: int = 2) -> Fraction:
    """Value of a digit string as a truncated quotient: digit j weighs
    radix**(-k*(j+1))."""
    step = radix**k
    q = 0
    for d in digits:
        q = q * step + d
    return Fraction(q, step ** len(digits))
