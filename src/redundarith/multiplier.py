"""Binary multiplication as partial-product matrix construction + reduction.

Unsigned: row j of the matrix is the multiplicand gated by multiplier
bit j, shifted j columns; the whole matrix reduces to a 2-row product.

Signed operands are fixed-point two's complement: the top digit is the
sign (negative weight), the rest a non-negative magnitude.  Writing the
product as D + E - F - C (sign*sign, magnitude*magnitude and the two
mixed terms) and replacing -F and -C by inverted-AND rows plus a single
constant bit yields a matrix of non-negative digits whose exact value is
the product plus a fixed bias of 2**(2n+1) on the scaled grid.  Digit
matrices cannot go negative, so the bias is inherent; `signed_bias`
gives it and product extraction subtracts it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import _kernels
from .codes import MultiRowCode, check_int, check_operand, made_code, scale_fraction, scaled_value
from .reducer import reduce_delay, reduce_rows, stage_plan


def signed_operand_value(code: MultiRowCode) -> Fraction:
    """Two's-complement reading of a one-row code: top digit weighs negative."""
    check_operand(code, "signed operand", (1,), min_width=2)
    raw = code.packed[0]
    sign = raw >> (code.width - 1)
    return scale_fraction(raw - (sign << code.width), 2, code.lsb_exp)


def _partial_products(x: int, y: int, count: int) -> list:
    """Row j is x shifted j columns where bit j of y is set, else 0."""
    return [x << j if y >> j & 1 else 0 for j in range(count)]


def _pp_rows(a: MultiRowCode, b: MultiRowCode, signed: bool) -> list:
    """Rows of the partial-product matrix of two one-row binary operands, unchecked (see _checked_pp)."""
    if not signed:
        return _partial_products(a.packed[0], b.packed[0], b.width)
    n = a.width - 1
    ones = (1 << n) - 1
    a_sign, b_sign = a.packed[0] >> n, b.packed[0] >> n
    a_mag, b_mag = a.packed[0] & ones, b.packed[0] & ones
    # magnitude * magnitude, the unsigned partial products of n digits
    rows = _partial_products(a_mag, b_mag, n)
    # -(sign_a * mag_b), inverted, and sign * sign
    rows.append((ones ^ b_mag * a_sign) << n | (a_sign & b_sign) << 2 * n)
    rows.append((ones ^ a_mag * b_sign) << n)  # -(sign_b * mag_a), inverted
    rows.append(1 << (n + 1))  # constant correction
    return rows


def _checked_pp(a: MultiRowCode, b: MultiRowCode, signed: bool) -> tuple:
    """Rows and width of the partial-product matrix, after the one operand check of every product."""
    for code in (a, b):
        check_operand(code, "signed operand" if signed else "multiplier operand", (1,), min_width=1 + signed)
    if signed and a.width != b.width:
        raise ValueError("signed operands must share a width")
    return _pp_rows(a, b, signed), a.width + b.width - 1


def pp_matrix_unsigned(a: MultiRowCode, b: MultiRowCode) -> MultiRowCode:
    """Partial products of two unsigned one-row codes; value = a*b."""
    return made_code(*_checked_pp(a, b, False), 2, a.lsb_exp + b.lsb_exp)


def signed_bias(operand_width: int) -> int:
    """Scaled bias of the signed matrix of two w-bit operands: 2**(2w-1)."""
    return 1 << (2 * operand_width - 1)


def pp_matrix_signed(a: MultiRowCode, b: MultiRowCode) -> MultiRowCode:
    """Signed partial-product matrix; value = a*b + signed_bias(w).

    Operands must share one width w (sign digit + n = w-1 magnitude
    digits).  The grid spans 2n+1 columns; the inverted mixed terms sit
    in columns n..2n-1, the sign product at column 2n and the constant
    correction bit at column n+1.
    """
    return made_code(*_checked_pp(a, b, True), 2, a.lsb_exp + b.lsb_exp)


def multiply(a: MultiRowCode, b: MultiRowCode, signed: bool = False) -> MultiRowCode:
    """Reduce the partial-product matrix to a 2-row code, the one code built.

    Unsigned: value equals a*b.  Signed: value equals a*b plus the
    matrix bias; use `signed_product_value` to read the product out.
    """
    return made_code(*reduce_rows(*_checked_pp(a, b, signed)), 2, a.lsb_exp + b.lsb_exp)


def signed_product_value(product: MultiRowCode, operand_width: int) -> Fraction:
    """Value of a signed product code, bias removed.

    `operand_width` is the shared width w of the two signed operands.
    """
    check_int("operand_width", operand_width, 2)
    check_operand(product, "product")
    unbiased = scaled_value(product) - signed_bias(operand_width)
    return scale_fraction(unbiased, product.radix, product.lsb_exp)


@lru_cache(maxsize=_kernels.SHAPE_CACHE_SIZE, typed=True)
def mac_injection_stage(pp_rows: int, feedback_rows: int) -> tuple[int, int]:
    """Feedback injection stage: (stage index s, total stage count).

    The feedback rows join the matrix after s reductions of the bare
    product matrix.  Stage 1 is preferred (the feedback arrives one
    stage late in a pipelined loop); if the stage-1 row count would
    leave its stage-count band and add a stage, the first stage whose
    band absorbs the extra rows wins.  If no stage keeps the bare stage
    count, the earliest stage with the smallest total is used.
    """
    check_int("pp_rows", pp_rows, 1)
    check_int("feedback_rows", feedback_rows, 1)
    # the row count before each stage; a one-row product runs no stage
    heights = (pp_rows, *stage_plan(max(pp_rows, 2), 2).row_counts[1:])
    bare = len(heights) - 1
    totals = [
        s + stage_plan(max(h + feedback_rows, 2), 2).stages
        for s, h in enumerate(heights)
    ]
    if len(totals) > 1 and totals[1] == bare:
        return 1, bare
    for s, total in enumerate(totals):
        if total == bare:
            return s, bare
    best = min(totals)
    return totals.index(best), best


def fused_mac(f_prev: MultiRowCode, a: MultiRowCode, b: MultiRowCode) -> MultiRowCode:
    """Accumulating multiply: value = value(f_prev) + a*b (unsigned).

    The previous 2-row (or 3-row) result is injected at the stage
    picked by mac_injection_stage, so a feedback that fits the current
    stage-count band costs no extra stages over a bare multiply.
    """
    check_operand(f_prev, "feedback", (2, 3), a.lsb_exp + b.lsb_exp)
    pp, width = _checked_pp(a, b, False)
    s, planned = mac_injection_stage(b.width, f_prev.rows)  # the matrix has b.width rows
    rows, width, stages = _kernels.reduce_packed(pp, width, s)
    rows = [*rows, *f_prev.packed]
    if len(rows) > 2:  # reduce_rows runs its stage_plan, or raises
        stages += stage_plan(len(rows), 2).stages
    if stages != planned:
        raise RuntimeError(f"fused_mac ran {stages} stages, mac_injection_stage gives {planned}")
    rows, width = reduce_rows(rows, max(width, f_prev.width))
    return made_code(rows, width, 2, a.lsb_exp + b.lsb_exp)


def mul_delay(n: int, accounting: str = "aggregate") -> int:
    """Multiply delay: one AND level to form partial products, then the
    reduction of the n-row matrix."""
    check_int("n", n, 2)
    return 1 + reduce_delay(stage_plan(n, 2), accounting)
