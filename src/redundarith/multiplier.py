"""Binary multiplication as partial-product matrix construction + reduction.

Unsigned: row j of the matrix is the multiplicand gated by multiplier
bit j, shifted j columns; the whole matrix reduces to a 2-row product.

Signed operands are fixed-point two's complement: the top digit is the
sign (negative weight), the rest a non-negative magnitude.  Writing the
product as D + E - F - C (sign*sign, magnitude*magnitude and the two
mixed terms) and replacing -F and -C by inverted-AND rows plus a single
constant bit yields a matrix of non-negative digits whose exact value is
the product plus a fixed bias of 2**(2n+1) on the scaled grid.  Digit
matrices cannot go negative, so the bias is inherent; `bias_scaled`
records it and product extraction subtracts it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import _kernels
from .codes import MultiRowCode, packed_code, scale_fraction, scaled_value, stack_codes
from .reducer import reduce_delay, reduce_once, reduce_to_two, stage_plan


@dataclass(frozen=True)
class PartialProductMatrix:
    matrix: MultiRowCode
    bias_scaled: int


def _check_operand(code: MultiRowCode, min_width: int = 1) -> None:
    if code.rows != 1:
        raise ValueError("multiplier operands must be one-row codes")
    if code.radix != 2:
        raise ValueError("multiplier operands must be binary")
    if code.width < min_width:
        raise ValueError(f"operand width must be >= {min_width}")


def signed_operand_value(code: MultiRowCode) -> Fraction:
    """Two's-complement reading of a one-row code: top digit weighs negative."""
    _check_operand(code, min_width=2)
    raw = code.packed[0]
    sign = raw >> (code.width - 1)
    return scale_fraction(raw - (sign << code.width), 2, code.lsb_exp)


def _partial_products(x: int, y: int, count: int) -> list:
    """Row j is x shifted j columns where bit j of y is set, else 0."""
    return [x << j if y >> j & 1 else 0 for j in range(count)]


def pp_matrix_unsigned(a: MultiRowCode, b: MultiRowCode) -> PartialProductMatrix:
    """Partial products of two unsigned one-row codes; value = a*b."""
    _check_operand(a)
    _check_operand(b)
    rows = _partial_products(a.packed[0], b.packed[0], b.width)
    matrix = packed_code(rows, a.width + b.width - 1, a.lsb_exp + b.lsb_exp)
    return PartialProductMatrix(matrix=matrix, bias_scaled=0)


def pp_matrix_signed(a: MultiRowCode, b: MultiRowCode) -> PartialProductMatrix:
    """Signed partial-product matrix; value = a*b + bias.

    Operands must share one width w (sign digit + n = w-1 magnitude
    digits).  The grid spans 2n+1 columns; the inverted mixed terms sit
    in columns n..2n-1, the sign product at column 2n and the constant
    correction bit at column n+1.  The scaled bias is 2**(2n+1).
    """
    _check_operand(a, min_width=2)
    _check_operand(b, min_width=2)
    if a.width != b.width:
        raise ValueError("signed operands must share a width")
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
    matrix = packed_code(rows, 2 * n + 1, a.lsb_exp + b.lsb_exp)
    return PartialProductMatrix(matrix=matrix, bias_scaled=1 << (2 * n + 1))


def multiply(a: MultiRowCode, b: MultiRowCode, signed: bool = False) -> MultiRowCode:
    """Reduce the partial-product matrix to a 2-row code.

    Unsigned: value equals a*b.  Signed: value equals a*b plus the
    matrix bias; use `signed_product_value` to read the product out.
    """
    ppm = pp_matrix_signed(a, b) if signed else pp_matrix_unsigned(a, b)
    return reduce_to_two(ppm.matrix)


def signed_product_value(product: MultiRowCode, operand_width: int) -> Fraction:
    """Value of a signed product code, bias removed.

    `operand_width` is the shared width w of the two signed operands;
    the bias is 2**(2(w-1)+1) scaled cells.
    """
    n = operand_width - 1
    unbiased = scaled_value(product) - (1 << (2 * n + 1))
    return scale_fraction(unbiased, product.radix, product.lsb_exp)


@lru_cache(maxsize=_kernels.SHAPE_CACHE_SIZE)
def mac_injection_stage(pp_rows: int, feedback_rows: int) -> tuple[int, int]:
    """Feedback injection stage: (stage index s, total stage count).

    The feedback rows join the matrix after s reductions of the bare
    product matrix.  Stage 1 is preferred (the feedback arrives one
    stage late in a pipelined loop); if the stage-1 row count would
    leave its stage-count band and add a stage, the first stage whose
    band absorbs the extra rows wins.  If no stage keeps the bare stage
    count, the earliest stage with the smallest total is used.
    """
    if pp_rows < 1:
        raise ValueError("pp_rows must be >= 1")
    plan = stage_plan(max(pp_rows, 2), 2)
    bare = plan.stages
    totals = [
        s + stage_plan(max(h + feedback_rows, 2), 2).stages
        for s, h in enumerate(plan.row_counts)
    ]
    if len(totals) > 1 and totals[1] == bare:
        return 1, bare
    for s, total in enumerate(totals):
        if total == bare:
            return s, bare
    best = min(totals)
    return totals.index(best), best


def fused_mac(
    f_prev: MultiRowCode, a: MultiRowCode, b: MultiRowCode
) -> MultiRowCode:
    """Accumulating multiply: value = value(f_prev) + a*b (unsigned).

    The previous 2-row (or 3-row) result is injected at the stage
    picked by mac_injection_stage, so a feedback that fits the current
    stage-count band costs no extra stages over a bare multiply.
    """
    if f_prev.rows not in (2, 3):
        raise ValueError("feedback must be a 2-row or 3-row code")
    if f_prev.radix != 2:
        raise ValueError("feedback must be binary")
    if f_prev.lsb_exp != a.lsb_exp + b.lsb_exp:
        raise ValueError("feedback lsb_exp must match the product grid")
    ppm = pp_matrix_unsigned(a, b)
    s, _ = mac_injection_stage(ppm.matrix.rows, f_prev.rows)
    mat = ppm.matrix
    for _ in range(s):
        mat = reduce_once(mat)
    return reduce_to_two(stack_codes((mat, f_prev)))


def mul_delay(n: int, accounting: str = "aggregate") -> int:
    """Multiply delay: one AND level to form partial products, then the
    reduction of the n-row matrix."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return 1 + reduce_delay(stage_plan(n, 2), accounting)
