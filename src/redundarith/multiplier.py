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

import numpy as np

from . import _kernels
from .codes import MultiRowCode, scale_fraction, scaled_value, stack_rows
from .reducer import reduce_delay, reduce_once, reduce_to_two, stage_plan


@dataclass(frozen=True)
class PartialProductMatrix:
    matrix: MultiRowCode
    signed: bool
    bias_scaled: int

    @property
    def bias(self) -> Fraction:
        return scale_fraction(self.bias_scaled, 2, self.matrix.lsb_exp)


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
    sign = int(code.digits[0, code.width - 1])
    raw = scaled_value(code)
    return scale_fraction(raw - (sign << code.width), 2, code.lsb_exp)


def pp_matrix_unsigned(a: MultiRowCode, b: MultiRowCode) -> PartialProductMatrix:
    """Partial products of two unsigned one-row codes; value = a*b."""
    _check_operand(a)
    _check_operand(b)
    out = _kernels.pp_unsigned_digits(a.digits[0], b.digits[0])
    matrix = MultiRowCode(
        out.shape[0], out.shape[1], 2, a.lsb_exp + b.lsb_exp, out
    )
    return PartialProductMatrix(matrix=matrix, signed=False, bias_scaled=0)


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
    w = a.width
    n = w - 1
    abits = a.digits[0]
    bbits = b.digits[0]
    a_sign = int(abits[n])
    b_sign = int(bbits[n])
    width = 2 * n + 1
    rows = np.zeros((n + 3, width), dtype=np.int64)
    # magnitude * magnitude, the unsigned partial products of n digits
    rows[:n, : 2 * n - 1] = _kernels.pp_unsigned_digits(abits[:n], bbits[:n])
    rows[n, n : 2 * n] = 1 - a_sign * bbits[:n]  # -(sign_a * mag_b), inverted
    rows[n, 2 * n] = a_sign * b_sign  # sign * sign
    rows[n + 1, n : 2 * n] = 1 - b_sign * abits[:n]  # -(sign_b * mag_a), inverted
    rows[n + 2, n + 1] = 1  # constant correction
    matrix = MultiRowCode(n + 3, width, 2, a.lsb_exp + b.lsb_exp, rows)
    return PartialProductMatrix(
        matrix=matrix, signed=True, bias_scaled=1 << (2 * n + 1)
    )


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
    stacked = stack_rows((mat.digits, f_prev.digits))
    return reduce_to_two(MultiRowCode.from_digits(stacked, 2, f_prev.lsb_exp))


def mul_delay(n: int, accounting: str = "aggregate") -> int:
    """Multiply delay: one AND level to form partial products, then the
    reduction of the n-row matrix."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return 1 + reduce_delay(stage_plan(n, 2), accounting)
