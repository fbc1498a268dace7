"""Carry-save accumulator over a fixed n-column binary grid.

State is a sum row and a carry row plus an overflow counter.  Absorbing
a one-row operand costs a single full-adder layer per step; a two-row
operand costs two layers.  Carries never propagate: each layer stores
its carry one column up, and whatever leaves column n-1 is charged to
the overflow counter at weight 2**n.

Both registers keep one slot above the grid (index n).  One-row steps
never write it; two-row steps park the two top carries there and the
next step feeds them to the counter.  The counter feed is exact by
default (adds both bits); the "xor" mode combines them modulo two,
which the tests demonstrate to be lossy when both bits are set.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import _kernels
from .codes import MultiRowCode, scale_fraction


@dataclass(frozen=True)
class AccumulatorState:
    width: int
    sum_row: np.ndarray  # n+1 bits, LSB first
    carry_row: np.ndarray  # n+1 bits; bit j has weight 2**(j + lsb_exp)
    overflow_count: int
    lsb_exp: int = 0
    counter_mode: str = "exact"

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("width must be >= 1")
        if self.counter_mode not in ("exact", "xor"):
            raise ValueError("counter_mode must be 'exact' or 'xor'")
        for name in ("sum_row", "carry_row"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.int64)
            if arr.shape != (self.width + 1,):
                raise ValueError(f"{name} must have width+1 slots")
            _check_bits(name, arr)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def acc_new(width: int, lsb_exp: int = 0, counter_mode: str = "exact") -> AccumulatorState:
    zeros = np.zeros(width + 1, dtype=np.int64)
    return AccumulatorState(
        width=width,
        sum_row=zeros,
        carry_row=zeros.copy(),
        overflow_count=0,
        lsb_exp=lsb_exp,
        counter_mode=counter_mode,
    )


def _operand_bits(acc: AccumulatorState, operand: MultiRowCode, rows: int) -> np.ndarray:
    if operand.radix != 2:
        raise ValueError("accumulator operands must be binary")
    if operand.lsb_exp != acc.lsb_exp:
        raise ValueError("lsb_exp mismatch; align the operand first")
    if operand.rows != rows:
        raise ValueError(f"expected a {rows}-row operand, got {operand.rows}")
    if operand.width > acc.width:
        raise ValueError("operand wider than the accumulator grid")
    out = np.zeros((rows, acc.width), dtype=np.int64)
    out[:, : operand.width] = operand.digits
    return out


def _check_bits(name: str, arr: np.ndarray) -> None:
    if arr.size and (arr.min() < 0 or arr.max() > 1):
        raise ValueError(f"{name} entries must be 0 or 1")


def _step_rows(name: str, rows, width: int) -> np.ndarray:
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape[1] != width:
        raise ValueError(f"{name} must be (steps, width)")
    _check_bits(name, rows)
    return rows


def acc_step(acc: AccumulatorState, operand: MultiRowCode) -> AccumulatorState:
    """Absorb a one-row operand: one full-adder layer."""
    return acc_run(acc, _operand_bits(acc, operand, rows=1))


def acc_step2(acc: AccumulatorState, operand: MultiRowCode) -> AccumulatorState:
    """Absorb a two-row operand: two full-adder layers.

    Layer one folds the operand rows into the carry row; layer two folds
    that into the sum row.  The two weight-2**n carries land in the top
    slots and reach the counter on the next flush.
    """
    ab = _operand_bits(acc, operand, rows=2)
    return acc_run(acc, ab[:1], ab[1:])


def acc_run(
    acc: AccumulatorState,
    ops: np.ndarray,
    ops_b: np.ndarray | None = None,
) -> AccumulatorState:
    """Stream many steps through the carry-save kernel.

    ops is a (steps, width) bit matrix, one operand row per step.  With
    ops_b present, each step absorbs the two-row operand (ops[i], ops_b[i]).
    acc_step and acc_step2 are the one-step streams.
    """
    ops = _step_rows("ops", ops, acc.width)
    s = acc.sum_row.copy()
    c = acc.carry_row.copy()
    xor = acc.counter_mode == "xor"
    if ops_b is None:
        delta = _kernels.acc_stream1(ops, s, c, xor)
    else:
        ops_b = _step_rows("ops_b", ops_b, acc.width)
        if ops_b.shape != ops.shape:
            raise ValueError("ops_b must match ops shape")
        delta = _kernels.acc_stream2(ops, ops_b, s, c, xor)
    return replace(
        acc, sum_row=s, carry_row=c, overflow_count=acc.overflow_count + delta
    )


def _row_value(row: np.ndarray) -> int:
    total = 0
    for j in range(row.shape[0] - 1, -1, -1):
        total = (total << 1) + int(row[j])
    return total


def acc_total(acc: AccumulatorState) -> Fraction:
    """Exact accumulated value including the overflow counter weight."""
    scaled = (
        (acc.overflow_count << acc.width)
        + _row_value(acc.sum_row)
        + _row_value(acc.carry_row)
    )
    return scale_fraction(scaled, 2, acc.lsb_exp)
