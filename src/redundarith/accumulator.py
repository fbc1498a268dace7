"""Carry-save accumulator over a fixed n-column binary grid.

State is a sum row and a carry row plus an overflow counter, each row
held as one int of n+1 bits, bit j in column j.  Absorbing a one-row
operand costs a single full-adder layer per step; a two-row operand
costs two layers.  Carries never propagate: each layer stores its carry
one column up, and whatever leaves column n-1 is charged to the
overflow counter at weight 2**n.

Both registers keep one slot above the grid (index n).  One-row steps
never write it; two-row steps park the two top carries there and the
next step feeds them to the counter.  The counter feed is exact by
default (adds both bits); the "xor" mode combines them modulo two,
which the tests demonstrate to be lossy when both bits are set.

`acc_step` and `acc_step2` fold the operand's packed rows into the two
ints with `_kernels.row_stream`, and `acc_run` hands a whole bit matrix
to `_kernels.acc_stream`; no call converts the state to bit rows.
Because no carry moves within a step, a stream of T steps can also run
column by column: column j's sum bits over time are a prefix xor of its
inputs, and its carries are column j + 1's inputs one step later.  The
kernel runs streams of more than 4n steps that way and shorter ones
step by step (see `_kernels`); both leave the same rows, top slots and
counter.  Each call reports one "stream" event to an active
`trace.record()`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from . import _kernels
from .codes import MultiRowCode, _as_digit_matrix, check_int, check_operand, pack_rows, scale_fraction, unpack_rows

if TYPE_CHECKING:
    import numpy as np


class AccumulatorState:
    """Immutable accumulator: a sum row and a carry row of n+1 bits, bit j
    of weight 2**(j + lsb_exp), plus the overflow counter.

    `packed` holds the two rows as ints, (sum, carry); `sum_row` and
    `carry_row` are read-only int64 arrays built from them on first read.
    The constructor takes the rows as 0/1 arrays of n+1 slots.
    """

    width: int
    packed: tuple
    overflow_count: int
    lsb_exp: int
    counter_mode: str

    def __init__(self, width: int, sum_row, carry_row, overflow_count: int,
                 lsb_exp: int = 0, counter_mode: str = "exact"):
        _check_fields(width, overflow_count, lsb_exp, counter_mode)
        rows = [_as_digit_matrix(row, (width + 1,), 2, name)
                for name, row in (("sum_row", sum_row), ("carry_row", carry_row))]
        _fill(self, width, tuple(pack_rows(rows)), overflow_count, lsb_exp, counter_mode)

    def _rows(self) -> np.ndarray:
        if self._bits is None:
            vars(self)["_bits"] = unpack_rows(self.packed, self.width + 1)
        return self._bits

    @property
    def sum_row(self) -> np.ndarray:
        return self._rows()[0]

    @property
    def carry_row(self) -> np.ndarray:
        return self._rows()[1]

    def __setattr__(self, name, value):
        raise AttributeError(f"AccumulatorState is immutable: cannot set {name}")

    def __repr__(self) -> str:
        return (
            f"AccumulatorState(width={self.width}, packed={self.packed}, "
            f"overflow_count={self.overflow_count}, lsb_exp={self.lsb_exp}, "
            f"counter_mode={self.counter_mode!r})"
        )


def _fill(acc: AccumulatorState, width, packed, overflow_count, lsb_exp, counter_mode):
    # the engines build states here unchecked: they keep every field in
    # range by construction
    vars(acc).update(width=width, packed=packed, overflow_count=overflow_count,
                     lsb_exp=lsb_exp, counter_mode=counter_mode, _bits=None)
    return acc


def _check_fields(width, overflow_count, lsb_exp, counter_mode) -> None:
    check_int("width", width, 1)
    check_int("overflow_count", overflow_count, 0)
    check_int("lsb_exp", lsb_exp)
    if counter_mode not in ("exact", "xor"):
        raise ValueError("counter_mode must be 'exact' or 'xor'")


def acc_new(width: int, lsb_exp: int = 0, counter_mode: str = "exact") -> AccumulatorState:
    _check_fields(width, 0, lsb_exp, counter_mode)
    return _fill(object.__new__(AccumulatorState), width, (0, 0), 0, lsb_exp, counter_mode)


def _advanced(acc: AccumulatorState, kernel, ops_a, ops_b) -> AccumulatorState:
    """acc after `kernel` (`_kernels.row_stream` on packed operand rows or
    `_kernels.acc_stream` on bit matrices) ran the operands over its rows."""
    sw, cw, overflow = kernel(ops_a, ops_b, *acc.packed, acc.width, acc.counter_mode == "xor")
    return _fill(object.__new__(AccumulatorState), acc.width, (sw, cw),
                 acc.overflow_count + overflow, acc.lsb_exp, acc.counter_mode)


def _operand_rows(acc: AccumulatorState, operand: MultiRowCode, rows: tuple) -> tuple:
    check_operand(operand, "accumulator operand", rows, acc.lsb_exp, max_width=acc.width)
    return operand.packed


def acc_step(acc: AccumulatorState, operand: MultiRowCode) -> AccumulatorState:
    """Absorb a one-row operand: one full-adder layer."""
    return _advanced(acc, _kernels.row_stream, _operand_rows(acc, operand, (1,)), None)


def acc_step2(acc: AccumulatorState, operand: MultiRowCode) -> AccumulatorState:
    """Absorb a two-row operand: two full-adder layers.

    Layer one folds the operand rows into the carry row; layer two folds
    that into the sum row.  The two weight-2**n carries land in the top
    slots and reach the counter on the next flush.
    """
    a, b = _operand_rows(acc, operand, (2,))
    return _advanced(acc, _kernels.row_stream, (a,), (b,))


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
    ops = _as_digit_matrix(ops, ("steps", acc.width), 2, "ops")
    if ops_b is not None:
        ops_b = _as_digit_matrix(ops_b, ops.shape, 2, "ops_b")
    return _advanced(acc, _kernels.acc_stream, ops, ops_b)


def acc_total(acc: AccumulatorState) -> Fraction:
    """Exact accumulated value including the overflow counter weight."""
    return scale_fraction((acc.overflow_count << acc.width) + sum(acc.packed), 2, acc.lsb_exp)
