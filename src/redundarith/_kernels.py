"""Hot numeric kernels, one numpy implementation each.

Digit matrices are int64 arrays of shape (rows, width) with column j
holding the digits of weight radix**j.  `MultiRowCode` rejects any code
with rows * (radix - 1) > 2**63 - 1, so every column sum fits in int64,
and so does every digit weight radix**h of a stage, since
radix**(m2 - 1) <= rows * (radix - 1).  Plain int64 arithmetic is
therefore exact in the reduction kernels.  The digit weights of a stage
depend only on (rows, radix) and are cached per shape.
Every stage reports a "reduce" event to an active `trace.record()`.

The accumulator streams work on bit rows packed into Python ints (bit j
is column j, by `codes.pack_rows` and `codes.unpack_row`), so one
carry-save step is a handful of whole-word operations at any width.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import trace
from .codes import pack_rows, unpack_row

# operand rows packed into ints at a time by the accumulator streams
_CHUNK = 1 << 12
# distinct shapes kept by each per-shape cache (digit weights, stage
# plans, MAC injection stages)
SHAPE_CACHE_SIZE = 1024


def next_row_count(m: int, q: int = 2) -> int:
    """Rows needed to re-express any column sum of an m-row radix-q code."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if q < 2:
        raise ValueError("q must be >= 2")
    bound = 1 + m * (q - 1)  # column sums range over 0 .. m*(q-1)
    t = 0
    p = 1
    while p < bound:
        p *= q
        t += 1
    return max(t, 1)


@lru_cache(maxsize=SHAPE_CACHE_SIZE)
def _digit_weights(m: int, q: int) -> np.ndarray:
    """Column vector q**h, h < next_row_count(m, q): one row per output digit."""
    w = np.array([q**h for h in range(next_row_count(m, q))], dtype=np.int64)[:, None]
    w.flags.writeable = False
    return w


def _skew(block: np.ndarray) -> np.ndarray:
    """Row h of an (r, n) block shifted h columns, as an (r, n + r - 1) matrix.

    The block is written unshifted into rows of n + r cells; read back
    with rows of n + r - 1 cells, row h of the flat buffer starts h cells
    later, and the cells before it fall on the zero padding.
    """
    r, n = block.shape
    grid = np.zeros((r, n + r), dtype=np.int64)
    grid[:, :n] = block
    return grid.ravel()[: r * (n + r - 1)].reshape(r, n + r - 1)


def _reduce_stage(digits: np.ndarray, q: int) -> np.ndarray:
    # reduce_to_two_digits loops over this body, not over the public
    # reduce_once_digits, so one reduction is one entry-point call
    col = digits.sum(axis=0, dtype=np.int64)
    # digit h of every column sum goes to row h, shifted h columns
    out = _skew(col // _digit_weights(digits.shape[0], q) % q)
    events = trace.sink()
    if events is not None:
        (rows_in, _), (rows_out, width) = digits.shape, out.shape
        top = int(col.max(initial=0))
        if top > rows_in * (q - 1):
            raise RuntimeError(f"column sum {top} above its bound {rows_in}*({q}-1)")
        events.append({"op": "reduce", "rows_in": rows_in, "rows_out": rows_out, "width": width,
                       "radix": q, "max_column_sum": top, "digits": out.copy()})
    return out


def reduce_once_digits(digits: np.ndarray, q: int) -> np.ndarray:
    """One reduction stage: column sums re-spread in radix q along diagonals."""
    return _reduce_stage(digits, q)


def reduce_to_two_digits(digits: np.ndarray, q: int) -> tuple[np.ndarray, int]:
    """Reduce until two rows remain; returns the digits and the stage count."""
    stages = 0
    while digits.shape[0] > 2:
        digits = _reduce_stage(digits, q)
        stages += 1
    return digits, stages


def popcount_batch(bits: np.ndarray) -> np.ndarray:
    """Ones per row of a (batch, m) bit matrix, summed as a pairwise tree.

    A partial count above 2**t at tree level t means a non-bit input.
    """
    b, m = bits.shape
    depth = (m - 1).bit_length()  # ceil(log2 m)
    counts = np.zeros((b, 1 << depth), dtype=np.int64)
    counts[:, :m] = bits
    for level in range(1, depth + 1):
        counts = counts[:, 0::2] + counts[:, 1::2]
        if counts.max(initial=0) > (1 << level):
            raise ValueError(f"partial count above 2**{level} at level {level}: inputs must be bits")
    return counts[:, 0]


def _full_adder(x: int, y: int, z: int) -> tuple[int, int]:
    """Sum word and carry word (moved up one column) of three bit rows."""
    return x ^ y ^ z, ((x & y) | (z & (x | y))) << 1


def _acc_stream(ops_a, ops_b, s: np.ndarray, c: np.ndarray, xor_variant: bool) -> int:
    """Carry-save steps over the (n+1)-slot rows s and c, in place.

    Every step first moves the top slots (weight 2**n) to the counter,
    by sum or, in the xor variant, by xor.  A one-row step is one full
    adder; a two-row step folds (a, b, c) and then (s, p, g).  A one-row
    step's top carry goes to the counter at once, so it never stays in
    the top slot.  Returns the overflow count added.
    """
    n = s.shape[0] - 1
    mask = (1 << n) - 1
    sw, cw = pack_rows((s, c))
    overflow = 0
    for start in range(0, ops_a.shape[0], _CHUNK):
        rows_a = pack_rows(ops_a[start : start + _CHUNK])
        rows_b = rows_a if ops_b is None else pack_rows(ops_b[start : start + _CHUNK])
        for a, b in zip(rows_a, rows_b):
            overflow += (sw ^ cw) >> n if xor_variant else (sw >> n) + (cw >> n)
            sw &= mask
            cw &= mask
            if ops_b is None:
                sw, cw = _full_adder(sw, a, cw)
            else:
                sw, cw = _full_adder(sw, *_full_adder(a, b, cw))
    if ops_b is None and ops_a.shape[0]:
        overflow += cw >> n
        cw &= mask
    s[:] = unpack_row(sw, s.shape[0])
    c[:] = unpack_row(cw, c.shape[0])
    return overflow


def acc_stream1(ops, s, c, xor_variant: bool) -> int:
    """Absorb one operand row per step; mutates s and c, returns the overflow added."""
    return _acc_stream(ops, None, s, c, xor_variant)


def acc_stream2(ops_a, ops_b, s, c, xor_variant: bool) -> int:
    """Absorb the two-row operand (ops_a[i], ops_b[i]) per step; as acc_stream1."""
    return _acc_stream(ops_a, ops_b, s, c, xor_variant)


def pp_unsigned_digits(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row j holds b[j] * a shifted j columns."""
    return _skew(b[:, None] * a)
