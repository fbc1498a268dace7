"""Hot numeric kernels, one implementation each.

Binary rows are Python ints, bit j in column j (`MultiRowCode.packed`).
One carry-save step, `_carry_save`, folds three rows into a sum row and
a carry row over whole words.  The binary reduction stage is a
bit-sliced column counter built from it; the accumulator streams take
one or two per step, on rows packed by `codes.pack_rows`.

Radix > 2 digit matrices are int64 arrays of shape (rows, width), column
j holding the digits of weight radix**j, reduced by one numpy stage
body.  `MultiRowCode` rejects rows * (radix - 1) > 2**63 - 1, so every
column sum fits in int64, and so does every digit weight radix**h of a
stage, since radix**(m2 - 1) <= rows * (radix - 1).  The numpy body
takes bit matrices too and is the tests' reference for the packed stage.
Every stage reports a "reduce" event to an active `trace.record()`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import trace
from .codes import pack_rows, unpack_rows

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


def _report_stage(events: list, rows_in: int, col: np.ndarray, q: int, out: np.ndarray) -> None:
    """Append the "reduce" event of a stage with column sums `col` and
    output digits `out`, after checking the largest column sum against
    its bound rows_in * (q - 1)."""
    rows_out, width = out.shape
    top = int(col.max(initial=0))
    if top > rows_in * (q - 1):
        raise RuntimeError(f"column sum {top} above its bound {rows_in}*({q}-1)")
    events.append({"op": "reduce", "rows_in": rows_in, "rows_out": rows_out, "width": width,
                   "radix": q, "max_column_sum": top, "digits": out})


def _reduce_stage(digits: np.ndarray, q: int) -> np.ndarray:
    # reduce_to_two_digits loops over this body, not over the public
    # reduce_once_digits, so one reduction is one entry-point call
    col = digits.sum(axis=0, dtype=np.int64)
    # digit h of every column sum goes to row h, shifted h columns
    out = _skew(col // _digit_weights(digits.shape[0], q) % q)
    events = trace.sink()
    if events is not None:
        _report_stage(events, digits.shape[0], col, q, out.copy())
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


def _carry_save(x: int, y: int, z: int) -> tuple[int, int]:
    """Sum row and carry row of three bit rows, column by column.

    The carry row stays in the columns it came from; its bits weigh
    twice those of the sum row.
    """
    return x ^ y ^ z, (x & y) | (z & (x | y))


def _column_planes(rows: list) -> list:
    """Plane h holds bit h of every column sum of the bit rows.

    Carry-save steps fold the rows of each weight three at a time, and a
    half adder takes a last pair, until one row per weight is left.  Of
    m rows, floor(m / 2**k) have weight 2**k, so there are m.bit_length()
    planes: next_row_count(m, 2).
    """
    planes = []
    while rows:
        carries = []
        while len(rows) > 2:
            total, carry = _carry_save(rows.pop(), rows.pop(), rows.pop())
            rows.append(total)
            carries.append(carry)
        if len(rows) == 2:
            x, y = rows
            rows = [x ^ y]
            carries.append(x & y)
        planes.append(rows[0])
        rows = carries
    return planes


def _packed_stage(rows, width: int) -> tuple[list, int]:
    """Plane h of the column sums, shifted h columns, is output row h.

    Zero rows add nothing to a column sum, so only the others are
    counted, and zero rows pad their planes to m.bit_length().
    """
    out = [plane << h for h, plane in enumerate(_column_planes([row for row in rows if row]))]
    out += [0] * (len(rows).bit_length() - len(out))
    out_width = width + len(out) - 1
    events = trace.sink()
    if events is not None:
        col = unpack_rows(rows, width).sum(axis=0)  # digit matrices only under a recorder
        _report_stage(events, len(rows), col, 2, unpack_rows(out, out_width))
    return out, out_width


def reduce_once_packed(rows, width: int) -> tuple[list, int]:
    """One reduction stage of packed binary rows; returns the rows and their width."""
    return _packed_stage(rows, width)


def reduce_to_two_packed(rows, width: int) -> tuple[list, int, int]:
    """Reduce packed binary rows until two remain; returns the rows, their
    width and the stage count."""
    stages = 0
    while len(rows) > 2:
        rows, width = _packed_stage(rows, width)
        stages += 1
    return rows, width, stages


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


def _acc_stream(ops_a, ops_b, s: np.ndarray, c: np.ndarray, xor_variant: bool) -> int:
    """Carry-save steps over the (n+1)-slot rows s and c, in place.

    Every step first moves the top slots (weight 2**n) to the counter,
    by sum or, in the xor variant, by xor.  A one-row step is one
    carry-save step whose carry row moves up one column (a full adder);
    a two-row step folds (a, b, c) and then (s, p, g).  A one-row
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
            if ops_b is not None:
                a, g = _carry_save(a, b, cw)
                cw = g << 1
            sw, cw = _carry_save(sw, a, cw)
            cw <<= 1
    if ops_b is None and ops_a.shape[0]:
        overflow += cw >> n
        cw &= mask
    s[:], c[:] = unpack_rows((sw, cw), n + 1)
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
