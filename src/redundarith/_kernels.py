"""Hot numeric kernels, one implementation each.

Binary rows are Python ints, bit j in column j (`MultiRowCode.packed`).
One carry-save step, `_carry_save`, folds three rows into a sum row and
a carry row over whole words.  Every binary reduction, one stage or all
of them, runs in one loop, `reduce_packed`: a bit-sliced column counter
built from it.  An accumulator stream of T steps on an n-column grid
runs it in one of two bodies.  Up to 4n steps, the row loop takes one or
two carry-save steps per step, on operand rows packed by
`codes.pack_rows`.  Beyond that, the column body walks the n
columns once, each column's operand bits over all T steps packed into
one T-bit int by `codes.pack_columns` (eight steps of eight columns per
uint64 lane, so only the packed bytes are transposed): no carry moves
within a step, so a column's sum bits are a prefix xor over time, and
its carry-save majorities are the carries into the next column.  Each
column costs a few us whatever T is, which short streams would not win
back.  `acc_stream` picks the body and
takes and returns the sum and carry rows as packed ints; `acc_stream1`
and `acc_stream2` adapt it to int64 rows updated in place.

Radix > 2 digit matrices are int64 arrays of shape (rows, width), column
j holding the digits of weight radix**j, reduced by one numpy stage
body.  `MultiRowCode` rejects rows * (radix - 1) > 2**63 - 1, so every
column sum fits in int64, and so does every digit weight radix**h of a
stage, since radix**(m2 - 1) <= rows * (radix - 1).  The numpy body
takes bit matrices too and is the tests' reference for `reduce_packed`.
Every stage reports a "reduce" event, its output as a code, to an active
`trace.record()`.  The packed kernels run on ints alone, traced too: a
stage reads its largest column sum from its output planes.  numpy is
imported inside the functions that use it: the digit-matrix stage and
`acc_stream` on a bit matrix (via `codes.pack_rows` and
`codes.pack_columns`).  `popcount_batch` is no kernel but the
benchmark's row loop over `popcount_tree`'s walk.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

from . import trace
from .codes import MultiRowCode, check_int, made_code, pack_columns, pack_rows, unpack_rows
from .compressor import _tree_count

if TYPE_CHECKING:
    import numpy as np

# accumulator streams of up to this many steps per grid column run step
# by step; longer ones run column by column, whose fixed cost of a few us
# per column is more than such short streams save
_ROW_STEPS_PER_COLUMN = 4
# distinct shapes kept by each per-shape cache (digit weights, stage
# plans, MAC injection stages)
SHAPE_CACHE_SIZE = 1024


def next_row_count(m: int, q: int = 2) -> int:
    """Rows needed to re-express any column sum of an m-row radix-q code."""
    check_int("m", m, 1)
    check_int("q", q, 2)
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
    import numpy as np

    w = np.array([q**h for h in range(next_row_count(m, q))], dtype=np.int64)[:, None]
    w.flags.writeable = False
    return w


def _skew(block: np.ndarray) -> np.ndarray:
    """Row h of an (r, n) block shifted h columns, as an (r, n + r - 1) matrix.

    The block is written unshifted into rows of n + r cells; read back
    with rows of n + r - 1 cells, row h of the flat buffer starts h cells
    later, and the cells before it fall on the zero padding.
    """
    import numpy as np

    r, n = block.shape
    grid = np.zeros((r, n + r), dtype=np.int64)
    grid[:, :n] = block
    return grid.ravel()[: r * (n + r - 1)].reshape(r, n + r - 1)


def _report_stage(events: list, rows_in: int, top: int, q: int, out: MultiRowCode) -> None:
    """Append the "reduce" event of a stage whose largest column sum is
    `top` and whose output is the code `out`, after checking `top`
    against its bound rows_in * (q - 1)."""
    if top > rows_in * (q - 1):
        raise RuntimeError(f"column sum {top} above its bound {rows_in}*({q}-1)")
    events.append({"op": "reduce", "rows_in": rows_in, "rows_out": out.rows, "width": out.width,
                   "radix": q, "max_column_sum": top, "code": out})


def _reduce_stage(digits: np.ndarray, q: int) -> np.ndarray:
    # reduce_to_two_digits loops over this body, not over the public
    # reduce_once_digits, so one reduction is one traced entry-point call
    col = digits.sum(axis=0, dtype="int64")
    # digit h of every column sum goes to row h, shifted h columns
    out = _skew(col // _digit_weights(digits.shape[0], q) % q)
    events = trace.sink()
    if events is not None:
        code = made_code(pack_rows(out) if q == 2 else out, out.shape[1], q)
        _report_stage(events, digits.shape[0], int(col.max(initial=0)), q, code)
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
    t = x ^ y
    return t ^ z, (x & y) | (t & z)


def reduce_packed(rows, width: int, limit: int | None = None) -> tuple[list, int, int]:
    """Reduce packed binary rows until two remain, or for `limit` stages:
    (rows, width, stages).

    Row h of a stage's output is plane h, bit h of every column sum,
    shifted h columns.  Carry-save steps fold the nonzero rows of each
    weight into a running sum row two at a time, and only nonzero carries
    go on to the next weight; zero rows pad the planes to
    next_row_count(m, 2), which is m.bit_length().
    """
    events = trace.sink()
    stages = 0
    while len(rows) > 2 and stages != limit:
        out = []
        level = [row for row in rows if row]
        while level:
            if not len(level) & 1:
                level.append(0)  # the last pair meets a zero row: a half adder
            rest = iter(level)
            total = next(rest)
            carries = []
            for row in rest:
                total, carry = _carry_save(total, row, next(rest))
                if carry:
                    carries.append(carry)
            out.append(total << len(out))
            level = carries
        out += [0] * (len(rows).bit_length() - len(out))
        out_width = width + len(out) - 1
        if events is not None:
            # the largest column sum, bit-sliced: keep the columns set in each plane from the top
            top, cand = 0, -1
            for h in reversed(range(len(out))):
                hit = cand & out[h] >> h
                if hit:
                    top, cand = top | 1 << h, hit
            _report_stage(events, len(rows), top, 2, made_code(out, out_width))
        rows, width = out, out_width
        stages += 1
    return rows, width, stages


def popcount_batch(bits: np.ndarray) -> list:
    """Ones per row of a (batch, m) bit matrix, each counted by
    `compressor.popcount_tree`'s walk, node bounds checked.  Benchmark-only,
    like acc_stream1/acc_stream2: the library calls popcount_tree."""
    return [_tree_count(row) for row in bits.tolist()]


def row_stream(rows_a, rows_b, sw: int, cw: int, n: int, xor_variant: bool) -> tuple:
    """The stream step by step, on packed operand rows: (sw, cw, overflow).

    rows_b is None for one-row operands.  Every step first moves the top
    slots (weight 2**n) to the counter, by sum or, in the xor variant, by
    xor.  A one-row step is one carry-save step whose carry row moves up
    one column (a full adder); a two-row step folds (a, b, c) and then
    (s, p, g).  A one-row step's top carry goes to the counter at once,
    so it never stays in the top slot.
    """
    mask = (1 << n) - 1
    overflow = 0
    for a, b in zip(rows_a, rows_a if rows_b is None else rows_b):
        overflow += (sw ^ cw) >> n if xor_variant else (sw >> n) + (cw >> n)
        sw &= mask
        cw &= mask
        if rows_b is not None:
            a, g = _carry_save(a, b, cw)
            cw = g << 1
        sw, cw = _carry_save(sw, a, cw)
        cw <<= 1
    if rows_b is None and rows_a:
        overflow += cw >> n
        cw &= mask
    events = trace.sink()
    if events is not None:
        events.append({"op": "stream", "rows": 1 if rows_b is None else 2, "width": n,
                       "steps": len(rows_a), "body": "row", "overflow": overflow})
    return sw, cw, overflow


def _column_stream(ops_a, ops_b, sw: int, cw: int, n: int, xor_variant: bool) -> tuple:
    """The same stream column by column, over time: (sw, cw, overflow).

    Bit t of a column's series is that column at step t.  No carry moves
    within a step, so a column's sum bit at step t is its first bit xor
    the xor of the column's inputs over steps 0 .. t-1: a prefix xor over
    time, in ceil(log2 T) word-wide steps.  The carry-save majorities of
    column j are the carries into column j + 1 one step later; a two-row
    step's layer-1 majorities reach it in the same step.  Column n is the
    counter: at every step after the first it receives the top slots the
    previous step left, which are the majorities of column n - 1.
    """
    steps = ops_a.shape[0]
    ones = (1 << steps) - 1
    last = steps - 1
    cols_a = pack_columns(ops_a)
    cols_b = cols_a if ops_b is None else pack_columns(ops_b)
    overflow = (sw ^ cw) >> n if xor_variant else (sw >> n) + (cw >> n)
    s_end = c_end = 0
    m = g = 0  # the previous column's majority series (layer 2, layer 1)
    for j in range(n):
        c = (m << 1 & ones) | (cw >> j & 1)  # carries into column j
        a = cols_a[j]
        if ops_b is not None:
            a, g_j = _carry_save(a, cols_b[j], c)
            c, g = g, g_j
        x = a ^ c
        k = 1
        while k < steps:
            x ^= x << k
            k <<= 1
        s = (x << 1 & ones) ^ (ones if sw >> j & 1 else 0)
        s, m = _carry_save(s, a, c)
        s_end |= (s >> last & 1) << j
        c_end |= (m >> last & 1) << j + 1
    if ops_b is None:
        # the one-row flush: every top carry reaches the counter
        c_end &= (1 << n) - 1
        overflow += m.bit_count()
    else:
        early = ones >> 1  # top slots of steps 0 .. T-2, counted by the next step
        if xor_variant:
            overflow += ((g ^ m) & early).bit_count()
        else:
            overflow += (g & early).bit_count() + (m & early).bit_count()
        s_end |= (g >> last & 1) << n
    events = trace.sink()
    if events is not None:
        events.append({"op": "stream", "rows": 1 if ops_b is None else 2, "width": n,
                       "steps": steps, "body": "column", "overflow": overflow})
    return s_end, c_end, overflow


def acc_stream(ops_a, ops_b, sw: int, cw: int, n: int, xor_variant: bool) -> tuple:
    """Run a stream of (steps, n) operand bit matrices over the packed
    (n+1)-bit rows sw and cw: (sw, cw, overflow added).  ops_b is None
    for one-row operands.  Each body reports one "stream" event to an
    active `trace.record()`."""
    if ops_a.shape[0] <= _ROW_STEPS_PER_COLUMN * n:
        return row_stream(pack_rows(ops_a), None if ops_b is None else pack_rows(ops_b),
                          sw, cw, n, xor_variant)
    return _column_stream(ops_a, ops_b, sw, cw, n, xor_variant)


def _array_stream(ops_a, ops_b, s: np.ndarray, c: np.ndarray, xor_variant: bool) -> int:
    n = s.shape[0] - 1
    sw, cw, overflow = acc_stream(ops_a, ops_b, *pack_rows((s, c)), n, xor_variant)
    s[:], c[:] = unpack_rows((sw, cw), n + 1)
    return overflow


def acc_stream1(ops, s, c, xor_variant: bool) -> int:
    """acc_stream on int64 bit rows s and c of n+1 slots, updated in place;
    returns the overflow added.  The library runs acc_stream itself."""
    return _array_stream(ops, None, s, c, xor_variant)


def acc_stream2(ops_a, ops_b, s, c, xor_variant: bool) -> int:
    """The two-row operand (ops_a[i], ops_b[i]) per step; as acc_stream1."""
    return _array_stream(ops_a, ops_b, s, c, xor_variant)


def pp_unsigned_digits(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row j holds b[j] * a shifted j columns."""
    return _skew(b[:, None] * a)
