"""Hot numeric kernels, one implementation each.

Binary rows are Python ints, bit j in column j (`MultiRowCode.packed`).
The binary kernels have one adder: `_counter(n)` generates, once per
count n of rows, a straight-line bit-sliced column counter whose body
is the carry-save chain of every weight written out, three statements
per carry-save step, which folds three rows into a sum row and a carry
row over whole words.  It returns the planes of the column sums, plane
h shifted h columns.  Every binary reduction, one stage or all of them,
runs in `reduce_packed`, and each stage is one call to the counter of
its nonzero rows.  No counter takes more than _COUNTER_ROWS = 128 rows;
a taller stage is counted in blocks of 128 whose counts the full adder
`_counter(3)` sums plane by plane (`_count_blocks`).  The accumulator
streams take their carry-save step from the same full adder, whose
carry comes out shifted one column: a stream of T steps on an n-column
grid runs in one of two bodies.  Up to 4n steps, the row loop takes one
or two full-adder steps per step, on operand rows packed by
`codes.pack_rows`.  Beyond that, the column body walks the n columns
once, each column's operand bits over all T steps packed into one T-bit
int by `codes.pack_columns` (eight steps of eight columns per uint64
lane, so only the packed bytes are transposed): no carry moves within a
step, so a column's sum bits are a prefix xor over time, and its
majorities, shifted one step, are the carries into the next column.
Each column costs a few us whatever T is, which short streams would not
win back.  `acc_stream` picks the body and takes and returns
the sum and carry rows as packed ints; `acc_stream1` and `acc_stream2`
adapt it to int64 rows updated in place.

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
from itertools import zip_longest
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


# the most rows one generated counter takes, the models' domain
# (popcount_tree takes m in 1..128), so at most 129 counters are ever
# compiled; a taller level is counted in blocks of this many rows
_COUNTER_ROWS = 128


@lru_cache(maxsize=None)
def _counter(n: int):
    """The column counter of n rows as one straight-line function:
    counter(r0, ..., r{n-1}) -> tuple of planes, plane h shifted h columns.

    Its source is built from the int n alone.  Each weight's rows go
    through a chain of carry-save steps, written out, ending in a half
    adder where the level meets its zero pad row, and the carries of one
    weight are the next weight's rows.  `_counter(3)` is the full adder,
    (x ^ y ^ z, maj(x, y, z) << 1), the kernels' one carry-save step.
    """
    if not 0 <= n <= _COUNTER_ROWS:
        raise ValueError(f"a counter takes 0..{_COUNTER_ROWS} rows, not {n}")
    level = [f"r{i}" for i in range(n)]
    args, lines, planes = ", ".join(level), [], []
    while level:
        x, rest, carries = level[0], level[1:], []
        for i in range(0, len(rest), 2):
            c = f"c{len(planes)}_{i // 2}"
            if i + 1 < len(rest):
                y, z = rest[i], rest[i + 1]
                lines.append(f"t = {x} ^ {y}; {c} = {x} & {y} | t & {z}; {x} = t ^ {z}")
            else:
                lines.append(f"{c} = {x} & {rest[i]}; {x} ^= {rest[i]}")
            carries.append(c)
        planes.append(f"{x} << {len(planes)}" if planes else x)
        level = carries
    lines.append(f"return ({''.join(p + ', ' for p in planes)})")
    namespace = {}
    exec(compile(f"def counter({args}):\n    " + "\n    ".join(lines), f"<counter {n}>", "exec"),
         namespace)
    return namespace["counter"]


def _count_blocks(level: list) -> list:
    """The counter's planes for more than _COUNTER_ROWS nonzero rows: the
    counts of blocks of _COUNTER_ROWS rows, summed plane by plane.  Plane
    h of a count is shifted h columns, so the full adder of two planes h
    and the carry into weight h gives the sum plane h and, shifted h + 1,
    the carry into weight h + 1."""
    add, out = _counter(3), []
    for i in range(0, len(level), _COUNTER_ROWS):
        block = level[i:i + _COUNTER_ROWS]
        planes, carry = [], 0
        for x, y in zip_longest(out, _counter(len(block))(*block), fillvalue=0):
            s, carry = add(x, y, carry)
            planes.append(s)
        out = planes + [carry] if carry else planes
    return out


def reduce_packed(rows, width: int, limit: int | None = None) -> tuple:
    """Reduce packed binary rows until two remain, or for `limit` stages:
    (rows, width, stages).

    Row h of a stage's output is plane h, bit h of every column sum,
    shifted h columns.  A stage is one call to the generated counter of
    its nonzero rows (`_count_blocks` past _COUNTER_ROWS); zero rows pad
    the planes to next_row_count(m, 2), which is m.bit_length().
    """
    events = trace.sink()
    stages = 0
    while len(rows) > 2 and stages != limit:
        level = [row for row in rows if row]
        out = _counter(len(level))(*level) if len(level) <= _COUNTER_ROWS else _count_blocks(level)
        out += (0,) * (len(rows).bit_length() - len(out))
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
    xor.  A one-row step is one call to the full adder `_counter(3)`,
    whose carry row comes out one column up; a two-row step folds
    (a, b, c) and then (s, p, g).  A one-row step's top carry goes to the
    counter at once, so it never stays in the top slot.
    """
    add = _counter(3)
    mask = (1 << n) - 1
    overflow = 0
    for a, b in zip(rows_a, rows_a if rows_b is None else rows_b):
        overflow += (sw ^ cw) >> n if xor_variant else (sw >> n) + (cw >> n)
        sw &= mask
        cw &= mask
        if rows_b is not None:
            a, cw = add(a, b, cw)
        sw, cw = add(sw, a, cw)
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
    time, in ceil(log2 T) word-wide steps.  The full adder `_counter(3)`
    returns column j's majorities shifted one bit, one step later: the
    carries into column j + 1.  A two-row step's layer-1 majorities reach
    it in the same step, shifted back.  Column n is the
    counter: at every step after the first it receives the top slots the
    previous step left, which are the majorities of column n - 1.
    """
    add = _counter(3)
    steps = ops_a.shape[0]
    ones = (1 << steps) - 1
    last = steps - 1
    cols_a = pack_columns(ops_a)
    cols_b = cols_a if ops_b is None else pack_columns(ops_b)
    overflow = (sw ^ cw) >> n if xor_variant else (sw >> n) + (cw >> n)
    s_end = c_end = 0
    m = g = 0  # the previous column's majority series (layer 2, layer 1), shifted one step
    for j in range(n):
        c = (m & ones) | (cw >> j & 1)  # carries into column j
        a = cols_a[j]
        if ops_b is not None:
            a, g_j = add(a, cols_b[j], c)
            c, g = g >> 1, g_j
        x = a ^ c
        k = 1
        while k < steps:
            x ^= x << k
            k <<= 1
        s = (x << 1 & ones) ^ (ones if sw >> j & 1 else 0)
        s, m = add(s, a, c)
        s_end |= (s >> last & 1) << j
        c_end |= (m >> steps & 1) << j + 1
    if ops_b is None:
        # the one-row flush: every top carry reaches the counter
        c_end &= (1 << n) - 1
        overflow += m.bit_count()
    else:
        # bit t of a shifted series is the top slot step t reads; bit 0 is 0
        # and bit T, the last step's, stays in the top slot
        if xor_variant:
            overflow += ((g ^ m) & ones).bit_count()
        else:
            overflow += (g & ones).bit_count() + (m & ones).bit_count()
        s_end |= (g >> steps & 1) << n
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
