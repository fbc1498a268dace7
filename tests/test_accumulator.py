"""Serial accumulator: losslessness, overflow counting, stream kernels."""

from fractions import Fraction

import numpy as np
import pytest

from redundarith import _kernels, trace
from redundarith.accumulator import (
    AccumulatorState,
    acc_new,
    acc_run,
    acc_step,
    acc_step2,
    acc_total,
)
from redundarith.codes import MultiRowCode, make_from_value, pack_rows
from redundarith.oracle import exact_scaled_value


def _operand(bits):
    arr = np.array([bits], dtype=np.int64)
    return MultiRowCode(1, arr.shape[1], 2, 0, arr)


def _operand2(bits_a, bits_b):
    arr = np.array([bits_a, bits_b], dtype=np.int64)
    return MultiRowCode(2, arr.shape[1], 2, 0, arr)


def test_single_row_steps_track_running_sum(rng):
    width = 6
    acc = acc_new(width)
    running = 0
    for _ in range(200):
        bits = rng.integers(0, 2, size=width, dtype=np.int64)
        running += int(sum(int(b) << i for i, b in enumerate(bits)))
        acc = acc_step(acc, _operand(bits.tolist()))
        assert acc_total(acc) == running


def test_two_row_steps_track_running_sum(rng):
    width = 6
    acc = acc_new(width)
    running = 0
    for _ in range(200):
        a = rng.integers(0, 2, size=width, dtype=np.int64)
        b = rng.integers(0, 2, size=width, dtype=np.int64)
        running += int(sum(int(x) << i for i, x in enumerate(a)))
        running += int(sum(int(x) << i for i, x in enumerate(b)))
        acc = acc_step2(acc, _operand2(a.tolist(), b.tolist()))
        assert acc_total(acc) == running


def test_overflow_counter_engages():
    width = 4
    acc = acc_new(width)
    op = _operand([1, 1, 1, 1])  # value 15
    for _ in range(20):
        acc = acc_step(acc, op)
    assert acc_total(acc) == 20 * 15
    assert acc.overflow_count > 0


def test_stream_kernel_equals_step_loop(rng):
    width = 9
    ops = rng.integers(0, 2, size=(500, width), dtype=np.int64)
    acc_a = acc_run(acc_new(width), ops)
    acc_b = acc_new(width)
    for row in ops:
        acc_b = acc_step(acc_b, _operand(row.tolist()))
    assert acc_total(acc_a) == acc_total(acc_b)
    assert np.array_equal(acc_a.sum_row, acc_b.sum_row)
    assert np.array_equal(acc_a.carry_row, acc_b.carry_row)
    assert acc_a.overflow_count == acc_b.overflow_count


def test_stream_kernel_two_rows_equals_step_loop(rng):
    width = 7
    ops_a = rng.integers(0, 2, size=(300, width), dtype=np.int64)
    ops_b = rng.integers(0, 2, size=(300, width), dtype=np.int64)
    fast = acc_run(acc_new(width), ops_a, ops_b)
    slow = acc_new(width)
    for ra, rb in zip(ops_a, ops_b):
        slow = acc_step2(slow, _operand2(ra.tolist(), rb.tolist()))
    assert acc_total(fast) == acc_total(slow)
    assert fast.overflow_count == slow.overflow_count


def test_xor_counter_mode_loses_on_double_top_carries():
    # single-row steps bank carries directly, so xor and exact agree
    width = 2
    for mode in ("exact", "xor"):
        acc = acc_new(width, counter_mode=mode)
        for _ in range(8):
            acc = acc_step(acc, _operand([1, 1]))
        assert acc_total(acc) == 8 * 3
    # 2-row steps can set both top slots in one step; banking their xor
    # instead of their sum then drops 2 units of weight 2**width
    rng = np.random.default_rng(0)
    exact = acc_new(width, counter_mode="exact")
    lossy = acc_new(width, counter_mode="xor")
    want = 0
    for _ in range(64):
        a = rng.integers(0, 2, size=width, dtype=np.int64)
        b = rng.integers(0, 2, size=width, dtype=np.int64)
        want += int(sum(int(x) << i for i, x in enumerate(a)))
        want += int(sum(int(x) << i for i, x in enumerate(b)))
        step = _operand2(a.tolist(), b.tolist())
        exact = acc_step2(exact, step)
        lossy = acc_step2(lossy, step)
    assert acc_total(exact) == want
    loss = acc_total(exact) - acc_total(lossy)
    assert loss > 0
    assert loss % (2 << width) == 0


def test_lsb_exp_scales_totals():
    acc = acc_new(3, lsb_exp=-3)
    op = MultiRowCode(1, 3, 2, -3, np.array([[1, 0, 1]], dtype=np.int64))
    acc = acc_step(acc, op)
    assert acc_total(acc) == Fraction(5, 8)


def test_operand_validation():
    acc = acc_new(4)
    cases = (
        (lambda: acc_step(acc, make_from_value(1, 1, 5, 2)), r"^accumulator operand width must be in 0\.\.4$"),
        (lambda: acc_step(acc, MultiRowCode(1, 4, 2, -1, np.zeros((1, 4), dtype=np.int64))),
         "^accumulator operand lsb_exp must be 0$"),
        (lambda: acc_step(acc, make_from_value(1, 2, 4, 2)), "^accumulator operand must be a 1-row code$"),
        (lambda: acc_step2(acc, make_from_value(1, 1, 4, 2)), "^accumulator operand must be a 2-row code$"),
        (lambda: acc_step(acc, MultiRowCode(1, 4, 3, 0, np.zeros((1, 4), dtype=np.int64))),
         "^accumulator operand must be binary$"),
    )
    for call, message in cases:
        with pytest.raises(ValueError, match=message):
            call()
    with pytest.raises(ValueError, match="^width must be >= 1$"):
        acc_new(0)
    with pytest.raises(ValueError, match="^counter_mode must be 'exact' or 'xor'$"):
        acc_new(4, counter_mode="bogus")


def test_stream_rejects_non_bit_operands():
    acc = acc_new(4)
    zeros = np.zeros((3, 4), dtype=np.int64)
    for bad_value in (2, -1, 0.5, 1 + 0j):
        bad = zeros.astype(type(bad_value))
        bad[1, 2] = bad_value
        with pytest.raises(ValueError, match="ops entries must be 0 or 1"):
            acc_run(acc, bad)
        with pytest.raises(ValueError, match="ops_b entries must be 0 or 1"):
            acc_run(acc, zeros, bad)


def test_state_rejects_non_bit_rows():
    # a fraction must not be truncated to a bit on the way into the ints
    for name in ("sum_row", "carry_row"):
        for bad_value in (2, 0.5):
            rows = {"sum_row": np.zeros(5), "carry_row": np.zeros(5)}
            rows[name][4] = bad_value
            with pytest.raises(ValueError, match=f"{name} entries must be 0 or 1"):
                AccumulatorState(width=4, overflow_count=0, **rows)
    ones = AccumulatorState(4, np.ones(5), [1, 0, 0, 0, 0], 0)
    assert ones.packed == (0b11111, 1)


@pytest.mark.parametrize(
    "make,match",
    [
        (lambda z: AccumulatorState(4, z, z, -3), "overflow_count must be >= 0"),
        (lambda z: AccumulatorState(4, z, z, 1.5), "overflow_count must be an int"),
        (lambda z: AccumulatorState(4, z, z, True), "overflow_count must be an int"),
        (lambda z: AccumulatorState(True, z[:2], z[:2], 0), "width must be an int"),
        (lambda z: AccumulatorState(4, z, z, 0, lsb_exp=0.5), "lsb_exp must be an int"),
        (lambda z: acc_new(True), "width must be an int"),
        (lambda z: acc_new(4.0), "width must be an int"),
        (lambda z: acc_new(4, lsb_exp=0.5), "lsb_exp must be an int"),
        (lambda z: acc_new(4, lsb_exp=False), "lsb_exp must be an int"),
    ],
)
def test_state_rejects_non_int_fields(make, match):
    # each of these once gave a wrong or inexact total, or failed only in acc_total
    with pytest.raises(ValueError, match=match):
        make(np.zeros(5, dtype=np.int64))


def test_state_is_immutable():
    rows = np.array([1, 0, 1, 0, 0], dtype=np.int64)
    acc = AccumulatorState(4, rows, rows, 2)
    rows[0] = 0  # the state keeps its own copy
    assert acc.packed == (5, 5)
    for name in ("width", "packed", "overflow_count", "lsb_exp", "counter_mode", "sum_row"):
        with pytest.raises(AttributeError):
            setattr(acc, name, getattr(acc, name))
    for row in (acc.sum_row, acc.carry_row):
        assert not row.flags.writeable
        with pytest.raises(ValueError):
            row[0] = 0
    assert acc_total(acc) == 2 * 16 + 10
    assert repr(acc) == ("AccumulatorState(width=4, packed=(5, 5), overflow_count=2, lsb_exp=0, "
                         "counter_mode='exact')")


def _reference_stream(ops_a, ops_b, s, c, xor_variant):
    """Literal per-step carry-save layers over int64 column vectors."""
    s = s.copy()
    c = c.copy()
    n = s.shape[0] - 1
    overflow = 0
    for i in range(ops_a.shape[0]):
        overflow += int(s[n] ^ c[n]) if xor_variant else int(s[n] + c[n])
        s[n] = 0
        c[n] = 0
        if ops_b is None:
            t = ops_a[i] + s[:n] + c[:n]
            s[:n] = t & 1
            carry = t >> 1
            c[1:n] = carry[: n - 1]
            c[0] = 0
            overflow += int(carry[n - 1])
        else:
            alpha = ops_a[i] + ops_b[i] + c[:n]
            g = np.zeros(n + 1, dtype=np.int64)
            g[1:] = alpha >> 1
            beta = (alpha & 1) + g[:n] + s[:n]
            s[:n] = beta & 1
            s[n] = g[n]
            c[1:] = beta >> 1
            c[0] = 0
    return s, c, overflow


def _assert_same_state(got, s, c, overflow):
    assert np.array_equal(got.sum_row, s)
    assert np.array_equal(got.carry_row, c)
    assert got.overflow_count == overflow
    want = (overflow << (s.shape[0] - 1)) + exact_scaled_value([s.tolist(), c.tolist()], 2)
    assert acc_total(got) == want


@pytest.mark.parametrize("width", [1, 2, 5, 8, 9, 16, 41, 63, 64, 65, 130])
def test_stream_kernel_matches_per_step_reference(width):
    rng = np.random.default_rng(width)
    # streams of up to 4 * width steps run row by row, longer ones column
    # by column; from 256 steps on `codes.pack_columns` reads eight steps of
    # eight columns per uint64 lane, and a matrix that is not contiguous
    # uint8, or fills no whole lane (300, 1003, 1001 steps; widths off a
    # multiple of 8), is first padded
    cases = [(steps, np.int64) for steps in (0, 1, 2, 4 * width, 4 * width + 1, 4 * width + 3, 300)]
    cases += [(1000, np.uint8), (1003, bool), (1001, np.int64)]
    for steps, dtype in cases:
        for rows in (1, 2):
            for mode in ("exact", "xor"):
                s0 = rng.integers(0, 2, size=width + 1, dtype=np.int64)
                c0 = rng.integers(0, 2, size=width + 1, dtype=np.int64)
                s0[width] = c0[width] = 1  # pending top carries
                start = AccumulatorState(width, s0, c0, int(rng.integers(0, 9)), counter_mode=mode)
                _assert_same_state(start, s0, c0, start.overflow_count)
                ops_a = rng.integers(0, 2, size=(steps, width)).astype(dtype)
                ops_b = rng.integers(0, 2, size=(steps, width)).astype(dtype) if rows == 2 else None
                if steps:
                    ops_a[-1] = 1  # the last step sets every column's top bit
                s, c, delta = _reference_stream(ops_a.astype(np.int64),
                                                None if ops_b is None else ops_b.astype(np.int64),
                                                s0, c0, mode == "xor")
                want = (s, c, start.overflow_count + delta)
                with trace.record() as events:
                    got = acc_run(start, ops_a, ops_b)
                _assert_same_state(got, *want)
                if steps > 4 * width:
                    assert [e["body"] for e in events] == ["column"]
                if steps > 300:
                    continue  # the step-by-step calls below are the slow part
                stepped = start
                for i in range(steps):
                    if rows == 1:
                        stepped = acc_step(stepped, MultiRowCode(1, width, 2, 0, ops_a[i : i + 1]))
                    else:
                        pair = np.stack([ops_a[i], ops_b[i]])
                        stepped = acc_step2(stepped, MultiRowCode(2, width, 2, 0, pair))
                _assert_same_state(stepped, *want)
                if steps == 0:
                    _assert_same_state(acc_run(start, ops_a, ops_b), s0, c0, start.overflow_count)


@pytest.mark.parametrize("rows", [1, 2])
@pytest.mark.parametrize("mode", ["exact", "xor"])
def test_split_stream_matches_whole_stream(rows, mode):
    """A long stream run whole equals the same stream cut into pieces of
    0 to 12 * width steps, which mix the row and column bodies, and equals
    single steps followed by the rest in one run: whichever body leaves
    the top slots, the next one takes them over."""
    rng = np.random.default_rng(rows * 2 + (mode == "xor"))
    steps = 20_000
    for width in (1, 5, 16, 64):
        s0 = rng.integers(0, 2, size=width + 1, dtype=np.int64)
        c0 = rng.integers(0, 2, size=width + 1, dtype=np.int64)
        s0[width] = c0[width] = 1  # pending top carries
        start = AccumulatorState(width, s0, c0, 3, counter_mode=mode)
        ops_a = rng.integers(0, 2, size=(steps, width), dtype=np.uint8)
        ops_b = rng.integers(0, 2, size=(steps, width), dtype=np.uint8) if rows == 2 else None
        whole = acc_run(start, ops_a, ops_b)
        pieces = start
        at = 0
        while at < steps:
            end = min(steps, at + int(rng.integers(0, 12 * width + 1)))
            pieces = acc_run(pieces, ops_a[at:end], None if ops_b is None else ops_b[at:end])
            at = end
        stepped = start
        for i in range(3):
            if rows == 1:
                stepped = acc_step(stepped, MultiRowCode(1, width, 2, 0, ops_a[i : i + 1]))
            else:
                pair = np.stack([ops_a[i], ops_b[i]])
                stepped = acc_step2(stepped, MultiRowCode(2, width, 2, 0, pair))
        stepped = acc_run(stepped, ops_a[3:], None if ops_b is None else ops_b[3:])
        for got in (pieces, stepped):
            _assert_same_state(got, whole.sum_row, whole.carry_row, whole.overflow_count)


@pytest.mark.parametrize("width", [1, 8, 64, 65])
@pytest.mark.parametrize("mode", ["exact", "xor"])
def test_mixed_calls_match_reference(width, mode):
    """A random sequence of acc_step, acc_step2 and acc_run calls, the runs
    on both sides of the 4n-step crossover, leaves the reference state."""
    rng = np.random.default_rng(width * 2 + (mode == "xor"))
    acc = acc_new(width, counter_mode=mode)
    s = np.zeros(width + 1, dtype=np.int64)
    c = s.copy()
    overflow = 0
    for _ in range(30):
        kind = int(rng.integers(0, 3))
        if kind < 2:
            rows = kind + 1
            w = int(rng.integers(0, width + 1))  # operands may be narrower than the grid
            bits = rng.integers(0, 2, size=(rows, w), dtype=np.int64)
            ops = np.zeros((rows, 1, width), dtype=np.int64)
            ops[:, 0, :w] = bits
            step = acc_step if rows == 1 else acc_step2
            acc = step(acc, MultiRowCode(rows, w, 2, 0, bits))
            ops_a, ops_b = ops[0], ops[1] if rows == 2 else None
        else:
            steps = int(rng.choice([rng.integers(0, 4 * width), 4 * width, 4 * width + 1,
                                    rng.integers(4 * width + 2, 8 * width + 3)]))
            ops_a = rng.integers(0, 2, size=(steps, width), dtype=np.uint8)
            ops_b = rng.integers(0, 2, size=(steps, width), dtype=np.uint8) if rng.integers(0, 2) else None
            acc = acc_run(acc, ops_a, ops_b)
        s, c, delta = _reference_stream(ops_a.astype(np.int64), None if ops_b is None else ops_b.astype(np.int64),
                                        s, c, mode == "xor")
        overflow += delta
        _assert_same_state(acc, s, c, overflow)


@pytest.mark.parametrize("rows", [1, 2])
def test_array_adapters_equal_packed_entry_point(rows):
    rng = np.random.default_rng(rows)
    for width in (1, 16, 64, 65):
        for steps in (0, 3, 4 * width, 4 * width + 1, 1000):
            for xor in (False, True):
                s = rng.integers(0, 2, size=width + 1, dtype=np.int64)
                c = rng.integers(0, 2, size=width + 1, dtype=np.int64)
                ops_a = rng.integers(0, 2, size=(steps, width), dtype=np.int64)
                ops_b = rng.integers(0, 2, size=(steps, width), dtype=np.int64) if rows == 2 else None
                sw, cw, want = _kernels.acc_stream(ops_a, ops_b, *pack_rows((s, c)), width, xor)
                if rows == 1:
                    got = _kernels.acc_stream1(ops_a, s, c, xor)
                else:
                    got = _kernels.acc_stream2(ops_a, ops_b, s, c, xor)
                assert got == want
                assert pack_rows((s, c)) == [sw, cw]


def test_each_call_reports_one_stream_event():
    width = 8
    ones = np.ones((4 * width + 1, width), dtype=np.uint8)
    with trace.record() as events:
        acc = acc_step(acc_new(width), make_from_value(50, 1, 6))
        acc = acc_step2(acc, make_from_value(100, 2, 8))
        acc = acc_run(acc, ones)
        acc = acc_run(acc, ones[:3], ones[:3])
    assert [(e["op"], e["rows"], e["width"], e["steps"], e["body"]) for e in events] == [
        ("stream", 1, width, 1, "row"),
        ("stream", 2, width, 1, "row"),
        ("stream", 1, width, 4 * width + 1, "column"),
        ("stream", 2, width, 3, "row"),
    ]
    assert sum(e["overflow"] for e in events) == acc.overflow_count > 0


def test_untraced_stream_costs_one_sink_call(monkeypatch):
    calls = []
    sink = trace.sink
    monkeypatch.setattr(trace, "sink", lambda: calls.append(1) or sink())
    acc = acc_step(acc_new(4), make_from_value(9, 1, 4))
    acc = acc_step2(acc, make_from_value(9, 2, 4))
    acc_run(acc, np.ones((100, 4), dtype=np.uint8))  # the column body
    assert len(calls) == 3
