"""Row reduction: stage plans, value preservation, carry-free addition."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redundarith import _kernels, codes, trace
from redundarith.codes import (
    MultiRowCode,
    make_from_value,
    pack_rows,
    quad_from_value,
    quad_value,
    scaled_value,
    unpack_rows,
    value_of,
)
from redundarith.map_unit import ADDITIVE_OPERANDS, MapConfig, map_accumulate, map_eval
from redundarith.multiplier import fused_mac, mac_injection_stage, mul_delay, multiply
from redundarith.reducer import (
    StagePlan,
    add_two_row,
    next_row_count,
    quad_add,
    quad_sub,
    reduce_delay,
    reduce_once,
    reduce_to_two,
    stage_plan,
    trapezoid_geometry,
)

from conftest import random_code


def test_next_row_count_binary():
    # m ones per column need ceil(log2(m+1)) binary digits
    assert next_row_count(3, 2) == 2
    assert next_row_count(4, 2) == 3
    assert next_row_count(7, 2) == 3
    assert next_row_count(8, 2) == 4
    assert next_row_count(127, 2) == 7


def test_next_row_count_high_radix():
    # column sum of m digits <= m*(q-1); count its radix-q digits
    assert next_row_count(10, 10) == 2
    assert next_row_count(12, 10) == 3
    assert next_row_count(3, 3) == 2


def test_stage_plan_bands():
    assert stage_plan(3).row_counts == (3, 2)
    assert stage_plan(7).row_counts == (7, 3, 2)
    assert stage_plan(15).row_counts == (15, 4, 3, 2)
    assert stage_plan(31).row_counts == (31, 5, 3, 2)
    assert stage_plan(63).row_counts == (63, 6, 3, 2)
    assert stage_plan(127).row_counts == (127, 7, 3, 2)


def test_stage_plan_keeps_its_own_counts():
    # a plan is checked once, so a later change to the caller's list must
    # not reach it
    counts = [5, 3, 2]
    plan = StagePlan(counts, 2)
    counts.insert(0, 40)
    assert plan.row_counts == (5, 3, 2) and plan.stages == 2
    assert reduce_delay(plan) == reduce_delay(stage_plan(5))
    with pytest.raises(ValueError, match="^inconsistent plan step 40 -> 5$"):
        StagePlan(counts, 2)


def test_stage_plan_validates_chain():
    with pytest.raises(ValueError):
        StagePlan(radix=2, row_counts=(63, 5, 3, 2))
    with pytest.raises(ValueError):
        StagePlan(radix=2, row_counts=(7, 3))
    # a row count must be a plain int wherever it enters; 5.0 must not
    # be served the cached plan of 5
    assert stage_plan(5, 2).row_counts == (5, 3, 2)
    assert mac_injection_stage(16, 2) == (1, 3)
    for call in (lambda: stage_plan(5.0), lambda: stage_plan(5.0, 2), lambda: stage_plan(2.0),
                 lambda: StagePlan((5.0, 3, 2), 2), lambda: next_row_count(9.5),
                 lambda: trapezoid_geometry(2.5, 2), lambda: mac_injection_stage(8.5, 2),
                 lambda: mac_injection_stage(16.0, 2), lambda: mul_delay(8.5)):
        with pytest.raises(ValueError, match="must be an int"):
            call()
    # and in range
    cases = ((lambda: stage_plan(1), "^m must be >= 2$"),
             (lambda: trapezoid_geometry(0, 2), "^n1 must be >= 1$"),
             (lambda: trapezoid_geometry(2, 0), "^m2 must be >= 1$"),
             (lambda: next_row_count(0), "^m must be >= 1$"),
             (lambda: next_row_count(3, 1), "^q must be >= 2$"))
    for call, message in cases:
        with pytest.raises(ValueError, match=message):
            call()


def test_reduce_once_shifts_diagonally():
    # three rows of all-ones: column sums of 3 -> digits 1,1 at offsets 0,1
    code = MultiRowCode(3, 4, 2, 0, np.ones((3, 4), dtype=np.int64))
    out = reduce_once(code)
    assert out.rows == 2
    assert scaled_value(out) == scaled_value(code)
    assert out.width >= code.width + 1


def test_reduce_preserves_value_random(rng):
    for radix in (2, 3, 10):
        for _ in range(60):
            rows = int(rng.integers(3, 40))
            width = int(rng.integers(1, 64))
            code = random_code(rng, rows, width, radix)
            out = reduce_to_two(code)
            assert out.rows == 2
            assert scaled_value(out) == scaled_value(code)


def test_reduce_stage_count_matches_plan(rng):
    for rows in (3, 7, 9, 31, 64, 127):
        code = random_code(rng, rows, 16, 2)
        with trace.record() as stages:
            reduce_to_two(code)
        assert len(stages) == len(stage_plan(rows).row_counts) - 1
        assert [s["rows_out"] for s in stages[:-1]] == list(stage_plan(rows).row_counts[1:-1])
        assert stages[-1]["rows_out"] == 2


def test_stage_count_drift_is_caught(monkeypatch):
    real, real_digits = _kernels.reduce_packed, _kernels.reduce_to_two_digits

    def one_stage_too_many(rows, width, limit=None):
        rows, width, stages = real(rows, width, limit)
        return rows, width, stages + 1

    def one_digit_stage_too_many(digits, q):
        digits, stages = real_digits(digits, q)
        return digits, stages + 1

    monkeypatch.setattr(_kernels, "reduce_packed", one_stage_too_many)
    monkeypatch.setattr(_kernels, "reduce_to_two_digits", one_digit_stage_too_many)
    with pytest.raises(RuntimeError, match=r"^reduction ran 4 stages, stage_plan gives 3$"):
        reduce_to_two(make_from_value(1, 9, 4))
    # radix 3: 9 rows reduce in two stages, a 4-row sum in one
    with pytest.raises(RuntimeError, match=r"^reduction ran 3 stages, stage_plan gives 2$"):
        reduce_to_two(make_from_value(1, 9, 4, 3))
    two = make_from_value(1, 2, 4, 3)
    with pytest.raises(RuntimeError, match=r"^reduction ran 2 stages, stage_plan gives 1$"):
        add_two_row(two, two)


def test_traced_row_counts_equal_stage_plan(rng):
    # what the kernel actually ran, read back from the trace, against the
    # model of Table 2.1 for every binary shape and a few radix-3/10 ones
    shapes = [(m, 2) for m in range(3, 128)]
    shapes += [(m, q) for q in (3, 10) for m in (3, 4, 9, 28, 100, 127)]
    for m, q in shapes:
        code = random_code(rng, m, 8, q)
        with trace.record() as events:
            out = reduce_to_two(code)
        counts = [events[0]["rows_in"]] + [e["rows_out"] for e in events]
        assert tuple(counts) == stage_plan(m, q).row_counts, (m, q)
        assert {e["op"] for e in events} == {"reduce"}
        assert all(e["radix"] == q for e in events)
        assert all(e["code"].digits.shape == (e["rows_out"], e["width"]) for e in events)
        np.testing.assert_array_equal(events[-1]["code"].digits, out.digits)
        # each stage's largest column sum, read from its input, within rows_in * (q - 1)
        inputs = [code.digits] + [e["code"].digits for e in events[:-1]]
        for e, digits in zip(events, inputs):
            assert e["max_column_sum"] == digits.sum(axis=0).max() <= e["rows_in"] * (q - 1)


def test_traced_stage_checks_the_column_sum_bound():
    bad = np.full((3, 2), 5, dtype=np.int64)  # digits past radix 2: column sums 15 > 3 * (2 - 1)
    _kernels.reduce_once_digits(bad, 2)  # untraced, the stage runs no check
    with trace.record(), pytest.raises(RuntimeError, match=r"column sum 15 above its bound 3\*"):
        _kernels.reduce_once_digits(bad, 2)


def test_traced_binary_check_reads_the_kernel_output(monkeypatch):
    # a counter whose every sum plane also takes the carry plane above it
    # writes column sums past the bound; the check reads the planes it wrote
    real = _kernels._counter

    def leaky_counter(n):
        count = real(n)

        def leaky(*rows):
            planes = list(count(*rows))
            for h in reversed(range(len(planes) - 1)):
                planes[h] |= planes[h + 1] >> 1
            return planes

        return leaky

    monkeypatch.setattr(_kernels, "_counter", leaky_counter)
    for rows, top in ((5, 7), (6, 7), (9, 15)):
        code = codes.made_code([0b1011] * rows, 4)
        reduce_to_two(code)  # untraced, the stage runs no check
        message = rf"^column sum {top} above its bound {rows}\*\(2-1\)$"
        with trace.record(), pytest.raises(RuntimeError, match=message):
            reduce_to_two(code)


def _check_packed_against_digit_stages(digits, limit):
    # reduce_packed against the numpy digit stage on the same bit matrix:
    # digit for digit, in width and in stage count
    want, want_stages = digits, 0
    while want.shape[0] > 2 and want_stages != limit:
        want = _kernels.reduce_once_digits(want, 2)
        want_stages += 1
    got, width, stages = _kernels.reduce_packed(pack_rows(digits), digits.shape[1], limit)
    assert (stages, len(got), width) == (want_stages, *want.shape)
    np.testing.assert_array_equal(unpack_rows(got, width), want)


def test_counter_matches_the_digit_stage(rng):
    # every row count up to 300, past the counter's 128-row cap, with zero
    # rows mixed in and all rows zero, for one stage, two and all of them
    for m in range(301):
        digits = rng.integers(0, 2, size=(m, 13), dtype=np.int64)
        digits[rng.random(m) < 0.3] = 0
        for bits in (digits, np.zeros_like(digits)):
            for limit in (1, 2, None):
                _check_packed_against_digit_stages(bits, limit)
    # all-ones columns at the cap and at each column sum's top bit
    for m in (127, 128, 129, 255, 256, 257):
        for width in (1, 70):
            for limit in (1, 2, None):
                _check_packed_against_digit_stages(np.ones((m, width), dtype=np.int64), limit)


def test_counter_step_is_the_carry_save_step():
    # the streams and the block sum call _counter(3) as the carry-save step:
    # sum and majority, the carry already shifted one column
    rng = random.Random(5)
    for _ in range(200):
        x, y, z = (rng.getrandbits(100) for _ in range(3))
        assert _kernels._counter(3)(x, y, z) == (x ^ y ^ z, (x & y | x & z | y & z) << 1)
        assert _kernels._counter(2)(x, y) == (x ^ y, (x & y) << 1)  # the half adder
        assert _kernels._counter(1)(x) == (x,)
    assert _kernels._counter(0)() == ()


def test_no_counter_is_built_past_the_cap(monkeypatch):
    real, sizes = _kernels._counter, set()
    monkeypatch.setattr(_kernels, "_counter", lambda n: sizes.add(n) or real(n))
    rng = random.Random(6)
    rows = [rng.getrandbits(64) for _ in range(3000)]
    digits = unpack_rows(rows, 64)
    got, width, stages = _kernels.reduce_packed(rows, 64)
    want, want_stages = _kernels.reduce_to_two_digits(digits, 2)
    assert stages == want_stages
    np.testing.assert_array_equal(unpack_rows(got, width), want)
    assert max(sizes) == _kernels._COUNTER_ROWS
    with pytest.raises(ValueError, match=r"^a counter takes 0\.\.128 rows, not 129$"):
        real(129)


def _reference_stage(digits, q):
    # per-row loop: digit h of every column sum goes to row h, shifted h columns
    m, n = digits.shape
    m2 = next_row_count(m, q)
    col = digits.sum(axis=0, dtype=np.int64)
    out = np.zeros((m2, n + m2 - 1), dtype=np.int64)
    rem = col
    for h in range(m2):
        out[h, h : h + n] = rem % q
        rem = rem // q
    return out


def _check_stage_bodies(digits, radix):
    # one stage and a full reduction of the numpy body, and at radix 2 of
    # the packed stage, against the per-row reference: digit for digit,
    # in width and in stage count
    want_once = _reference_stage(digits, radix)
    want, want_stages = digits, 0
    while want.shape[0] > 2:
        want = _reference_stage(want, radix)
        want_stages += 1
    assert want_stages == stage_plan(digits.shape[0], radix).stages
    np.testing.assert_array_equal(_kernels.reduce_once_digits(digits, radix), want_once)
    np.testing.assert_array_equal(reduce_once(MultiRowCode.from_digits(digits, radix)).digits, want_once)
    got, stages = _kernels.reduce_to_two_digits(digits, radix)
    assert stages == want_stages
    np.testing.assert_array_equal(got, want)
    if radix != 2:
        return
    packed = pack_rows(digits)
    once, width, stages = _kernels.reduce_packed(packed, digits.shape[1], 1)
    assert stages == 1
    assert all(row >> width == 0 for row in once)
    np.testing.assert_array_equal(unpack_rows(once, width), want_once)
    two, width, stages = _kernels.reduce_packed(packed, digits.shape[1])
    assert stages == want_stages and len(two) == 2
    assert all(row >> width == 0 for row in two)
    np.testing.assert_array_equal(unpack_rows(two, width), want)


def test_stage_body_matches_per_row_reference(rng):
    for radix in (2, 3, 7, 10, 2**20):
        for rows in (3, 4, 5, 9, 63, 127):
            for width in (1, 2, 64):  # width 1 and 2 are below m2 for most shapes
                full = np.full((rows, width), radix - 1, dtype=np.int64)
                for digits in (random_code(rng, rows, width, radix).digits, full):
                    _check_stage_bodies(digits, radix)
    # the packed binary loop over many more shapes: every seventh all
    # ones, every fifth all zeros, every third with a random half of its
    # rows zeroed
    for i in range(1000):
        rows = int(rng.integers(3, 301))
        width = int(rng.choice((0, 1, 64, 127))) if i % 2 else int(rng.integers(0, 200))
        if i % 7 == 0:
            digits = np.ones((rows, width), dtype=np.int64)
        else:
            digits = rng.integers(0, 2, size=(rows, width), dtype=np.int64)
        if i % 5 == 0:
            digits[:] = 0
        elif i % 3 == 0:
            digits[rng.random(rows) < 0.5] = 0
        _check_stage_bodies(digits, 2)


def test_packed_stage_reports_the_numpy_stage_events(rng):
    for rows, width in ((3, 1), (9, 4), (64, 0), (127, 33)):
        digits = rng.integers(0, 2, size=(rows, width), dtype=np.int64)
        with trace.record() as want:
            _kernels.reduce_to_two_digits(digits, 2)
        with trace.record() as got:
            _kernels.reduce_packed(pack_rows(digits), width)
        assert [e["code"].digits.dtype for e in got] == [np.int64] * len(want)
        listed = [[{**e, "code": e["code"].digits.tolist()} for e in events] for events in (got, want)]
        assert listed[0] == listed[1]


def test_untraced_reduction_costs_one_sink_call(monkeypatch):
    calls = []
    sink = trace.sink
    monkeypatch.setattr(trace, "sink", lambda: calls.append(1) or sink())
    code = MultiRowCode.from_digits(np.ones((128, 8), dtype=np.int64))
    assert stage_plan(128).stages == 4
    assert value_of(reduce_to_two(code)) == value_of(code)
    assert len(calls) == 1


def test_engine_calls_build_only_their_matrix_and_result(monkeypatch):
    # each engine call builds only its result code: no product wraps its
    # partial-product matrix as a code, and map_accumulate builds the zero
    # F once too
    w = 24
    a, b = make_from_value(0xABCDEF, 1, w), make_from_value(0x123457, 1, w)
    f = make_from_value(12345, 2, 2 * w - 1)
    cfg = MapConfig(width=w)
    tc = MapConfig(width=w, signedness="twos-complement")
    adds = {name: make_from_value(i * 977, 1, w) for i, name in enumerate(ADDITIVE_OPERANDS)}
    steps = [dict(a=a, b=b, c=adds["c"])] * 3
    calls = []
    store = codes._store
    monkeypatch.setattr(codes, "_store", lambda *args: calls.append(1) or store(*args))
    for run, want in (
        (lambda: multiply(a, b), 1),
        (lambda: multiply(a, b, signed=True), 1),
        (lambda: fused_mac(f, a, b), 1),
        (lambda: map_eval(cfg, a=a, b=b, **adds), 1),
        (lambda: map_eval(tc, a=a, b=b, **adds), 1),
        (lambda: map_accumulate(MapConfig(width=w, mode="accumulate"), steps), 1 + len(steps)),
    ):
        calls.clear()
        run()
        assert len(calls) == want


def test_reduce_handles_degenerate_inputs():
    one = make_from_value(9, 1, 6, 2)
    out = reduce_to_two(one)
    assert out.rows == 2 and value_of(out) == 9


def test_add_two_row_values_and_width_bound(rng):
    for radix in (2, 3, 10):
        for _ in range(40):
            w = int(rng.integers(1, 32))
            a = random_code(rng, 2, w, radix)
            b = random_code(rng, 2, w, radix)
            out = add_two_row(a, b)
            assert value_of(out) == value_of(a) + value_of(b)
            assert out.width <= w + 2


def test_add_two_row_rejects_misaligned():
    a = make_from_value(3, 2, 4, 2, lsb_exp=0)
    b = make_from_value(3, 2, 4, 2, lsb_exp=-1)
    with pytest.raises(ValueError):
        add_two_row(a, b)
    c = make_from_value(3, 2, 4, 3)
    with pytest.raises(ValueError):
        add_two_row(a, c)
    with pytest.raises(ValueError, match="^operands must be 2-row codes$"):
        add_two_row(a, make_from_value(3, 3, 4))
    with pytest.raises(ValueError, match=r"^reduce_once requires >= 3 rows$"):
        reduce_once(a)


def test_quad_add_sub():
    x = quad_from_value(5, 6)
    y = quad_from_value(-9, 6)
    assert quad_value(quad_add(x, y)) == -4
    assert quad_value(quad_sub(x, y)) == 14
    assert quad_value(quad_sub(y, x)) == -14


def test_trapezoid_geometry_known_shape():
    # 8 columns reduced from 5 rows: 3-row band with single-height edges
    geo = trapezoid_geometry(8, 3)
    assert geo.n_max == 8 + 3 - 1
    assert list(geo.column_heights) == [1, 2, 3, 3, 3, 3, 3, 3, 2, 1]
    assert geo.n_min == 6
    assert not geo.degenerate
    assert trapezoid_geometry(2, 3).degenerate


def test_reduce_delay_accountings():
    plan = StagePlan(radix=2, row_counts=(63, 6, 3, 2))
    assert reduce_delay(plan) == 13
    assert reduce_delay(plan, accounting="aggregate") == 13
    assert reduce_delay(plan, accounting="per-stage") == 14
    for accounting in ("aggregate", "per-stage"):  # a plan with no stages costs nothing
        assert reduce_delay(stage_plan(2), accounting) == 0
    # an unknown accounting fails for every plan, the stage-free one too
    for call in (lambda: reduce_delay(plan, accounting="bogus"),
                 lambda: reduce_delay(stage_plan(2), "bogus"), lambda: mul_delay(2, "bogus")):
        with pytest.raises(ValueError, match="^accounting must be 'aggregate' or 'per-stage'$"):
            call()


@settings(max_examples=50, deadline=None)
@given(
    rows=st.integers(3, 20),
    width=st.integers(1, 20),
    radix=st.sampled_from([2, 3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_reduce_value_preservation_hypothesis(rows, width, radix, seed):
    rng = np.random.default_rng(seed)
    code = random_code(rng, rows, width, radix)
    assert scaled_value(reduce_to_two(code)) == scaled_value(code)
