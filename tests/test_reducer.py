"""Row reduction: stage plans, value preservation, carry-free addition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redundarith import _kernels, trace
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


def test_stage_plan_validates_chain():
    with pytest.raises(ValueError):
        StagePlan(radix=2, row_counts=(63, 5, 3, 2))
    with pytest.raises(ValueError):
        StagePlan(radix=2, row_counts=(7, 3))


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
        assert all(e["digits"].shape == (e["rows_out"], e["width"]) for e in events)
        np.testing.assert_array_equal(events[-1]["digits"], out.digits)
        # each stage's largest column sum, read from its input, within rows_in * (q - 1)
        inputs = [code.digits] + [e["digits"] for e in events[:-1]]
        for e, digits in zip(events, inputs):
            assert e["max_column_sum"] == digits.sum(axis=0).max() <= e["rows_in"] * (q - 1)


def test_traced_stage_checks_the_column_sum_bound():
    bad = np.full((3, 2), 5, dtype=np.int64)  # digits past radix 2: column sums 15 > 3 * (2 - 1)
    _kernels.reduce_once_digits(bad, 2)  # untraced, the stage runs no check
    with trace.record(), pytest.raises(RuntimeError, match=r"column sum 15 above its bound 3\*"):
        _kernels.reduce_once_digits(bad, 2)


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
    got, stages = _kernels.reduce_to_two_digits(digits, radix)
    assert stages == want_stages
    np.testing.assert_array_equal(got, want)
    if radix != 2:
        return
    packed = pack_rows(digits)
    once, width = _kernels.reduce_once_packed(packed, digits.shape[1])
    assert all(row >> width == 0 for row in once)
    np.testing.assert_array_equal(unpack_rows(once, width), want_once)
    two, width, stages = _kernels.reduce_to_two_packed(packed, digits.shape[1])
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
    # the packed binary stage over many more shapes, every seventh all ones
    for i in range(1000):
        rows, width = int(rng.integers(3, 130)), int(rng.integers(0, 200))
        if i % 7 == 0:
            digits = np.ones((rows, width), dtype=np.int64)
        else:
            digits = rng.integers(0, 2, size=(rows, width), dtype=np.int64)
        _check_stage_bodies(digits, 2)


def test_packed_stage_reports_the_numpy_stage_events(rng):
    for rows, width in ((3, 1), (9, 4), (64, 0), (127, 33)):
        digits = rng.integers(0, 2, size=(rows, width), dtype=np.int64)
        with trace.record() as want:
            _kernels.reduce_to_two_digits(digits, 2)
        with trace.record() as got:
            _kernels.reduce_to_two_packed(pack_rows(digits), width)
        assert [e["digits"].dtype for e in got] == [np.int64] * len(want)
        listed = [[{**e, "digits": e["digits"].tolist()} for e in events] for events in (got, want)]
        assert listed[0] == listed[1]


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
    with pytest.raises(ValueError):
        reduce_delay(plan, accounting="bogus")


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
