"""The event sink: scope of a recorder, and no tracing work without one."""

from fractions import Fraction

import redundarith
from redundarith import divider, evalexpr, trace
from redundarith.codes import make_from_value
from redundarith.reducer import reduce_to_two


def _run_engines():
    reduce_to_two(make_from_value(1234, 5, 16, 2))
    divider.divide(5, 7, 4, 2, method="eager")
    evalexpr.evaluate("1 + 2 * 3")


def test_nothing_is_recorded_after_the_block():
    assert trace.sink() is None
    with trace.record() as events:
        _run_engines()
        assert trace.sink() is events
    seen = list(events)
    assert seen and all("op" in e for e in seen)
    _run_engines()
    assert events == seen
    assert trace.sink() is None


def test_nested_recorder_takes_over_until_it_exits():
    with trace.record() as outer:
        divider.divide(5, 7, 4, 1)
        with trace.record() as inner:
            divider.divide(5, 7, 4, 2)
        divider.divide(5, 7, 4, 3)
    assert [e["iteration"] for e in inner] == [1, 2]
    assert [e["iteration"] for e in outer] == [1, 1, 2, 3]


def test_untraced_engines_build_no_event_fields(monkeypatch):
    # the fields an event would carry are computed only under a recorder
    calls = {"quad_value": 0, "thermometer_flags": 0, "_thermometer": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    monkeypatch.setattr(evalexpr, "quad_value", counting("quad_value", evalexpr.quad_value))
    for name in ("thermometer_flags", "_thermometer"):
        monkeypatch.setattr(divider, name, counting(name, getattr(divider, name)))
    evalexpr.evaluate("1 + 2 + 3")
    evalexpr.evaluate("2 * 3 - 1/2")
    divider.divide(5, 7, 4, 2, method="eager")
    # evaluate reads each final value once, and '*' reads its operands'
    # signs from the rows; eager selection reads the flags int and
    # unpacks no vector
    assert calls == {"quad_value": 2, "thermometer_flags": 0, "_thermometer": 0}
    with trace.record():
        evalexpr.evaluate("1 + 2 + 3")
        divider.divide(5, 7, 4, 2, method="eager")
    # one vector per iteration, unpacked from the flags that chose the digit
    assert calls == {"quad_value": 2 + 1 + 2 * 3, "thermometer_flags": 0, "_thermometer": 2}
    with trace.record() as events:
        evalexpr.evaluate("2 * 3 - 1/2")
    steps = [(e["op"], e["x"], e["y"], e["result"]) for e in events if e["op"] != "reduce"]
    assert steps == [("mul", 2, 3, 6), ("sub", 6, Fraction(1, 2), Fraction(11, 2))]


def test_trace_is_exported():
    assert redundarith.trace is trace
    assert "trace" in redundarith.__all__
