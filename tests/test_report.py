"""Report generation and the fuzz harness, including its self-test."""

import copy
import functools
import json
import operator
from fractions import Fraction

import pytest

from redundarith import accumulator, cli, divider, map_unit, multiplier, reducer, report
from redundarith.codes import make_from_value, stack_codes
from redundarith.report import FUZZ_OPS, FuzzResult, fuzz_verify, report_tables


def test_all_tables_clean():
    for kind in ("2.1", "3.1", "3.2"):
        rep = report_tables(kind)
        assert rep.mismatches == [], kind
        assert rep.exit_code == 0


def test_known_anomalies_are_flagged_not_failed():
    rep31 = report_tables("3.1")
    assert any("m=8" in f for f in rep31.flags)
    rep32 = report_tables("3.2")
    assert any("m=30" in f for f in rep32.flags)
    assert sum(": m_counts: " in f for f in rep32.flags) == 3  # m = 6, 8, 14


@pytest.mark.parametrize("kind, name, fields", [
    ("2.1", "table_2_1.json", ("m2", "m3", "m4", "stages")),
    ("3.1", "table_3_1.json", ("levels",)),
    ("3.2", "table_3_2.json", ("m_counts", "sigma_and")),
], ids=["2.1", "3.1", "3.2"])
def test_flags_are_the_golden_notes_one_to_one(kind, name, fields):
    # each known anomaly is flagged once with the golden file's own note,
    # in table order (by m, then by column); table 3.1's entries carry no
    # field and belong to "levels".  A stale anomaly, or a note restated
    # by the report, fails here
    anomalies = report.load_golden(name).get("known_anomalies", [])
    cells = sorted((e["m"], fields.index(e.get("field", "levels")), e["note"]) for e in anomalies)
    want = [f"m={m}: {fields[i]}: {note}" for m, i, note in cells]
    assert len(want) == {"2.1": 0, "3.1": 1, "3.2": 4}[kind]
    assert report_tables(kind).flags == want


def test_report_serializations_are_deterministic():
    a = report_tables("3.2")
    b = report_tables("3.2")
    assert a.to_json() == b.to_json()
    assert a.to_text() == b.to_text()
    parsed = json.loads(a.to_json())
    assert parsed["kind"] == "3.2"
    assert parsed["mismatches"] == []


def _bumped(data, *path):
    """A copy of golden JSON data with the number at `path` one higher."""
    data = copy.deepcopy(data)
    *head, last = path
    functools.reduce(operator.getitem, head, data)[last] += 1
    return data


# each edits a copy: the golden readers behind report are lru_cached;
# `broken` is the (row, status column) the edit breaks, 3.2 has no status
@pytest.mark.parametrize("kind, reader, edit, first, broken", [
    ("2.1", "load_golden", lambda data: _bumped(data, "bands", 2, "m2"),
     "m2 at m=8: golden 5, derived 4", ("8..15", "derived")),
    ("3.1", "golden_delay_bands", lambda bands: tuple((lo, hi, n + (lo == 17)) for lo, hi, n in bands),
     "levels at m=17: golden 6, derived 5", ("17..32", "agrees")),
    ("3.2", "golden_costs", lambda costs: {**costs, 16: costs[16] + 1},
     "sigma_and at m=16: golden 200, derived 199", None),
    ("3.2", "load_golden", lambda data: _bumped(data, "m_counts", "1", 4),
     "m_counts at m=10: golden (6, 2, 1, 1, 0), derived (5, 2, 1, 1, 0)", None),
], ids=["2.1-m2", "3.1-levels", "3.2-sigma_and", "3.2-m_counts"])
def test_report_catches_a_perturbed_golden_value(monkeypatch, capsys, kind, reader, edit, first, broken):
    real = getattr(report, reader)
    monkeypatch.setattr(report, reader, lambda *args: edit(real(*args)))
    rep = report_tables(kind)
    assert rep.mismatches[0] == first
    if broken:
        label, column = broken
        assert [row["m"] for row in rep.rows if row[column] == "MISMATCH"] == [label]
    assert rep.exit_code == 1
    assert f"MISMATCH: {first}\n" in rep.to_text()
    assert cli.main(["report", "--table", kind]) == 1
    assert f"MISMATCH: {first}\n" in capsys.readouterr().out


def test_report_rejects_unknown_table():
    for kind in ("9.9", "table-2.1", "table 3.1"):  # exactly TABLE_KINDS
        with pytest.raises(ValueError):
            report_tables(kind)


def test_fuzz_clean_run_is_deterministic():
    a = fuzz_verify(seed=11, trials=35)
    b = fuzz_verify(seed=11, trials=35)
    assert a.passed == 35
    assert a.exit_code == 0
    assert a.to_json() == b.to_json()


def test_fuzz_scope_filters_ops():
    result = fuzz_verify(seed=1, trials=10, scope=("div", "acc"))
    assert result.passed == 10
    with pytest.raises(ValueError):
        fuzz_verify(seed=1, trials=2, scope=("nonsense",))
    # a str is a sequence of one-letter names
    with pytest.raises(ValueError, match="^scope must be a sequence of op names, not a str$"):
        fuzz_verify(seed=1, trials=2, scope="mul")
    with pytest.raises(ValueError):
        fuzz_verify(seed=1, trials=-5)
    # trials=True once ran one trial, a float raised a TypeError and a
    # negative seed failed inside numpy's generator
    for bad in ({"trials": True}, {"trials": 2.0}, {"seed": 1.5}, {"seed": True}):
        with pytest.raises(ValueError, match=f"^{next(iter(bad))} must be an int$"):
            fuzz_verify(**{"seed": 1, "trials": 2, **bad})
    with pytest.raises(ValueError, match=r"^seed must be >= 0$"):
        fuzz_verify(seed=-1, trials=0)
    assert fuzz_verify(seed=1, trials=0).passed == 0


def _ulp_up(code):
    """`code` with one more unit in its last place: an extra row holding
    radix**lsb_exp."""
    ulp = make_from_value(Fraction(code.radix) ** code.lsb_exp, 1, code.width, code.radix, code.lsb_exp)
    return stack_codes((code, ulp))


def _last_digit_up(out):
    digits, residual = out
    return digits[:-1] + [digits[-1] + 1], residual


# op -> (module, engine or value reader its check calls, how to break the result)
FAULTS = {
    "reduce": (reducer, "reduce_to_two", _ulp_up),
    "add": (reducer, "add_two_row", _ulp_up),
    "mul": (multiplier, "multiply", _ulp_up),
    "mac": (multiplier, "fused_mac", _ulp_up),
    "div": (divider, "divide", _last_digit_up),
    "map": (map_unit, "map_eval", lambda state: state._replace(f=_ulp_up(state.f))),
    "acc": (accumulator, "acc_total", lambda total: total + 1),
}
# the two checks that a value one ulp off never reaches, with their messages
EXTRA_FAULTS = {
    "add-width": ("add", reducer, "add_two_row", lambda out: stack_codes((out,), out.width + 4), "add width"),
    "div-identity": ("div", divider, "quotient_value", lambda q: q + Fraction(1, q.denominator),
                     "div identity broken"),
}


@pytest.mark.parametrize("fault", [*FUZZ_OPS, *EXTRA_FAULTS])
def test_fuzz_catches_injected_bug(monkeypatch, capsys, fault):
    """Self-test: an engine one ulp off must surface as a shrunk failure
    that names its op and keeps the seed."""
    op, module, name, corrupt, message = (fault, *FAULTS[fault], fault) if fault in FAULTS else EXTRA_FAULTS[fault]
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: corrupt(real(*args, **kwargs)))
    result = fuzz_verify(seed=3, trials=21, scope=(op,))
    assert (result.seed, result.passed, result.exit_code) == (3, 0, 1)
    assert [f["trial"] for f in result.failures] == list(range(21))
    for failure in result.failures:
        assert failure["op"] == op
        assert message in failure["detail"]
        # every width fails, so each failure shrinks to width 1
        assert failure["width"] == 1
    assert cli.main(["fuzz", "--scope", op, "--trials", "3"]) == 1
    assert capsys.readouterr().out.count("FAIL op=") == 3


@pytest.fixture
def wide_mul_fault(monkeypatch):
    """`multiply` one ulp off on products 6 or more columns wide, so that
    shrinking matters; a failure's detail names the operands it drew."""
    real = multiplier.multiply

    def broken(a, b, signed=False):
        out = real(a, b, signed=signed)
        return _ulp_up(out) if out.width >= 6 else out

    monkeypatch.setattr(multiplier, "multiply", broken)


def test_fuzz_shrinks_past_widths_that_pass(wide_mul_fault):
    result = fuzz_verify(seed=3, trials=40, scope=("mul",))
    assert result.exit_code == 1
    widths = [f["width"] for f in result.failures]
    # width 1 passes, so no failure shrinks to it; some shrink below the cap
    assert widths and 1 < min(widths) <= 8 and max(widths) <= 16


def test_fuzz_trial_draws_do_not_depend_on_the_run_length(wide_mul_fault):
    failures = fuzz_verify(seed=5, trials=40, scope=("mul",)).failures
    short = fuzz_verify(seed=5, trials=13, scope=("mul",)).failures
    assert 0 < len(short) < len(failures)
    assert short == [f for f in failures if f["trial"] < 13]


def test_fuzz_key_takes_the_whole_seed(wide_mul_fault):
    # seeds equal mod 2**64 draw different trials; at width 8 every product
    # fails, so each detail names the operands drawn
    runs = [fuzz_verify(seed=seed, trials=20, scope=("mul",)).failures for seed in (5, 5 + 2**64)]
    assert runs[0] != runs[1]
    for trial in range(20):
        assert report._run_trial("mul", 5, trial, 8) != report._run_trial("mul", 5 + 2**64, trial, 8)


def test_fuzz_failure_replays_alone_at_its_shrunk_width(wide_mul_fault):
    failures = fuzz_verify(seed=3, trials=40, scope=("mul",)).failures
    assert failures
    for f in failures:
        assert report._run_trial("mul", 3, f["trial"], f["width"]) == f["detail"]
        assert all(report._run_trial("mul", 3, f["trial"], w) is None for w in range(1, f["width"]))


def test_fuzz_result_text_lists_failures():
    result = FuzzResult(
        seed=0, trials=1, scope=("mul",), passed=0,
        failures=[{"op": "mul", "trial": 0, "width": 3, "detail": "boom"}],
    )
    text = result.to_text()
    assert "FAIL op=mul" in text
    assert "width=3" in text
