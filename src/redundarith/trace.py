"""Opt-in event sink shared by every engine.

Inside `with record() as events:` each reduction stage, divider
iteration and expression operation appends one plain dict with an "op"
key to `events`.  Emit sites call `sink()` once and build their fields
only when it returns a list, so nothing is recorded or computed for
tracing while no recorder is active.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

_EVENTS: ContextVar = ContextVar("redundarith_trace_events", default=None)

# the active event list, or None when nobody is recording
sink = _EVENTS.get


@contextmanager
def record():
    """Collect every event emitted inside the block into a fresh list; a
    nested block collects into its own list until it exits."""
    events: list = []
    token = _EVENTS.set(events)
    try:
        yield events
    finally:
        _EVENTS.reset(token)
