"""Near-zero-overhead span tracer: wall-clock and simulated-clock events.

Two time domains flow through one buffer-per-process model:

* **Wall-clock events** — ``span()`` / ``instant()`` record what the OS
  process actually did and when (``time.monotonic_ns``: on Linux the
  clock is CLOCK_MONOTONIC, which is system-wide, so timestamps from the
  launcher and every worker process on a host are directly comparable
  and strictly non-decreasing — no NTP steps in the middle of a trace).
* **Simulated-clock events** — a :class:`SimSink` attached to a
  :class:`~repro.dist.cluster.ClockStore` mirrors every phase charge the
  store records (the three ``record_*`` methods are the *only* mutation
  funnel, so the mirror is complete by construction) plus every link
  reservation the communicators make.  Replaying a sink's events with
  the same float64 accumulation reproduces the store's phase buckets
  bitwise — the property ``tests/test_obs_trace.py`` locks in.

The hot path is guarded by the module-level :data:`enabled` flag:

* ``span()`` returns a shared no-op singleton when disabled — one global
  load, one branch, zero allocation;
* ``instant()`` / ``counter_add()`` are a guarded early return;
* the :class:`SimSink` costs one ``is not None`` attribute check inside
  ``ClockStore.record_*`` when detached (the default).

Nothing here is thread-safe by design: every traced process is
single-threaded through the training loop, and each process drains its
own buffer (:func:`drain`) to ship events to the launcher over the
existing control plane.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = [
    "enabled",
    "enable",
    "disable",
    "drain",
    "span",
    "instant",
    "emit",
    "process_name",
    "SimSink",
]

#: module-level hot-path guard — every instrumentation site checks this
#: (or a ``None`` sink) before doing any work, so a disabled tracer costs
#: one branch per call site
enabled = False

#: the current process's track label in the merged trace ("launcher",
#: "worker 0", ...)
process_name = "launcher"

#: the wall-clock event buffer: ``(ph, name, t_ns, args_or_None)`` tuples
#: with ``ph`` one of ``"B"`` (span begin), ``"E"`` (span end), ``"i"``
#: (instant) — plain picklable tuples so worker buffers ship over the
#: control connection as-is
_events: list[tuple] = []


def enable(process: str = "launcher") -> None:
    """Turn tracing on for this process and label its track."""
    global enabled, process_name
    enabled = True
    process_name = process
    _events.clear()


def disable() -> None:
    """Turn tracing off and discard any buffered events."""
    global enabled
    enabled = False
    _events.clear()


def drain() -> list[tuple]:
    """Return and clear this process's buffered wall-clock events."""
    out = _events[:]
    _events.clear()
    return out


class _NoopSpan:
    """The shared disabled-path span: no state, no allocation."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NOOP = _NoopSpan()


class _Span:
    __slots__ = ("name", "args")

    def __init__(self, name: str, args) -> None:
        self.name = name
        self.args = args

    def __enter__(self):
        _events.append(("B", self.name, time.monotonic_ns(), self.args))
        return self

    def __exit__(self, *exc):
        _events.append(("E", self.name, time.monotonic_ns(), None))
        return False


def span(name: str, **args):
    """A wall-clock span context manager (no-op singleton when disabled)."""
    if not enabled:
        return _NOOP
    return _Span(name, args or None)


def instant(name: str, **args) -> None:
    """A wall-clock instant event (a point marker, e.g. an injected fault)."""
    if enabled:
        _events.append(("i", name, time.monotonic_ns(), args or None))


def emit(ph: str, name: str, args=None, t_ns: int | None = None) -> None:
    """Low-level append for call sites that manage their own guard (and may
    date the event themselves: ``t_ns``, a ``time.monotonic_ns`` value)."""
    _events.append((ph, name, time.monotonic_ns() if t_ns is None else t_ns, args))


# ---------------------------------------------------------------------------
# simulated-clock sink
# ---------------------------------------------------------------------------


class SimSink:
    """Mirror of every simulated-time charge a :class:`ClockStore` records.

    Attach with ``store.trace = SimSink()`` (the store checks
    ``is not None`` inside its three ``record_*`` methods, so a detached
    store pays one attribute load).  Events are appended in charge order:

    * ``("at",  phase, i,   duration)``  — one rank charged a scalar
    * ``("all", phase, durations)``      — every rank charged a vector
    * ``("idx", phase, idx, durations)`` — an index subset charged

    ``durations``/``idx`` vectors are stored as ndarray *copies* (alias-
    free, picklable; a C memcpy is several times cheaper than ``tolist``
    on the training hot path) and normalized to plain lists by the
    collector at ingestion, off the training loop.  Either way the values
    are IEEE float64, so replaying the events with the same numpy
    accumulation reproduces the store's phase buckets bit for bit.

    Link reservations arrive through :meth:`link_batch` from the schedule
    kernel (``repro.dist.comm._schedule``) — the only place a link's
    busy-until time is written — as occupancy windows in simulated
    seconds, which become the link-occupancy track of the exported trace.
    """

    __slots__ = ("events", "links", "_labels")

    def __init__(self) -> None:
        self.events: list[tuple] = []
        self.links: list[tuple] = []
        # label cache: keys repeat every issue, so the string rendering
        # happens once per distinct key tuple, not once per reservation
        self._labels: dict = {}

    # -- ClockStore.record_* mirrors ----------------------------------------
    def rec_at(self, i: int, phase: str, duration: float) -> None:
        self.events.append(("at", phase, i, float(duration)))

    def rec_all(self, phase: str, durations) -> None:
        if isinstance(durations, np.ndarray):
            durations = durations.copy()
        else:  # a scalar broadcast over every rank
            durations = float(durations)
        self.events.append(("all", phase, durations))

    def rec_idx(self, idx, phase: str, durations) -> None:
        idx = idx.copy() if isinstance(idx, np.ndarray) else list(idx)
        if isinstance(durations, np.ndarray):
            durations = durations.copy()
        else:
            durations = float(durations)
        self.events.append(("idx", phase, idx, durations))

    # -- link occupancy ------------------------------------------------------
    def link_batch(self, keys: tuple, phase: str, begins, ends) -> None:
        """One issue's reservations — one per group, on the ``ClockStore.links``
        keys ``keys`` — as a single entry.

        The hot path appends one tuple; per-group label rendering happens
        once per distinct ``keys`` tuple and window expansion happens at
        collection time (:meth:`TraceCollector.add_sim`), off the training
        loop.  ``begins``/``ends`` are flat per-group vectors (ndarray or
        list).  An entry is ``(labels_tuple, phase, begins, ends)``.
        """
        labels = self._labels.get(keys)
        if labels is None:
            labels = self._labels[keys] = tuple(f"link:{k}" for k in keys)
        self.links.append((labels, phase, begins, ends))

    # -- lifecycle -----------------------------------------------------------
    def clear(self) -> None:
        self.events.clear()
        self.links.clear()

    def drain(self) -> tuple[list[tuple], list[tuple]]:
        """Return and clear ``(events, links)`` — the picklable payload."""
        ev, ln = self.events[:], self.links[:]
        self.clear()
        return ev, ln

