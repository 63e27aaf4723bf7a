"""Trace exporters: merged Chrome trace JSON, JSONL logs, schema check.

The launcher owns one :class:`TraceCollector`.  Worker processes drain
their tracer buffers and metrics snapshots once per epoch (and once more
from the crash handler, so a dying worker's last trace survives); the
payloads ride the control connection and land here.  ``write()``
renders everything into one directory:

* ``trace.json``   — Chrome trace-event JSON, loadable in Perfetto /
  ``chrome://tracing``.  One *process group* per OS process (launcher +
  every worker) carrying wall-clock spans and instants, plus two
  synthetic groups in the **simulated** time domain: one track per
  simulated rank (every phase charge laid end-to-end, so track length is
  that rank's busy sim-time) and one track per network link (true
  occupancy windows from the communicators' ``ClockStore.links``
  reservations).
* ``events.jsonl`` — the same wall-clock events, one JSON object per
  line, for grep/jq consumption.
* ``metrics.jsonl`` — one line per (process, epoch) metrics snapshot.
* ``summary.json``  — per-phase simulated totals, final liveness rows,
  and the process list — what ``repro trace summarize`` renders.

Wall-clock timestamps are ``time.monotonic_ns`` values (system-wide on
Linux), normalized to microseconds from the earliest event across all
processes, so launcher and worker tracks line up in Perfetto.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

__all__ = [
    "TraceCollector",
    "sim_phase_totals",
    "validate_chrome_trace",
    "validate_trace_dir",
]

#: synthetic pids for the simulated-time-domain process groups (wall-clock
#: processes get small pids starting at 1)
_SIM_PID = 1000
_LINK_PID = 1001


class TraceCollector:
    """Accumulates per-process trace/metrics payloads; renders on write."""

    def __init__(self) -> None:
        self._wall: dict[str, list[tuple]] = {}  # process -> event tuples
        self._metrics_rows: list[dict] = []
        self._sim_events: list[tuple] = []
        self._sim_links: list[tuple] = []
        self._sim_from: list[str] = []

    # -- ingestion -----------------------------------------------------------
    def add_wall(self, process: str, events: list[tuple]) -> None:
        """Wall-clock event tuples drained from one process's tracer."""
        if events:
            self._wall.setdefault(process, []).extend(events)

    def add_metrics(self, process: str, epoch: int, snapshot: dict) -> None:
        self._metrics_rows.append(
            {"process": process, "epoch": int(epoch), **snapshot}
        )

    def add_sim(
        self,
        process: str,
        events: list[tuple],
        links: list[tuple],
        lo: int = 0,
        world: int | None = None,
    ) -> None:
        """Simulated-clock events from one process's :class:`SimSink`.

        A worker's :class:`ClockStore` covers only its cube slice with
        *local* rank indices: ``lo`` rebases them to global ranks and
        ``world`` is the slice width (needed to expand scalar broadcast
        charges).  Slices are disjoint across workers, so merging every
        process's stream is lossless — per-rank charge order is preserved
        because each rank's charges all come from one process.

        Rebasing normalizes every event to ``"at"``/``"idx"`` form whose
        replay performs the exact same float64 additions as the original
        store (`bucket[:] += v` and ``bucket[idx] += v`` add elementwise
        identically for disjoint indices), keeping the bitwise-parity
        property of :func:`sim_phase_totals`.
        """
        if world is None:
            world = _world_hint(events)
        for ev in events:
            kind, phase = ev[0], ev[1]
            if kind == "at":
                self._sim_events.append(("at", phase, ev[2] + lo, ev[3]))
            elif kind == "all":
                durs = _as_list(ev[2])
                if not isinstance(durs, list):
                    durs = [durs] * world
                self._sim_events.append(
                    ("idx", phase, list(range(lo, lo + len(durs))), durs)
                )
            else:  # "idx"
                durs = _as_list(ev[3])
                self._sim_events.append(
                    ("idx", phase, [int(i) + lo for i in ev[2]], durs)
                )
        # peers record the same shared-link windows; keep one copy of each.
        # The sink's entries (one per issue: labels, phase, begins, ends)
        # expand to flat windows here.
        seen = set(self._sim_links)
        for labels, phase, begins, ends in links:
            for label, b, e in zip(labels, begins, ends):
                window = (label, phase, float(b), float(e))
                if window not in seen:
                    seen.add(window)
                    self._sim_links.append(window)
        if (events or links) and process not in self._sim_from:
            self._sim_from.append(process)

    def add_worker_payload(self, process: str, payload: dict) -> None:
        """One drained worker payload off the control connection."""
        self.add_wall(process, payload.get("events") or [])
        if payload.get("metrics") is not None:
            self.add_metrics(process, payload.get("epoch", -1), payload["metrics"])
        self.add_sim(
            process,
            payload.get("sim") or [],
            payload.get("links") or [],
            lo=payload.get("lo", 0),
            world=payload.get("world"),
        )

    # -- rendering -----------------------------------------------------------
    def write(self, out_dir, liveness: list[tuple] | None = None) -> Path:
        """Render every artifact into ``out_dir``; returns the directory."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)

        t0 = min(
            (ev[2] for events in self._wall.values() for ev in events),
            default=0,
        )
        trace_events: list[dict] = []
        jsonl_lines: list[str] = []
        for pid, process in enumerate(sorted(self._wall), start=1):
            trace_events.append(_proc_meta(pid, process))
            for ph, name, t_ns, args in self._wall[process]:
                ts = (t_ns - t0) / 1000.0
                ev = {"ph": ph, "name": name, "ts": ts, "pid": pid, "tid": 0}
                if ph == "i":
                    ev["s"] = "p"  # process-scoped instant marker
                if args:
                    ev["args"] = args
                trace_events.append(ev)
                jsonl_lines.append(json.dumps(
                    {"process": process, "ph": ph, "name": name,
                     "ts_us": ts, "args": args or {}}
                ))
        trace_events.extend(self._sim_track_events())
        trace_events.extend(self._link_track_events())

        (out / "trace.json").write_text(
            json.dumps({"traceEvents": trace_events,
                        "displayTimeUnit": "ms"}, indent=None)
        )
        (out / "events.jsonl").write_text(
            "\n".join(jsonl_lines) + ("\n" if jsonl_lines else "")
        )
        (out / "metrics.jsonl").write_text(
            "\n".join(json.dumps(r) for r in self._metrics_rows)
            + ("\n" if self._metrics_rows else "")
        )
        totals = sim_phase_totals(self._sim_events)
        (out / "summary.json").write_text(json.dumps({
            "processes": sorted(self._wall),
            "sim_source": self._sim_from,
            "sim_phase_totals": {
                ph: arr.tolist() for ph, arr in sorted(totals.items())
            },
            "liveness": [list(row) for row in (liveness or [])],
        }, indent=2))
        return out

    def _sim_track_events(self) -> list[dict]:
        """One track per simulated rank: charges laid end-to-end (dense
        busy-time timelines; sim seconds rendered as microseconds)."""
        if not self._sim_events:
            return []
        cursors: dict[int, float] = {}
        events: list[dict] = [_proc_meta(_SIM_PID, "sim ranks (simulated clock)")]

        def emit(rank: int, phase: str, dur: float) -> None:
            if dur == 0.0:
                return
            at = cursors.get(rank, 0.0)
            events.append({"ph": "X", "name": phase, "pid": _SIM_PID,
                           "tid": rank, "ts": at * 1e6, "dur": dur * 1e6})
            cursors[rank] = at + dur

        for ev in self._sim_events:
            kind, phase = ev[0], ev[1]
            if kind == "at":
                emit(ev[2], phase, ev[3])
            elif kind == "all":
                durs = ev[2]
                if isinstance(durs, list):
                    for r, d in enumerate(durs):
                        emit(r, phase, d)
                else:
                    for r in range(_world_hint(self._sim_events)):
                        emit(r, phase, durs)
            else:  # "idx"
                idx, durs = ev[2], ev[3]
                if not isinstance(durs, list):
                    durs = [durs] * len(idx)
                for r, d in zip(idx, durs):
                    emit(r, phase, d)
        return events

    def _link_track_events(self) -> list[dict]:
        """One track per link: true occupancy windows in simulated time."""
        if not self._sim_links:
            return []
        tids = {label: i for i, label in
                enumerate(sorted({lnk[0] for lnk in self._sim_links}))}
        events: list[dict] = [_proc_meta(_LINK_PID, "links (simulated clock)")]
        # windows arrive batched per worker per epoch, not in time order —
        # sort per track so the trace's monotone-timestamp invariant holds
        for label, phase, begin, end in sorted(
            self._sim_links, key=lambda lnk: (lnk[0], lnk[2], lnk[3])
        ):
            events.append({
                "ph": "X", "name": phase, "pid": _LINK_PID,
                "tid": tids[label], "ts": begin * 1e6,
                "dur": max(0.0, end - begin) * 1e6,
                "args": {"link": label},
            })
        return events


def _proc_meta(pid: int, name: str) -> dict:
    return {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": name}}


def _as_list(durs):
    """Sink vectors arrive as ndarray copies (hot-path form) — normalize
    to plain lists here, off the training loop; scalars pass through."""
    if isinstance(durs, np.ndarray):
        return durs.tolist()
    return durs


def _world_hint(sim_events: list[tuple]) -> int:
    """World size for scalar-broadcast charges: the widest vector seen."""
    world = 1
    for ev in sim_events:
        if ev[0] == "all" and isinstance(ev[2], (list, np.ndarray)):
            world = max(world, len(ev[2]))
        elif ev[0] == "at":
            world = max(world, ev[2] + 1)
        elif ev[0] == "idx":
            world = max(world, max(ev[2], default=-1) + 1)
    return world


def sim_phase_totals(sim_events: list[tuple], world: int | None = None) -> dict:
    """Replay sink events into per-phase per-rank totals.

    Uses the exact accumulation the :class:`ClockStore` buckets use
    (float64 ``+=`` per event, numpy fancy-index semantics for ``idx``
    charges), so the result equals ``store.by_phase`` bit for bit — the
    invariant the trace tests assert.
    """
    if world is None:
        world = _world_hint(sim_events)
    totals: dict[str, np.ndarray] = {}

    def bucket(phase: str) -> np.ndarray:
        b = totals.get(phase)
        if b is None:
            b = totals[phase] = np.zeros(world, dtype=np.float64)
        return b

    for ev in sim_events:
        kind, phase = ev[0], ev[1]
        if kind == "at":
            bucket(phase)[ev[2]] += ev[3]
        elif kind == "all":
            bucket(phase)[:] += np.asarray(ev[2], dtype=np.float64) \
                if isinstance(ev[2], list) else ev[2]
        else:  # "idx"
            idx = np.asarray(ev[2], dtype=np.intp)
            durs = np.asarray(ev[3], dtype=np.float64) \
                if isinstance(ev[3], list) else ev[3]
            bucket(phase)[idx] += durs
    return totals


# ---------------------------------------------------------------------------
# schema validation (the CI smoke gate)
# ---------------------------------------------------------------------------

_REQUIRED_KEYS = ("ph", "name", "pid", "tid")


def validate_chrome_trace(path) -> list[str]:
    """Structural checks on an exported ``trace.json``; returns problems.

    Checks: top-level ``traceEvents`` list; required keys on every event;
    per-track (pid, tid) non-decreasing timestamps; B/E events properly
    matched and nested (every E closes the innermost open B of its track,
    no track left with an open span).
    """
    problems: list[str] = []
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        return [f"unreadable trace: {e}"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["missing top-level 'traceEvents' list"]
    if not events:
        problems.append("'traceEvents' is empty")
    last_ts: dict[tuple, float] = {}
    stacks: dict[tuple, list[str]] = {}
    for n, ev in enumerate(events):
        for key in _REQUIRED_KEYS:
            if key not in ev:
                problems.append(f"event {n}: missing key {key!r}")
        ph = ev.get("ph")
        if ph == "M":
            continue
        track = (ev.get("pid"), ev.get("tid"))
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)):
            problems.append(f"event {n}: non-numeric ts {ts!r}")
            continue
        if ts < last_ts.get(track, float("-inf")):
            problems.append(
                f"event {n}: ts {ts} goes backwards on track {track} "
                f"(previous {last_ts[track]})"
            )
        last_ts[track] = ts
        if ph == "B":
            stacks.setdefault(track, []).append(ev.get("name", ""))
        elif ph == "E":
            stack = stacks.get(track)
            if not stack:
                problems.append(f"event {n}: 'E' with no open span on track {track}")
            else:
                stack.pop()
        elif ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"event {n}: 'X' with bad dur {dur!r}")
        elif ph not in ("i", "C"):
            problems.append(f"event {n}: unknown phase {ph!r}")
    for track, stack in stacks.items():
        if stack:
            problems.append(f"track {track}: {len(stack)} unclosed span(s): {stack}")
    return problems


def validate_trace_dir(trace_dir) -> list[str]:
    """Validate a whole ``--trace-dir`` output directory."""
    root = Path(trace_dir)
    trace = root / "trace.json"
    if not trace.exists():
        return [f"no trace.json under {root}"]
    problems = validate_chrome_trace(trace)
    for name in ("events.jsonl", "metrics.jsonl", "summary.json"):
        if not (root / name).exists():
            problems.append(f"missing {name}")
    mpath = root / "metrics.jsonl"
    if mpath.exists():
        for n, line in enumerate(mpath.read_text().splitlines()):
            try:
                row = json.loads(line)
            except json.JSONDecodeError as e:
                problems.append(f"metrics.jsonl line {n}: bad JSON ({e})")
                continue
            if "process" not in row or "counters" not in row:
                problems.append(f"metrics.jsonl line {n}: missing process/counters")
    return problems
