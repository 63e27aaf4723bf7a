"""Human-readable rendering: the liveness table and ``trace summarize``.

The per-worker liveness table is shared between two consumers — the
:class:`~repro.errors.BarrierTimeout` message the launcher raises when a
worker goes quiet, and the ``repro trace summarize`` CLI — so a straggler
report reads the same whether it arrives as an exception or as a
post-mortem on a trace directory.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["format_liveness", "summarize_trace_dir"]


def format_liveness(rows) -> str:
    """The per-worker liveness table.

    ``rows`` is an iterable of ``(worker, tags, beat_age_s, last_epoch)``
    where ``tags`` is a pre-rendered string such as ``" [remote]"`` or
    ``" [connection closed]"`` (empty for a plain local worker).
    """
    lines = [
        f"  worker {w}{tags}: last heartbeat {age:.1f}s ago, "
        f"last completed epoch {epoch}"
        for w, tags, age, epoch in rows
    ]
    return "per-worker liveness:\n" + "\n".join(lines)


def summarize_trace_dir(trace_dir) -> str:
    """Render a trace directory (``--trace-dir`` output) for humans."""
    root = Path(trace_dir)
    sections: list[str] = [f"trace summary: {root}"]

    summary = _load_json(root / "summary.json")
    if summary is None:
        return sections[0] + "\n  (no summary.json — not a trace directory?)"

    procs = summary.get("processes") or []
    sections.append(f"processes: {', '.join(procs) if procs else '(none)'}")

    totals = summary.get("sim_phase_totals") or {}
    if totals:
        sections.append("simulated time by phase (sum over ranks / max rank):")
        width = max(len(ph) for ph in totals)
        for ph in sorted(totals):
            ranks = totals[ph]
            sections.append(
                f"  {ph:<{width}}  {sum(ranks) * 1e3:10.3f} ms "
                f"/ {max(ranks) * 1e3:9.3f} ms"
            )

    first_rows, rows = _metrics_rows(root / "metrics.jsonl")
    if rows:
        sections.append("final counters per process:")
        for process in sorted(rows):
            row = rows[process]
            counters = row.get("counters") or {}
            rendered = ", ".join(
                f"{k}={_fmt_num(v)}" for k, v in sorted(counters.items())
            ) or "(none)"
            sections.append(f"  {process} (epoch {row.get('epoch')}): {rendered}")

    faults = [
        _faults_line(process, first_rows[process], rows[process])
        for process in sorted(rows)
        if "minor_faults" in (rows[process].get("gauges") or {})
    ]
    if faults:
        sections.append("page faults per process (getrusage; a steady-state epoch should take ~0):")
        sections.extend(faults)

    shares = [
        f"  {process}: cpu share {_fmt_num(g['cpu_share'])}, spmm parts "
        f"{_fmt_num(g.get('spmm_parts', 0.0))}, gemm parts {_fmt_num(g.get('gemm_parts', 0.0))}, "
        f"pass parts {_fmt_num(g.get('pass_parts', 0.0))}, threads {_fmt_num(g.get('threads', 0.0))}"
        for process in sorted(rows)
        if "cpu_share" in (g := rows[process].get("gauges") or {})
    ]
    if shares:
        sections.append(
            "CPUs per process (spmm / gemm / pass parts: the most one SpMM / GEMM step / "
            "memory-bound pass ran in, two GEMMs side by side being two; threads: live at the end):"
        )
        sections.extend(shares)

    pools = _pool_lines(root / "events.jsonl")
    if pools:
        sections.append("pool formation (s; import: spawn to hello, build: spec sent to ready):")
        sections.extend(pools)

    liveness = summary.get("liveness") or []
    if liveness:
        sections.append(format_liveness(liveness))
    return "\n".join(sections)


def _pool_lines(path: Path) -> list[str]:
    """One line per ``launcher.spawn_pool`` span: per worker, the seconds
    from the span's start to the launcher hearing its hello (spawn plus
    imports) and from the spec's send to its ready report (its slice
    build)."""
    if not path.exists():
        return []
    pools: list[dict] = []
    for line in path.read_text().splitlines():
        try:
            ev = json.loads(line)
        except json.JSONDecodeError:
            continue
        if ev.get("process") != "launcher":
            continue
        name, ts, args = ev.get("name"), ev.get("ts_us", 0.0), ev.get("args") or {}
        if name == "launcher.spawn_pool" and ev.get("ph") == "B":
            pools.append({"t0": ts, "args": args, "spec": None, "hello": {}, "ready": {}})
        elif pools and name == "launcher.spec":
            pools[-1]["spec"] = ts
        elif pools and name in ("launcher.hello", "launcher.ready"):
            pools[-1][name.split(".")[1]][args.get("worker")] = ts
    lines = []
    for i, pool in enumerate(pools, start=1):
        cells = []
        for w in sorted(pool["hello"].keys() | pool["ready"].keys()):
            hello, ready = pool["hello"].get(w), pool["ready"].get(w)
            imp = "?" if hello is None else f"{(hello - pool['t0']) / 1e6:.2f}"
            build = "?" if ready is None or pool["spec"] is None else f"{(ready - pool['spec']) / 1e6:.2f}"
            cells.append(f"worker {w} import {imp} build {build}")
        args = pool["args"]
        head = f"  pool {i} ({args.get('workers', '?')} workers, {args.get('transport', '?')})"
        lines.append(f"{head}: " + (", ".join(cells) or "no worker reported"))
    return lines


def _faults_line(process: str, first: dict, last: dict) -> str:
    """One process's fault gauges, per epoch between its first and last
    snapshot (no epoch apart: from process start, set-up included)."""
    g0, e0 = first.get("gauges") or {}, first.get("epoch", 0)
    g1, e1 = last["gauges"], last.get("epoch", 0)
    if e1 <= e0:
        g0, e0 = {}, 0
    rate = (g1["minor_faults"] - g0.get("minor_faults", 0.0)) / max(1, e1 - e0)
    graph = "".join(f", {k}={_fmt_num(g1[k])}" for k in ("adjacency_bytes", "activation_bytes") if k in g1)
    return (
        f"  {process}: minor_faults={rate:.1f} per epoch over epochs {e0 + 1}-{e1}, major_faults="
        f"{_fmt_num(g1.get('major_faults', 0.0))}, max_rss_kb={_fmt_num(g1.get('max_rss_kb', 0.0))}{graph}"
    )


def _metrics_rows(path: Path) -> tuple[dict, dict]:
    """The first and the last snapshot per process (counters and the
    ``getrusage`` gauges are cumulative)."""
    first: dict[str, dict] = {}
    last: dict[str, dict] = {}
    if not path.exists():
        return first, last
    for line in path.read_text().splitlines():
        try:
            row = json.loads(line)
        except json.JSONDecodeError:
            continue
        process = row.get("process", "?")
        first.setdefault(process, row)
        if row.get("epoch", -1) >= last.get(process, row).get("epoch", -1):
            last[process] = row
    return first, last


def _load_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None


def _fmt_num(v) -> str:
    if isinstance(v, float) and not v.is_integer():
        return f"{v:.3f}"
    return str(int(v))
