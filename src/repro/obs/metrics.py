"""Process-local metrics registry: counters, gauges, histograms.

One module-level :data:`registry` per process, mirroring the tracer's
buffer-per-process model: the launcher and every worker accumulate into
their own registry, workers ship per-epoch snapshots launcher-ward over
the control plane, and the launcher writes one ``metrics.jsonl`` line
per (epoch, process).

Collection is gated by the same hot-path switch as the tracer
(:data:`repro.obs.trace.enabled`): every instrumented call site checks
the flag before touching the registry, so a disabled run pays one branch
per site and allocates nothing.

Metric kinds:

* **counters** — monotone accumulators (``frames_sent``, ``bytes_sent``,
  ``crc_failures``, ``epochs_done`` ...);
* **gauges** — last-written values (``heartbeat_age_s``,
  ``epochs_per_sec``, the ``getrusage`` readings ``minor_faults`` /
  ``major_faults`` / ``max_rss_kb``, the process's ``cpu_share``,
  ``spmm_parts``, ``gemm_parts``, ``pass_parts`` and ``threads``, a trainer's ``adjacency_bytes`` /
  ``activation_bytes`` ...);
* **histograms** — streaming ``count/sum/min/max`` summaries
  (``exchange_wall_s`` ...) — enough for the summary CLI without storing
  samples.
"""

from __future__ import annotations

import os
import threading

try:  # Unix only; elsewhere the process gauges are simply absent
    import resource
except ImportError:  # pragma: no cover
    resource = None

__all__ = ["MetricsRegistry", "registry"]


class MetricsRegistry:
    """Counters, gauges and streaming histograms for one process."""

    __slots__ = ("counters", "gauges", "hists")

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.hists: dict[str, list] = {}  # name -> [count, sum, min, max]

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = float(value)

    def gauge_process(self, cpu_share: int, spmm_parts: int, gemm_parts: int, pass_parts: int) -> None:
        """Refresh this process's gauges, called before every exported
        snapshot: its ``cpu_share``, the most parts one SpMM ran in
        (``spmm_parts``), one GEMM step (``gemm_parts``: two GEMMs run
        side by side are two) and one memory-bound pass (``pass_parts``:
        a reduction, a zero-fill, an activation), its live ``threads``
        (native ones too), and the ``minor_faults`` / ``major_faults`` /
        ``max_rss_kb`` of ``getrusage`` (cumulative since process start)."""
        self.gauges["cpu_share"] = float(cpu_share)
        self.gauges["spmm_parts"] = float(spmm_parts)
        self.gauges["gemm_parts"] = float(gemm_parts)
        self.gauges["pass_parts"] = float(pass_parts)
        tasks = "/proc/self/task"  # every thread, a BLAS library's included
        self.gauges["threads"] = float(len(os.listdir(tasks)) if os.path.isdir(tasks) else threading.active_count())
        if resource is not None:
            ru = resource.getrusage(resource.RUSAGE_SELF)
            self.gauges["minor_faults"] = float(ru.ru_minflt)
            self.gauges["major_faults"] = float(ru.ru_majflt)
            self.gauges["max_rss_kb"] = float(ru.ru_maxrss)

    def observe(self, name: str, value: float) -> None:
        h = self.hists.get(name)
        if h is None:
            self.hists[name] = [1, float(value), float(value), float(value)]
        else:
            h[0] += 1
            h[1] += value
            h[2] = min(h[2], value)
            h[3] = max(h[3], value)

    def snapshot(self) -> dict:
        """A picklable point-in-time copy (counters keep accumulating)."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "hists": {
                k: {"count": v[0], "sum": v[1], "min": v[2], "max": v[3]}
                for k, v in self.hists.items()
            },
        }

    def clear(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.hists.clear()


#: the process-wide registry every instrumentation site writes to
registry = MetricsRegistry()
