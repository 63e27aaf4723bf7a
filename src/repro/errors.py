"""Typed error hierarchy for the simulator and the execution runtime.

Every failure the runtime can surface — a worker process dying, a wedged
rendezvous, a corrupted shared-memory payload, a misused collective handle
— gets its own exception type here, so supervisors (and tests) can react to
*what* failed instead of string-matching messages.  The hierarchy is
**deprecation-safe**: :class:`PlexusRuntimeError` subclasses the stdlib
``RuntimeError`` every one of these sites used to raise, so existing
``except RuntimeError`` handlers and ``pytest.raises(RuntimeError)``
assertions keep working unchanged.

Worker-scoped failures carry structured context — the worker id, the last
epoch that worker completed, the process exit code, and the worker's
original traceback text (``traceback_text``, threaded launcher-side from
the worker's error report so the root cause survives the process
boundary).  ``str(exc)`` includes the traceback when present.
"""

from __future__ import annotations

__all__ = [
    "PlexusError",
    "PlexusRuntimeError",
    "WorkerCrashed",
    "WorkerFailed",
    "BarrierTimeout",
    "RendezvousDesync",
    "PayloadCorruption",
    "CheckpointError",
    "CollectiveMisuse",
    "PlanReleased",
]


class PlexusError(Exception):
    """Root of the repro exception hierarchy."""


class PlexusRuntimeError(PlexusError, RuntimeError):
    """Base for runtime-layer failures.

    Subclasses :class:`RuntimeError` so every legacy ``except RuntimeError``
    site keeps catching these (deprecation-safe typing).  Optional context
    fields are populated where known:

    * ``worker_id`` — the worker the failure is attributed to;
    * ``last_epoch`` — the last epoch that worker completed (from its
      heartbeat beacons), i.e. where replay must resume;
    * ``exitcode`` — the worker process's exit code, if it died;
    * ``traceback_text`` — the worker's original formatted traceback;
    * ``last_seq`` — the bus message / tcp frame sequence number the
      failure happened at.
    """

    def __init__(
        self,
        message: str,
        *,
        worker_id: int | None = None,
        last_epoch: int | None = None,
        exitcode: int | None = None,
        traceback_text: str | None = None,
        last_seq: int | None = None,
    ) -> None:
        super().__init__(message)
        self.worker_id = worker_id
        self.last_epoch = last_epoch
        self.exitcode = exitcode
        self.traceback_text = traceback_text
        self.last_seq = last_seq

    def __str__(self) -> str:
        base = super().__str__()
        if self.traceback_text:
            return f"{base}\n--- worker traceback ---\n{self.traceback_text}"
        return base


class WorkerCrashed(PlexusRuntimeError):
    """A worker process died (exit/signal) without reporting an error."""


class WorkerFailed(PlexusRuntimeError):
    """A worker raised an exception; its traceback text is attached."""


class BarrierTimeout(PlexusRuntimeError):
    """A rendezvous wait outlasted its deadline or a worker stopped
    heartbeating: a peer died mid-collective, timed out, or wedged."""


class RendezvousDesync(PlexusRuntimeError):
    """The SPMD collective order diverged between workers: a peer at another
    message (shm's sequence word, a tcp frame's seq or kind), or a peer
    frame of another array count or with an unreadable record table."""


class PayloadCorruption(PlexusRuntimeError):
    """A bus frame failed its checksum, the one 64-bit word sum of shm and
    tcp (:mod:`repro.runtime.frame`): the payload bytes read do not match
    what the sender posted."""


class CheckpointError(PlexusRuntimeError):
    """A checkpoint could not be written, located, validated, or restored."""


class CollectiveMisuse(PlexusRuntimeError):
    """A collective handle was used against its contract: waited twice,
    dropped without ``wait()``, or exchanged from the wrong endpoint."""


class PlanReleased(PlexusRuntimeError):
    """An SpMM plan was used after ``release()`` dropped the adjacency it
    stores (a frozen layer 0's forward plan, after its one forward)."""
