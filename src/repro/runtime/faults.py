"""Fault-injection harness for the multi-process runtime.

Chaos testing needs faults that are *deterministic*: a :class:`FaultPlan`
names exactly where in the execution a failure fires — which worker, which
epoch, which rendezvous within that epoch, and at which of the runtime's
three injection points:

* ``"pre_barrier"``  — after the worker has written its frame into its
  mailbox slot (tcp: before its first send), before it publishes the
  slot's sequence word: the frame is still invisible to the peers, which
  are left waiting at the rendezvous;
* ``"mid_collective"`` — after the worker has observed every peer's
  published frame, before it copies them out (its own frame is published;
  peers may be mid-read of it);
* ``"post_epoch"``  — right after an epoch's accounting closes (the
  checkpoint-consistent boundary).

Actions:

* ``"die"``     — hard ``os._exit(EXIT_CODE)`` (SIGKILL-like: no cleanup,
  no error report; what a preempted spot instance looks like);
* ``"raise"``   — raise an exception inside the worker (exercises the
  traceback-threading path of the supervisor);
* ``"delay"``   — sleep :data:`DELAY_S` before proceeding (a late rendezvous
  arrival — at ``pre_barrier`` over tcp, a stall before the exchange's
  sends; simulated clocks are wall-time independent, so results must stay
  bitwise identical);
* ``"hang"``    — sleep effectively forever (a wedged worker: a peer
  waiting on it at the bus raises after the trainer's ``timeout``; a
  worker no peer waits on is declared wedged by the launcher after
  2 x ``timeout`` of silence);
* ``"corrupt"`` — flip one byte of the worker's own payload (valid at
  ``pre_barrier`` only: the payload exists and is not yet published): on
  shm the written mailbox slot or its overflow segment, on tcp the
  outgoing frame while its word sum still describes the original.  Every
  peer's frame check then raises :class:`~repro.errors.PayloadCorruption`
  instead of consuming garbage.

The network action (``transport="tcp"`` only; armed at ``pre_barrier``,
the transport applies it to the exchange in flight):

* ``"drop_conn"`` — close every peer socket of the worker's endpoint.  The
  transport never reconnects: the worker and each peer it then fails to
  rendezvous with raise a typed :class:`~repro.errors.BarrierTimeout`
  naming the other, and :func:`~repro.runtime.checkpoint.train_to` replays
  from the epoch-boundary checkpoint, bitwise.

Plans ride through :class:`~repro.runtime.launch.WorkloadSpec` (picklable
dataclasses, shipped at spawn) and fire exactly once.  A plan that could
never fire — aimed at a worker outside the pool, at a negative epoch or
exchange, or a network action on shm — is a ``ValueError`` in the launcher
before any worker spawns.  On respawn after a
recovery the launcher strips the plans: injected faults model *transient*
failures, so the replayed run executes clean.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

__all__ = [
    "FAULT_POINTS",
    "FAULT_ACTIONS",
    "DELAY_S",
    "EXIT_CODE",
    "NETWORK_ACTIONS",
    "FaultPlan",
    "FaultInjector",
    "build_injector",
]

FAULT_POINTS = ("pre_barrier", "mid_collective", "post_epoch")
NETWORK_ACTIONS = ("drop_conn",)
FAULT_ACTIONS = ("die", "raise", "delay", "hang", "corrupt") + NETWORK_ACTIONS

#: a "delay" sleeps this long; a "die" exits with this code
DELAY_S = 0.5
EXIT_CODE = 43

#: "hang" sleeps this long — far beyond any deadline of the runtime, but
#: finite so an escaped worker cannot outlive CI's hard timeout forever
_HANG_S = 3600.0


class InjectedFault(Exception):
    """The exception a ``"raise"`` fault plan throws inside the worker."""


@dataclass(frozen=True)
class FaultPlan:
    """One scheduled fault (picklable; threaded through the workload spec).

    ``epoch`` is the global 0-based epoch index during which the fault
    fires (for ``post_epoch``: right after that epoch completes), and
    ``exchange`` picks the Nth bus rendezvous *within* that epoch for the
    exchange-level points.
    """

    worker: int
    point: str
    action: str = "die"
    epoch: int = 0
    exchange: int = 0

    def __post_init__(self) -> None:
        if self.point not in FAULT_POINTS:
            raise ValueError(f"unknown fault point {self.point!r} (known: {FAULT_POINTS})")
        if self.action not in FAULT_ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r} (known: {FAULT_ACTIONS})")
        if self.action == "corrupt" and self.point != "pre_barrier":
            raise ValueError(
                "corrupt faults fire at 'pre_barrier' only: the payload is "
                "written and not yet published to the peers"
            )
        if self.action in NETWORK_ACTIONS and self.point != "pre_barrier":
            raise ValueError(
                f"network fault action {self.action!r} arms at 'pre_barrier' "
                "only: the transport applies it to the exchange in flight"
            )


class FaultInjector:
    """Worker-local fault trigger: counts epochs and bus rendezvous, fires
    each matching plan exactly once.

    The :class:`~repro.runtime.shm.ShmBus` calls :meth:`fire` at the
    exchange-level points; the worker command loop calls
    :meth:`start_epoch` before each epoch and fires ``post_epoch`` after.
    """

    def __init__(self, plans: list[FaultPlan]) -> None:
        self._plans = list(plans)
        self.epoch = 0
        self._exchange = 0
        self._fired: set[int] = set()

    def start_epoch(self, epoch: int) -> None:
        self.epoch = epoch
        self._exchange = 0

    def exchange_done(self) -> None:
        self._exchange += 1

    def fire(self, point: str, bus=None) -> None:
        for i, plan in enumerate(self._plans):
            if i in self._fired or plan.point != point or plan.epoch != self.epoch:
                continue
            if point != "post_epoch" and plan.exchange != self._exchange:
                continue
            self._fired.add(i)
            self._act(plan, bus)

    def _act(self, plan: FaultPlan, bus) -> None:
        from repro.obs import trace as _trace

        if _trace.enabled:
            _trace.instant(
                f"fault:{plan.action}",
                worker=plan.worker,
                point=plan.point,
                epoch=plan.epoch,
                exchange=plan.exchange,
            )
        if plan.action == "die":
            os._exit(EXIT_CODE)
        elif plan.action == "raise":
            raise InjectedFault(
                f"injected fault at {plan.point} (epoch {plan.epoch}, "
                f"exchange {plan.exchange})"
            )
        elif plan.action == "delay":
            time.sleep(DELAY_S)
        elif plan.action == "hang":
            time.sleep(_HANG_S)
        elif plan.action == "corrupt":
            if bus is None:
                from repro.errors import PlexusRuntimeError

                raise PlexusRuntimeError("corrupt fault fired outside a bus rendezvous")
            bus.corrupt_own_payload()
        elif plan.action in NETWORK_ACTIONS:
            if bus is None:
                from repro.errors import PlexusRuntimeError

                raise PlexusRuntimeError(
                    f"network fault {plan.action!r} fired outside a bus rendezvous"
                )
            bus.inject_network_fault()


def build_injector(faults, worker_id: int) -> FaultInjector | None:
    """The injector for one worker, or None when no plan targets it."""
    if not faults:
        return None
    plans = [p for p in faults if p.worker == worker_id]
    return FaultInjector(plans) if plans else None
