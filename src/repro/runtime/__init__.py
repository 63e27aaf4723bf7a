"""Multi-process execution runtime: the simulator sharded across OS processes.

``repro.runtime`` executes the model across a pool of worker
processes, each owning a contiguous z-slice of the rank cube, with a real
zero-copy shared-memory tensor transport underneath the existing
:class:`~repro.dist.comm.PendingCollective` handle API:

* :mod:`repro.runtime.shm` — per-worker double-buffered mailbox segments
  and the single-rendezvous exchange (publish the slot's sequence word
  last, wait on every peer's, hand out verified read-only views of their
  frames): a byte mover that knows no schedule and copies nothing out.
* :mod:`repro.runtime.frame` — the one frame format of both buses: record
  table, limits, 64-bit word sum and the frame check's typed errors.
* :mod:`repro.runtime.worker` — the one builder from a workload spec to a
  trainer (the in-process cluster / grid / model on a worker's slice of the
  cube; the worker-crossing Z axis is an ordinary
  :class:`~repro.dist.comm.AxisCommunicator` fed through the bus) and the
  spawned-process command loop (one entry point for both transports),
  which reads the spec from its control connection.
* :mod:`repro.runtime.launch` — :class:`~repro.runtime.launch.MultiprocTrainer`
  (the ``backend="multiproc"`` trainer: concurrent pool formation — the
  workers import side by side, dial the rendezvous, and the spec follows
  their hello, the same on shm and tcp — supervision at EOF on each
  control connection, the in-process trainer's checkpoint surface and
  ``restart()``) and the
  :func:`~repro.runtime.launch.build_trainer` backend seam (the same
  builder on the whole cube for ``"inproc"``).
* :mod:`repro.runtime.checkpoint` — epoch-boundary checkpoint/restore:
  per-worker slice files plus a sealing manifest, reassembled and
  re-sliced across worker layouts and backends, and the one checkpoint
  loop of both backends, :func:`~repro.runtime.checkpoint.train_to`
  (resume, checkpointed stretches, replay after a pool failure).
* :mod:`repro.runtime.faults` — the deterministic fault-injection harness
  (:class:`~repro.runtime.faults.FaultPlan` chaos schedules threaded
  through the workload spec), including the network fault action
  ``drop_conn`` injected inside the tcp transport.
* :mod:`repro.runtime.rendezvous` — the one control plane of both
  transports: the signed-manifest rendezvous/launcher protocol every
  worker dials, with heartbeats on the control connection.  It is also
  how a tcp pool spans machines: ``repro host`` dials the launcher's
  ``host:port`` with the deployment's ``$PLEXUS_AUTHKEY``.
* :mod:`repro.runtime.net` — the tcp worker fabric (``transport="tcp"``):
  the socket drop-in for the shared-memory bus; a lost peer connection is
  a typed pool failure that ``train_to`` replays.

One deadline bounds every wait: the trainer's ``timeout``.  A bus exchange
waits at most that long for its peers (shm and tcp alike), and the
launcher declares a worker wedged when its reply is awaited and it has
sent nothing for 2 x ``timeout``; a pool forms within the larger of
:data:`~repro.runtime.net.POOL_FORMATION_S` and 2 x ``timeout``.

Guarantee: ``backend="multiproc"`` is bitwise identical to
``backend="inproc"`` — losses, weights, per-rank clocks and phase totals —
on every sharding, divisible or padded (quasi-equal shards cross the bus
with their valid extents), eager or overlap schedules (a Z link's
busy-until time is replicated in every worker under its key),
``evaluate()`` included; the in-process simulator
remains the parity oracle.  Refused at construction, typed, before a
worker spawns: a fault plan aimed at the other transport.
"""

from repro.runtime.checkpoint import latest_checkpoint, prune_checkpoints
from repro.runtime.faults import FaultInjector, FaultPlan
from repro.runtime.launch import MultiprocTrainer, WorkloadSpec, build_trainer, host_workers
from repro.runtime.net import TcpBus
from repro.runtime.rendezvous import RendezvousListener, connect_rendezvous
from repro.runtime.shm import ShmBus, cleanup_orphans
from repro.runtime.worker import worker_slice

__all__ = [
    "MultiprocTrainer",
    "WorkloadSpec",
    "build_trainer",
    "host_workers",
    "FaultPlan",
    "FaultInjector",
    "latest_checkpoint",
    "prune_checkpoints",
    "ShmBus",
    "cleanup_orphans",
    "TcpBus",
    "RendezvousListener",
    "connect_rendezvous",
    "worker_slice",
]
