"""Benchmark-side timing wrappers around the program's public kernel seams.

The traced pass measures ``repro.*`` from outside: nothing under ``src/``
changes.  :class:`Probes` temporarily replaces public functions and methods
(``sparse.ops.spmm``, ``BlockDiagSpmm.apply*``, ``stack_matmul``,
``Adam.step``, the ``AxisCommunicator`` collectives, ``PendingCollective.wait``,
``ClockStore.record_*`` ...) with wrappers that add up wall time, call
counts and computed work (bytes, flops) per *group* — one group per
reported metric.  Each group belongs to one of the survey's cost classes
(aggregation / combination / communication); a class is charged only for
its outermost active probe, so nested seams (``record_all`` inside
``wait``, ``spmm`` inside ``apply_stacked``) never count twice and the four
shares (with the unprobed remainder) sum to the epoch.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

AGGREGATION = "aggregation"
COMBINATION = "combination"
COMMUNICATION = "communication"

_AXIS_NAMES = {0: "z", 1: "x", 2: "y"}  # AxisComm.axis: cube position -> grid axis


class Probes:
    def __init__(self) -> None:
        self.ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.work: dict[str, float] = defaultdict(float)
        self.class_ns: dict[str, int] = defaultdict(int)
        self._depth: dict[str, int] = defaultdict(int)
        self._class_depth = 0
        self._undo: list = []
        #: id(PendingCollective) -> axis name, so wait() time lands on the
        #: axis that issued it (handles are slotted: no attribute to hang on)
        self._handle_axis: dict[int, str] = {}

    # -- wrapping ------------------------------------------------------------
    def _wrap(self, fn, group: str, cls: str, *, count=True, meter=None, after=None):
        ns, calls, depth = self.ns, self.calls, self._depth
        clock = time.perf_counter_ns

        def probe(*args, **kwargs):
            first = depth[group] == 0
            depth[group] += 1
            outer = self._class_depth == 0
            self._class_depth += 1
            if count:
                calls[group] += 1
            if meter is not None:
                meter(self.work, *args, **kwargs)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                depth[group] -= 1
                self._class_depth -= 1
                if first:
                    ns[group] += dt
                if outer:
                    self.class_ns[cls] += dt
            if after is not None:
                after(dt, out, *args)
            return out

        probe.__wrapped__ = fn
        return probe

    def _patch_attr(self, owner, name: str, **kw) -> None:
        original = getattr(owner, name)
        setattr(owner, name, self._wrap(original, **kw))
        self._undo.append((owner, name, original))

    def _patch_function(self, module, name: str, **kw) -> None:
        """Replace a module-level function everywhere ``repro`` bound it:
        ``from repro.sparse.ops import spmm`` copies the reference into the
        importing module, so every such copy is swapped too."""
        original = getattr(module, name)
        wrapped = self._wrap(original, **kw)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    self._undo.append((mod, attr, original))

    def install(self) -> None:
        from repro.core import batch
        from repro.dist import comm
        from repro.dist.cluster import ClockStore
        from repro.nn import functional
        from repro.nn.optim import Adam
        from repro.sparse import ops

        # aggregation: the whole-grid SpMM as the layers call it; the inner
        # spmm seam carries the call count and the computed flops
        for name in ("apply", "apply_batched"):
            self._patch_attr(
                batch.BlockDiagSpmm, name, group="sparse.spmm", cls=AGGREGATION, count=False
            )
        self._patch_function(ops, "spmm", group="sparse.spmm", cls=AGGREGATION, meter=_spmm_work)
        # combination: the three GEMMs of Algorithms 1-2, activations, Adam
        for name in ("stack_matmul", "batched_matmul"):
            self._patch_function(
                batch, name, group="core.batch.matmul", cls=COMBINATION, meter=_matmul_work
            )
        for name in ("relu", "relu_grad"):
            self._patch_function(functional, name, group="nn.functional.act", cls=COMBINATION)
        self._patch_attr(Adam, "step", group="nn.optim.adam", cls=COMBINATION)
        # communication: issue (incl. the data movement and the schedule),
        # wait, and the simulated-clock bookkeeping they and the kernels drive
        for name in ("all_reduce", "all_gather", "reduce_scatter"):
            self._patch_attr(
                comm.AxisCommunicator, name, group="dist.comm.issue", cls=COMMUNICATION,
                meter=_comm_work, after=self._after_issue,
            )
        self._patch_attr(
            comm.PendingCollective, "wait", group="dist.comm.wait", cls=COMMUNICATION,
            count=False, after=self._after_wait,
        )
        for name in (
            "stacked_all_reduce_data", "stacked_all_gather_data", "stacked_reduce_scatter_data"
        ):
            self._patch_function(comm, name, group="dist.comm.data", cls=COMMUNICATION, count=False)
        for name in ("record_at", "record_all", "record_idx"):
            self._patch_attr(ClockStore, name, group="dist.cluster.record", cls=COMMUNICATION)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)
        self._handle_axis.clear()

    # -- per-axis attribution --------------------------------------------------
    def _after_issue(self, dt: int, handle, communicator, *_):
        axis = _AXIS_NAMES[communicator.descriptor.axis]
        self.ns["dist.comm." + axis] += dt
        self._handle_axis[id(handle)] = axis

    def _after_wait(self, dt: int, _result, handle, *_):
        axis = self._handle_axis.pop(id(handle), None)
        if axis is not None:
            self.ns["dist.comm." + axis] += dt

    # -- reading ---------------------------------------------------------------
    def snapshot(self) -> dict:
        """A flat copy of every running total (taken once per epoch)."""
        out = {"ns:" + k: v for k, v in self.ns.items()}
        out.update(("calls:" + k, v) for k, v in self.calls.items())
        out.update(("work:" + k, v) for k, v in self.work.items())
        out.update(("class:" + k, v) for k, v in self.class_ns.items())
        return out


# -- computed work (labelled "computed" in the report: no hardware counter) ----
def _spmm_work(work, a, f):
    work["sparse.spmm.flops"] += 2.0 * a.nnz * f.shape[-1]


def _extents(x):
    """Per-rank (rows, cols) of a stacked operand of either kind, summed
    products computed from valid extents only (pads do no useful work)."""
    rows = getattr(x, "rows", None)
    if rows is None:  # plain (world, m, n) ndarray or a per-rank list
        if isinstance(x, (list, tuple)):
            return [s.shape[0] for s in x], [s.shape[1] for s in x]
        return [x.shape[1]] * x.shape[0], [x.shape[2]] * x.shape[0]
    cols = x.cols if x.cols is not None else [x.data.shape[2]] * len(rows)
    return list(rows), list(cols)


def _matmul_work(work, a, b, ta=False, tb=False):
    am, ak = _extents(a)
    bk, bn = _extents(b)
    if ta:
        am, ak = ak, am
    if tb:
        bk, bn = bn, bk
    work["core.batch.matmul.flops"] += 2.0 * sum(
        float(m) * float(k) * float(n) for m, k, n in zip(am, ak, bn)
    )


def _comm_work(work, _communicator, stacked, *_args, **_kwargs):
    valid = getattr(stacked, "valid_nbytes", None)
    work["dist.comm.bytes"] += float(valid().sum()) if valid is not None else float(stacked.nbytes)


def count_python_calls(fn) -> int:
    """Exact number of Python-level function calls ``fn()`` makes."""
    n = 0

    def profiler(_frame, event, _arg):
        nonlocal n
        if event == "call":
            n += 1

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return n
