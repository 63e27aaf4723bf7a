"""Machine topology specifications (Sec. 6.1).

A :class:`MachineSpec` is the static description of one supercomputer the
simulated runtime models: GPUs per node, intra-node interconnect bandwidth,
NIC count and per-NIC injection bandwidth, and the compute-device model the
kernel cost functions run with.  The two evaluation machines of the paper
(Perlmutter and Frontier) are shipped as constants, plus a single-node
``LAPTOP`` spec for tests and local experimentation.

Ranks map to nodes in contiguous blocks of ``gpus_per_node`` — the
block placement every Slurm launch of the paper uses — which is what makes
the topology-aware rank ordering of Sec. 4.2 (Y fastest) pack Y-groups into
nodes first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.gpu.device import A100_40GB, CPU_DEVICE, MI250X_GCD, DeviceSpec

__all__ = [
    "MachineSpec",
    "PERLMUTTER",
    "FRONTIER",
    "LAPTOP",
    "machine_by_name",
]


@dataclass(frozen=True)
class MachineSpec:
    """Static description of one machine's node and network topology."""

    name: str
    #: GPUs (Frontier: GCDs) per node
    gpus_per_node: int
    #: aggregate per-GPU interconnect bandwidth inside a node (NVLink /
    #: Infinity Fabric), bytes/s
    intra_node_bw: float
    #: injection bandwidth of one NIC, bytes/s
    nic_bw: float
    #: NICs per node (Slingshot-11 on both machines: 4)
    nics_per_node: int
    #: compute-device model used for kernel times on this machine
    device: DeviceSpec
    #: per-hop link latency charged per ring step, seconds
    latency: float = 2.0e-6
    #: per-collective launch cost charged to every member at issue time,
    #: seconds.  Every axis descriptor carries it
    #: (``AxisComm.issue_overhead_s``); 0.0 (the shipped machines) keeps
    #: eager numerics bitwise identical to the historical collectives.
    #: Calibrate per machine when modeling NIC doorbell/launch costs.
    issue_overhead_s: float = 0.0

    def __post_init__(self) -> None:
        if self.gpus_per_node < 1:
            raise ValueError("gpus_per_node must be >= 1")
        if self.intra_node_bw <= 0 or self.nic_bw <= 0:
            raise ValueError("bandwidths must be positive")
        if self.nics_per_node < 1:
            raise ValueError("nics_per_node must be >= 1")
        if self.latency < 0:
            raise ValueError("latency must be non-negative")
        if self.issue_overhead_s < 0:
            raise ValueError("issue_overhead_s must be non-negative")

    @property
    def inter_node_bw(self) -> float:
        """A node's aggregate injection bandwidth: all NICs together."""
        return self.nic_bw * self.nics_per_node

    def node_of(self, rank: int) -> int:
        """Node index of a global rank under block placement."""
        if rank < 0:
            raise ValueError("rank must be non-negative")
        return rank // self.gpus_per_node

    def group_is_intra_node(self, ranks: Iterable[int]) -> bool:
        """True when every rank of the group lives on the same node."""
        nodes = {self.node_of(r) for r in ranks}
        if not nodes:
            raise ValueError("group must contain at least one rank")
        return len(nodes) == 1


#: NERSC Perlmutter: 4x A100-40GB per node, NVLink3 all-to-all inside the
#: node, 4 Slingshot-11 NICs at 25 GB/s each (Sec. 6.1).
PERLMUTTER = MachineSpec(
    name="perlmutter",
    gpus_per_node=4,
    intra_node_bw=200e9,
    nic_bw=25e9,
    nics_per_node=4,
    device=A100_40GB,
)

#: OLCF Frontier: 4x MI250X per node = 8 GCDs, Infinity Fabric inside the
#: node, 4 Slingshot-11 NICs at 25 GB/s each (Sec. 6.1).
FRONTIER = MachineSpec(
    name="frontier",
    gpus_per_node=8,
    intra_node_bw=150e9,
    nic_bw=25e9,
    nics_per_node=4,
    device=MI250X_GCD,
)

#: Single-node pseudo-machine for unit tests: everything is intra-node.
LAPTOP = MachineSpec(
    name="laptop",
    gpus_per_node=64,
    intra_node_bw=32e9,
    nic_bw=8e9,
    nics_per_node=1,
    device=CPU_DEVICE,
    latency=1.0e-6,
)


_REGISTRY: dict[str, MachineSpec] = {m.name: m for m in (PERLMUTTER, FRONTIER, LAPTOP)}


def machine_by_name(name: str) -> MachineSpec:
    """Case-insensitive lookup of a shipped machine spec."""
    key = name.strip().lower()
    if key not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown machine {name!r} (known: {known})")
    return _REGISTRY[key]
