"""Machine models for the simulator.

A :class:`MachineModel` is the runtime counterpart of a catalog
:class:`~repro.machines.spec.MachineSpec`: node count, *sustained* per-node
rate, per-node memory, and an interconnect.  Sustained rates are peak times
an architecture-dependent efficiency (vector machines sustain a far larger
fraction of peak than cache-based micros — part of why the paper warns that
CTP "is too imprecise to adequately distinguish between the deliverable
performance of systems").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._util import check_positive
from repro.machines.spec import Architecture
from repro.simulate.interconnect import (
    ETHERNET_10,
    Interconnect,
    PARAGON_MESH,
    SMP_BUS,
)

__all__ = [
    "MachineModel",
    "SUSTAINED_FRACTION",
    "smp_machine",
    "mpp_machine",
    "cluster_machine",
    "hierarchical_machine",
    "vector_machine",
]

#: Sustained fraction of peak node rate by architecture class.
SUSTAINED_FRACTION: dict[Architecture, float] = {
    Architecture.VECTOR: 0.50,
    Architecture.SMP: 0.20,
    Architecture.MPP: 0.18,
    Architecture.DEDICATED_CLUSTER: 0.18,
    Architecture.AD_HOC_CLUSTER: 0.15,
    Architecture.UNIPROCESSOR: 0.20,
}


@dataclass(frozen=True)
class MachineModel:
    """A runnable machine configuration.

    Attributes
    ----------
    node_mops_per_s:
        Sustained per-node rate in millions of operations per second.
    node_memory_mb:
        Memory per node (an SMP's nodes share one pool; see
        ``shared_memory``).
    interconnect:
        The fabric connecting nodes.
    shared_memory:
        True for SMPs: the workload's closely-coupled memory floor is
        checked against the whole machine's pool, and halo "communication"
        happens over the memory bus.
    """

    name: str
    architecture: Architecture
    n_nodes: int
    node_mops_per_s: float
    node_memory_mb: float
    interconnect: Interconnect
    shared_memory: bool = False
    #: Processors per shared-memory hypernode (1 = flat machine).  When
    #: >1 the machine is hierarchical (Exemplar-style): halo traffic
    #: inside a hypernode moves over the memory bus, traffic between
    #: hypernodes over ``interconnect``.
    hypernode_size: int = 1
    notes: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError(f"{self.name}: n_nodes must be >= 1")
        check_positive(self.node_mops_per_s, f"{self.name}: node_mops_per_s")
        check_positive(self.node_memory_mb, f"{self.name}: node_memory_mb")
        if self.hypernode_size < 1:
            raise ValueError(f"{self.name}: hypernode_size must be >= 1")
        if self.n_nodes % self.hypernode_size != 0:
            raise ValueError(
                f"{self.name}: n_nodes must be a multiple of hypernode_size"
            )

    @property
    def aggregate_mops_per_s(self) -> float:
        """Total sustained compute rate."""
        return self.n_nodes * self.node_mops_per_s

    @property
    def total_memory_mb(self) -> float:
        return self.n_nodes * self.node_memory_mb

    def with_nodes(self, n: int) -> "MachineModel":
        """The same machine at a different node count."""
        if n < 1:
            raise ValueError("n must be >= 1")
        if n % self.hypernode_size != 0:
            raise ValueError(
                f"{self.name}: {n} nodes not a multiple of the "
                f"{self.hypernode_size}-processor hypernode"
            )
        return MachineModel(
            name=self.name,
            architecture=self.architecture,
            n_nodes=n,
            node_mops_per_s=self.node_mops_per_s,
            node_memory_mb=self.node_memory_mb,
            interconnect=self.interconnect,
            shared_memory=self.shared_memory,
            hypernode_size=self.hypernode_size,
            notes=self.notes,
        )


def smp_machine(
    n: int = 16,
    peak_node_mops: float = 450.0,
    node_memory_mb: float = 256.0,
    bus: Interconnect = SMP_BUS,
    name: str | None = None,
) -> MachineModel:
    """A shared-memory multiprocessor (PowerChallenge-class default)."""
    return MachineModel(
        name=name or f"SMP ({n} proc)",
        architecture=Architecture.SMP,
        n_nodes=n,
        node_mops_per_s=peak_node_mops * SUSTAINED_FRACTION[Architecture.SMP],
        node_memory_mb=node_memory_mb,
        interconnect=bus,
        shared_memory=True,
    )


def mpp_machine(
    n: int = 128,
    peak_node_mops: float = 250.0,
    node_memory_mb: float = 64.0,
    fabric: Interconnect = PARAGON_MESH,
    name: str | None = None,
) -> MachineModel:
    """A distributed-memory MPP (Paragon-class default)."""
    return MachineModel(
        name=name or f"MPP ({n} nodes)",
        architecture=Architecture.MPP,
        n_nodes=n,
        node_mops_per_s=peak_node_mops * SUSTAINED_FRACTION[Architecture.MPP],
        node_memory_mb=node_memory_mb,
        interconnect=fabric,
    )


def cluster_machine(
    n: int = 16,
    peak_node_mops: float = 300.0,
    node_memory_mb: float = 128.0,
    network: Interconnect = ETHERNET_10,
    dedicated: bool = False,
    name: str | None = None,
) -> MachineModel:
    """A cluster of workstations.

    ``dedicated=True`` models rack-mounted same-model machines on a faster
    interconnect (pass e.g. ``network=ATM_155``); the default is the ad hoc
    office-LAN farm.
    """
    arch = (
        Architecture.DEDICATED_CLUSTER if dedicated else Architecture.AD_HOC_CLUSTER
    )
    return MachineModel(
        name=name or f"{'dedicated' if dedicated else 'ad hoc'} cluster ({n})",
        architecture=arch,
        n_nodes=n,
        node_mops_per_s=peak_node_mops * SUSTAINED_FRACTION[arch],
        node_memory_mb=node_memory_mb,
        interconnect=network,
    )


def hierarchical_machine(
    n_hypernodes: int = 8,
    procs_per_hypernode: int = 8,
    peak_node_mops: float = 300.0,
    node_memory_mb: float = 256.0,
    fabric: Interconnect = PARAGON_MESH,
    name: str | None = None,
) -> MachineModel:
    """An Exemplar-style hierarchical machine: shared-memory hypernodes
    "grouped together in a distributed-memory fashion" (Chapter 3).

    Memory feasibility is per hypernode pool (a hypernode's processors
    share memory), handled by the execution model via ``hypernode_size``.
    """
    if n_hypernodes < 1 or procs_per_hypernode < 1:
        raise ValueError("hypernode counts must be >= 1")
    return MachineModel(
        name=name or (f"hierarchical ({n_hypernodes} x "
                      f"{procs_per_hypernode})"),
        architecture=Architecture.MPP,
        n_nodes=n_hypernodes * procs_per_hypernode,
        node_mops_per_s=peak_node_mops * SUSTAINED_FRACTION[Architecture.MPP],
        node_memory_mb=node_memory_mb,
        interconnect=fabric,
        hypernode_size=procs_per_hypernode,
    )


def vector_machine(
    n: int = 16,
    peak_node_mops: float = 1_725.0,
    node_memory_mb: float = 2_048.0,
    name: str | None = None,
) -> MachineModel:
    """A vector-pipelined supercomputer (C916-class default).

    Modeled as a shared-memory machine with very high sustained node rates
    and a generous memory pool.
    """
    return MachineModel(
        name=name or f"vector ({n} proc)",
        architecture=Architecture.VECTOR,
        n_nodes=n,
        node_mops_per_s=peak_node_mops * SUSTAINED_FRACTION[Architecture.VECTOR],
        node_memory_mb=node_memory_mb,
        interconnect=SMP_BUS,
        shared_memory=True,
    )
