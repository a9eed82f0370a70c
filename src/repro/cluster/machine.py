"""Cluster specifications: devices + hosts + interconnect.

The four presets correspond to Table 2 of the paper:

========  =====================  ======  ==========================================
System    GPUs                   Nodes   Interconnect
========  =====================  ======  ==========================================
I         8 x A100 (80GB)        1       fully-connected NVLink (Fig 9a)
II        8 x A100 (80GB)        1       NVLink between adjacent pairs, PCIe else
III       16 x 4 x A100 (40GB)   16      NVLink intra-node, InfiniBand HDR dragonfly
IV        64 x 1 x P100 (16GB)   64      Aries dragonfly
========  =====================  ======  ==========================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cluster.device import Device, DeviceKind, a100, host_cpu, p100
from repro.cluster.topology import LinkType, Topology
from repro.utils.units import GB


@dataclass
class ClusterSpec:
    """A set of GPUs (ordered by global rank), host CPUs (one per node) and
    the interconnect topology spanning all of them.

    ``topology`` must contain every GPU and CPU device name; GPU<->host links
    carry offloading traffic (§3.2 heterogeneous training).
    """

    name: str
    gpus: List[Device]
    cpus: List[Device]
    topology: Topology
    alpha: float = 5e-6  #: per-message software launch overhead (s)
    #: bandwidth-ramp time constant: a link reaches half its peak for
    #: messages of ``peak_bw * bw_ramp_time`` bytes (NCCL-style bus-bandwidth
    #: curve; ~32 MB on 200 GB/s NVLink, ~1.6 MB on 10 GB/s Aries).
    #: Effective bw = peak * s / (s + peak * bw_ramp_time).
    bw_ramp_time: float = 1.6e-4

    def __post_init__(self) -> None:
        self._cpu_by_node: Dict[int, Device] = {c.node: c for c in self.cpus}

    @property
    def world_size(self) -> int:
        return len(self.gpus)

    def device(self, rank: int) -> Device:
        return self.gpus[rank]

    def cpu_of(self, rank: int) -> Device:
        """Host CPU on the same node as GPU ``rank``."""
        return self._cpu_by_node[self.gpus[rank].node]

    def h2d_bandwidth(self, rank: int) -> float:
        """CPU <-> GPU transfer bandwidth for rank's node (bytes/s)."""
        gpu = self.gpus[rank]
        cpu = self.cpu_of(rank)
        return self.topology.bandwidth(cpu.name, gpu.name)

    def gpu_names(self, ranks: Optional[List[int]] = None) -> List[str]:
        if ranks is None:
            ranks = list(range(self.world_size))
        return [self.gpus[r].name for r in ranks]

    def reset(self) -> None:
        """Reset every memory pool (between experiments)."""
        for dev in self.gpus + self.cpus:
            dev.memory.reset()


def _attach_hosts(
    topo: Topology, gpus: List[Device], cpus: List[Device]
) -> None:
    for cpu in cpus:
        topo.add_device(cpu.name)
    by_node: Dict[int, Device] = {c.node: c for c in cpus}
    for gpu in gpus:
        topo.add_link(by_node[gpu.node].name, gpu.name, LinkType.HOST)


def system_i(efficiency: float = 0.45) -> ClusterSpec:
    """System I: single node, 8x A100-80GB, fully-connected NVLink."""
    gpus = [a100(f"gpu{i}", node=0, memory_gb=80) for i in range(8)]
    for g in gpus:
        g.efficiency = efficiency
    topo = Topology.fully_connected([g.name for g in gpus], LinkType.NVLINK)
    cpus = [host_cpu("cpu0", node=0)]
    _attach_hosts(topo, gpus, cpus)
    return ClusterSpec("system-i", gpus, cpus, topo)


def system_ii(efficiency: float = 0.45) -> ClusterSpec:
    """System II: single node, 8x A100-80GB, NVLink only between adjacent
    pairs and PCIe between distant GPUs (Fig 9b)."""
    gpus = [a100(f"gpu{i}", node=0, memory_gb=80) for i in range(8)]
    for g in gpus:
        g.efficiency = efficiency
    topo = Topology.pairwise_nvlink([g.name for g in gpus])
    cpus = [host_cpu("cpu0", node=0)]
    _attach_hosts(topo, gpus, cpus)
    return ClusterSpec("system-ii", gpus, cpus, topo)


def system_iii(n_nodes: int = 16, efficiency: float = 0.45) -> ClusterSpec:
    """System III: ``n_nodes`` x 4 A100-40GB, InfiniBand HDR dragonfly."""
    gpus: List[Device] = []
    node_names: List[List[str]] = []
    for node in range(n_nodes):
        names = []
        for i in range(4):
            g = a100(f"gpu{node * 4 + i}", node=node, memory_gb=40)
            g.efficiency = efficiency
            gpus.append(g)
            names.append(g.name)
        node_names.append(names)
    topo = Topology.multi_node(
        node_names, intra_link=LinkType.NVLINK, inter_link=LinkType.INFINIBAND
    )
    cpus = [host_cpu(f"cpu{n}", node=n, memory_gb=256) for n in range(n_nodes)]
    _attach_hosts(topo, gpus, cpus)
    return ClusterSpec("system-iii", gpus, cpus, topo)


def system_iv(n_nodes: int = 64, efficiency: float = 0.40) -> ClusterSpec:
    """System IV: ``n_nodes`` x 1 P100-16GB over a Cray Aries dragonfly."""
    gpus: List[Device] = []
    node_names: List[List[str]] = []
    for node in range(n_nodes):
        g = p100(f"gpu{node}", node=node, memory_gb=16)
        g.efficiency = efficiency
        gpus.append(g)
        node_names.append([g.name])
    topo = Topology.multi_node(
        node_names, intra_link=LinkType.NVLINK, inter_link=LinkType.ARIES
    )
    cpus = [host_cpu(f"cpu{n}", node=n, memory_gb=128) for n in range(n_nodes)]
    _attach_hosts(topo, gpus, cpus)
    return ClusterSpec("system-iv", gpus, cpus, topo)


def uniform_cluster(
    world_size: int,
    memory_gb: float = 16,
    link: LinkType = LinkType.NVLINK,
    cpu_memory_gb: int = 512,
    efficiency: float = 0.45,
) -> ClusterSpec:
    """Generic single-node cluster for tests: ``world_size`` identical GPUs
    with all-pairs links of one type."""
    gpus = [
        Device(
            name=f"gpu{i}",
            kind=DeviceKind.GPU,
            memory_capacity=int(memory_gb * GB),
            efficiency=efficiency,
        )
        for i in range(world_size)
    ]
    topo = Topology.fully_connected([g.name for g in gpus], link)
    cpus = [host_cpu("cpu0", node=0, memory_gb=cpu_memory_gb)]
    _attach_hosts(topo, gpus, cpus)
    return ClusterSpec(f"uniform-{world_size}", gpus, cpus, topo)
