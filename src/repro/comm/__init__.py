"""Communication substrate.

An MPI-flavoured communicator (mpi4py naming: lowercase methods move Python
payloads — here numpy arrays or :class:`SpecArray` shape stand-ins) executed
over the SPMD thread runtime.  Every operation

* actually moves/combines data when materialized (collectives are
  numerically exact, which is what the parity tests rely on),
* charges simulated time to the participating ranks' clocks via the
  alpha-beta cost model over the cluster topology, and
* counts wire traffic (bytes and elements) per process group — the
  measurement behind Table 1 / Fig 5.
"""

from repro.comm.payload import SpecArray
from repro.comm.cost import ALGORITHMS, SELECTABLE_OPS, CollectiveCost, CostModel
from repro.comm.counters import CommCounters
from repro.comm.group import ProcessGroup, WorkHandle
from repro.comm.communicator import Communicator

__all__ = [
    "WorkHandle",
    "SpecArray",
    "ALGORITHMS",
    "SELECTABLE_OPS",
    "CollectiveCost",
    "CostModel",
    "CommCounters",
    "ProcessGroup",
    "Communicator",
]
