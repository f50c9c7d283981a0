"""The simulated IBM RS/6000 SP machine.

Hardware model used by every protocol stack in the reproduction:

* :class:`MachineConfig` / :data:`SP_1998` -- the calibration table.
* :class:`Node` -- CPU (:class:`Cpu`, :class:`Thread`), :class:`Memory`,
  and switch :class:`Adapter`.
* :class:`Switch` + :class:`Topology` -- the multistage packet fabric
  with multipath (out-of-order) routing and optional loss.
* :class:`Cluster` / :class:`Task` -- SPMD job assembly and execution.
"""

from .adapter import Adapter, AdapterClient
from .cluster import Cluster, Task
from .config import SP_1998, MachineConfig
from .cpu import HANDLER, INTERRUPT, NORMAL, TASK_CRASHED, Cpu, Thread
from .memory import Memory
from .node import Node
from .packet import Packet
from .routing import Route, SerialResource, Topology
from .switch import Switch

__all__ = [
    "Adapter",
    "AdapterClient",
    "Cluster",
    "Cpu",
    "HANDLER",
    "INTERRUPT",
    "Memory",
    "MachineConfig",
    "NORMAL",
    "Node",
    "Packet",
    "Route",
    "SP_1998",
    "SerialResource",
    "Switch",
    "TASK_CRASHED",
    "Task",
    "Thread",
    "Topology",
]
