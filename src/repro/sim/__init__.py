"""Discrete-event simulation kernel used by the SP machine model.

Public surface:

* :class:`Simulator` -- clock, pending-event heap and the one loop that
  pops it, process launcher.
* :class:`Event`, :class:`Timeout`, :class:`AnyOf`, :class:`AllOf` --
  awaitable occurrences.
* :class:`Process`, :class:`Interrupt` -- generator-based processes.
* :class:`SimLock`, :class:`Semaphore`, :class:`WaitSet` -- virtual-time
  synchronization.
* :class:`Channel` -- FIFO queues with optional bounded/dropping behavior.
* :func:`park` / :func:`unpark` -- one wake-up registered with a channel,
  a wait set and a deadline at once (:mod:`repro.sim.park` also holds
  the polling and linger loops built on it).
* :class:`RngRegistry` -- deterministic named randomness.
* :class:`Tracer` -- structured debugging traces.
"""

from .channel import Channel
from .events import AllOf, AnyOf, ConditionValue, Event, PENDING, Timeout
from .kernel import Simulator
from .park import park, unpark
from .process import Interrupt, Process, ProcessGen
from .rng import RngRegistry
from .sync import Semaphore, SimLock, WaitSet
from .trace import TraceRecord, Tracer

__all__ = [
    "AllOf",
    "AnyOf",
    "Channel",
    "ConditionValue",
    "Event",
    "Interrupt",
    "PENDING",
    "Process",
    "ProcessGen",
    "RngRegistry",
    "Semaphore",
    "SimLock",
    "Simulator",
    "Timeout",
    "TraceRecord",
    "Tracer",
    "WaitSet",
    "park",
    "unpark",
]
