"""Discrete-event simulation kernel used by the SP machine model.

Public surface:

* :class:`Simulator` -- clock, pending-event heap and the one loop that
  pops it, process launcher.
* :class:`Event`, :class:`Timeout`, :class:`AllOf` -- awaitable
  occurrences.
* :class:`Process` -- generator-based processes; a process may also
  yield a float (sleep that long) or a
  :class:`~repro.sim.events.WakeAt` (sleep until that instant).
* :class:`SimLock`, :class:`Semaphore`, :class:`WaitSet` -- virtual-time
  synchronization.
* :class:`Channel` -- FIFO queues; a bounded one drops on overflow.
* :func:`park` / :func:`unpark` -- one wake-up registered with a channel,
  a wait set and a deadline at once.
* :class:`RngRegistry` -- deterministic named randomness.
* :class:`Tracer` -- structured debugging traces.
"""

from .channel import Channel
from .events import AllOf, Event, PENDING, Timeout
from .kernel import Simulator
from .park import park, unpark
from .process import Process, ProcessGen
from .rng import RngRegistry
from .sync import Semaphore, SimLock, WaitSet
from .trace import TraceRecord, Tracer

__all__ = [
    "AllOf",
    "Channel",
    "Event",
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
