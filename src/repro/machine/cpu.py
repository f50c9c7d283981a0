"""The node CPU: cooperative threads over the simulation kernel.

A 1998 SP "thin" node has a single P2SC processor, so at most one thread
makes progress at a time.  :class:`Cpu` models this with a priority
mutex: a :class:`Thread` must hold the CPU to consume time
(:meth:`Thread.execute`), releases it whenever it blocks
(:meth:`Thread.wait`, :meth:`Thread.sleep`), and re-acquires it before
resuming.  Priorities let interrupt handlers run ahead of user threads
the next time the CPU is released, and only then: a thread keeps the
CPU across all its ``execute`` bursts until it waits.  Only
:meth:`Thread.compute` (long application compute phases) yields on its
own, every :data:`COMPUTE_QUANTUM`, so a long run of communication
bursts (a GA put loop, a 2 MiB copy) holds an arriving interrupt back
for all of it (ROADMAP item 15).

Thread priorities (lower runs first)::

    INTERRUPT (0) < HANDLER (5) < NORMAL (10)
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Callable, Generator, Iterable,
                    Optional)

from ..errors import MachineError
from ..sim import Event, Process, SimLock
from ..sim.events import WakeAt

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Simulator
    from .config import MachineConfig

__all__ = ["Cpu", "Thread", "TASK_CRASHED", "INTERRUPT", "HANDLER",
           "NORMAL"]

#: Priority for first-level interrupt handler threads.
INTERRUPT = 0
#: Priority for completion-handler / protocol-service threads.
HANDLER = 5
#: Priority for ordinary application threads.
NORMAL = 10
#: Longest slice of :meth:`Thread.compute` between chances for other
#: threads to run (us).
COMPUTE_QUANTUM = 50.0


class _TaskCrashed:
    """Singleton sentinel a killed process completes with.

    Killed processes *succeed* with this value (so ``AllOf`` aggregates
    see completion, not failure); ``run_job`` surfaces it as the result
    slot of a crashed rank.  Falsy, and pickles back to the singleton,
    so ``result is TASK_CRASHED`` works across ``--jobs N`` workers.
    """

    __slots__ = ()
    _instance = None

    def __new__(cls) -> "_TaskCrashed":
        inst = cls._instance
        if inst is None:
            inst = cls._instance = super().__new__(cls)
        return inst

    def __repr__(self) -> str:
        return "TASK_CRASHED"

    def __reduce__(self):
        return (_TaskCrashed, ())

    def __bool__(self) -> bool:
        return False


#: Result sentinel for ranks whose node suffered a fail-stop crash.
TASK_CRASHED = _TaskCrashed()


class Thread:
    """A simulated thread of execution on one node's CPU.

    Created through :meth:`Cpu.spawn`.  The ``body`` is a generator
    function receiving the thread handle; it expresses computation with
    ``yield from thread.execute(cost)`` and blocking with
    ``yield from thread.wait(event)``.
    """

    def __init__(self, cpu: "Cpu", body: Callable[["Thread"], Generator],
                 name: str, priority: int) -> None:
        self.cpu = cpu
        self.name = name
        self.priority = priority
        #: Wall... virtual time this thread has spent holding the CPU.
        self.cpu_time = 0.0
        self._holding = False
        #: The one absolute-time sleep this thread can be in (chained
        #: :meth:`execute`), and the end instant of each of its bursts.
        self._wake = WakeAt()
        self.burst_ends: list[float] = []
        # Only the generator holds ``body``: a thread that keeps it
        # would close a cycle through whatever the body refers to.
        self.process: Process = cpu.sim.process(self._main(body),
                                                name=name)
        cpu._by_process[self.process] = self

    # ------------------------------------------------------------------
    @property
    def sim(self) -> "Simulator":
        return self.cpu.sim

    def _main(self, body: Callable[["Thread"], Generator]) -> Generator:
        yield from self._acquire()
        try:
            result = yield from body(self)
            return result
        finally:
            if self._holding:
                self._release()
            self.cpu._by_process.pop(self.process, None)

    def _acquire(self) -> Generator:
        if self._holding:
            raise MachineError(f"thread {self.name} double-acquired CPU")
        lock = self.cpu._lock
        if not lock.try_acquire(self):
            yield lock.acquire(owner=self, priority=self.priority)
        self._holding = True

    def _release(self) -> None:
        if not self._holding:
            raise MachineError(f"thread {self.name} released idle CPU")
        self._holding = False
        self.cpu._lock.release()

    # ------------------------------------------------------------------
    # the three verbs of a simulated thread
    # ------------------------------------------------------------------
    def execute(self, cost: float, *more: float) -> Iterable:
        """Consume ``cost`` us of CPU, non-preemptibly.

        A plain function returning something to ``yield from``: with
        the CPU held (every burst but a thread's first after blocking)
        that is a one-element tuple, so a burst costs no generator
        frame.

        ``execute(a, b, c)`` chains bursts that run back to back: one
        wake-up at the float ``((now + a) + b) + c``, the very instant
        three separate bursts would reach.  :attr:`burst_ends` then
        holds the instant each burst ended, for span sub-intervals.
        Code that used to run between the bursts now runs before or
        after all of them, so chain only where nothing in between
        injects or acknowledges a packet, triggers an event, counter or
        wait set, takes or releases a lock, or reads state that a
        kernel-context callback (ack filter, timers) can change.

        Under an installed fault schedule with CPU pause/slowdown
        windows on this node, the *virtual* duration of each burst is
        stretched by the window table while ``cpu_time`` still accounts
        the nominal work -- the node got slower, not busier.
        """
        if not self._holding:
            return self._acquire_execute(cost, more)
        if more:
            return self._chain(cost, more)
        # ``not cost > 0`` (not ``cost <= 0``) also catches NaN, which
        # would otherwise poison cpu_time and the clock.
        if not cost > 0:
            if cost != 0:
                raise MachineError(f"negative or NaN execute cost {cost}")
            return ()
        self.cpu_time += cost
        faults = self.cpu.faults
        if faults is not None:
            cost = faults.elapsed(self.cpu.sim._now, cost)
        # A bare float takes the kernel's pooled sleep path -- no
        # Timeout allocation per CPU burst, identical timing.
        return (cost,)

    def _acquire_execute(self, cost: float, more: tuple) -> Generator:
        yield from self._acquire()
        yield from self.execute(cost, *more)

    def _chain(self, cost: float, more: tuple) -> Iterable:
        faults = self.cpu.faults
        t = self.cpu.sim._now
        ends = []
        for c in (cost, *more):
            if not c >= 0:
                raise MachineError(f"negative or NaN execute cost {c}")
            self.cpu_time += c
            t = t + (c if faults is None else faults.elapsed(t, c))
            ends.append(t)
        self.burst_ends = ends
        wake = self._wake
        wake.when = t
        return (wake,)

    def compute(self, cost: float) -> Generator:
        """Consume ``cost`` us of CPU, yielding between
        :data:`COMPUTE_QUANTUM` slices.

        Use for long application compute phases so interrupts and
        handler threads are not starved for the whole duration.
        """
        remaining = float(cost)
        while remaining > 0:
            step = min(COMPUTE_QUANTUM, remaining)
            yield from self.execute(step)
            remaining -= step
            if remaining > 0 and self.cpu._lock._waiters:
                yield from self.yield_cpu()

    def wait(self, event: Event) -> Generator:
        """Release the CPU, wait for ``event``, re-acquire; returns value."""
        # _release/_acquire inlined: wait() runs once per blocking
        # progress step, and the extra generator frame per call is
        # measurable on the perf harness.
        if self._holding:
            self._holding = False
            self.cpu._lock.release()
        value = yield event
        if self._holding:
            raise MachineError(f"thread {self.name} double-acquired CPU")
        lock = self.cpu._lock
        if not lock.try_acquire(self):
            yield lock.acquire(owner=self, priority=self.priority)
        self._holding = True
        return value

    def sleep(self, delay: float) -> Generator:
        """Release the CPU for ``delay`` us of virtual time."""
        return self.wait(self.sim.timeout(delay))

    def yield_cpu(self) -> Generator:
        """Release and immediately re-queue for the CPU (scheduling point)."""
        if self._holding:
            self._release()
        # A zero sleep lets same-time higher-priority acquirers slot in.
        yield 0.0
        yield from self._acquire()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "running" if self._holding else "blocked"
        return f"<Thread {self.name} prio={self.priority} {state}>"


class Cpu:
    """Priority-scheduled single processor of one node."""

    def __init__(self, sim: "Simulator", node_id: int,
                 config: "MachineConfig") -> None:
        self.sim = sim
        self.node_id = node_id
        self.config = config
        self._lock = SimLock(sim, name=f"cpu{node_id}")
        self._by_process: dict[Process, Thread] = {}
        self._spawned = 0
        #: Optional compiled CPU fault windows
        #: (:class:`repro.faults.runtime._CpuFaults`) stretching
        #: ``Thread.execute`` bursts; None = full speed (default).
        self.faults = None
        #: True after a fail-stop crash killed every thread.  Restart
        #: does *not* clear it: the machine comes back but the task
        #: that was running stays dead (fail-stop semantics).
        self.crashed = False

    def crash(self) -> int:
        """Fail-stop: kill every live thread at its current yield point.

        Returns the number of threads killed.  Each killed process
        completes with :data:`TASK_CRASHED` (success, not failure, so
        ``run_job``'s ``AllOf`` still resolves once survivors finish).
        The CPU lock is left as-is -- nothing will ever acquire it
        again because :meth:`spawn` refuses on a crashed CPU.
        """
        self.crashed = True
        killed = 0
        for process in list(self._by_process):
            if process.is_alive:
                process.kill(TASK_CRASHED)
                killed += 1
        self._by_process.clear()
        return killed

    def spawn(self, body: Callable[[Thread], Generator], *,
              name: Optional[str] = None,
              priority: int = NORMAL) -> Thread:
        """Create and start a thread running ``body``."""
        if self.crashed:
            raise MachineError(
                f"cpu{self.node_id} has crashed; cannot spawn threads"
                " on a dead node")
        self._spawned += 1
        label = name or f"cpu{self.node_id}.t{self._spawned}"
        return Thread(self, body, label, priority)

    def current_thread(self) -> Thread:
        """The thread whose body is currently executing.

        Lets library layers (LAPI, GA) charge CPU to whichever thread
        called them without threading a handle through every signature.
        """
        proc = self.sim.active_process
        thread = self._by_process.get(proc) if proc is not None else None
        if thread is None:
            raise MachineError(
                f"no current thread on cpu{self.node_id}; communication"
                " calls must run inside a Thread body")
        return thread

    @property
    def busy(self) -> bool:
        return self._lock.locked

    @property
    def running(self) -> Optional[Thread]:
        """The thread currently holding the CPU, if any."""
        owner = self._lock.owner
        return owner if isinstance(owner, Thread) else None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Cpu node={self.node_id} busy={self.busy}>"
