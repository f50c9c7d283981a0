"""Coroutine processes driven by the discrete-event kernel.

A *process* wraps a Python generator.  The generator models the life of an
active entity (a CPU thread, a network adapter engine, a benchmark driver)
by yielding :class:`~repro.sim.events.Event` objects; the kernel resumes
the generator with the event's value once it fires, or throws the event's
exception into the generator if the event failed.

Processes are themselves events: they trigger when the generator returns
(carrying its return value) or raises (carrying the exception), so one
process can wait for another simply by yielding it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from ..errors import SimulationError
from .events import FLOAT_WAKE, PENDING, Event, WakeAt

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .kernel import Simulator

__all__ = ["Process", "ProcessGen"]

#: Type alias for generator bodies accepted by :meth:`Simulator.process`.
ProcessGen = Generator[Event, Any, Any]


class Process(Event):
    """An event representing a running generator.

    Do not instantiate directly; use
    :meth:`repro.sim.kernel.Simulator.process`.
    """

    __slots__ = ("_gen", "_target", "is_alive_hint")

    def __init__(self, sim: "Simulator", gen: ProcessGen,
                 name: str = "") -> None:
        if not hasattr(gen, "send") or not hasattr(gen, "throw"):
            raise SimulationError(
                f"Process body must be a generator, got {type(gen).__name__}."
                " Did you forget a 'yield' in the function?")
        super().__init__(sim, name=name or getattr(
            gen, "__name__", "process"))
        self._gen = gen
        #: The event this process is currently waiting on (None if runnable).
        self._target: Optional[Event] = None
        sim._register_process(self)
        # Kick the generator off at the current simulated time: a bare
        # timer at ``now`` takes the same queue position a triggered
        # boot event would, without the event or its name.
        sim.call_at(sim._now, self._resume, FLOAT_WAKE)

    # ------------------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event the process is suspended on, if any."""
        return self._target

    def kill(self, value: Any = None) -> None:
        """Terminate the process in place, completing it with ``value``.

        The generator never sees an exception: it is closed at its
        current yield point (fail-stop semantics -- the body gets no
        chance to react).  The process *succeeds* with
        ``value`` so that aggregates like :class:`AllOf` treat the death
        as completion, not failure; callers distinguish killed processes
        by the sentinel they pass.  Killing a dead process is a no-op.
        Stale kernel wakeups (float-sleep callbacks already scheduled
        for this process) become no-ops via the ``_gen is None`` guard in
        :meth:`_resume`.
        """
        if not self.is_alive:
            return
        self.close()
        self.succeed(value)

    def close(self) -> None:
        """Close the generator at its current yield point, leaving the
        process pending: its ``finally`` blocks run (and may queue
        events), and nothing resumes it again.  :meth:`kill` completes
        it afterwards; :meth:`Simulator.close
        <repro.sim.kernel.Simulator.close>` does not.
        """
        target = self._target
        if target is not None and not target.processed:
            if target.callbacks is not None and self._resume in target.callbacks:
                target.callbacks.remove(self._resume)
        self._target = None
        gen = self._gen
        self._gen = None
        if gen is not None:
            gen.close()
        self.sim._unregister_process(self)

    # ------------------------------------------------------------------
    def _resume(self, trigger: Event) -> None:
        """Advance the generator with the outcome of ``trigger``."""
        if self._gen is None:  # killed: stale wakeup, nothing to drive
            return
        self._target = None
        sim = self.sim
        prev_active = sim._active_process
        sim._active_process = self
        try:
            while True:
                if trigger._ok:
                    nxt = self._gen.send(trigger._value)
                else:
                    # Failure propagates into the generator; if uncaught it
                    # escapes and kills this process below.
                    nxt = self._gen.throw(trigger._value)
                # Bare-number yield: sleep that many microseconds, then
                # resume with None.  Equivalent to ``yield sim.timeout(d)``
                # at a fraction of the cost (one bare queue entry instead
                # of a Timeout object + callbacks list); scheduled at the
                # same point in execution, so it consumes the same kernel
                # sequence number and virtual time is byte-identical.
                # The machine model uses them for non-preemptive CPU
                # bursts.
                cls = nxt.__class__
                if cls is float or cls is int:
                    sim.call_at(sim._now + nxt, self._resume, FLOAT_WAKE)
                    return
                # Absolute-time sleep: a chain of CPU bursts wakes once,
                # at the instant its partial sums reach (see
                # ``Thread.execute``).
                if cls is WakeAt:
                    sim.call_at(nxt.when, self._resume, FLOAT_WAKE)
                    return
                # The generator yielded: it must be an Event of this sim.
                if not isinstance(nxt, Event):
                    msg = (f"process {self.name!r} yielded {nxt!r}; "
                           "processes may only yield Event objects")
                    self._gen.close()
                    raise SimulationError(msg)
                if nxt.sim is not sim:
                    self._gen.close()
                    raise SimulationError(
                        f"process {self.name!r} yielded an event belonging"
                        " to a different simulator")
                if nxt.callbacks is None:  # processed: consume inline
                    trigger = nxt
                    continue
                nxt.callbacks.append(self._resume)
                self._target = nxt
                return
        except StopIteration as stop:
            sim._unregister_process(self)
            if self.callbacks:
                self.succeed(stop.value)
            else:
                # Nobody is listening (an interrupt, completion-handler
                # or service thread that simply ends): complete in place
                # instead of queueing an event with no callbacks.  Later
                # waiters see a processed event and continue inline.
                # Failures still go through the queue, so an unobserved
                # error keeps surfacing from the kernel.
                self._ok = True
                self._value = stop.value
                self.callbacks = None
        except BaseException as exc:
            sim._unregister_process(self)
            self.fail(exc)
        finally:
            sim._active_process = prev_active
