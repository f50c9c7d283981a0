"""Single-wake parking: one event, several wakers.

A consumer that must wake on the next item of a :class:`Channel` *or*
on a broadcast from a :class:`WaitSet` *or* at a deadline -- a polling
thread waiting for "a packet or any progress", an interrupt handler
lingering for "a packet or quiet" (both in
:class:`repro.core.endpoint.EndpointDispatcher`) -- does not wait on a
composite of one event per source (every wake would cost two kernel
events, and the losing sources' events would fire later into a
condition that no longer cared).

:func:`park` registers **one** event with every source instead; it is
the simulator's only way to wait on whichever of several sources
comes first.  The
first source to fire triggers it and the others never wake it again:
``WaitSet.notify_all`` skips a registration that is already triggered,
and ``Channel.put`` hands such a parker its item silently -- the owner
may resume well after the wake (a thread first waits for its CPU) and
is the channel's consumer until it does.  On resuming it calls
:func:`unpark`, which withdraws the registrations that lost.
"""

from __future__ import annotations

from typing import Any, Optional

from .channel import Channel
from .events import PENDING, Event
from .sync import WaitSet

__all__ = ["park", "unpark"]


def _expire(ev: Event) -> None:
    """Deadline timer: wake ``ev`` unless a source already did.

    Fires the event in place, inside the timer's own kernel step (the
    way a float sleep resumes its process), so a deadline wake is one
    kernel event like every other wake.
    """
    if ev._value is PENDING:
        ev._ok = True
        ev._value = None
        callbacks, ev.callbacks = ev.callbacks, None
        for cb in callbacks:
            cb(ev)


def park(channel: Channel, waitset: Optional[WaitSet] = None,
         timeout: Optional[float] = None) -> Event:
    """An event woken by the next ``channel.put``, the next
    ``waitset.notify_all`` or after ``timeout`` us, whichever is first.

    Its value is the item when the channel woke it and ``None``
    otherwise, so the channel must be empty now (take queued items with
    ``try_get`` first) and must not carry ``None``, and the wait set
    must be notified without a value.
    """
    sim = channel.sim
    ev = Event(sim, name=channel._get_name)
    channel._getters.append(ev)
    if waitset is not None:
        waitset._waiters.append((ev, None))
    if timeout is not None:
        sim.call_at(sim._now + timeout, _expire, ev)
    return ev


def unpark(ev: Event, channel: Channel,
           waitset: Optional[WaitSet] = None) -> Any:
    """Withdraw a woken parker's losing registrations; returns its item
    (``None`` when the wait set or the deadline woke it and nothing
    arrived before its owner got here)."""
    item = ev._value
    if item is None:
        channel.cancel_get(ev)
    if waitset is not None:
        waitset.discard(ev)
    return item
