"""Deterministic seeded fault injection (``repro.faults``).

Declarative fault scenarios for the simulated SP: bursty per-link loss
(Gilbert-Elliott), timed link outages, asymmetric ack loss, payload
corruption caught by the receive-side CRC check, per-node CPU
pause/slowdown windows, and fail-stop node crashes with optional
restart.  Build a :class:`FaultSchedule` from clauses and hand it to
``Cluster(..., faults=schedule)``; see ``docs/reliability.md`` for the
model and the adaptive retransmission machinery that survives it.

Only the schedule loads with the package: :class:`FaultRuntime` loads
when a non-empty schedule is installed (or on first access), so a
fault-free run never imports it.
"""

import importlib

from .schedule import (AckLoss, Corruption, CpuDegrade, CpuPause,
                       FaultClause, FaultSchedule, GilbertElliott,
                       LinkOutage, NodeCrash, NodeRestart)

#: Exported name -> the submodule that defines it, loaded on first use.
_LAZY = {"FaultRuntime": "runtime"}

__all__ = ["FaultSchedule", "FaultClause", "GilbertElliott",
           "LinkOutage", "AckLoss", "Corruption", "CpuPause",
           "CpuDegrade", "NodeCrash", "NodeRestart", *_LAZY]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
