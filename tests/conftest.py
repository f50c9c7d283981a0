"""Fixtures shared by more than one test package."""

import weakref

import pytest

from repro.machine.memory import OFFSET_BITS, Memory


class MappedBytes:
    """Bytes of simulated memory the host has mapped, via weak
    references to the mapping behind every ``Memory.malloc``.

    A mapping counts until the last reference to it dies (an ndarray
    view keeps it alive), whether or not its allocation was freed;
    ``tracemalloc`` does not see mappings.
    """

    def __init__(self) -> None:
        self._mappings: list[tuple[weakref.ref, int]] = []
        #: Most bytes mapped at once since the last :meth:`reset`.
        self.peak = 0

    def now(self) -> int:
        self._mappings = [(ref, n) for ref, n in self._mappings
                         if ref() is not None]
        return sum(n for _, n in self._mappings)

    def record(self, region) -> None:
        self._mappings.append((weakref.ref(region), len(region)))
        self.peak = max(self.peak, self.now())

    def reset(self) -> None:
        self.peak = self.now()


@pytest.fixture
def mapped(monkeypatch):
    """A :class:`MappedBytes` fed by every ``Memory.malloc`` in the
    test."""
    meter = MappedBytes()
    malloc = Memory.malloc

    def recording(self, nbytes):
        addr = malloc(self, nbytes)
        meter.record(self._allocs[addr >> OFFSET_BITS])
        return addr

    monkeypatch.setattr(Memory, "malloc", recording)
    return meter
