"""Fixtures shared by more than one test package."""

import weakref

import pytest

from repro.machine.memory import OFFSET_BITS, Memory


class MappedBytes:
    """Bytes of simulated memory the host has mapped, via weak
    references to the buffer behind every ``Memory.malloc``.

    A mapping counts until the last array over it dies, whether or not
    its allocation was freed; ``tracemalloc`` does not see mappings.
    """

    def __init__(self) -> None:
        self._buffers: list[tuple[weakref.ref, int]] = []
        #: Most bytes mapped at once since the last :meth:`reset`.
        self.peak = 0

    def now(self) -> int:
        self._buffers = [(ref, n) for ref, n in self._buffers
                         if ref() is not None]
        return sum(n for _, n in self._buffers)

    def record(self, buf) -> None:
        self._buffers.append((weakref.ref(buf.base), buf.nbytes))
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
