"""Fixtures shared by more than one test package."""

import gc
import weakref
from collections import Counter

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


def _edge(src, dst) -> str:
    """How ``src`` refers to ``dst``: an attribute, key or index."""
    names = dict(getattr(src, "__dict__", {}))
    for cls in type(src).__mro__:
        slots = getattr(cls, "__slots__", ())
        for slot in (slots,) if isinstance(slots, str) else slots:
            names[slot] = getattr(src, slot, None)
    for name, value in names.items():
        if value is dst:
            return f".{name}"
    if isinstance(src, dict):
        for key, value in src.items():
            if value is dst:
                return f"[{key!r}]"
    if isinstance(src, (list, tuple)):
        for i, value in enumerate(src):
            if value is dst:
                return f"[{i}]"
    return "->"


def _cycle(garbage: list) -> str:
    """One reference cycle through the leaked objects, named link by
    link, starting at a model object where there is one."""
    ids = {id(o) for o in garbage}
    starts = [o for o in garbage
              if type(o).__module__.startswith("repro.")] or garbage
    for start in starts[:20]:
        # Breadth-first through referents, back to where it started.
        parent = {id(start): None}
        queue = [start]
        while queue:
            obj = queue.pop(0)
            for ref in gc.get_referents(obj):
                if ref is start:
                    path = []
                    node = obj
                    while node is not start:
                        path.append(node)
                        node = parent[id(node)]
                    chain = [start, *reversed(path)]  # obj links back
                    links = [type(start).__qualname__]
                    for src, dst in zip(chain, chain[1:] + [start]):
                        links.append(f"{_edge(src, dst)} "
                                     f"{type(dst).__qualname__}")
                    return " ".join(links)
                if id(ref) in ids and id(ref) not in parent:
                    parent[id(ref)] = obj
                    queue.append(ref)
    return "(no cycle found)"


def assert_freed_on_drop(run):
    """Call ``run()`` with the cyclic collector off and return its
    result; ``run`` builds a cluster, runs a job on it and lets the
    cluster go.  Refcounting alone must then have freed it: a
    collection finds nothing.  On failure the message names the
    leaked object types and one cycle among them, which points at the
    back-link to cut."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        result = run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            found = gc.collect()
        finally:
            gc.set_debug(0)
        garbage = list(gc.garbage)
        gc.garbage.clear()
    finally:
        if was_enabled:
            gc.enable()
    if found:
        kinds = Counter(type(o).__qualname__ for o in garbage)
        top = ", ".join(f"{n} {k}" for k, n in kinds.most_common(12))
        pytest.fail(f"a dropped cluster left {found} objects to the"
                    f" cyclic collector: {top}; one cycle:"
                    f" {_cycle(garbage)}")
    return result
