"""Draw-exact parity of :mod:`repro.sim.rng` with ``numpy.random``.

The model's streams are a pure-Python PCG64 that must give the values
numpy's ``default_rng(SeedSequence(entropy=seed, spawn_key=(crc,)))``
gives, call for call; every multipath and fault-injection result
pinned elsewhere depends on it.  This is the only test that imports
``numpy.random`` for that purpose.
"""

import random
import zlib

import numpy as np
import pytest

from repro.bench.parallel import spread_seed
from repro.sim import RngRegistry

SEEDS = [0, 1, 0xC0FFEE, 1998, spread_seed(1998, 0), spread_seed(7, 3),
         (1 << 99) + 0x5EED]
KEYS = ["switch.route", "faults"]
BOUNDS = [1, 2, 3, 4, 5, 7, 8, (1 << 31) + 3]


def _numpy_stream(seed, key):
    crc = zlib.crc32(key.encode("utf-8")) & 0xFFFFFFFF
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(crc,)))


@pytest.mark.parametrize("key", KEYS)
@pytest.mark.parametrize("seed", SEEDS)
def test_interleaved_draws_match_numpy(seed, key):
    ours = RngRegistry(seed=seed).stream(key)
    ref = _numpy_stream(seed, key)
    # A fixed interleaving: integer draws share numpy's buffered 32-bit
    # half-word, and random() must neither use nor clear it.
    plan = random.Random(seed ^ len(key))
    for i in range(2000):
        if plan.random() < 0.4:
            assert ours.random() == ref.random(), i
        else:
            n = plan.choice(BOUNDS)
            assert ours.integers(0, n) == int(ref.integers(0, n)), (i, n)


def test_unit_range_draws_nothing():
    ours = RngRegistry(seed=3).stream("switch.route")
    ref = _numpy_stream(3, "switch.route")
    assert ours.integers(5, 6) == 5
    assert ours.integers(0, 4) == int(ref.integers(0, 4))


def test_negative_seed_raises_on_stream():
    reg = RngRegistry(seed=-1)
    with pytest.raises(ValueError):
        reg.stream("switch.route")
