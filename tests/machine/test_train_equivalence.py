"""The one TX train lane at a second seed.

The struct-of-arrays lane these cases were first written for is retired:
the adapter's object-train lane now carries every peeled interior.  The
cases re-check, at seed ``0x50A``, that it does so with the physics of
the per-packet engine on the canonical put, and that loss keeps the peel
off.  The full disengage matrix lives in ``test_fast_path_equivalence``.
"""

from repro.faults import FaultSchedule, GilbertElliott
from repro.machine.config import SP_1998

from .test_fast_path_equivalence import (NBYTES, _assert_equivalent,
                                         _put_job, _train_packets,
                                         _trains_collapsed)

SEED = 0x50A


class TestSoaEquivalence:
    def test_canonical_put_identical_and_engaged(self):
        fast = _assert_equivalent(SP_1998, _put_job(NBYTES, 1), seed=SEED)
        # The clean 2-node put is the canonical train workload; the one
        # lane must carry it, and the retired lane must carry nothing.
        assert _train_packets(fast) > 0
        assert _trains_collapsed(fast) > 0
        assert all(n.adapter.soa_packets == 0 for n in fast.nodes)

    def test_lossy_config_disengages(self):
        # Loss disables train peeling entirely (packet identity is
        # needed for every loss draw).
        def sched():
            return FaultSchedule([GilbertElliott(loss_good=0.02)])
        fast = _assert_equivalent(SP_1998, _put_job(NBYTES, 1), seed=SEED,
                                  faults_factory=sched)
        assert _train_packets(fast) == 0
        assert _trains_collapsed(fast) == 0
