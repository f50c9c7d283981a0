"""Unit tests for the machine calibration table."""

import pytest

from repro.machine.config import SP_1998, MachineConfig


class TestDerivedQuantities:
    def test_lapi_payload(self):
        assert SP_1998.lapi_payload == SP_1998.packet_size - 48

    def test_mpl_payload(self):
        assert SP_1998.mpl_payload == SP_1998.packet_size - 16

    def test_lapi_header_larger_than_mpi(self):
        # Section 4: the one-sided header carries target-side parameters.
        assert SP_1998.lapi_header > SP_1998.mpl_header

    def test_am_uhdr_payload_around_900(self):
        # Section 5.3.1: "around 900 bytes to the application".
        assert 800 <= SP_1998.am_uhdr_payload <= 1000

    def test_copy_cost_monotone(self):
        assert SP_1998.copy_cost(0) == 0.0
        assert SP_1998.copy_cost(1) < SP_1998.copy_cost(1024)
        assert SP_1998.copy_cost(1024) < SP_1998.copy_cost(1 << 20)

    def test_copy_cost_asymptotic_bandwidth(self):
        n = 64 * 1024 * 1024
        eff = n / SP_1998.copy_cost(n)
        assert abs(eff - SP_1998.cpu_copy_bandwidth) / \
            SP_1998.cpu_copy_bandwidth < 0.01

    def test_daxpy_slower_than_copy(self):
        n = 1 << 20
        assert SP_1998.daxpy_cost(n) > SP_1998.copy_cost(n)

    def test_memcpy_faster_than_link(self):
        # The wire must be the asymptotic bottleneck, not the CPU,
        # or Figure 2's header-ratio analysis would not apply.
        assert SP_1998.cpu_copy_bandwidth > 2 * SP_1998.link_bandwidth


class TestReplaceAndValidate:
    def test_replace_returns_new_config(self):
        alt = SP_1998.replace(lapi_header=16)
        assert alt.lapi_header == 16
        assert SP_1998.lapi_header == 48
        assert isinstance(alt, MachineConfig)

    def test_frozen(self):
        with pytest.raises(Exception):
            SP_1998.lapi_header = 12  # type: ignore[misc]

    @pytest.mark.parametrize("changes", [
        {"packet_size": 32},
        {"lapi_uhdr_max": 100000},
        {"dragonfly_global_latency": -1.0},
        {"fattree_leaf_size": 0},
        {"link_bandwidth": 0.0},
        {"cpu_copy_bandwidth": -1.0},
        {"switch_group_size": 0},
        {"switch_mid_count": 0},
        {"mpl_eager_limit": 1 << 20},
        {"lapi_retrans_timeout": 0.0},
        {"lapi_retrans_timeout": float("inf")},
        {"mpl_retrans_timeout": -5.0},
        {"mpl_retrans_timeout": float("nan")},
        {"lapi_window": 0},
        {"mpl_window": -1},
        {"rto_min": 0.0},
        {"rto_min": 500.0, "rto_max": 100.0},
        {"rto_max": float("inf")},
        {"rto_backoff": 0.5},
        {"rto_backoff": float("inf")},
        {"peer_degraded_after": 0},
    ])
    def test_validate_rejects_nonsense(self, changes):
        with pytest.raises(ValueError):
            SP_1998.replace(**changes).validate()

    def test_default_is_valid(self):
        SP_1998.validate()

    def test_interrupt_mode_premium_exists(self):
        # Table 2 requires interrupt round-trips to cost visibly more
        # than polling; the premium must be a real constant.
        assert SP_1998.interrupt_latency > 5 * SP_1998.poll_check_cost

    def test_rcvncall_context_dominates_interrupt(self):
        # Section 5.2: AIX handler-context creation dwarfs the base
        # interrupt cost and explains MPL's 200us round-trip.
        assert SP_1998.rcvncall_context_cost > SP_1998.interrupt_latency
