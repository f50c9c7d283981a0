"""Machine counters as the metrics registry reports them."""

from repro.machine import Cluster


def run_traffic(nnodes=2):
    def main(task):
        lapi = task.lapi
        buf = task.memory.malloc(4096)
        yield from lapi.gfence()
        if task.rank == 0:
            src = task.memory.malloc(4096)
            yield from lapi.put_sync(1, 4096, buf, src)
        yield from lapi.gfence()

    cluster = Cluster(nnodes=nnodes)
    cluster.run_job(main, stacks=("lapi",))
    return cluster


class TestSnapshot:
    def test_counters_consistent(self):
        cluster = run_traffic()
        snap = cluster.metrics.snapshot()
        adapters = snap["machine.adapter"]
        switch = snap["machine.switch"]["-"]
        assert set(adapters) == {"0", "1"}
        assert switch["packets_routed"] > 0
        assert switch["packets_lost"] == 0
        assert switch["bytes_routed"] >= 4096  # at least the payload
        # Every routed packet was sent by some adapter.
        assert sum(a["packets_sent"] for a in adapters.values()) \
            == switch["packets_routed"]
        # Conservation: received + dropped == delivered.
        assert sum(a["packets_received"] + a["rx_dropped"]
                   for a in adapters.values()) <= switch["packets_routed"]

    def test_busiest_links_sorted(self):
        switch = run_traffic().switch
        busiest = switch.busiest_links(3)
        utils = [u for _, u in busiest]
        assert utils == sorted(utils, reverse=True)
        assert len(busiest) == 3
        assert all(0.0 <= u <= 1.0 for u in utils)
        # The top links are the busiest of the full utilization view.
        full = sorted(switch.link_utilization().values(), reverse=True)
        assert utils == full[:3]

    def test_render_mentions_every_node(self):
        text = run_traffic().metrics.render()
        assert "machine.adapter:" in text and "machine.switch:" in text
        assert "node 0:" in text and "node 1:" in text

    def test_empty_cluster_snapshot(self):
        cluster = Cluster(nnodes=2)
        switch = cluster.metrics.snapshot()["machine.switch"]["-"]
        assert switch["packets_routed"] == 0
        assert switch["bytes_routed"] == 0
        assert cluster.metrics.render()  # renders without traffic too
