"""Tests for the scale fabrics: fat tree, dragonfly, and the factory.

The SP multistage topology is covered by the historical network tests;
these exercise the two large-N fabrics added for ``--scale`` -- route
shapes, candidate counts, gateway selection -- plus golden digests of
all three routing rules and the streamed top-k link statistics.
"""

import hashlib

import pytest

from repro.errors import NetworkError
from repro.machine.config import SP_1998
from repro.machine.routing import (DragonflyTopology, FatTreeTopology,
                                   TOPOLOGIES, Topology, build_topology)
from repro.machine.switch import Switch
from repro.sim import RngRegistry, Simulator


FT_CFG = SP_1998.replace(topology="fattree")
DF_CFG = SP_1998.replace(topology="dragonfly")


def make_switch(config=SP_1998, nnodes=8):
    return Switch(Simulator(), nnodes, config, RngRegistry(seed=1))


class TestFactory:
    def test_dispatch(self):
        assert type(build_topology(8, SP_1998)) is Topology
        assert isinstance(build_topology(8, FT_CFG), FatTreeTopology)
        assert isinstance(build_topology(8, DF_CFG), DragonflyTopology)

    def test_unknown_kind_rejected(self):
        with pytest.raises(NetworkError, match="topology"):
            build_topology(8, SP_1998.replace(topology="torus"))

    def test_config_validate_rejects_unknown(self):
        with pytest.raises(ValueError, match="topology"):
            SP_1998.replace(topology="torus").validate()

    def test_registry(self):
        assert TOPOLOGIES == ("sp", "fattree", "dragonfly")


class TestFatTree:
    def test_same_leaf_single_route(self):
        ft = build_topology(64, FT_CFG)
        (route,) = ft.routes(0, 1, FT_CFG)
        assert len(route.links) == 2  # up + down, no fabric hops
        assert not route.crosses_core

    def test_same_pod_candidates(self):
        ft = build_topology(256, FT_CFG)
        # Nodes 0 and 16 sit on different leaves of pod 0.
        routes = list(ft.routes(0, 16, FT_CFG))
        assert len(routes) == ft.agg_count
        assert all(len(r.links) == 4 for r in routes)
        assert not any(r.crosses_core for r in routes)

    def test_cross_pod_candidates(self):
        ft = build_topology(512, FT_CFG)
        pod = ft.leaf_size * ft.pod_leaves
        routes = list(ft.routes(0, pod, FT_CFG))
        assert len(routes) == ft.core_count
        assert all(len(r.links) == 6 for r in routes)
        assert all(r.crosses_core for r in routes)

    def test_candidate_paths_are_disjoint_in_fabric(self):
        ft = build_topology(512, FT_CFG)
        pod = ft.leaf_size * ft.pod_leaves
        fabric = [tuple(ln.name for ln in r.links[1:-1])
                  for r in ft.routes(0, pod, FT_CFG)]
        assert len(set(fabric)) == len(fabric)

    def test_latency_grows_with_distance(self):
        ft = build_topology(512, FT_CFG)
        (leaf,) = ft.routes(0, 1, FT_CFG)
        pod_route = ft.routes(0, 16, FT_CFG)[0]
        core_route = ft.routes(
            0, ft.leaf_size * ft.pod_leaves, FT_CFG)[0]
        assert (leaf.fixed_latency < pod_route.fixed_latency
                < core_route.fixed_latency)

    def test_iter_links_covers_route_links(self):
        ft = build_topology(128, FT_CFG)
        names = {ln.name for ln in ft.iter_links()}
        for dst in (1, 16, 127):
            for route in ft.routes(0, dst, FT_CFG):
                assert {ln.name for ln in route.links} <= names


class TestDragonfly:
    def test_same_router(self):
        df = build_topology(64, DF_CFG)
        (route,) = df.routes(0, 1, DF_CFG)
        assert len(route.links) == 2
        assert not route.crosses_core

    def test_same_group_uses_local_link(self):
        df = build_topology(64, DF_CFG)
        (route,) = df.routes(0, df.router_nodes, DF_CFG)
        assert len(route.links) == 3
        assert not route.crosses_core

    def test_cross_group_minimal_path(self):
        df = build_topology(512, DF_CFG)
        group = df.router_nodes * df.group_routers
        (route,) = df.routes(0, group, DF_CFG)
        assert route.crosses_core
        names = [ln.name for ln in route.links]
        assert sum(n.startswith("G") for n in names) == 1  # one global
        # Minimal routing: at most up + local + global + local + down.
        assert 3 <= len(route.links) <= 5

    def test_cross_group_latency_includes_global(self):
        df = build_topology(512, DF_CFG)
        group = df.router_nodes * df.group_routers
        (local,) = df.routes(0, 1, DF_CFG)
        (remote,) = df.routes(0, group, DF_CFG)
        assert (remote.fixed_latency - local.fixed_latency
                >= DF_CFG.dragonfly_global_latency)

    def test_gateway_router_selection(self):
        # The gateway toward group gd is router ``gd % rpg``; a source
        # already sitting on the gateway router skips the local hop.
        df = build_topology(512, DF_CFG)
        group = df.router_nodes * df.group_routers
        gw_src = 1 * df.router_nodes  # node on router 1 == gateway to g1
        (from_gw,) = df.routes(gw_src, group, DF_CFG)
        (from_r0,) = df.routes(0, group, DF_CFG)
        assert len(from_gw.links) == len(from_r0.links) - 1

    def test_iter_links_covers_route_links(self):
        df = build_topology(256, DF_CFG)
        names = {ln.name for ln in df.iter_links()}
        for dst in (1, 5, 64, 255):
            for route in df.routes(0, dst, DF_CFG):
                assert {ln.name for ln in route.links} <= names


class TestRoutingRule:
    """Golden digests of each fabric's routing rule at 256 nodes.

    Candidate order, link order and the exact latency floats are what
    keep per-packet RNG draws and arrival times fixed, so any change to
    them moves a digest.  At 256 nodes the SP switch has 64 groups and
    the fat tree routes across its two pods.
    """

    DIGESTS = {
        "sp": "d955321b8ff3795b9026acdde22eb376"
              "dc17868485979ccc5af1120b529aade7",
        "fattree": "0dc24b6d31afaef29d119c49ef398ce3"
                   "6b205a4673b193595418d10219946840",
        "dragonfly": "d467bce5bbbd69c506dd9b4b29c0b30e"
                     "4ac3c14e3f2991f18fc485cf27ea3d6f",
    }

    @pytest.mark.parametrize("kind", TOPOLOGIES)
    def test_digest(self, kind):
        cfg = SP_1998.replace(topology=kind)
        topo = build_topology(256, cfg)
        h = hashlib.sha256()
        for src in (0, 5, 100, 255):
            for dst in range(256):
                if dst == src:
                    continue
                routes = topo.routes(src, dst, cfg)
                h.update(f"{len(routes)}\n".encode())
                for r in routes:
                    names = ",".join(ln.name for ln in r.links)
                    h.update(f"{names}|{r.fixed_latency!r}"
                             f"|{r.crosses_core}\n".encode())
        assert h.hexdigest() == self.DIGESTS[kind]

    @pytest.mark.parametrize("kind", TOPOLOGIES)
    def test_routes_validate_endpoints(self, kind):
        cfg = SP_1998.replace(topology=kind)
        topo = build_topology(8, cfg)
        for src, dst in ((3, 3), (0, 8), (8, 0), (-1, 2)):
            with pytest.raises(NetworkError):
                topo.routes(src, dst, cfg)

    def test_pick_sees_candidate_count_only_when_multipath(self):
        topo = build_topology(8, SP_1998)
        seen = []

        def pick(n):
            seen.append(n)
            return n - 1

        n, links, _, crosses = topo.path(0, 1, SP_1998, pick)
        assert (n, len(links), crosses, seen) == (1, 2, False, [])
        n, links, _, crosses = topo.path(0, 5, SP_1998, pick)
        assert seen == [SP_1998.switch_mid_count] and crosses
        assert links == topo.routes(0, 5, SP_1998)[-1].links


class TestTopLinks:
    HORIZON = 10.0

    def _loaded_switch(self):
        sw = make_switch()
        for dst in range(1, 8):
            for route in sw.topology.routes(0, dst, sw.config):
                for link in route.links:
                    link.occupy(0.0, 0.3 * dst)  # uneven load
        return sw

    def test_busiest_links_matches_full_sort(self):
        sw = self._loaded_switch()
        full = sorted(sw.link_utilization(self.HORIZON).items(),
                      key=lambda kv: -kv[1])
        for k in (1, 4, 16, 10_000):
            assert sw.busiest_links(k, self.HORIZON) == full[:k]

    def test_metrics_default_is_full_block(self):
        sw = self._loaded_switch()
        assert sw.metrics_top_links is None
        gauges = [n for n in sw.metrics() if n.startswith("util.")]
        assert len(gauges) == len(sw.link_utilization())

    def test_metrics_top_links_bounds_block(self):
        sw = self._loaded_switch()
        sw.metrics_top_links = 3
        gauges = [n for n in sw.metrics() if n.startswith("util.")]
        assert len(gauges) == 3
