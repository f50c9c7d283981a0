"""Figure cells that reuse another cell's simulation.

Figures 2 and 3 give some cells the spec of another cell, and the
sweep engine runs equal specs once.  That is exact only where the two
configurations simulate the same cluster, so each pair is checked
here on what the cell returns, the cluster's event count and its end
time; and the spec builders are checked to pair exactly those cells.
"""

import pytest

from repro.bench import bandwidth, ga_putget
from repro.machine.config import SP_1998


@pytest.fixture
def clusters(monkeypatch):
    """Every cluster the bench modules build, in order."""
    built = []
    for module in (bandwidth, ga_putget):
        fresh = module.fresh_cluster

        def recording(*args, _fresh=fresh, **kw):
            built.append(_fresh(*args, **kw))
            return built[-1]

        monkeypatch.setattr(module, "fresh_cluster", recording)
    return built


def _run(clusters, fn, *args):
    value = fn(*args)
    sim = clusters[-1].sim
    return value, sim.events_processed, sim.now


@pytest.mark.parametrize("nbytes", [1024, 131072])
def test_raised_eager_limit_outside_its_band_is_the_default_run(
        clusters, nbytes):
    # 1 KiB is eager under both limits, 128 KiB rendezvous under both.
    default = _run(clusters, bandwidth.mpl_bandwidth_point, nbytes, None)
    raised = _run(clusters, bandwidth.mpl_bandwidth_point, nbytes,
                  SP_1998.mpl_eager_limit_max)
    assert raised == default


@pytest.mark.parametrize("nbytes", [512, 8192])
def test_mpl_2d_put_of_a_square_section_is_the_1d_run(clusters, nbytes):
    one = _run(clusters, ga_putget.ga_transfer_rate, "mpl", "put", "1d",
               nbytes)
    two = _run(clusters, ga_putget.ga_transfer_rate, "mpl", "put", "2d",
               nbytes)
    assert two == one


def test_mpl_2d_put_of_fewer_bytes_differs(clusters):
    # 64 B is 8 doubles; the largest square section holds 4 (32 B).
    one = _run(clusters, ga_putget.ga_transfer_rate, "mpl", "put", "1d",
               64)
    two = _run(clusters, ga_putget.ga_transfer_rate, "mpl", "put", "2d",
               64)
    assert one[0] == pytest.approx(2.79, abs=0.01)
    assert two[0] == pytest.approx(1.41, abs=0.01)


def _args_by_key(specs):
    return {spec.key: spec.args for spec in specs}


def test_fig2_pairs_only_cells_outside_the_raised_band():
    sizes = [1024, 4096, 8192, 65536, 131072]
    args = _args_by_key(bandwidth.fig2_jobs(sizes=sizes))
    shared = [n for n in sizes
              if args["fig2", "mpi_eager", n]
              == args["fig2", "mpi_default", n]]
    assert shared == [1024, 4096, 131072]


@pytest.mark.parametrize("op,shared", [("put", [8, 512, 8192]),
                                       ("get", [])])
def test_fig3_pairs_only_mpl_puts_of_square_sections(op, shared):
    sizes = [8, 64, 512, 8192]
    figure = "fig3" if op == "put" else "fig4"
    args = _args_by_key(ga_putget.figure_jobs(op, sizes=sizes))
    assert [n for n in sizes
            if args[figure, "mpl", "2d", n]
            == args[figure, "mpl", "1d", n]] == shared
    assert all(args[figure, "lapi", "2d", n]
               != args[figure, "lapi", "1d", n] for n in sizes)
