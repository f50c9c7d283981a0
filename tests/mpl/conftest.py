"""Shared fixtures for MPL tests."""

import pytest

from repro.machine import Cluster
from repro.machine.config import SP_1998


def run_mpl(fn, nnodes=2, *, config=SP_1998, interrupt_mode=True,
            eager_limit=None, seed=1, faults=None, **kw):
    """Run an SPMD job with only the MPL stack initialized."""
    cluster = Cluster(nnodes=nnodes, config=config, seed=seed,
                      faults=faults)
    return cluster.run_job(fn, stacks=("mpl",),
                           interrupt_mode=interrupt_mode,
                           eager_limit=eager_limit, **kw)


@pytest.fixture(params=[True, False], ids=["interrupt", "polling"])
def progress_mode(request):
    return request.param
