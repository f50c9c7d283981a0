"""Shared fixtures and helpers for LAPI core tests."""

import pytest

from repro.machine import Cluster
from repro.machine.config import SP_1998


def run_spmd(fn, nnodes=2, *, config=SP_1998, interrupt_mode=True,
             seed=1, faults=None, **kw):
    """Run ``fn`` as an SPMD job on a fresh cluster; returns rank results."""
    cluster = Cluster(nnodes=nnodes, config=config, seed=seed,
                      faults=faults)
    return cluster.run_job(fn, stacks=("lapi",),
                           interrupt_mode=interrupt_mode, **kw)


@pytest.fixture(params=[True, False], ids=["interrupt", "polling"])
def progress_mode(request):
    """Run the decorated test in both LAPI progress modes."""
    return request.param
