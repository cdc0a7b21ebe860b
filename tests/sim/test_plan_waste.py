"""The plan-waste gate: a vectorized plan must not do more work than
the scalar path it replaces.

Every ``map_epoch`` bump throws away the rest of a planned column, and
the kernel replans the suffix from the next packet.  A scheduler whose
tables move per flow therefore replans the same rows over and over:
flowlet and Flow Director used to plan 120–570 rows per packet on this
workload and ran 3–21× slower than their own ``select_core`` path.
Counting planned rows is deterministic, so the gate cannot flake the
way a timing comparison would.
"""

from __future__ import annotations

import pytest

from repro import units
from repro.core.laps import LAPSConfig, LAPSScheduler
from repro.net.service import default_services
from repro.schedulers.base import Scheduler, available_schedulers, make_scheduler
from repro.sim.config import SimConfig
from repro.sim.kernel import SimKernel
from repro.workloads.registry import make_workload

#: planned rows per generated packet a plan may cost; the static maps
#: plan each row once, the load-aware ones (afs, laps) stay below 10
MAX_ROWS_PER_PKT = 32

NUM_SERVICES = len(default_services())


def _sched(name: str) -> Scheduler:
    if name == "laps":
        return LAPSScheduler(LAPSConfig(num_services=NUM_SERVICES), rng=1)
    return make_scheduler(name)


PLANNERS = [
    name for name in available_schedulers()
    if type(_sched(name)).assign_batch is not Scheduler.assign_batch
]


@pytest.fixture(scope="module", params=[0.8, 1.1], ids=["util0.8", "util1.1"])
def bursty(request):
    return make_workload(
        "mmpp-bursty", utilisation=request.param, duration_ns=units.ms(4), seed=0
    )


def _run(workload, name: str) -> SimKernel:
    kernel = SimKernel(
        SimConfig(num_cores=16, services=default_services()), _sched(name), workload
    )
    kernel.run()
    return kernel


@pytest.mark.parametrize("name", PLANNERS)
def test_plan_rows_per_packet_bounded(bursty, name):
    kernel = _run(bursty, name)
    stats = kernel.span_stats
    generated = kernel.state.metrics.generated
    assert generated > 0
    assert stats["plan_calls"] > 0
    assert stats["plan_rows"] / generated <= MAX_ROWS_PER_PKT


@pytest.mark.parametrize("name", ["fcfs", "flowlet", "flow-director"])
def test_scalar_schedulers_never_plan(bursty, name):
    stats = _run(bursty, name).span_stats
    assert stats["plan_calls"] == 0
    assert stats["plan_rows"] == 0
