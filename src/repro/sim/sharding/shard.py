"""One shard: a full :class:`~repro.sim.kernel.SimKernel` over a slice
of the system, plus the barrier-protocol surface the coordinator
drives.  A :class:`ShardSpec` is the picklable build recipe shipped to
a worker process; the :class:`Shard` lives worker-side (or inline) and
is advanced through exactly three entry points:

* ``run_arrivals`` — cores mode: dispatch every arrival, report the
  shard's last arrival instant (the only synchronisation needed);
* ``window_step`` — services mode: apply the previous barrier's
  resolved revokes and grants, advance one conservative window, and
  return this window's mailbox traffic;
* ``finish`` — drain against the *global* last arrival and return the
  :class:`ShardResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.faults import FaultInjector, FaultSchedule
from repro.sim.config import SimConfig
from repro.sim.kernel import SimKernel
from repro.sim.metrics import SimReport
from repro.sim.sharding.mailbox import CoreOffer, CoreRequest
from repro.sim.source import PacketSource

__all__ = ["Shard", "ShardSpec", "ShardResult"]


@dataclass
class ShardSpec:
    """Everything needed to build one shard in a fresh process."""

    shard_id: int
    mode: str  # "cores" | "services"
    config: SimConfig
    source: PacketSource
    scheduler: object
    platform_schedule: FaultSchedule | None = None
    drain_policy: str = "drop"
    vectorized: bool = True


@dataclass
class ShardResult:
    """One shard's finished run, ready for exact aggregation.

    ``busy_ns`` and ``latencies_ns`` are the *raw* metrics (the report
    only carries derived utilisation and a latency summary; exact
    merging needs the underlying integers).
    """

    shard_id: int
    report: SimReport
    busy_ns: list[int]
    latencies_ns: list[int]
    last_arrival_ns: int
    map_epoch_moved: bool = False
    windows: int = 0
    grants_in: int = 0
    grants_out: int = 0
    service_ids: tuple[int, ...] = field(default_factory=tuple)


class Shard:
    """Worker-side wrapper binding a kernel to the barrier protocol."""

    def __init__(self, spec: ShardSpec) -> None:
        self.spec = spec
        self.kernel = SimKernel(
            spec.config,
            spec.scheduler,
            spec.source,
            vectorized=spec.vectorized,
        )
        if spec.platform_schedule is not None and len(spec.platform_schedule):
            self.kernel.attach_injector(
                FaultInjector(spec.platform_schedule, drain_policy=spec.drain_policy)
            )
        self.windows = 0
        self.grants_in = 0
        self.grants_out = 0
        # any map-table mutation after this point means the shard's
        # routing diverged from its static partition (cores mode only)
        self._epoch0 = self.kernel.scheduler.map_epoch

    # -- cores mode -----------------------------------------------------
    def run_arrivals(self, _arg=None) -> int:
        """Dispatch every arrival; returns the shard's last arrival."""
        return self.kernel.run_arrivals()

    # -- services mode --------------------------------------------------
    def window_step(self, payload) -> dict:
        """Apply the previous barrier's outcome, advance one window.

        *payload* is ``(barrier_ns, revokes, grants, advance_to)``:
        ``revokes`` the cores this shard must release, ``grants`` the
        ``(core, local_service)`` pairs it adopts.  No simulated time
        has passed since the revoked cores were offered (offers are
        collected at the barrier the coordinator resolved), so a
        refused revoke is a protocol invariant violation, not a race.
        """
        barrier_ns, revokes, grants, advance_to = payload
        kernel = self.kernel
        sched = kernel.scheduler
        for core in revokes:
            if not sched.shard_revoke(core, barrier_ns):
                raise SimulationError(
                    f"shard {self.spec.shard_id} refused to revoke core "
                    f"{core} it offered at the same barrier"
                )
            self.grants_out += 1
        for core, service in grants:
            sched.shard_grant(core, service, barrier_ns)
            self.grants_in += 1
        if advance_to > kernel.now_ns:
            kernel.run_until(advance_to)
        self.windows += 1
        st = kernel.state
        shard_id = self.spec.shard_id
        requests = [
            CoreRequest(t_ns=t, shard=shard_id, service=sid)
            for t, sid in sched.shard_unmet_requests()
        ]
        offers = []
        for last_busy, core, owner, online in sched.shard_surplus(advance_to):
            # a core handed over at a barrier must carry no in-flight
            # state: still serving a packet or holding queued
            # descriptors disqualifies it this window
            if st.core_busy[core] or len(st.queues[core]) > 0:
                continue
            offers.append(
                CoreOffer(
                    last_busy_ns=last_busy,
                    shard=shard_id,
                    core=core,
                    service=owner,
                    online_owned=online,
                )
            )
        return {
            "exhausted": not kernel.arrivals_pending,
            "last_arrival_ns": st.last_arrival_ns,
            "requests": requests,
            "offers": offers,
        }

    # -- common ---------------------------------------------------------
    def finish(self, global_last_arrival_ns: int) -> ShardResult:
        """Drain to the global horizon and package the result."""
        report = self.kernel.finish(global_last_arrival_ns)
        metrics = self.kernel.state.metrics
        moved = (
            self.spec.mode == "cores"
            and self.kernel.scheduler.map_epoch != self._epoch0
        )
        return ShardResult(
            shard_id=self.spec.shard_id,
            report=report,
            busy_ns=list(metrics.busy_ns_per_core),
            latencies_ns=list(metrics.latencies_ns),
            last_arrival_ns=self.kernel.state.last_arrival_ns,
            map_epoch_moved=moved,
            windows=self.windows,
            grants_in=self.grants_in,
            grants_out=self.grants_out,
            service_ids=tuple(
                getattr(self.spec.source, "_services", ())
            ),
        )
