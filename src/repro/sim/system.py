"""The network-processor simulator (Fig. 6 wired together).

Since the kernel refactor this module is a thin, stable shell: the run
loop itself lives in :class:`repro.sim.kernel.SimKernel`, which owns an
explicit :class:`~repro.sim.kernel.SimState` and exposes ``step()`` /
``run_until(t_ns)`` / ``run()`` plus checkpoint/resume.  Probes, fault
injectors and scheduler queue-edge callbacks all register on the
kernel's :class:`~repro.sim.hooks.HookBus` — the old
``probe.bind(sim)`` / ``injector.bind(sim)`` attribute-poking protocol
is gone.  See ``docs/architecture.md`` for the layering.

Event structure (unchanged): arrivals come pre-sorted from the
:class:`~repro.sim.workload.Workload` arrays or, chunk by chunk, from a
:class:`~repro.sim.source.PacketSource` (both are accepted wherever a
workload is; a source keeps resident memory at O(chunk)); the only
heap-managed events are core completions and the fault injector's timed
platform events.  Per arriving packet the kernel drains completions up to the
arrival instant, asks the scheduler for a target core, enqueues there
(or drops when the 32-descriptor queue is full), and an idle core
starts the packet immediately with the eq. 3 processing delay
(``T_proc`` + flow-migration/cold-cache penalties).  After the last
arrival the run drains for ``config.drain_ns`` so queued packets depart
and get scored for reordering.

The hot loop indexes plain numpy-backed lists and dicts; per-packet
Python objects are never created.

:class:`NetworkProcessorSim` remains the one-shot convenience wrapper
(construct with optional probe/injector, call :meth:`run` once); use
:class:`~repro.sim.kernel.SimKernel` directly for stepping, pausing and
checkpointing.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.schedulers.base import Scheduler
from repro.sim.config import SimConfig
from repro.sim.kernel import SimKernel
from repro.sim.metrics import SimReport
from repro.sim.source import PacketSource
from repro.sim.workload import Workload

__all__ = ["NetworkProcessorSim", "simulate"]


class NetworkProcessorSim:
    """One simulation run binding a scheduler to a workload.

    A convenience shell over :class:`~repro.sim.kernel.SimKernel`: the
    constructor wires the optional probe and injector onto the kernel's
    hook bus, and :meth:`run` executes the whole run exactly once.
    *workload* may be a materialized :class:`Workload` or any
    :class:`~repro.sim.source.PacketSource` (sources are cloned by the
    kernel, so one source object can seed many runs).
    """

    def __init__(
        self,
        config: SimConfig,
        scheduler: Scheduler,
        workload: Workload | PacketSource,
        probe=None,
        injector=None,
        *,
        vectorized: bool = True,
    ) -> None:
        self.kernel = SimKernel(config, scheduler, workload, vectorized=vectorized)
        self.config = config
        self.scheduler = scheduler
        self.workload = workload
        #: optional periodic sampler (see :meth:`SimKernel.attach_probe`)
        self.probe = probe
        #: optional :class:`repro.faults.FaultInjector` (dynamic events)
        self.injector = injector
        if injector is not None:
            self.kernel.attach_injector(injector)
        if probe is not None:
            self.kernel.attach_probe(probe)
        self._ran = False

    # live-state views (delegate to the kernel's explicit state) --------
    @property
    def queues(self):
        return self.kernel.state.queues

    @property
    def metrics(self):
        return self.kernel.state.metrics

    @property
    def reorder(self):
        return self.kernel.state.reorder

    @property
    def events_popped(self) -> int:
        """Heap events popped by the run (profiling signal)."""
        return self.kernel.events_popped

    # ------------------------------------------------------------------
    def run(self) -> SimReport:
        """Execute the full run and return the report."""
        if self._ran:
            raise SimulationError("a NetworkProcessorSim instance runs once")
        self._ran = True
        return self.kernel.run()


def simulate(
    workload: Workload | PacketSource,
    scheduler: Scheduler,
    config: SimConfig | None = None,
    probe=None,
    injector=None,
    *,
    vectorized: bool = True,
    shards: int | None = None,
    shard_workers: int = 0,
    shard_window_ns: int | None = None,
) -> SimReport:
    """Convenience one-shot: run *scheduler* on *workload* (a
    materialized :class:`Workload` or a streaming
    :class:`~repro.sim.source.PacketSource`).

    ``vectorized=False`` forces the per-packet scalar path (no column
    plan, no span drain); the report is bit-identical either way (the
    equivalence suite pins this), so the flag only matters for testing
    and benchmarking both paths.

    ``shards`` ≥ 2 delegates to :func:`repro.sim.sharding.run_sharded`:
    the system is partitioned and run over ``shard_workers`` processes
    (0 = auto), merging per-shard reports exactly — bit-identical for
    static-map schedulers, deterministic in (seed, window, shards) for
    LAPS.  Matching single-process semantics, only the injector's
    *platform* events ride along (traffic events are always the
    caller's job — apply them to the workload first).  Telemetry probes
    sample global state and are not supported sharded.
    """
    if shards is not None and shards > 1:
        if probe is not None:
            raise SimulationError(
                "telemetry probes sample global simulator state and are "
                "not supported on sharded runs — run single-process, or "
                "drop the probe"
            )
        from repro.faults.events import FaultSchedule
        from repro.sim.sharding import run_sharded

        schedule = None
        drain_policy = "drop"
        if injector is not None:
            platform = [
                ev for ev in injector.schedule.events if ev.kind == "platform"
            ]
            schedule = FaultSchedule(platform) if platform else None
            drain_policy = injector.drain_policy
        return run_sharded(
            workload, scheduler, config,
            shards=shards, workers=shard_workers,
            window_ns=shard_window_ns, schedule=schedule,
            drain_policy=drain_policy, vectorized=vectorized,
        ).report
    return NetworkProcessorSim(
        config or SimConfig(), scheduler, workload, probe=probe,
        injector=injector, vectorized=vectorized,
    ).run()
