"""Fault scenarios F1-F4: scheduler resilience comparison.

Four stressors over the paper's 16-core, 4-service platform, each run
under FCFS, AFS and LAPS with identical workloads and fault schedules:

* **F1 — core loss under-load**: one core of a loaded service dies
  mid-run and never returns, at ~70% utilisation.  A resilient
  scheduler re-spreads the dead core's flows and the drop rate returns
  to its (near-zero) baseline; the interesting signal is how much
  reordering the re-spreading cost.
* **F2 — core loss at overload**: the same failure at ~110%
  utilisation, where the lost capacity cannot be hidden — the metric
  is graceful degradation, not full recovery.
* **F3 — slowdown + surge**: a core is throttled 4x for a third of the
  run while one service's traffic doubles for a window — compound
  stress without any capacity actually disappearing.
* **F4 — repeated flap**: one core fails and recovers three times
  (the stickiness-vs-recovery trade-off: every reaction to the flap is
  re-punished when the core returns).

``run()`` produces the comparison table the experiments CLI prints
(``repro-experiments faults``); ``run_scenario`` returns the raw
reports and :class:`~repro.faults.metrics.ResilienceSummary` per
scheduler for tests and ad-hoc analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro import units
from repro.core.laps import LAPSConfig, LAPSScheduler
from repro.experiments.runner import ExperimentResult
from repro.faults.events import (
    CoreFail,
    CoreSlowdown,
    FaultEvent,
    FaultSchedule,
    TrafficSurge,
    core_flap,
)
from repro.faults.injector import FaultInjector, apply_traffic_events
from repro.faults.metrics import ResilienceSummary, compute_resilience
from repro.net.service import default_services
from repro.obs.probes import TelemetryProbe
from repro.schedulers.afs import AFSScheduler
from repro.schedulers.base import Scheduler
from repro.schedulers.fcfs import FCFSScheduler
from repro.sim.config import SimConfig
from repro.sim.generator import HoltWintersParams
from repro.sim.metrics import SimReport
from repro.sim.system import simulate
from repro.sim.workload import Workload, build_workload
from repro.util.parallel import parallel_map
from repro.workloads.traces import resolve_trace

__all__ = [
    "FaultScenario",
    "FAULT_SCENARIOS",
    "fault_workload",
    "run_scenario",
    "run",
]

#: one trace preset per service (same spirit as Table V's groups)
_SERVICE_TRACES = ("caida-1", "caida-2", "auck-1", "auck-2")

NUM_CORES = 16
SCHEDULER_NAMES = ("fcfs", "afs", "laps")


@dataclass(frozen=True)
class FaultScenario:
    """One named stressor: a utilisation level plus a schedule rule."""

    name: str
    title: str
    utilisation: float
    #: duration_ns -> events (times scale with the run length)
    events_for: Callable[[int], list[FaultEvent]]
    drain_policy: str = "drop"

    def schedule(self, duration_ns: int) -> FaultSchedule:
        return FaultSchedule(self.events_for(duration_ns))


def _f1_events(duration_ns: int) -> list[FaultEvent]:
    return [CoreFail(duration_ns // 3, core_id=5)]


def _f2_events(duration_ns: int) -> list[FaultEvent]:
    return [CoreFail(duration_ns // 3, core_id=5)]


def _f3_events(duration_ns: int) -> list[FaultEvent]:
    return [
        CoreSlowdown(
            duration_ns // 4, core_id=2, factor=4.0,
            duration_ns=duration_ns // 3,
        ),
        TrafficSurge(
            duration_ns // 2, service_id=1, factor=2.0,
            duration_ns=duration_ns // 6,
        ),
    ]


def _f4_events(duration_ns: int) -> list[FaultEvent]:
    return core_flap(
        core_id=9,
        first_fail_ns=duration_ns // 4,
        down_ns=duration_ns // 10,
        up_ns=duration_ns // 10,
        cycles=3,
    )


# Utilisations are headroom-aware: losing one of a 4-core service's
# cores multiplies its local load by 4/3, so "under-load" scenarios sit
# low enough that the degraded service stays servable and recovery to
# baseline is possible at all, while F2 is hopeless by construction.
FAULT_SCENARIOS: dict[str, FaultScenario] = {
    "F1": FaultScenario(
        "F1", "single core loss, under-load", 0.50, _f1_events
    ),
    "F2": FaultScenario(
        "F2", "single core loss, overload", 1.10, _f2_events
    ),
    "F3": FaultScenario(
        "F3", "core slowdown + traffic surge", 0.70, _f3_events
    ),
    "F4": FaultScenario(
        "F4", "repeated core flap", 0.60, _f4_events
    ),
}


def _make_scheduler(name: str, num_services: int, seed: int) -> Scheduler:
    if name == "laps":
        return LAPSScheduler(LAPSConfig(num_services=num_services), rng=seed)
    if name == "afs":
        return AFSScheduler(cooldown_ns=units.us(100))
    if name == "fcfs":
        return FCFSScheduler()
    raise ValueError(f"unknown fault-harness scheduler {name!r}")


def fault_workload(
    utilisation: float,
    duration_ns: int,
    trace_packets: int = 60_000,
    seed: int = 0,
    num_cores: int = NUM_CORES,
    trace_names: tuple[str, ...] | None = None,
) -> Workload:
    """A steady 4-service workload at *utilisation* of ideal capacity.

    Steady (flat Holt-Winters level, no trend/season) on purpose: fault
    recovery is detected as "drop rate back at baseline", which wants a
    flat baseline rather than the Table IV seasonal shapes.

    ``trace_names`` swaps the default header mix for any presets
    :func:`repro.workloads.traces.resolve_trace` knows — e.g. the
    heavy-tailed CDF presets — to stress recovery under other size
    distributions.
    """
    services = default_services()
    names = trace_names or _SERVICE_TRACES
    traces = [
        resolve_trace(name, num_packets=trace_packets)
        for name in names[: len(services)]
    ]
    per_service_cores = num_cores // len(services)
    params = []
    for sid, trace in enumerate(traces):
        mean_size = float(trace.size_bytes.mean())
        cap = per_service_cores * services[sid].capacity_pps(mean_size)
        params.append(HoltWintersParams(a=utilisation * cap))
    return build_workload(traces, params, duration_ns=duration_ns, seed=seed)


def run_scenario(
    scenario: FaultScenario,
    *,
    quick: bool = False,
    seed: int = 0,
    duration_ns: int | None = None,
    trace_packets: int | None = None,
    schedulers: tuple[str, ...] = SCHEDULER_NAMES,
    probe_period_ns: int | None = None,
    trace_names: tuple[str, ...] | None = None,
    shards: int | None = None,
    shard_workers: int = 0,
    shard_window_ns: int | None = None,
) -> dict[str, tuple[SimReport, ResilienceSummary | None]]:
    """One scenario under each scheduler; returns per-scheduler
    ``(report, resilience)`` keyed by scheduler name.

    ``shards`` ≥ 2 runs each scheduler sharded (see
    :func:`repro.sim.sharding.run_sharded`); telemetry probes sample
    global state and cannot attach to a sharded run, so the resilience
    summary comes back ``None`` — the report's drop/fault counters are
    still exact.  Only sharding-capable schedulers can run this way
    (LAPS, and the static maps); the default FCFS/AFS field cannot.
    """
    if duration_ns is None:
        duration_ns = units.ms(12) if quick else units.ms(40)
    if trace_packets is None:
        trace_packets = 20_000 if quick else 60_000
    if probe_period_ns is None:
        probe_period_ns = max(duration_ns // 160, units.us(10))
    sharded = shards is not None and shards > 1
    schedule = scenario.schedule(duration_ns)
    workload = apply_traffic_events(
        fault_workload(
            scenario.utilisation, duration_ns,
            trace_packets=trace_packets, seed=seed,
            trace_names=trace_names,
        ),
        schedule,
    )
    config = SimConfig(num_cores=NUM_CORES, collect_latencies=False)
    num_services = len(config.services)
    out: dict[str, tuple[SimReport, ResilienceSummary | None]] = {}
    for name in schedulers:
        sched = _make_scheduler(name, num_services, seed + 1)
        injector = FaultInjector(schedule, drain_policy=scenario.drain_policy)
        if sharded:
            report = simulate(
                workload, sched, config, injector=injector,
                shards=shards, shard_workers=shard_workers,
                shard_window_ns=shard_window_ns,
            )
            out[name] = (report, None)
            continue
        probe = TelemetryProbe(probe_period_ns)
        report = simulate(workload, sched, config, probe=probe,
                          injector=injector)
        resilience = compute_resilience(
            probe.records, schedule, scheduler=name,
            arrivals_end_ns=duration_ns,
        )
        out[name] = (report, resilience)
    return out


def _scenario_task(args: tuple) -> list[dict]:
    """One scenario's table rows (module-level for pickling)."""
    sname, quick, seed, duration_ns, trace_packets, trace_names = args
    results = run_scenario(
        FAULT_SCENARIOS[sname], quick=quick, seed=seed,
        duration_ns=duration_ns, trace_packets=trace_packets,
        trace_names=trace_names,
    )
    rows = []
    for sched_name, (rep, res) in results.items():
        rec = res.worst_recovery_ns
        rows.append(dict(
            scenario=sname,
            scheduler=sched_name,
            offered=rep.generated,
            dropped=rep.dropped,
            drop_frac=round(rep.drop_fraction, 4),
            fault_drops=rep.fault_dropped,
            ooo=rep.out_of_order,
            post_ooo=res.post_fault_ooo,
            remapped=res.flows_remapped,
            recovered=res.recovered,
            recover_ms=None if rec is None else round(rec / 1e6, 2),
        ))
    return rows


def run(
    quick: bool = False,
    scenarios: tuple[str, ...] | None = None,
    seed: int = 0,
    duration_ns: int | None = None,
    trace_packets: int | None = None,
    jobs: int = 1,
    trace_names: tuple[str, ...] | None = None,
) -> ExperimentResult:
    """F1-F4 x {FCFS, AFS, LAPS}: the resilience comparison table.

    ``jobs`` parallelises across scenarios (0 = auto), exactly like the
    figure harnesses.  ``trace_names`` swaps the per-service header mix
    (any :func:`~repro.workloads.traces.resolve_trace` presets).
    """
    names = scenarios or tuple(FAULT_SCENARIOS)
    meta = {"quick": quick, "seed": seed}
    if trace_names is not None:
        meta["traces"] = ",".join(trace_names)
    result = ExperimentResult(
        "Faults F1-F4 - scheduler degradation and recovery",
        columns=[
            "scenario", "scheduler", "offered",
            "dropped", "drop_frac", "fault_drops",
            "ooo", "post_ooo",
            "remapped", "recovered", "recover_ms",
        ],
        meta=meta,
    )
    tasks = [(sname, quick, seed, duration_ns, trace_packets, trace_names)
             for sname in names]
    for rows in parallel_map(_scenario_task, tasks, jobs=jobs):
        for row in rows:
            result.add(**row)
    return result
