"""Batched multi-run execution: one grid, one runner, shared workloads.

The figure harnesses all reduce to the same shape — a grid of
(scheduler × seed × scenario) simulations where several runs share one
expensively-built workload — and each used to carry its own copy of the
loop + process-pool plumbing.  :func:`run_batch` centralises it:

* a :class:`RunSpec` names one simulation declaratively (a workload
  spec, a scheduler factory, an optional config factory, and a
  free-form ``label`` the caller uses to map results back to rows);
* specs sharing a :class:`WorkloadSpec` are grouped so the workload is
  built **once per group** (per worker), not once per run — workload
  synthesis (trace generation + Holt-Winters pacing) is a large slice
  of a harness's wall time.  A spec's factory may return a materialized
  :class:`~repro.sim.workload.Workload` *or* a streaming
  :class:`~repro.sim.source.PacketSource`: the kernel clones a source
  per run, so the one-build-per-group sharing holds either way;
* groups execute through :func:`repro.util.parallel.parallel_map`
  (``jobs=1`` inline, ``0`` auto), and results come back in the input
  spec order regardless of grouping or pool scheduling.

Everything in a spec must be picklable and the factories must be
module-level functions, because groups may execute in pool workers.
``WorkloadSpec`` keyword values must additionally be hashable (they are
the grouping key) — pass scenario *names*, not scenario objects.

Fig. 8 is the one harness that does not use this module: it never runs
the simulator (the AFD is scored standalone against offline ground
truth), so its sharing win is memoised trace construction instead
(see ``fig8._trace``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.sim.config import SimConfig
from repro.sim.metrics import SimReport
from repro.sim.source import workload_fingerprint
from repro.sim.system import simulate
from repro.util.parallel import parallel_map

__all__ = ["WorkloadSpec", "RunSpec", "BatchRun", "run_batch"]


@dataclass(frozen=True)
class WorkloadSpec:
    """A hashable recipe for building one workload.

    Two specs with the same factory and keyword arguments compare (and
    hash) equal, which is exactly the grouping :func:`run_batch` needs:
    equal specs → one shared build.
    """

    fn: Callable
    #: sorted ``(name, value)`` pairs — canonical, hashable kwargs form
    kwargs: tuple[tuple[str, Any], ...]

    @classmethod
    def of(cls, fn: Callable, **kwargs) -> "WorkloadSpec":
        return cls(fn, tuple(sorted(kwargs.items())))

    def build(self):
        return self.fn(**dict(self.kwargs))


@dataclass
class RunSpec:
    """One simulation of the grid.

    ``config_fn(**config_kwargs)`` builds the :class:`SimConfig`
    (defaults to a plain ``SimConfig()`` when omitted); ``label`` is
    opaque caller metadata echoed back on the :class:`BatchRun`.
    """

    workload: WorkloadSpec
    scheduler_fn: Callable
    scheduler_kwargs: dict = field(default_factory=dict)
    config_fn: Callable | None = None
    config_kwargs: dict = field(default_factory=dict)
    #: optional fault-injector factory — built fresh per run (injectors
    #: are stateful) and handed to :func:`~repro.sim.system.simulate`
    injector_fn: Callable | None = None
    injector_kwargs: dict = field(default_factory=dict)
    #: shard the run N ways via :func:`repro.sim.sharding.run_sharded`
    #: (None/1 = single-process).  All sharded runs of one workload
    #: group share a single source fingerprint, computed once per
    #: group — the provenance stamp proving every shard group was cut
    #: from the identical packet stream.
    shards: int | None = None
    shard_workers: int = 0
    shard_window_ns: int | None = None
    label: dict = field(default_factory=dict)

    def build_config(self) -> SimConfig:
        if self.config_fn is None:
            return SimConfig()
        return self.config_fn(**self.config_kwargs)

    def build_injector(self):
        if self.injector_fn is None:
            return None
        return self.injector_fn(**self.injector_kwargs)


@dataclass
class BatchRun:
    """One completed simulation: the spec that named it + its report."""

    spec: RunSpec
    report: SimReport
    #: the ``manifest_dict()`` of the :class:`~repro.sim.sharding.
    #: ShardedRun` when the spec ran sharded; None single-process
    sharding: dict | None = None

    @property
    def label(self) -> dict:
        return self.spec.label


def _group_task(packed: tuple) -> list[tuple[int, BatchRun]]:
    """Run one workload-sharing group (module-level for pickling)."""
    wspec, indexed_specs = packed
    workload = wspec.build()
    group_fingerprint: str | None = None
    out: list[tuple[int, BatchRun]] = []
    for index, spec in indexed_specs:
        scheduler = spec.scheduler_fn(**spec.scheduler_kwargs)
        injector = spec.build_injector()
        if spec.shards is not None and spec.shards > 1:
            from repro.faults.events import FaultSchedule
            from repro.sim.sharding import run_sharded

            if group_fingerprint is None:
                # one content hash per shard group: every sharded run
                # of this group partitions the identical packet stream,
                # and the manifest records the shared proof
                group_fingerprint = workload_fingerprint(workload)
            schedule = None
            drain_policy = "drop"
            if injector is not None:
                # match single-process simulate(): only platform events
                # ride the injector; traffic events are the workload
                # factory's job
                platform = [
                    ev for ev in injector.schedule.events
                    if ev.kind == "platform"
                ]
                schedule = FaultSchedule(platform) if platform else None
                drain_policy = injector.drain_policy
            run = run_sharded(
                workload, scheduler, spec.build_config(),
                shards=spec.shards, workers=spec.shard_workers,
                window_ns=spec.shard_window_ns, schedule=schedule,
                drain_policy=drain_policy,
                source_fingerprint=group_fingerprint,
            )
            out.append(
                (index, BatchRun(spec, run.report, run.manifest_dict()))
            )
            continue
        report = simulate(
            workload, scheduler, spec.build_config(),
            injector=injector,
        )
        out.append((index, BatchRun(spec, report)))
    return out


def run_batch(specs: list[RunSpec], jobs: int = 1) -> list[BatchRun]:
    """Execute every spec, sharing workload builds, in input order.

    Specs are grouped by their :class:`WorkloadSpec`; each group builds
    its workload once and runs its simulations sequentially (they would
    contend for the same cores anyway), while distinct groups spread
    over the process pool.  The returned list is index-aligned with
    *specs*.
    """
    groups: dict[WorkloadSpec, list[tuple[int, RunSpec]]] = {}
    for index, spec in enumerate(specs):
        groups.setdefault(spec.workload, []).append((index, spec))
    results: list[BatchRun | None] = [None] * len(specs)
    for chunk in parallel_map(_group_task, list(groups.items()), jobs=jobs):
        for index, run in chunk:
            results[index] = run
    return results  # type: ignore[return-value]
