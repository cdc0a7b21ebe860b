"""Composable run-telemetry probes.

Generalises :class:`repro.sim.probes.QueueProbe`: a
:class:`TelemetryProbe` owns a set of :class:`Sampler` objects and, on
a fixed period, asks each for a row fragment; fragments merge into one
record per sample time.  The kernel drives the probe through the same
``maybe_sample(t_ns, queues, metrics)`` hook the legacy probe uses —
:meth:`~repro.sim.kernel.SimKernel.attach_probe` registers it as a
``sample`` subscriber on the hook bus and calls
:meth:`TelemetryProbe.bind` with the running
:class:`~repro.sim.kernel.SimKernel` (which exposes the sampler view
protocol: ``queues`` / ``metrics`` / ``scheduler`` / ``reorder`` /
``injector``), so samplers can see the scheduler and the reorder
detector, not just the queues.

Period semantics (the part the legacy probe got wrong): at most **one**
sample is recorded per ``maybe_sample`` call, timestamped with the
*actual* observation time ``t_ns`` — never a backfill of past period
boundaries with present state.  When simulated time jumps over several
boundaries (sparse arrivals), those boundaries are simply absent from
the series; consumers that need a uniform grid can resample offline
with explicit carry-forward, which is then *their* stated semantics
rather than silent misattribution.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.errors import ConfigError

__all__ = [
    "Sampler",
    "QueueOccupancySampler",
    "ProgressSampler",
    "SchedulerSampler",
    "ReorderSampler",
    "FaultStateSampler",
    "TelemetryProbe",
    "default_samplers",
]


class Sampler:
    """One source of telemetry columns.

    ``sample`` receives the observation time and a *view* exposing (a
    subset of) ``queues``, ``metrics``, ``scheduler`` and ``reorder``
    attributes — the running simulator itself satisfies this.  A
    sampler whose inputs are missing from the view returns ``{}``.
    """

    name = "?"

    def sample(self, t_ns: int, view) -> dict:  # pragma: no cover - interface
        raise NotImplementedError


class QueueOccupancySampler(Sampler):
    """Per-core input-queue depths (the balancer's state)."""

    name = "queues"

    def sample(self, t_ns: int, view) -> dict:
        queues = getattr(view, "queues", None)
        if queues is None:
            return {}
        occ = queues.occupancies()
        return {
            "occupancy": list(occ),
            "occ_max": max(occ),
            "occ_min": min(occ),
        }


class ProgressSampler(Sampler):
    """Cumulative progress counters (generated/dropped/departed)."""

    name = "progress"

    def __init__(self, per_service: bool = False) -> None:
        self.per_service = per_service

    def sample(self, t_ns: int, view) -> dict:
        metrics = getattr(view, "metrics", None)
        if metrics is None:
            return {}
        row = {
            "generated": metrics.generated,
            "dropped": metrics.dropped,
            "departed": metrics.departed,
        }
        if self.per_service:
            row["dropped_per_service"] = list(metrics.dropped_per_service)
            row["generated_per_service"] = list(metrics.generated_per_service)
        return row


class SchedulerSampler(Sampler):
    """The scheduler's own counters (``migrations_installed``,
    ``core_requests``, ...) prefixed with ``sched_``."""

    name = "scheduler"

    def sample(self, t_ns: int, view) -> dict:
        sched = getattr(view, "scheduler", None)
        if sched is None:
            return {}
        return {f"sched_{k}": v for k, v in sched.stats().items()}


class ReorderSampler(Sampler):
    """Egress ordering state: OOO count and in-flight sequence gaps."""

    name = "reorder"

    def sample(self, t_ns: int, view) -> dict:
        reorder = getattr(view, "reorder", None)
        if reorder is None:
            return {}
        return {
            "out_of_order": reorder.out_of_order,
            "in_flight_gaps": reorder.in_flight_gaps,
        }


class FaultStateSampler(Sampler):
    """Live fault state when a :class:`repro.faults.FaultInjector` is
    attached (``fault_`` -prefixed injector counters); inert otherwise."""

    name = "faults"

    def sample(self, t_ns: int, view) -> dict:
        injector = getattr(view, "injector", None)
        if injector is None:
            return {}
        return {f"fault_{k}": v for k, v in injector.stats().items()}


def default_samplers() -> list[Sampler]:
    """The standard probe battery (everything Figs. 7-9 could want)."""
    return [
        QueueOccupancySampler(),
        ProgressSampler(),
        SchedulerSampler(),
        ReorderSampler(),
        FaultStateSampler(),
    ]


class _View:
    """Minimal view when the probe was never bound to a simulator."""

    __slots__ = ("queues", "metrics")

    def __init__(self, queues, metrics) -> None:
        self.queues = queues
        self.metrics = metrics


class TelemetryProbe:
    """Periodic multi-sampler probe producing one record per sample.

    Drop-in for the ``probe=`` argument of
    :func:`repro.sim.system.simulate`; records land in ``records`` as
    plain dicts (``t_ns`` plus each sampler's columns), ready for
    :func:`repro.obs.export.write_run`.
    """

    def __init__(self, period_ns: int, samplers: list[Sampler] | None = None) -> None:
        if period_ns <= 0:
            raise ConfigError(f"probe period must be positive, got {period_ns}")
        self.period_ns = period_ns
        self.samplers = list(samplers) if samplers is not None else default_samplers()
        self.records: list[dict] = []
        self._next_ns = 0
        self._view = None

    # ------------------------------------------------------------------
    def bind(self, view) -> None:
        """Attach to the run (a :class:`~repro.sim.kernel.SimKernel` or
        anything else exposing the sampler view protocol).

        The view is held weakly: the kernel's hook bus holds this
        probe, so a strong reference back would make every observed
        run a reference cycle, its state freed only when the cyclic
        collector next runs.
        """
        self._view = weakref.ref(view)

    def maybe_sample(self, t_ns: int, queues, metrics) -> None:
        """Record at most one sample when *t_ns* crossed a boundary."""
        if t_ns < self._next_ns:
            return
        view = self._view() if self._view is not None else None
        if view is None:
            view = _View(queues, metrics)
        row = {"t_ns": t_ns}
        for s in self.samplers:
            row.update(s.sample(t_ns, view))
        self.records.append(row)
        # next sample at the first grid boundary strictly after t_ns
        self._next_ns = (t_ns // self.period_ns + 1) * self.period_ns

    # ------------------------------------------------------------------
    @property
    def num_samples(self) -> int:
        return len(self.records)

    @property
    def times_ns(self) -> list[int]:
        return [r["t_ns"] for r in self.records]

    def to_records(self) -> list[dict]:
        """The series as a list of plain dicts (exporter input)."""
        return list(self.records)

    def column(self, name: str) -> np.ndarray:
        """One column across all samples as a numpy array.

        Missing values (sampler inactive for some rows) become NaN for
        scalar columns; list-valued columns must be present in every
        row.
        """
        values = [r.get(name) for r in self.records]
        if any(isinstance(v, list) for v in values):
            return np.asarray(values)
        return np.asarray(
            [np.nan if v is None else v for v in values], dtype=np.float64
        )

    def occupancy_matrix(self) -> np.ndarray:
        """(samples, cores) int array of queue depths."""
        occ = [r["occupancy"] for r in self.records if "occupancy" in r]
        if not occ:
            return np.empty((0, 0), dtype=np.int64)
        return np.asarray(occ, dtype=np.int64)
