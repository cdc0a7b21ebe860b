"""Observation wrappers installed from outside the program.

Two instruments, both installed at class (or module) level so that the
sources and schedulers a kernel clones or a harness builds are covered
too, and both removed again by :meth:`uninstall`:

* :class:`Collector` wraps ``SimKernel.finalize`` and keeps a small
  :class:`SimRecord` per finished simulation — the report plus the
  kernel-side counters the checks and metrics need.  It also calls its
  ``on_boundary`` hook after every finished simulation and every
  ``PacketSource.next_chunk`` (``bench.run`` takes host-speed samples
  there).  It costs one call per simulation and per chunk and is on in
  every run.
* :class:`Tracer` wraps the public calls at each layer boundary and
  records one span per call in memory (id, layer, start, end, parent
  span, simulation id, items handled), written out by :meth:`Tracer.save`.
  :func:`layer_metrics` derives the per-layer metrics and self times
  from the spans.

Neither changes what a call does or returns: a traced pass must report
exactly what the untraced pass reported (``bench.run`` checks this).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.afd import AggressiveFlowDetector
from repro.experiments.batch import WorkloadSpec
from repro.faults.injector import FaultInjector
from repro.obs.probes import TelemetryProbe
from repro.schedulers.base import Scheduler
from repro.sim.events.span import SpanDriver
from repro.sim.kernel import SimKernel
from repro.sim.metrics import SimReport
from repro.sim.source import PacketSource

__all__ = ["Patches", "SimRecord", "Collector", "Tracer", "layer_metrics", "LAYERS"]

_MISSING = object()


class Patches:
    """Attribute replacements on classes or modules, undone in reverse."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    def __len__(self) -> int:
        return len(self._undo)


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SimRecord:
    """One finished simulation as the checks and metrics see it."""

    report: SimReport
    #: the assignment is a pure static function of the packet (no
    #: balancing), so the run must never reorder a flow
    static_map: bool
    span_stats: dict
    events_popped: int
    map_epoch: int


class Collector:
    """Keeps a :class:`SimRecord` for every ``SimKernel.finalize``."""

    def __init__(self, on_boundary=None) -> None:
        self.sims: list[SimRecord] = []
        self._on_boundary = on_boundary
        self._patches = Patches()

    def install(self) -> "Collector":
        original = SimKernel.finalize
        sims = self.sims
        on_boundary = self._on_boundary

        @functools.wraps(original)
        def finalize(kernel):
            report = original(kernel)
            sched = kernel.scheduler
            sims.append(SimRecord(
                report=report,
                static_map=bool(sched.shard_static),
                span_stats=dict(kernel.span_stats),
                events_popped=int(kernel.events_popped),
                map_epoch=int(sched.map_epoch),
            ))
            if on_boundary is not None:
                on_boundary()
            return report

        self._patches.set(SimKernel, "finalize", finalize)
        if on_boundary is not None:
            for owner in [PacketSource, *_subclasses(PacketSource)]:
                fn = vars(owner).get("next_chunk")
                if inspect.isfunction(fn):
                    self._patches.set(owner, "next_chunk", _then(fn, on_boundary))
        return self

    def take(self) -> list[SimRecord]:
        """The records collected since the last take."""
        out = list(self.sims)
        self.sims.clear()
        return out

    def uninstall(self) -> None:
        self._patches.undo()


def _then(fn, hook):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        out = fn(*args, **kwargs)
        hook()
        return out

    return wrapped


# ----------------------------------------------------------------------
def _subclasses(cls) -> list[type]:
    out, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


def _rows(out) -> int:
    return 0 if out is None else len(out)


#: span layer names (a span's ``layer`` column indexes this tuple);
#: :meth:`Tracer.install` maps each to the public calls it wraps
LAYERS: tuple[str, ...] = (
    "source.build", "source.pull", "plan", "select", "commit",
    "afd.observe", "span.attempt", "kernel.run", "kernel.finish",
    "faults.apply", "probe.sample", "harness.run", "harness.build",
    "harness.sim",
)


class Tracer:
    """In-memory span recorder over the program's public calls."""

    def __init__(self) -> None:
        self._layer_id = {name: i for i, name in enumerate(LAYERS)}
        self.span_id = array("q")
        self.layer = array("b")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.parent = array("q")
        self.run = array("q")
        self.items = array("q")
        self.probes: dict[int, TelemetryProbe] = {}
        self._stack = [-1]
        self._next = 0
        self._run = -1
        self._runs = 0
        self._patches = Patches()
        #: calibrated per-call wrapper cost charged to the caller
        self.overhead_ns = 0.0

    # -- recording -------------------------------------------------------
    def _wrap(self, fn, layer: str, items=None, new_run: bool = False):
        lid = self._layer_id[layer]
        stack = self._stack
        clock = time.perf_counter_ns
        cols = (self.span_id, self.layer, self.start_ns, self.end_ns,
                self.parent, self.run, self.items)
        span_id, lay, start, end, parent, run, nitems = (c.append for c in cols)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next
            tracer._next = sid + 1
            prev_run = tracer._run
            if new_run:
                tracer._run = tracer._runs
                tracer._runs += 1
            up = stack[-1]
            stack.append(sid)
            out = None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = clock()
                stack.pop()
                span_id(sid)
                lay(lid)
                start(t0)
                end(t1)
                parent(up)
                run(tracer._run)
                nitems(items(args, out) if items is not None else 0)
                tracer._run = prev_run

        return traced

    def _calibrate(self, n: int = 20_000) -> float:
        """Wrapper cost per call that lands in the caller's self time:
        a traced call's cost over a direct one (the callee's own time
        is inside the span, so the difference is the bookkeeping)."""
        probe = Tracer()

        def noop():
            return None

        traced = probe._wrap(noop, LAYERS[0])
        clock = time.perf_counter_ns
        t0 = clock()
        for _ in range(n):
            noop()
        t1 = clock()
        for _ in range(n):
            traced()
        t2 = clock()
        return max(0.0, ((t2 - t1) - (t1 - t0)) / n)

    def _method(self, cls, attr: str, layer: str, **kw) -> None:
        """Wrap *attr* on *cls* and on every subclass overriding it."""
        for owner in [cls, *_subclasses(cls)]:
            fn = vars(owner).get(attr)
            if inspect.isfunction(fn):
                self._patches.set(owner, attr, self._wrap(fn, layer, **kw))

    def _function(self, fn, layer: str) -> None:
        """Wrap a module-level function wherever it was imported."""
        traced = self._wrap(fn, layer)
        for name, mod in list(sys.modules.items()):
            if not name.startswith(("repro", "perfbench")) or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.set(mod, attr, traced)

    def _note_probe(self, args, out) -> int:
        self.probes[id(args[0])] = args[0]
        return 0

    def install(self) -> "Tracer":
        from repro.experiments import tournament
        from repro.sim import system, workload
        from repro.workloads import registry

        if len(self._patches):
            raise RuntimeError("tracer already installed")
        self.overhead_ns = self._calibrate()
        self._function(registry.make_workload, "source.build")
        self._function(workload.build_workload, "source.build")
        self._method(PacketSource, "next_chunk", "source.pull",
                     items=lambda args, out: _rows(out))
        self._method(Scheduler, "assign_batch", "plan",
                     items=lambda args, out: _rows(out))
        self._method(Scheduler, "select_core", "select")
        self._method(Scheduler, "batch_commit", "commit")
        self._method(Scheduler, "batch_commit_span", "commit")
        self._method(AggressiveFlowDetector, "observe", "afd.observe")
        self._method(AggressiveFlowDetector, "observe_batch", "afd.observe")
        self._method(SpanDriver, "attempt", "span.attempt")
        self._method(SimKernel, "run", "kernel.run", new_run=True)
        self._method(SimKernel, "finish", "kernel.finish")
        self._method(FaultInjector, "apply", "faults.apply")
        self._method(TelemetryProbe, "maybe_sample", "probe.sample",
                     items=self._note_probe)
        self._function(tournament.run_tournament, "harness.run")
        self._method(WorkloadSpec, "build", "harness.build")
        self._function(system.simulate, "harness.sim")
        return self

    def uninstall(self) -> None:
        self._patches.undo()

    # -- output ------------------------------------------------------------
    def spans(self) -> dict[str, np.ndarray]:
        """Span columns ordered by span id (a span's id is its index)."""
        ids = np.frombuffer(self.span_id, dtype=np.int64)
        order = np.argsort(ids, kind="stable")
        cols = {
            "layer": np.frombuffer(self.layer, dtype=np.int8),
            "start_ns": np.frombuffer(self.start_ns, dtype=np.int64),
            "end_ns": np.frombuffer(self.end_ns, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "run": np.frombuffer(self.run, dtype=np.int64),
            "items": np.frombuffer(self.items, dtype=np.int64),
        }
        return {k: v[order] for k, v in cols.items()}

    def save(self, path: Path) -> None:
        """Write every span (plus the layer-name table) as ``.npz``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, layers=np.array(LAYERS), **self.spans())


# ----------------------------------------------------------------------
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, sims: list[SimRecord]) -> dict[str, float]:
    """Per-layer metrics of one traced section.

    A layer's time is the summed duration of its *outermost* spans (a
    call nested in a call of the same layer — a source wrapping
    another, ``make_workload`` calling ``build_workload`` — counts
    once).  ``kernel.self_s`` is the kernel's run time minus the part
    covered by its child spans: the per-packet loop, the reorder
    detector and the metrics, which no public call reaches — less the
    calibrated wrapper cost of each direct child call.
    """
    sp = tracer.spans()
    layer = sp["layer"].astype(np.int64)
    parent = sp["parent"]
    dur = sp["end_ns"] - sp["start_ns"]
    n = len(layer)
    has_parent = parent >= 0
    parent_layer = np.full(n, -1, dtype=np.int64)
    parent_layer[has_parent] = layer[parent[has_parent]]
    outer = parent_layer != layer
    child_ns = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    children = np.bincount(parent[has_parent], minlength=n)
    # each direct child also cost the caller the wrapper's bookkeeping
    self_ns = np.maximum(dur - child_ns - children * tracer.overhead_ns, 0.0)
    # spans anywhere below a harness.run span
    lid = {name: i for i, name in enumerate(LAYERS)}
    in_harness = layer == lid["harness.run"]
    while True:
        grown = in_harness.copy()
        grown[has_parent] |= in_harness[parent[has_parent]]
        if (grown == in_harness).all():
            break
        in_harness = grown

    def sel(name: str, harness_only: bool = False) -> np.ndarray:
        mask = (layer == lid[name]) & outer
        return mask & in_harness if harness_only else mask

    def secs(name: str, harness_only: bool = False) -> float:
        return float(dur[sel(name, harness_only)].sum()) / 1e9

    def calls(name: str) -> int:
        return int(sel(name).sum())

    generated = sum(s.report.generated for s in sims)
    stats = [s.span_stats for s in sims]
    sched = [s.report.scheduler_stats for s in sims]

    def total(rows: list[dict], key: str) -> float:
        return sum(r.get(key, 0) for r in rows)

    harness_s = secs("harness.run")
    harness_build = secs("harness.build", True)
    harness_sim = secs("harness.sim", True)
    committed = total(stats, "spans_committed")
    bailed = total(stats, "spans_bailed")
    return {
        "source.build_s": secs("source.build"),
        "source.pull_s": secs("source.pull"),
        "source.chunks": calls("source.pull"),
        "source.pkts": int(sp["items"][sel("source.pull")].sum()),
        "plan.s": total(stats, "plan_ns") / 1e9,
        "plan.calls": calls("plan"),
        "plan.rows_per_pkt": _ratio(float(sp["items"][sel("plan")].sum()), generated),
        "plan.map_epoch": sum(s.map_epoch for s in sims),
        "select.calls": calls("select"),
        "select.s": secs("select"),
        "select.share": _ratio(calls("select"), generated),
        "commit.calls": calls("commit"),
        "commit.s": secs("commit"),
        "afd.observe_calls": calls("afd.observe"),
        "afd.observe_s": secs("afd.observe"),
        "laps.imbalance_events": total(sched, "imbalance_events"),
        "laps.migrations_installed": total(sched, "migrations_installed"),
        "laps.afd_promotions": total(sched, "afd_promotions"),
        "laps.core_grant_ratio": _ratio(
            total(sched, "core_transfers"), total(sched, "core_requests")
        ),
        "span.committed": committed,
        "span.bailed": bailed,
        "span.commit_ratio": _ratio(committed, committed + bailed),
        "span.pkt_share": _ratio(total(stats, "packets_spanned"), generated),
        "span.drain_s": total(stats, "drain_ns") / 1e9,
        "span.commit_s": total(stats, "commit_ns") / 1e9,
        "kernel.events_popped": sum(s.events_popped for s in sims),
        "kernel.finish_s": secs("kernel.finish"),
        "kernel.self_s": float(self_ns[layer == lid["kernel.run"]].sum()) / 1e9,
        "faults.applied": calls("faults.apply"),
        "faults.apply_s": secs("faults.apply"),
        "faults.dropped": sum(s.report.fault_dropped for s in sims),
        "probe.samples": sum(p.num_samples for p in tracer.probes.values()),
        "probe.sample_s": secs("probe.sample"),
        "harness.cells": int(sel("harness.sim", True).sum()),
        "harness.build_s": harness_build,
        "harness.sim_s": harness_sim,
        "harness.other_s": harness_s - harness_build - harness_sim,
    }
