"""One benchmark run: set-up rounds, timed passes, an optional traced
pass, output checks and the metrics line.

A run builds the inputs :data:`SETUP_ROUNDS` times (set-up is the
median round plus the one-off import time), then runs whole passes
until the next one would end past ``--seconds`` — at least one.  Timings
are medians over those passes, scaled to the nominal host by the run's
:class:`~perfbench.hostspeed.HostSpeed` samples (taken between set-up
rounds and passes and at simulation and chunk boundaries, and kept out
of every timing).
The model metrics (``sim_*``) come from the first pass, which every
later pass must reproduce exactly.  With tracing on, one more set-up
round and pass run under the :class:`~perfbench.tracer.Tracer`; its
reports must equal the untraced ones.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.checks import PassResult, evaluate
from perfbench.hostspeed import START_LOOPS, HostSpeed
from perfbench.tracer import Collector, Tracer, layer_metrics

__all__ = [
    "SETUP_ROUNDS", "END_TO_END", "REPORTED", "PER_LAYER", "Run", "run",
]

SETUP_ROUNDS = 3

#: end-to-end metrics in the result line: name -> unit.  The times are
#: nominal-host seconds (see :mod:`perfbench.hostspeed`).
END_TO_END = {
    "sim_pps": "1/s",
    "pass_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: printed with the end-to-end metrics but kept out of the result line.
#: The model's outputs are exact functions of code and seed — the output
#: check already pins them at the reference seed — and from seed to seed
#: they move with the inputs, not with the code (``sim_reorder_pct`` is
#: moreover exactly 0 under a static map).  The operation counts travel
#: as the line's ``attempted``/``failed``.  The ``host_*`` figures are
#: the raw host times and the scale that turned them into the result
#: line's times.
REPORTED = {
    "host_pass_s": "s",
    "host_setup_s": "s",
    "host_factor": "ratio",
    "sim_drop_pct": "%",
    "sim_latency_p99_us": "us",
    "sim_reorder_pct": "%",
    "ops": "count",
    "ops_failed": "count",
}

#: per-layer metrics of the traced pass: name -> unit
PER_LAYER = {
    "source.build_s": "s", "source.pull_s": "s", "source.chunks": "count",
    "source.pkts": "count",
    "plan.s": "s", "plan.calls": "count", "plan.rows_per_pkt": "ratio",
    "plan.map_epoch": "count",
    "select.calls": "count", "select.s": "s", "select.share": "ratio",
    "commit.calls": "count", "commit.s": "s", "afd.observe_calls": "count",
    "afd.observe_s": "s", "laps.imbalance_events": "count",
    "laps.migrations_installed": "count", "laps.afd_promotions": "count",
    "laps.core_grant_ratio": "ratio",
    "span.committed": "count", "span.bailed": "count",
    "span.commit_ratio": "ratio", "span.pkt_share": "ratio",
    "span.drain_s": "s", "span.commit_s": "s",
    "kernel.events_popped": "count", "kernel.finish_s": "s",
    "kernel.self_s": "s",
    "faults.applied": "count", "faults.apply_s": "s", "faults.dropped": "count",
    "probe.samples": "count", "probe.sample_s": "s",
    "harness.cells": "count", "harness.build_s": "s", "harness.sim_s": "s",
    "harness.other_s": "s",
    "trace.overhead_pct": "%",
}


@dataclass
class Run:
    """Everything one run measured."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)
    passes: list[PassResult] = field(default_factory=list)
    #: set-up rounds: (host seconds, nominal-host seconds)
    setup: list[tuple[float, float]] = field(default_factory=list)
    speed: HostSpeed = field(default_factory=HostSpeed)
    #: the scale of the samples taken right after the imports
    import_factor: float = 1.0
    traced: PassResult | None = None
    layers: dict[str, float] = field(default_factory=dict)

    def count(self, outcome: tuple[int, int, list[str]]) -> None:
        attempted, failed, reasons = outcome
        self.attempted += attempted
        self.failed += failed
        self.reasons.extend(reasons)

    def end_to_end(self, import_s: float) -> dict[str, float]:
        """The end-to-end metrics plus :data:`REPORTED` (0 when no pass
        finished)."""
        good = [p for p in self.passes if p.error is None and p.sims]
        out = dict.fromkeys([*END_TO_END, *REPORTED], 0.0)
        out["host_factor"] = self.speed.factor()
        out["host_setup_s"] = import_s + statistics.median(h for h, _ in self.setup)
        out["setup_s"] = import_s * self.import_factor + statistics.median(
            n for _, n in self.setup
        )
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["ops"] = self.attempted
        out["ops_failed"] = self.failed
        if not good:
            return out
        reports = [s.report for s in good[0].sims]
        generated = sum(r.generated for r in reports)
        out["host_pass_s"] = statistics.median(p.wall_s for p in good)
        out["pass_s"] = statistics.median(p.nominal_s for p in good)
        out["sim_pps"] = generated / out["pass_s"]
        out["sim_drop_pct"] = 100.0 * sum(r.dropped for r in reports) / generated
        out["sim_reorder_pct"] = 100.0 * (
            sum(r.out_of_order for r in reports)
            / max(1, sum(r.departed for r in reports))
        )
        out["sim_latency_p99_us"] = statistics.fmean(
            r.latency_ns.get("p99", 0.0) / 1e3 for r in reports
        )
        return out


def _timed_pass(workload, inputs, collector: Collector,
                speed: HostSpeed) -> PassResult:
    # a failing pass is counted, not fatal
    result, error, wall, factor = speed.measure(workload.run_pass, inputs)
    # free the pass's cyclic garbage (a telemetry probe and its kernel
    # refer to each other) before the next pass, so the peak RSS is that
    # of one pass and not of however many the collector let pile up
    gc.collect()
    return PassResult(
        wall, workload.expected_sims(inputs), collector.take(), result, error,
        factor,
    )


def run(workload, seed: int, seconds: float, trace: bool,
        spans_out: Path | None = None, speed: HostSpeed | None = None) -> Run:
    """Measure *workload* at *seed* for about *seconds* of passes.

    *speed* may hold samples taken before the imports; the import time
    is scaled by those and the ones taken here first.
    """
    out = Run(speed=speed or HostSpeed())
    speed = out.speed
    collector = Collector(on_boundary=speed.maybe_sample).install()
    try:
        speed.sample(START_LOOPS)
        out.import_factor = speed.factor()
        inputs = None
        for _ in range(SETUP_ROUNDS):
            inputs, error, host_s, factor = speed.measure(workload.prepare, seed)
            if error is not None:
                raise error
            out.setup.append((host_s, host_s * factor))
        start = time.perf_counter()
        while True:
            p = _timed_pass(workload, inputs, collector, speed)
            out.count(evaluate(workload, seed, p, out.passes[0] if out.passes else None))
            out.passes.append(p)
            elapsed = time.perf_counter() - start
            if p.error is not None or elapsed + p.wall_s > seconds:
                break
        if trace:
            # no samples inside traced spans
            speed.active = False
            tracer = Tracer().install()
            try:
                traced = _timed_pass(workload, workload.prepare(seed), collector, speed)
            finally:
                tracer.uninstall()
                speed.active = True
            out.count(evaluate(workload, seed, traced, out.passes[0]))
            out.traced = traced
            out.layers = layer_metrics(tracer, traced.sims)
            untraced = statistics.median(p.nominal_s for p in out.passes)
            out.layers["trace.overhead_pct"] = 100.0 * (traced.nominal_s / untraced - 1.0)
            if spans_out is not None:
                tracer.save(spans_out)
    finally:
        collector.uninstall()
    return out
