"""Tests of the benchmark itself, on tiny instances of its workloads.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro import units  # noqa: E402
from repro.core.afd import AggressiveFlowDetector  # noqa: E402
from repro.experiments.batch import WorkloadSpec  # noqa: E402
from repro.faults.injector import FaultInjector  # noqa: E402
from repro.obs.probes import TelemetryProbe  # noqa: E402
from repro.schedulers.base import Scheduler  # noqa: E402
from repro.sim.events.span import SpanDriver  # noqa: E402
from repro.sim.kernel import SimKernel  # noqa: E402
from repro.sim.source import PacketSource  # noqa: E402

from perfbench import bench, hostspeed, tracer, workloads  # noqa: E402
from perfbench.checks import PassResult, evaluate, report_digest  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def tiny(name: str) -> workloads.Workload:
    return {
        "laps-overload": lambda: workloads.LapsOverload(duration_ms=0.5, packets=12_000),
        "static-stream": lambda: workloads.StaticStream(duration_ms=4.0),
        "observed-stream": lambda: workloads.ObservedStream(duration_ms=4.0),
        "tournament-quick": lambda: workloads.TournamentQuick(
            groups=("G1",), faults=("none", "core-loss"),
            duration_ns=units.ms(0.5), trace_packets=2_000,
        ),
    }[name]()


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for group in (bench.END_TO_END, bench.REPORTED, bench.PER_LAYER):
        for name in group:
            assert NAME.fullmatch(name), name
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why


def test_reference_matches_benchmark_sizes():
    ref = json.loads(workloads.REFERENCE_FILE.read_text())
    for name, cls in workloads.WORKLOADS.items():
        if cls is not workloads.TournamentQuick:
            assert ref[name]["params"] == cls().params(), name


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_workload_passes_output_check(name):
    w = tiny(name)
    run = bench.run(w, seed=3, seconds=0.0, trace=False)
    assert run.reasons == []
    assert (run.attempted, run.failed) == (run.passes[0].expected, 0) != (0, 0)
    # a resized workload is checked on invariants only
    assert w.reference_match(workloads.REFERENCE_SEED, run.passes[0].sims,
                             run.passes[0].result) is None
    e2e = run.end_to_end(import_s=0.0)
    assert e2e["sim_pps"] > 0 and e2e["pass_s"] > 0 and e2e["sim_drop_pct"] > 0


def test_host_speed_keeps_its_samples_out_of_measured_time():
    speed = hostspeed.HostSpeed()
    speed.sample(hostspeed.BOUNDARY_LOOPS)

    def work():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.05:
            pass
        speed.sample(3)  # as the Collector's boundary hook would
        return "done"

    spent = speed.spent_s
    outcome, error, host_s, factor = speed.measure(work)
    inside = sum(speed.samples[hostspeed.BOUNDARY_LOOPS:hostspeed.BOUNDARY_LOOPS + 3])
    assert (outcome, error) == ("done", None)
    assert 0.05 <= host_s < 0.05 + inside
    assert speed.spent_s - spent == pytest.approx(
        sum(speed.samples[hostspeed.BOUNDARY_LOOPS:])
    )
    # scaled by the boundary before through the boundary after
    assert len(speed.samples) == 2 * hostspeed.BOUNDARY_LOOPS + 3
    assert factor == hostspeed.NOMINAL_S / statistics.fmean(speed.samples)

    def boom():
        raise ValueError("x")

    outcome, error, _, _ = speed.measure(boom)
    assert outcome is None and isinstance(error, ValueError)


def test_run_times_are_scaled_per_pass():
    run = bench.run(tiny("laps-overload"), seed=1, seconds=0.0, trace=False)
    p = run.passes[0]
    assert p.host_factor > 0 and p.nominal_s == p.wall_s * p.host_factor
    e2e = run.end_to_end(import_s=0.0)
    assert e2e["pass_s"] == p.nominal_s and e2e["host_pass_s"] == p.wall_s
    assert len(run.speed.samples) >= (
        hostspeed.START_LOOPS + (bench.SETUP_ROUNDS + 1) * hostspeed.BOUNDARY_LOOPS
    )


def _one_pass(w, seed=1) -> PassResult:
    run = bench.run(w, seed=seed, seconds=0.0, trace=False)
    assert run.failed == 0
    return run.passes[0]


def test_injected_report_mutation_counts_as_failed():
    w = tiny("laps-overload")
    good = _one_pass(w)
    n = good.expected
    assert n == len(good.sims) >= 2

    def mutated(**change) -> PassResult:
        rec = good.sims[-1]
        rec = dataclasses.replace(rec, report=dataclasses.replace(rec.report, **change))
        return PassResult(good.wall_s, n, [*good.sims[:-1], rec], good.result)

    # conservation breaks, and the pass no longer matches the first one
    attempted, failed, reasons = evaluate(
        w, 1, mutated(dropped=good.sims[-1].report.dropped + 1), good
    )
    assert (attempted, failed) == (n, 1)
    assert "conservation" in reasons[0] and "first pass" in reasons[0]
    # an invariant-preserving change is still caught by the first pass
    assert evaluate(w, 1, mutated(cold_cache_events=0), good)[1] == 1
    # and a static map that reorders fails on its own
    static = _one_pass(tiny("static-stream")).sims[0]
    reordered = dataclasses.replace(
        static, report=dataclasses.replace(static.report, out_of_order=1)
    )
    assert evaluate(tiny("static-stream"), 1, PassResult(0.1, 1, [reordered]), None)[1] == 1


def test_reference_digest_catches_a_changed_report(monkeypatch, tmp_path):
    w = tiny("laps-overload")
    good = _one_pass(w, seed=workloads.REFERENCE_SEED)
    digests = [report_digest(s.report) for s in good.sims]
    ref = {w.name: {"seed": 0, "params": w.params(), "digests": digests}}
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(ref))
    monkeypatch.setattr(workloads, "REFERENCE_FILE", path)
    assert evaluate(w, workloads.REFERENCE_SEED, good, None)[1] == 0
    ref[w.name]["digests"][-1] = "0" * 64
    path.write_text(json.dumps(ref))
    assert evaluate(w, workloads.REFERENCE_SEED, good, None)[1] == 1
    assert evaluate(w, workloads.REFERENCE_SEED + 1, good, None)[1] == 0


def test_a_raising_pass_fails_every_simulation_it_owed():
    w = tiny("tournament-quick")
    owed = w.expected_sims(0)
    attempted, failed, _ = evaluate(
        w, 0, PassResult(0.1, owed, [], error=RuntimeError("boom")), None
    )
    assert attempted == failed == owed == 16


def _snapshot() -> dict:
    """Attribute tables of everything the tracer may patch."""
    owners = [
        SimKernel, AggressiveFlowDetector, SpanDriver, FaultInjector,
        TelemetryProbe, WorkloadSpec, Scheduler, PacketSource,
        *tracer._subclasses(Scheduler), *tracer._subclasses(PacketSource),
    ]
    owners += [m for n, m in sys.modules.items()
               if n.startswith(("repro", "perfbench")) and m is not None]
    return {id(o): (o, dict(vars(o))) for o in owners}


@pytest.mark.parametrize("name", ["laps-overload", "observed-stream", "tournament-quick"])
def test_tracing_leaves_reports_identical_and_uninstalls(name):
    before = _snapshot()
    w = tiny(name)
    run = bench.run(w, seed=2, seconds=0.0, trace=True)
    # run() compares the traced pass with the untraced one
    assert run.reasons == []
    assert run.failed == 0 and run.attempted == 2 * run.passes[0].expected
    assert [s.report for s in run.traced.sims] == [s.report for s in run.passes[0].sims]
    after = _snapshot()
    for key, (owner, attrs) in before.items():
        now = after[key][1]
        changed = [a for a in attrs if now.get(a, attrs[a]) is not attrs[a]]
        assert changed == [], (owner, changed)
    assert set(run.layers) == set(bench.PER_LAYER)


def test_traced_layer_split_on_tiny_instances():
    laps = bench.run(tiny("laps-overload"), 1, 0.0, True).layers
    static = bench.run(tiny("static-stream"), 1, 0.0, True).layers
    observed = bench.run(tiny("observed-stream"), 1, 0.0, True).layers
    assert laps["afd.observe_calls"] > 0 and laps["laps.imbalance_events"] > 0
    assert static["afd.observe_calls"] == static["laps.imbalance_events"] == 0
    assert static["commit.calls"] == 0 and static["select.calls"] == 0
    assert observed["probe.samples"] > 0 and static["probe.samples"] == 0
    assert laps["faults.applied"] == static["faults.applied"] == 0
    assert static["source.pkts"] > 0 and static["plan.rows_per_pkt"] == 1.0
    assert laps["harness.cells"] == 0


def test_run_without_program_source_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "laps-overload",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
