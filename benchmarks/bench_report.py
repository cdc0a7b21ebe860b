"""Emit ``BENCH_kernel.json`` — the machine-readable kernel scorecard.

Measures end-to-end simulated packets per second of wall time for the
scheduler zoo (hash-static, rss-static, adaptive-hash, flowlet, LAPS)
over the path x materialized x streamed grid, plus the peak RSS of each
run.  The path axis is the kernel's ``vectorized`` flag: ``True`` is
the default (column plan plus batched span drain), ``False`` the scalar
oracle (``select_core`` per packet), so every scheduler's fast path is
measured against its own fallback.  Every cell runs in a fresh subprocess
(``ru_maxrss``/``VmHWM`` are process-lifetime high-watermarks) and
reports the best of several rounds, so the numbers are comparable
across commits on the same box.

Since schema ``repro.bench_kernel/3`` every cell records ``shards``
(1 = single-process) and the grid adds sharded cells: hash-static cut
across worker processes on the 8-core platform, and the 120-core /
8-service scale scenario driven through ``repro.sim.sharding``.  The
scale cell's aggregate throughput multiplies with *physical* cores; on
a single-CPU runner the shards time-share one core and the cell
documents that honestly in its ``note`` instead of near-linear scaling
(see docs/performance.md, Sharded scaling).

Since schema ``repro.bench_kernel/4`` every single-process cell also
carries a ``span`` object — the kernel's batched-drain phase breakdown
for the best round (``plan_ms`` column planning, ``drain_ms`` phase-1
per-core simulation, ``commit_ms`` phase-2 state commit including the
scheduler's span commit, plus spans committed/bailed and packets
dispatched through spans).  On the scalar path every field is zero;
sharded cells record ``span: null`` (the kernels live in worker
processes).  The breakdown shows *where* a scheduler's vectorized cell
spends its time — e.g. whether LAPS is bound by the AFD commit or by
the drain itself.

Schema ``repro.bench_kernel/5`` dropped the ``engine`` columns along
with the engine switch: there is one event queue, and the span drain
is part of the vectorized path.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_report.py            # full
    PYTHONPATH=src REPRO_BENCH_QUICK=1 python benchmarks/bench_report.py

The JSON lands at the repository root (override with ``--out``); CI
runs the quick form and uploads the file as a build artifact.  Absolute
throughput depends on the machine — compare cells within one file, or
whole files from the same runner.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

_CHILD = r"""
import json, os, sys, time

def peak_rss_kib():
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

(scheduler, source_kind, vectorized, packets, rounds, shards,
 workers, num_cores, num_services) = (
    sys.argv[1], sys.argv[2], sys.argv[3] == "1", int(sys.argv[4]),
    int(sys.argv[5]), int(sys.argv[6]), int(sys.argv[7]),
    int(sys.argv[8]), int(sys.argv[9]),
)

from repro import units
from repro.core.laps import LAPSConfig, LAPSScheduler
from repro.net.service import Service, ServiceSet
from repro.schedulers.base import make_scheduler
from repro.sim.config import SimConfig
from repro.sim.generator import HoltWintersParams
from repro.sim.source import StreamingSource
from repro.sim.system import NetworkProcessorSim, simulate
from repro.sim.workload import build_workload
from repro.trace.synthetic import preset_trace

RATE = 8e6  # offered pps (HoltWinters level, summed over services)
trace = preset_trace("caida-1", num_packets=max(1, packets // num_services))
services = ServiceSet([
    Service(i, f"svc{i}", units.us(0.5)) for i in range(num_services)
])
traces = [trace] * num_services
params = [HoltWintersParams(a=RATE / num_services)] * num_services
duration = max(1, int(round(packets / RATE * units.SEC)))
config = SimConfig(
    num_cores=num_cores,
    services=services,
    collect_latencies=False,
)

def make_sched():
    if scheduler == "laps":
        return LAPSScheduler(LAPSConfig(num_services=num_services), rng=7)
    return make_scheduler(scheduler)

def make_workload():
    if source_kind == "streamed":
        return StreamingSource(traces, params, duration, seed=0)
    return build_workload(traces, params, duration_ns=duration, seed=0)

workload = make_workload()
best_pps, generated, span = 0.0, 0, None
for _ in range(rounds):
    # the kernel clones a source argument, so one object seeds all rounds
    t0 = time.perf_counter()
    if shards > 1:
        # sharded kernels live in worker processes: no span breakdown
        report = simulate(workload, make_sched(), config,
                          vectorized=vectorized,
                          shards=shards, shard_workers=workers)
        stats = None
    else:
        sim = NetworkProcessorSim(config, make_sched(), workload,
                                  vectorized=vectorized)
        report = sim.run()
        s = sim.kernel.span_stats
        stats = {
            "spans_committed": s["spans_committed"],
            "spans_bailed": s["spans_bailed"],
            "packets_spanned": s["packets_spanned"],
            "plan_ms": round(s["plan_ns"] / 1e6, 1),
            "drain_ms": round(s["drain_ns"] / 1e6, 1),
            "commit_ms": round(s["commit_ns"] / 1e6, 1),
        }
    dt = time.perf_counter() - t0
    generated = report.generated
    pps = report.generated / dt
    if pps > best_pps:
        best_pps, span = pps, stats

json.dump(
    {
        "pkts_per_sec": round(best_pps, 1),
        "generated": generated,
        "span": span,
        "peak_rss_mb": round(peak_rss_kib() / 1024.0, 1),
        "cpus": os.cpu_count(),
    },
    sys.stdout,
)
"""


def _run_cell(
    scheduler: str, source_kind: str, vectorized: bool, packets: int,
    rounds: int, shards: int = 1,
    workers: int = 0, num_cores: int = 8, num_services: int = 1,
) -> dict:
    src_dir = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src_dir), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [
            sys.executable, "-c", _CHILD, scheduler, source_kind,
            "1" if vectorized else "0", str(packets), str(rounds),
            str(shards), str(workers), str(num_cores),
            str(num_services),
        ],
        capture_output=True, text=True, env=env, check=True,
    )
    cell = json.loads(out.stdout.strip().splitlines()[-1])
    cell.update(
        scheduler=scheduler, source=source_kind, vectorized=vectorized,
        shards=shards, num_cores=num_cores, num_services=num_services,
    )
    return cell


def main(argv: list[str] | None = None) -> int:
    repo_root = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", type=Path, default=repo_root / "BENCH_kernel.json",
        help="output path (default: <repo root>/BENCH_kernel.json)",
    )
    args = parser.parse_args(argv)

    quick = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
    packets = 20_000 if quick else 200_000
    rounds = 1 if quick else 3
    # the 120-core/8-service scale scenario: full size aims at the
    # 1e8-packet regime but is wall-clock bound, not memory bound, so
    # the scorecard samples it (streamed shards keep RSS at O(chunk);
    # throughput per packet is flat beyond ~1e5 packets per shard)
    scale_packets = 40_000 if quick else 400_000
    cpus = os.cpu_count() or 1

    # the grid: scheduler zoo x {vectorized (span path), scalar} x
    # {materialized, streamed}; the scalar cells are each scheduler's
    # floor — its vectorized cell must not lose to it
    schedulers = ("hash-static", "rss-static", "adaptive-hash", "flowlet",
                  "laps")
    grid: list[dict] = []
    for scheduler in schedulers:
        for source_kind in ("materialized", "streamed"):
            for vectorized in (True, False):
                grid.append(dict(scheduler=scheduler, source_kind=source_kind,
                                 vectorized=vectorized))
    # sharded cells: the 8-core platform cut 2 ways (directly comparable
    # with the single-process hash-static cells above), then the
    # 120-core/8-service scale scenario sharded 8 ways
    grid.append(dict(scheduler="hash-static", source_kind="streamed",
                     vectorized=True, shards=2, workers=2))
    grid.append(dict(scheduler="hash-static", source_kind="streamed",
                     vectorized=True, shards=8, workers=0,
                     num_cores=120, num_services=8,
                     packets=scale_packets))

    results = []
    for spec in grid:
        cell = _run_cell(
            spec["scheduler"], spec["source_kind"], spec["vectorized"],
            spec.get("packets", packets), rounds,
            shards=spec.get("shards", 1),
            workers=spec.get("workers", 0),
            num_cores=spec.get("num_cores", 8),
            num_services=spec.get("num_services", 1),
        )
        if spec.get("shards", 1) > 1:
            cell["note"] = (
                "aggregate of all shards; scales with physical cores — "
                f"this runner has {cpus} CPU(s)"
                + (", so shards time-share one core" if cpus <= 1 else "")
            )
        results.append(cell)
        note = ""
        span = cell.get("span")
        if span and span["packets_spanned"]:
            note += (
                f"  [plan {span['plan_ms']:.0f} / drain "
                f"{span['drain_ms']:.0f} / commit {span['commit_ms']:.0f} ms,"
                f" {span['packets_spanned']:,d} pkts spanned]"
            )
        print(
            f"{cell['scheduler']:14s} {cell['source']:12s} "
            f"vectorized={str(cell['vectorized']):5s} "
            f"shards={cell['shards']:<3d} cores={cell['num_cores']:<4d} "
            f"{cell['pkts_per_sec']:>12,.0f} pkts/s  "
            f"rss {cell['peak_rss_mb']:.1f} MiB{note}"
        )

    doc = {
        "schema": "repro.bench_kernel/5",
        "generated_by": "benchmarks/bench_report.py",
        "quick": quick,
        "packets": packets,
        "scale_packets": scale_packets,
        "rounds": rounds,
        "num_cores": 8,
        "cpus": cpus,
        "python": sys.version.split()[0],
        "results": results,
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
