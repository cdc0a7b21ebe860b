"""Simulation CLI: ``python -m repro.sim``.

Run a scheduler comparison from the command line without writing a
script:

    python -m repro.sim compare --trace caida-1 --cores 16 \\
        --utilisation 1.05 --schedulers fcfs afs laps

    python -m repro.sim compare --pcap capture.pcap.gz --duration-ms 10

    python -m repro.sim compare --telemetry out/   # + NDJSON time series

    python -m repro.sim compare --faults chaos.json --drain-policy drop

Single-service by default (IP forwarding); ``--multiservice`` runs the
four-service edge router with the default classifier splitting the
trace.  ``--telemetry DIR`` attaches a :class:`repro.obs.TelemetryProbe`
to every run and dumps manifest + report + series per scheduler.
``--faults SPEC`` injects the fault schedule serialised in SPEC (a JSON
file, see ``docs/faults.md``) into every run and appends per-scheduler
resilience columns to the comparison.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro import units
from repro.core.laps import LAPSConfig, LAPSScheduler
from repro.obs import RunManifest, TelemetryProbe, write_run
from repro.net.classifier import default_edge_rules
from repro.net.service import Service, ServiceSet, default_services
from repro.schedulers.afs import AFSScheduler
from repro.schedulers.base import Scheduler, available_schedulers, make_scheduler
from repro.sim.config import SimConfig
from repro.sim.generator import HoltWintersParams
from repro.sim.source import DEFAULT_CHUNK_SIZE, StreamingSource
from repro.sim.system import simulate
from repro.sim.workload import build_workload
from repro.trace.models import TRIMODAL_INTERNET_SIZES
from repro.trace.pcap import trace_from_pcap
from repro.trace.synthetic import PRESETS
from repro.trace.trace import Trace
from repro.util.tables import format_table
from repro.workloads.registry import make_workload, workload_preset_names
from repro.workloads.traces import CDF_TRACE_PRESETS, resolve_trace

__all__ = ["main"]


def _make_sched(name: str, num_services: int, seed: int) -> Scheduler:
    if name == "laps":
        return LAPSScheduler(LAPSConfig(num_services=num_services), rng=seed)
    if name == "afs":
        return AFSScheduler(cooldown_ns=units.us(100))
    return make_scheduler(name)


def _load_trace(args) -> Trace:
    if args.pcap:
        trace, counters = trace_from_pcap(args.pcap)
        print(f"[pcap] {counters['total']} frames, "
              f"{trace.num_packets} usable packets")
        return trace
    if args.trace in PRESETS or args.trace in CDF_TRACE_PRESETS:
        return resolve_trace(args.trace, num_packets=args.packets)
    return Trace.load_npz(args.trace)


def _registry_workload(args):
    """Build a named registry workload (``--workload``); returns
    (workload, services, num_services, mode label)."""
    duration = units.ms(args.duration_ms)
    workload = make_workload(
        args.workload,
        num_cores=args.cores,
        utilisation=args.utilisation,
        duration_ns=duration,
        trace_packets=args.packets,
        seed=args.seed,
        stream=args.stream,
        chunk_size=args.chunk_size,
    )
    if workload.num_services == len(default_services()):
        services = default_services()
    else:  # pcap replay presets are single-service
        services = ServiceSet([Service(0, "ip-forward", units.us(0.5))])
    mode = (f"streamed in {args.chunk_size}-packet chunks"
            if args.stream else "materialized")
    return workload, services, workload.num_services, mode


def _cmd_compare(args) -> int:
    if args.workload:
        workload, services, num_services, mode = _registry_workload(args)
        trace_label = args.workload
        duration = units.ms(args.duration_ms)
        config = SimConfig(num_cores=args.cores, services=services,
                           queue_capacity=args.queue_depth,
                           collect_latencies=True)
        print(f"[workload] preset {args.workload!r}: "
              f"{workload.num_packets} packets over "
              f"{workload.duration_ns / 1e6:.1f} ms on {args.cores} cores "
              f"(target utilisation {args.utilisation:.2f}, {mode})\n")
        return _run_comparison(args, workload, config, num_services,
                               duration, trace_label)

    trace = _load_trace(args)
    duration = units.ms(args.duration_ms)
    mean_size = float(trace.size_bytes.mean()) if trace.num_packets else \
        TRIMODAL_INTERNET_SIZES.mean

    if args.services:
        # N replicated generic services, each offered the full trace at
        # its slice of platform capacity — the shape of the large-scale
        # scenarios (e.g. --cores 120 --services 8 --shards 8)
        services = ServiceSet([
            Service(i, f"svc{i}", units.us(0.5))
            for i in range(args.services)
        ])
        per = max(1, args.cores // args.services)
        traces = [trace] * args.services
        params = [
            HoltWintersParams(
                a=args.utilisation * per * svc.capacity_pps(mean_size)
            )
            for svc in services
        ]
        num_services = args.services
    elif args.multiservice:
        services = default_services()
        parts = default_edge_rules().split_trace(trace)
        per = max(1, args.cores // len(services))
        traces, params = [], []
        for sid, part in enumerate(parts):
            if part.num_packets == 0:
                part = trace  # fall back so every service has headers
            traces.append(part)
            cap = per * services[sid].capacity_pps(mean_size)
            params.append(HoltWintersParams(a=args.utilisation * cap))
        num_services = len(services)
    else:
        services = ServiceSet([Service(0, "ip-forward", units.us(0.5))])
        cap = services.capacity_pps([args.cores], mean_size)
        traces = [trace]
        params = [HoltWintersParams(a=args.utilisation * cap)]
        num_services = 1

    if args.stream:
        workload = StreamingSource(
            traces, params, duration, seed=args.seed,
            chunk_size=args.chunk_size,
        )
        mode = f"streamed in {args.chunk_size}-packet chunks"
    else:
        workload = build_workload(traces, params, duration_ns=duration,
                                  seed=args.seed)
        mode = "materialized"
    config = SimConfig(num_cores=args.cores, services=services,
                       queue_capacity=args.queue_depth,
                       collect_latencies=True)
    print(f"[workload] {workload.num_packets} packets over "
          f"{args.duration_ms} ms on {args.cores} cores "
          f"(target utilisation {args.utilisation:.2f}, {mode})\n")
    return _run_comparison(args, workload, config, num_services, duration,
                           getattr(trace, "name", None))


def _run_comparison(args, workload, config, num_services, duration,
                    trace_label) -> int:
    sharded = args.shards is not None and args.shards > 1
    schedule = None
    platform_schedule = None
    if args.faults:
        from repro.faults import (
            FaultInjector,
            FaultSchedule,
            TrafficTransformSource,
            apply_traffic_events,
            compute_resilience,
        )
        schedule = FaultSchedule.from_json(Path(args.faults))
        if args.stream:
            workload = TrafficTransformSource(workload, schedule)
        else:
            workload = apply_traffic_events(workload, schedule)
        platform = [ev for ev in schedule.events if ev.kind == "platform"]
        if platform:
            platform_schedule = FaultSchedule(platform)
        print(f"[faults] {len(schedule)} events from {args.faults} "
              f"(drain policy: {args.drain_policy})\n")

    if sharded:
        from repro.sim.sharding import run_sharded
        window_ns = (
            units.us(args.shard_window_us)
            if args.shard_window_us is not None else None
        )
        print(f"[shards] {args.shards} shards over "
              f"{args.shard_workers or 'auto'} worker processes\n")
        if schedule is not None:
            # resilience columns come from the telemetry series and
            # probes sample global state — n/a on sharded runs
            print("[shards] telemetry probes are single-process only; "
                  "resilience columns omitted\n")
    telemetry_dir = Path(args.telemetry) if args.telemetry else None
    resilience_cols = schedule is not None and not sharded
    rows = []
    for name in args.schedulers:
        probe = None
        if not sharded and (telemetry_dir is not None or schedule is not None):
            # fault resilience is computed from the telemetry series,
            # so --faults implies a probe even without --telemetry
            probe = TelemetryProbe(units.us(args.probe_period_us))
        sched = _make_sched(name, num_services, args.seed)
        sharding_block = None
        if sharded:
            run = run_sharded(
                workload, sched, config,
                shards=args.shards, workers=args.shard_workers,
                window_ns=window_ns, schedule=platform_schedule,
                drain_policy=args.drain_policy,
            )
            rep = run.report
            sharding_block = run.manifest_dict()
        else:
            injector = None
            if schedule is not None:
                injector = FaultInjector(
                    schedule, drain_policy=args.drain_policy
                )
            rep = simulate(workload, sched, config, probe=probe,
                           injector=injector)
        if telemetry_dir is not None:
            manifest = RunManifest.capture(
                config=config,
                seed=args.seed,
                scheduler=name,
                sharding=sharding_block,
                trace=trace_label,
                utilisation=args.utilisation,
                duration_ms=args.duration_ms,
                probe_period_us=args.probe_period_us,
                num_packets=workload.num_packets,
            )
            paths = write_run(
                telemetry_dir / name, report=rep, manifest=manifest,
                probe=probe, csv_mirror=args.telemetry_csv,
            )
            if probe is not None:
                print(f"[telemetry] {name}: {probe.num_samples} samples -> "
                      f"{paths['series'].parent}")
            else:
                print(f"[telemetry] {name}: manifest + report -> "
                      f"{paths['report'].parent} (no series: sharded)")
        row = [
            name, rep.dropped, f"{rep.drop_fraction:.2%}",
            rep.out_of_order, f"{rep.ooo_fraction:.3%}",
            f"{rep.cold_cache_fraction:.1%}",
            rep.flow_migration_events,
            f"{rep.latency_ns['p99'] / 1e3:.0f}",
        ]
        if resilience_cols:
            res = compute_resilience(
                probe.records, schedule, scheduler=name,
                arrivals_end_ns=duration,
            )
            rec = res.worst_recovery_ns
            row += [
                rep.fault_dropped, res.post_fault_ooo, res.flows_remapped,
                "yes" if res.recovered else "no",
                None if rec is None else f"{rec / 1e6:.2f}",
            ]
        elif schedule is not None:
            row += [rep.fault_dropped]
        rows.append(row)
    headers = ["scheduler", "dropped", "drop %", "ooo", "ooo %", "cold %",
               "migrations", "p99 us"]
    if resilience_cols:
        headers += ["fault drops", "post ooo", "remapped", "recovered",
                    "recover ms"]
    elif schedule is not None:
        headers += ["fault drops"]
    print(format_table(headers, rows, title="scheduler comparison"))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sim", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cmp_p = sub.add_parser("compare", help="run schedulers on one workload")
    src = cmp_p.add_mutually_exclusive_group()
    src.add_argument("--trace", default="caida-1",
                     help="trace preset name (synthetic or CDF) or .npz path")
    src.add_argument("--pcap", type=Path, help="a pcap(.gz) capture")
    src.add_argument(
        "--workload", metavar="NAME", default=None,
        help="named workload preset from the registry "
             f"({', '.join(workload_preset_names())}) or pcap:<path>; "
             "see docs/workloads.md",
    )
    cmp_p.add_argument("--packets", type=int, default=100_000,
                       help="packets when generating a preset")
    cmp_p.add_argument("--cores", type=int, default=16)
    cmp_p.add_argument("--queue-depth", type=int, default=32)
    cmp_p.add_argument("--utilisation", type=float, default=1.05)
    cmp_p.add_argument("--duration-ms", type=float, default=10.0)
    cmp_p.add_argument("--seed", type=int, default=7)
    cmp_p.add_argument("--multiservice", action="store_true",
                       help="classify into the 4 edge-router services")
    cmp_p.add_argument(
        "--services", type=int, default=0, metavar="N",
        help="run N replicated generic services instead (overrides "
             "--multiservice; pairs with --cores/--shards for "
             "large-scale scenarios)",
    )
    cmp_p.add_argument(
        "--schedulers", nargs="+", default=["hash-static", "afs", "laps"],
        choices=available_schedulers(),
    )
    cmp_p.add_argument(
        "--telemetry", metavar="DIR", default=None,
        help="dump manifest + report + NDJSON probe series per scheduler "
             "into DIR/<scheduler>/ (see docs/simulator.md, Telemetry)",
    )
    cmp_p.add_argument(
        "--probe-period-us", type=float, default=100.0,
        help="telemetry sampling period in microseconds (default 100)",
    )
    cmp_p.add_argument(
        "--telemetry-csv", action="store_true",
        help="also mirror the probe series as series.csv",
    )
    cmp_p.add_argument(
        "--faults", metavar="SPEC", default=None,
        help="inject the fault schedule in SPEC (JSON file; see "
             "docs/faults.md) and report resilience per scheduler",
    )
    cmp_p.add_argument(
        "--drain-policy", choices=("drop", "reassign"), default="drop",
        help="fate of a failing core's queued descriptors (default: drop)",
    )
    cmp_p.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="partition the system N ways across worker processes "
             "(static-map schedulers: bit-identical to single-process; "
             "laps: deterministic in seed/window/shards; see "
             "docs/architecture.md, Sharded execution)",
    )
    cmp_p.add_argument(
        "--shard-workers", type=int, default=0, metavar="N",
        help="worker processes for --shards (0 = auto, REPRO_JOBS aware)",
    )
    cmp_p.add_argument(
        "--shard-window-us", type=float, default=None,
        help="services-mode barrier window in microseconds "
             "(default 1000; only laps uses it)",
    )
    cmp_p.add_argument(
        "--stream", action="store_true",
        help="generate the workload chunk by chunk (bounded memory, "
             "bit-identical results; see docs/simulator.md)",
    )
    cmp_p.add_argument(
        "--chunk-size", type=int, default=DEFAULT_CHUNK_SIZE,
        help=f"packets per streamed chunk (default {DEFAULT_CHUNK_SIZE}; "
             "needs --stream)",
    )
    cmp_p.set_defaults(func=_cmd_compare)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
