"""Command-line entry point: ``python -m repro.experiments`` /
``repro-experiments``.

Runs the selected experiment harnesses and prints their tables; with
``--json DIR`` each result is also written as JSON for archival
(EXPERIMENTS.md links to these outputs).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.experiments import (
    ablations,
    fig2,
    fig7,
    fig8,
    fig9,
    timing,
    tournament,
    workloads,
)
from repro.faults import harness as faults_harness
from repro.sim.source import DEFAULT_CHUNK_SIZE

__all__ = ["main"]

# harnesses that build their workloads through the streaming-capable
# factories accept stream/chunk_size; the rest ignore the flags
_EXPERIMENTS = {
    "fig2": lambda quick, jobs, **_: fig2.run(quick=quick),
    "fig7": lambda quick, jobs, **st: [fig7.run(quick=quick, jobs=jobs, **st)],
    "fig8": lambda quick, jobs, **_: fig8.run(quick=quick),
    "fig9": lambda quick, jobs, **st: [fig9.run(quick=quick, jobs=jobs, **st)],
    "timing": lambda quick, jobs, **_: timing.run(quick=quick),
    "ablations": lambda quick, jobs, **st: ablations.run(
        quick=quick, jobs=jobs, **st),
    "faults": lambda quick, jobs, **_: [
        faults_harness.run(quick=quick, jobs=jobs)],
    "tournament": lambda quick, jobs, **_: tournament.run(
        quick=quick, jobs=jobs),
    "workloads": lambda quick, jobs, **st: [
        workloads.run(quick=quick, jobs=jobs, **st)],
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        choices=[*_EXPERIMENTS, "all"],
        help="which experiments to run (default: all)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small sizes (seconds instead of minutes; used by CI)",
    )
    parser.add_argument(
        "--json", metavar="DIR", default=None,
        help="also write each result as JSON into DIR",
    )
    parser.add_argument(
        "--telemetry", metavar="DIR", default=None,
        help="dump each result as a telemetry run dir "
             "(manifest.json + result.json + rows.ndjson) under DIR",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="parallel worker processes for fig7/fig9/ablations/faults "
             "(0 = auto)",
    )
    parser.add_argument(
        "--stream", action="store_true",
        help="generate workloads chunk by chunk (bounded memory, "
             "bit-identical rows; fig7/fig9/ablations)",
    )
    parser.add_argument(
        "--chunk-size", type=int, default=None, metavar="N",
        help="packets per streamed chunk (needs --stream; default "
             f"{DEFAULT_CHUNK_SIZE})",
    )
    args = parser.parse_args(argv)

    selected = args.experiments or ["all"]
    names = list(_EXPERIMENTS) if "all" in selected else selected
    json_dir = Path(args.json) if args.json else None
    if json_dir:
        json_dir.mkdir(parents=True, exist_ok=True)
    telemetry_dir = Path(args.telemetry) if args.telemetry else None

    for name in names:
        t0 = time.perf_counter()
        kwargs = dict(stream=args.stream, chunk_size=args.chunk_size)
        results = _EXPERIMENTS[name](args.quick, args.jobs, **kwargs)
        elapsed = time.perf_counter() - t0
        for i, result in enumerate(results):
            print(result.format())
            print()
            stem = name if len(results) == 1 else f"{name}_{i}"
            if json_dir:
                result.to_json(json_dir / f"{stem}.json")
            if telemetry_dir:
                result.to_run_dir(telemetry_dir / stem)
        if name == "fig7":
            head = fig7.headline(results[0])
            print(
                f"[headline] LAPS vs best baseline: "
                f"{head['drop_improvement']:.0%} fewer drops, "
                f"{head['ooo_improvement']:.0%} fewer out-of-order packets "
                f"(paper claims 60% / 80%)"
            )
            print()
        print(f"[{name} done in {elapsed:.1f}s]", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
