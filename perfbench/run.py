"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload laps-overload --seed 1 --seconds 25 --trace 0

Prints each metric with its unit, then, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced pass with
``--trace 1`` (spans are written to ``.perfbench/``).  Exits 2 without a
result line when the program source is missing.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.hostspeed import START_LOOPS, HostSpeed  # noqa: E402

# host-speed samples before the imports; with those bench.run takes
# right after them they scale the import time
SPEED = HostSpeed()
SPEED.sample(START_LOOPS)


def _parse(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="one of the workloads named in BENCHMARK.json")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measure whole passes for about this long (at least one)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    # the program's own defaults: no engine or job-count override
    os.environ.pop("REPRO_SIM_ENGINE", None)
    os.environ.pop("REPRO_JOBS", None)
    sys.path.insert(0, str(ROOT / "src"))

    from perfbench import bench, workloads

    import_s = time.perf_counter() - _T0 - SPEED.spent_s
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    spans_out = ROOT / ".perfbench" / f"spans-{args.workload}.npz"
    result = bench.run(workload, args.seed, args.seconds, bool(args.trace), spans_out,
                       SPEED)

    good = [p for p in result.passes if p.error is None]
    print(f"perfbench {args.workload} seed={args.seed} passes={len(result.passes)}"
          f" ok_passes={len(good)} params={json.dumps(workload.params())}")
    for reason in result.reasons[:20]:
        print(f"  FAILED {reason}")
    e2e = result.end_to_end(import_s)
    for name, unit in {**bench.END_TO_END, **bench.REPORTED}.items():
        print(f"  {name:<22} {e2e[name]:>16.6g} {unit}")
    if args.trace:
        for name, unit in bench.PER_LAYER.items():
            print(f"  {name:<26} {result.layers[name]:>16.6g} {unit}")
        print(f"  spans written to {spans_out.relative_to(ROOT)}")
        metrics = {n: {"value": result.layers[n], "unit": u}
                   for n, u in bench.PER_LAYER.items()}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in bench.END_TO_END.items()}
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
