"""Record the reference report digests the output check compares with.

Usage, from the root of a checkout::

    python3 perfbench/reference.py

Runs every workload but the tournament once at the reference seed and
writes ``perfbench/reference.json``.  Rerun it only when a change is
meant to alter the model's outputs, and say so in the change.  The
tournament's reference is the committed ``TOURNAMENT.json``.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    os.environ.pop("REPRO_SIM_ENGINE", None)
    os.environ.pop("REPRO_JOBS", None)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import bench
    from perfbench.checks import report_digest
    from perfbench.workloads import (
        REFERENCE_FILE, REFERENCE_SEED, WORKLOADS, TournamentQuick,
    )

    out = {}
    for name, cls in WORKLOADS.items():
        if cls is TournamentQuick:
            continue
        workload = cls()
        sims = bench.run(workload, REFERENCE_SEED, 0.0, False).passes[0].sims
        out[name] = {
            "seed": REFERENCE_SEED,
            "params": workload.params(),
            "digests": [report_digest(s.report) for s in sims],
        }
        print(f"{name}: {len(sims)} reports")
    REFERENCE_FILE.write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
