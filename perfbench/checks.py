"""Output checks: every simulation a pass runs is one operation.

A simulation fails when its pass raised, when it breaks a run-level
invariant, when it differs from the same simulation in the run's first
pass (every pass and the traced pass must reproduce it exactly), or —
at the reference seed and size — when it differs from the recorded
reference.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

from perfbench.tracer import SimRecord

__all__ = ["PassResult", "invariant_failures", "report_digest", "evaluate"]


@dataclass
class PassResult:
    """One pass: its host time, finished simulations and return value."""

    #: host seconds, without the host-speed samples taken inside the pass
    wall_s: float
    #: simulations the pass should have finished
    expected: int
    sims: list[SimRecord]
    result: object = None
    error: BaseException | None = None
    #: nominal-host seconds per host second around the pass
    host_factor: float = 1.0

    @property
    def nominal_s(self) -> float:
        """The pass's time on the nominal host."""
        return self.wall_s * self.host_factor


def invariant_failures(rec: SimRecord) -> list[str]:
    """Run-level invariants every simulation must keep."""
    r = rec.report
    out = []
    # dropped already counts fault drops (black-holed and killed packets)
    if r.generated != r.departed + r.dropped:
        out.append(
            f"conservation: generated {r.generated} != departed {r.departed}"
            f" + dropped {r.dropped}"
        )
    if any(u > 1.0 for u in r.core_utilization):
        out.append(f"core utilisation above 1: {max(r.core_utilization)}")
    if rec.static_map and r.out_of_order:
        out.append(f"static map reordered {r.out_of_order} packets")
    return out


def report_digest(report) -> str:
    """SHA-256 of the report's fields in canonical JSON."""
    blob = json.dumps(
        dataclasses.asdict(report), sort_keys=True,
        default=lambda v: v.item(),  # numpy scalars
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def evaluate(workload, seed: int, p: PassResult, baseline: PassResult | None
             ) -> tuple[int, int, list[str]]:
    """``(attempted, failed, reasons)`` for one pass.

    *baseline* is the run's first pass; ``None`` while checking the
    first pass itself.
    """
    expected = p.expected
    if p.error is not None:
        return expected, expected, [f"pass raised {p.error!r}"]
    if len(p.sims) != expected:
        return expected, expected, [
            f"pass finished {len(p.sims)} simulations, expected {expected}"
        ]
    if baseline is not None and (baseline.error is not None
                                 or len(baseline.sims) != expected):
        baseline = None  # already counted as failed
    matches = workload.reference_match(seed, p.sims, p.result)
    reasons = []
    failed = 0
    for i, rec in enumerate(p.sims):
        why = invariant_failures(rec)
        if matches is not None and not matches[i]:
            why.append("differs from the recorded reference")
        if baseline is not None and rec.report != baseline.sims[i].report:
            why.append("differs from the run's first pass")
        if why:
            failed += 1
            reasons.append(f"simulation {i} ({rec.report.scheduler}): {'; '.join(why)}")
    return expected, failed, reasons
