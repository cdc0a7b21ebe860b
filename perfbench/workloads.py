"""The benchmark's workloads.

Each workload drives the program through its public entry points with
the program's own defaults: no ``engine=``/``vectorized=`` argument,
``SimConfig()`` unless the workload names the platform, and the event
core and job count the program picks for itself.  The benchmark seed is
the only thing that varies between runs; it reaches the program as the
``seed`` of the generated inputs.

A workload splits into :meth:`prepare` (build the inputs and construct
the scheduler and kernel — everything before the first packet, which
``bench.run`` times as set-up) and :meth:`run_pass` (one timed batch job
run to completion).  Every simulation a pass finishes is recorded by
the :class:`~perfbench.tracer.Collector`.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import repro
from repro import units
from repro.experiments import tournament
from repro.sim import SimKernel

__all__ = ["REFERENCE_SEED", "Workload", "WORKLOADS"]

ROOT = Path(__file__).resolve().parent.parent

#: the seed whose outputs are compared with the recorded references
REFERENCE_SEED = 0

#: report digests recorded at :data:`REFERENCE_SEED` (``reference.py``)
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


class Workload:
    """One benchmark workload; subclasses fill in the hooks."""

    name = ""
    why = ""

    def params(self) -> dict:
        """The inputs' shape — the key the recorded reference is
        valid for (a resized workload is checked on invariants only)."""
        raise NotImplementedError

    def prepare(self, seed: int):
        """Build the inputs and construct scheduler and kernel."""
        raise NotImplementedError

    def run_pass(self, inputs):
        """One timed pass; returns what :meth:`reference_match` needs."""
        raise NotImplementedError

    def expected_sims(self, inputs) -> int:
        """Simulations one pass over *inputs* runs."""
        return 1

    def reference_match(self, seed: int, sims, result) -> list[bool] | None:
        """Per simulation, whether it equals the recorded reference;
        None when no reference applies (another seed or size)."""
        if seed != REFERENCE_SEED:
            return None
        ref = json.loads(REFERENCE_FILE.read_text()).get(self.name)
        if ref is None or ref["params"] != self.params():
            return None
        from perfbench.checks import report_digest

        digests = ref["digests"]
        return [
            i < len(digests) and report_digest(s.report) == digests[i]
            for i, s in enumerate(sims)
        ]


class LapsOverload(Workload):
    name = "laps-overload"
    why = (
        "LAPS on the paper platform at the Set-2 overload: imbalance events, "
        "AFD promotions, migrations and core requests make commit and "
        "select_core dominate"
    )

    def __init__(self, duration_ms: float = 1.0, packets: int = 240_000) -> None:
        self.duration_ms = duration_ms
        self.packets = packets

    def params(self) -> dict:
        return {
            "preset": "mmpp-bursty", "materialized": True, "utilisation": 1.1,
            "duration_ms": self.duration_ms, "min_packets": self.packets,
            "scheduler": "laps", "platform": "SimConfig()",
        }

    @staticmethod
    def _scheduler():
        return repro.LAPSScheduler(repro.LAPSConfig(num_services=4))

    def prepare(self, seed: int):
        """Independent realizations of the preset until their packets
        reach ``packets``.  One realization's offered load swings by a
        quarter with its burst path (the MMPP dwell times scale with
        the run length, so a longer run does not average them out);
        pooling many keeps a pass's load steady from seed to seed."""
        template = repro.make_workload(
            "mmpp-bursty", utilisation=1.1,
            duration_ns=units.ms(self.duration_ms), seed=seed, stream=True,
        )
        realizations, total = [], 0
        while total < self.packets:
            wl = repro.build_workload(
                template.traces, template.params,
                duration_ns=template.duration_ns,
                seed=np.random.SeedSequence((seed, len(realizations))),
            )
            realizations.append(wl)
            total += wl.num_packets
        SimKernel(repro.SimConfig(), self._scheduler(), realizations[0])
        return realizations

    def expected_sims(self, realizations) -> int:
        return len(realizations)

    def run_pass(self, realizations):
        return [
            repro.simulate(wl, self._scheduler(), repro.SimConfig())
            for wl in realizations
        ]


class StaticStream(Workload):
    name = "static-stream"
    why = (
        "hash-static on a streamed diurnal flash crowd: one gather and no "
        "commit, so generation and the kernel loop do all the work; "
        "bypasses the core layer"
    )

    def __init__(self, duration_ms: float = 100.0) -> None:
        self.duration_ms = duration_ms

    def params(self) -> dict:
        return {
            "preset": "diurnal-flash", "stream": True, "utilisation": 0.5,
            "duration_ms": self.duration_ms, "scheduler": "hash-static",
            "platform": "SimConfig()",
        }

    def probe(self):
        return None

    def prepare(self, seed: int):
        source = repro.make_workload(
            "diurnal-flash", utilisation=0.5,
            duration_ns=units.ms(self.duration_ms), seed=seed, stream=True,
        )
        SimKernel(repro.SimConfig(), repro.make_scheduler("hash-static"), source)
        return source

    def run_pass(self, source):
        return repro.simulate(
            source, repro.make_scheduler("hash-static"), repro.SimConfig(),
            probe=self.probe(),
        )


class ObservedStream(StaticStream):
    name = "observed-stream"
    why = (
        "static-stream plus a TelemetryProbe with its default samplers at "
        "100 us: the only workload through repro.obs, and the "
        "telemetry-on vs off pair"
    )

    #: the ``repro.sim compare --telemetry`` default period
    PERIOD_US = 100

    def params(self) -> dict:
        return {**super().params(), "probe_period_us": self.PERIOD_US}

    def probe(self):
        return repro.TelemetryProbe(units.us(self.PERIOD_US))


class TournamentQuick(Workload):
    name = "tournament-quick"
    why = (
        "the quick tournament (tournament --quick): 32 short runs with faults, "
        "scalar-only schedulers, flowlet/flow-director plans and harness "
        "workload building"
    )

    #: the committed scorecard this workload reproduces at the reference seed
    REFERENCE = ROOT / "TOURNAMENT.json"
    #: the labels that identify one cell of the grid
    CELL = ("scheduler", "group", "fault", "utilisation", "seed")

    def __init__(self, groups=None, faults=None, duration_ns=None,
                 trace_packets=None) -> None:
        # None keeps the harness default (the quick grid runs group G1)
        self.groups = tuple(groups) if groups else None
        self.faults = tuple(faults) if faults else tournament.FAULT_NAMES
        self.duration_ns = duration_ns
        self.trace_packets = trace_packets

    def params(self) -> dict:
        return {
            "groups": self.groups, "faults": list(self.faults), "quick": True,
            "jobs": 1, "duration_ns": self.duration_ns,
            "trace_packets": self.trace_packets,
        }

    def expected_sims(self, seed) -> int:
        groups = len(self.groups) if self.groups else 1
        return len(tournament.DEFAULT_SCHEDULERS) * groups * len(self.faults)

    def prepare(self, seed: int):
        # the harness builds its own inputs inside the pass
        return seed

    def run_pass(self, seed: int):
        extra = {"groups": self.groups} if self.groups else {}
        return tournament.run_tournament(
            faults=self.faults, seeds=(seed,), quick=True, jobs=1,
            duration_ns=self.duration_ns, trace_packets=self.trace_packets,
            **extra,
        )

    def reference_match(self, seed: int, sims, payload) -> list[bool] | None:
        """Each row against the committed row of the same cell, when the
        grid is a subset of the committed one with its sizes."""
        if seed != REFERENCE_SEED or not self.REFERENCE.is_file():
            return None
        ref = json.loads(self.REFERENCE.read_text())
        grid, want = payload["grid"], ref["grid"]
        if not set(grid["groups"]) <= set(want["groups"]) or any(
            grid.get(k) != v for k, v in want.items() if k != "groups"
        ):
            return None
        cells = {tuple(r[k] for k in self.CELL): r for r in ref["runs"]}
        return [cells.get(tuple(r[k] for k in self.CELL)) == r for r in payload["runs"]]


#: name -> workload class; the classes' defaults are the benchmark sizes
WORKLOADS = {
    w.name: w for w in (LapsOverload, StaticStream, ObservedStream, TournamentQuick)
}
