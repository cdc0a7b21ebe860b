"""Discrete-event simulation substrate (the SpecC simulator stand-in,
paper Sec. IV, Fig. 6).

Components mirror the paper's infrastructure: a packet generator paced
by the Holt-Winters traffic model (eq. 1-2) drawing headers from traces,
the scheduler under test, per-core bounded input queues (32 descriptors),
core models applying the processing-delay model of eq. 3-5, and an
egress reorder detector.
"""

from repro.sim.events import EventQueue
from repro.sim.hooks import HookBus, HOOK_EVENTS
from repro.sim.kernel import Checkpoint, SimKernel, SimState
from repro.sim.queues import BoundedQueue, QueueBank
from repro.sim.latency import CoreConfig, LatencyModel, TABLE_III_CORE
from repro.sim.reorder import ReorderDetector
from repro.sim.metrics import SimMetrics, SimReport
from repro.sim.generator import ArrivalStream, HoltWinters, HoltWintersParams, arrival_times
from repro.sim.workload import Workload, build_workload, service_flow_hashes
from repro.sim.source import (
    DEFAULT_CHUNK_SIZE,
    MaterializedSource,
    PacketSource,
    StreamingSource,
    WorkloadChunk,
    workload_fingerprint,
)
from repro.sim.config import SimConfig
from repro.sim.system import NetworkProcessorSim, simulate
from repro.sim.restoration import RestorationBuffer, RestorationResult, restoration_cost
from repro.sim.power import PowerModel, PowerReport
from repro.sim.probes import QueueProbe

__all__ = [
    "EventQueue",
    "HookBus",
    "HOOK_EVENTS",
    "Checkpoint",
    "SimKernel",
    "SimState",
    "BoundedQueue",
    "QueueBank",
    "CoreConfig",
    "LatencyModel",
    "TABLE_III_CORE",
    "ReorderDetector",
    "SimMetrics",
    "SimReport",
    "ArrivalStream",
    "HoltWinters",
    "HoltWintersParams",
    "arrival_times",
    "Workload",
    "build_workload",
    "service_flow_hashes",
    "DEFAULT_CHUNK_SIZE",
    "PacketSource",
    "WorkloadChunk",
    "MaterializedSource",
    "StreamingSource",
    "workload_fingerprint",
    "SimConfig",
    "NetworkProcessorSim",
    "simulate",
    "RestorationBuffer",
    "RestorationResult",
    "restoration_cost",
    "PowerModel",
    "PowerReport",
    "QueueProbe",
]
