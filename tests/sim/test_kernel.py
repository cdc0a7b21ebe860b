"""Tests for the steppable kernel: hook bus, stepping, checkpoint/resume,
drain-phase edge cases, run-to-run determinism and release of finished
runs."""

import gc
import weakref

import numpy as np
import pytest

from repro import units
from repro.core.laps import LAPSConfig, LAPSScheduler
from repro.errors import ConfigError, SimulationError
from repro.faults.events import CoreFail, CoreRecover, CoreSlowdown, FaultSchedule
from repro.faults.injector import FaultInjector
from repro.net.service import Service, ServiceSet
from repro.obs.probes import TelemetryProbe
from repro.schedulers.fcfs import FCFSScheduler
from repro.schedulers.hash_static import StaticHashScheduler
from repro.sim.config import SimConfig
from repro.sim.generator import HoltWintersParams
from repro.sim.hooks import HOOK_EVENTS, HookBus
from repro.sim.kernel import CHECKPOINT_VERSION, Checkpoint, SimKernel
from repro.sim.probes import QueueProbe
from repro.sim.system import simulate
from repro.sim.workload import Workload, build_workload
from repro.trace.synthetic import preset_trace


# ----------------------------------------------------------------------
# fixtures / builders
# ----------------------------------------------------------------------
def manual_workload(arrivals, flows, services=None, num_services=1):
    n = len(arrivals)
    flows = np.asarray(flows, dtype=np.int64)
    num_flows = int(flows.max()) + 1 if n else 1
    seq = np.zeros(n, dtype=np.int64)
    seen = {}
    for i, f in enumerate(flows):
        seq[i] = seen.get(int(f), 0)
        seen[int(f)] = seq[i] + 1
    return Workload(
        arrival_ns=np.asarray(arrivals, dtype=np.int64),
        service_id=np.asarray(services or [0] * n, dtype=np.int32),
        flow_id=flows,
        size_bytes=np.asarray([64] * n, dtype=np.int32),
        flow_hash=flows.copy(),
        seq=seq,
        num_flows=num_flows,
        num_services=num_services,
        duration_ns=int(arrivals[-1]) + 1 if n else 1,
    )


def small_config(**kw):
    svc = ServiceSet([Service(0, "s", 1000)])  # 1 us per packet
    kw.setdefault("num_cores", 4)
    kw.setdefault("services", svc)
    return SimConfig(**kw)


def trace_workload(num_packets=4_000, duration_ns=units.ms(1), seed=0):
    """A realistic overloaded workload (drops + migrations happen)."""
    trace = preset_trace("caida-1", num_packets=num_packets)
    return build_workload(
        [trace], [HoltWintersParams(a=8e6)], duration_ns=duration_ns, seed=seed
    )


def laps(seed=3):
    return LAPSScheduler(LAPSConfig(num_services=1), rng=seed)


# ----------------------------------------------------------------------
class TestHookBus:
    def test_unknown_event_rejected(self):
        bus = HookBus()
        with pytest.raises(ConfigError, match="unknown hook event"):
            bus.subscribe("nope", lambda: None)

    def test_frozen_bus_rejects_subscription(self):
        bus = HookBus()
        bus.freeze()
        with pytest.raises(SimulationError, match="frozen"):
            bus.subscribe("sample", lambda t: None)

    def test_dispatcher_zero_one_many(self):
        bus = HookBus()
        assert bus.dispatcher("queue_empty") is None
        seen = []
        one = seen.append
        bus.subscribe("queue_empty", one)
        # single subscriber: the callback itself, no wrapper
        assert bus.dispatcher("queue_empty") is one
        bus.subscribe("queue_empty", lambda x: seen.append(-x))
        fan = bus.dispatcher("queue_empty")
        fan(5)
        assert seen == [5, -5]

    def test_sample_period_tracks_minimum(self):
        bus = HookBus()
        bus.subscribe("sample", lambda t: None, period_ns=500)
        bus.subscribe("sample", lambda t: None, period_ns=200)
        bus.subscribe("sample", lambda t: None, period_ns=900)
        assert bus.sample_period_ns == 200

    def test_period_only_for_sample(self):
        bus = HookBus()
        with pytest.raises(ConfigError):
            bus.subscribe("queue_empty", lambda c, t: None, period_ns=10)
        with pytest.raises(ConfigError):
            bus.subscribe("sample", lambda t: None, period_ns=0)

    def test_all_declared_events_subscribable(self):
        bus = HookBus()
        for event in HOOK_EVENTS:
            bus.subscribe(event, lambda *a: None)
            assert bus.has(event)


# ----------------------------------------------------------------------
class TestKernelEquivalence:
    """The kernel in any drive mode == the one-shot simulate()."""

    def test_run_matches_simulate(self):
        wl = trace_workload()
        cfg = small_config(num_cores=8)
        via_simulate = simulate(wl, StaticHashScheduler(), cfg)
        kernel = SimKernel(cfg, StaticHashScheduler(), wl)
        assert kernel.run() == via_simulate
        assert kernel.finished

    def test_run_until_then_run(self):
        wl = trace_workload()
        cfg = small_config(num_cores=8)
        expected = simulate(wl, laps(), cfg)
        kernel = SimKernel(cfg, laps(), wl)
        mid = int(wl.arrival_ns[wl.num_packets // 2])
        kernel.run_until(mid)
        assert kernel.now_ns == mid
        assert not kernel.finished
        assert kernel.run() == expected

    def test_many_arbitrary_horizons(self):
        wl = trace_workload(num_packets=2_000)
        cfg = small_config(num_cores=8)
        expected = simulate(wl, laps(), cfg)
        kernel = SimKernel(cfg, laps(), wl)
        last = int(wl.arrival_ns[-1])
        rng = np.random.default_rng(11)
        for t in sorted(rng.integers(0, last, size=17).tolist()):
            kernel.run_until(t)
        assert kernel.run() == expected

    def test_step_is_monotone_and_completes(self):
        wl = manual_workload([0, 100, 2500, 2500], [0, 1, 0, 1])
        cfg = small_config(num_cores=2)
        expected = simulate(wl, StaticHashScheduler(), cfg)
        kernel = SimKernel(cfg, StaticHashScheduler(), wl)
        times = []
        while (t := kernel.step()) is not None:
            times.append(t)
        assert times == sorted(times)
        assert kernel.finalize() == expected

    def test_run_until_rejects_past_horizon(self):
        wl = manual_workload([0, 100], [0, 1])
        kernel = SimKernel(small_config(), StaticHashScheduler(), wl)
        kernel.run_until(500)
        with pytest.raises(SimulationError, match="behind current time"):
            kernel.run_until(100)

    def test_finished_kernel_refuses_further_work(self):
        wl = manual_workload([0], [0])
        kernel = SimKernel(small_config(), StaticHashScheduler(), wl)
        kernel.run()
        with pytest.raises(SimulationError):
            kernel.run()
        with pytest.raises(SimulationError):
            kernel.run_until(units.ms(1))
        with pytest.raises(SimulationError):
            kernel.checkpoint()


# ----------------------------------------------------------------------
class TestCheckpointResume:
    def _roundtrip(self, wl, cfg, make_sched, make_injector=None):
        """Pause mid-trace, serialize, resume; report must equal the
        uninterrupted run's bit for bit."""
        uninterrupted = simulate(
            wl, make_sched(), cfg,
            injector=make_injector() if make_injector else None,
        )
        kernel = SimKernel(cfg, make_sched(), wl)
        if make_injector:
            kernel.attach_injector(make_injector())
        mid = int(wl.arrival_ns[wl.num_packets // 2])
        kernel.run_until(mid)
        raw = kernel.checkpoint().to_bytes()
        ckpt = Checkpoint.from_bytes(raw)
        assert ckpt.time_ns == mid
        resumed = SimKernel.resume(ckpt, cfg, wl)
        assert resumed.now_ns == mid
        assert resumed.run() == uninterrupted

    def test_roundtrip_stateless_scheduler(self):
        self._roundtrip(
            trace_workload(), small_config(num_cores=8), StaticHashScheduler
        )

    def test_roundtrip_laps(self):
        # LAPS carries placement state (AFD caches, pin table, core
        # sets); the single-blob pickle must preserve it exactly
        self._roundtrip(trace_workload(), small_config(num_cores=8), laps)

    def test_roundtrip_with_faults(self):
        wl = trace_workload()
        last = int(wl.arrival_ns[-1])
        schedule = FaultSchedule([
            CoreFail(last // 4, core_id=2),
            CoreSlowdown(last // 3, core_id=1, factor=2.0),
            CoreRecover(3 * last // 4, core_id=2),
        ])
        self._roundtrip(
            wl,
            small_config(num_cores=8),
            FCFSScheduler,
            make_injector=lambda: FaultInjector(schedule, drain_policy="reassign"),
        )

    def test_checkpoint_before_any_advance(self):
        wl = trace_workload(num_packets=1_000)
        cfg = small_config(num_cores=8)
        expected = simulate(wl, laps(), cfg)
        kernel = SimKernel(cfg, laps(), wl)
        resumed = SimKernel.resume(kernel.checkpoint(), cfg, wl)
        assert resumed.run() == expected

    def test_config_fingerprint_mismatch(self):
        wl = manual_workload([0, 100], [0, 1])
        kernel = SimKernel(small_config(), StaticHashScheduler(), wl)
        ckpt = kernel.checkpoint()
        with pytest.raises(SimulationError, match="different SimConfig"):
            SimKernel.resume(ckpt, small_config(num_cores=2), wl)

    def test_workload_fingerprint_mismatch(self):
        wl = manual_workload([0, 100], [0, 1])
        cfg = small_config()
        ckpt = SimKernel(cfg, StaticHashScheduler(), wl).checkpoint()
        other = manual_workload([0, 100, 200], [0, 1, 0])
        with pytest.raises(SimulationError, match="different workload"):
            SimKernel.resume(ckpt, cfg, other)

    def test_version_mismatch(self):
        wl = manual_workload([0], [0])
        ckpt = SimKernel(small_config(), StaticHashScheduler(), wl).checkpoint()
        stale = Checkpoint(
            version=CHECKPOINT_VERSION + 1,
            time_ns=ckpt.time_ns,
            blob=ckpt.blob,
            config_fingerprint=ckpt.config_fingerprint,
            workload_fingerprint=ckpt.workload_fingerprint,
        )
        with pytest.raises(SimulationError, match="version"):
            Checkpoint.from_bytes(stale.to_bytes())
        with pytest.raises(SimulationError, match="version"):
            SimKernel.resume(stale, small_config(), wl)

    def test_from_bytes_rejects_foreign_pickle(self):
        import pickle

        with pytest.raises(SimulationError, match="not a simulation checkpoint"):
            Checkpoint.from_bytes(pickle.dumps({"hello": 1}))

    def test_resumed_probe_restarts_sampling(self):
        # probes are not checkpointed; a fresh one attached at resume
        # samples the remainder without disturbing the outcome
        wl = trace_workload()
        cfg = small_config(num_cores=8)
        expected = simulate(wl, StaticHashScheduler(), cfg)
        kernel = SimKernel(cfg, StaticHashScheduler(), wl)
        kernel.attach_probe(QueueProbe(units.us(50)))
        mid = int(wl.arrival_ns[wl.num_packets // 2])
        kernel.run_until(mid)
        probe2 = QueueProbe(units.us(50))
        resumed = SimKernel.resume(kernel.checkpoint(), cfg, wl, probe=probe2)
        assert resumed.run() == expected
        assert probe2.num_samples > 0


# ----------------------------------------------------------------------
class TestDrainEdgeCases:
    def test_probe_period_longer_than_drain(self):
        # the drain stepper must not spin or skip the final sample when
        # the sampling period exceeds the whole drain window
        wl = manual_workload([0, 0, 0], [0, 1, 2])
        cfg = small_config(num_cores=1, queue_capacity=8, drain_ns=3000)
        probe = QueueProbe(units.ms(10))  # period >> drain_ns
        rep = simulate(wl, StaticHashScheduler(), cfg, probe=probe)
        assert rep.departed == 3  # back-to-back service ends at 3000
        # one sample: the t=0 arrival; the drain-end call lands in the
        # same (huge) period, so the probe correctly dedupes it
        assert probe.times_ns == [0]

    def test_empty_workload(self):
        wl = manual_workload([], [])
        rep = simulate(wl, StaticHashScheduler(), small_config())
        assert rep.generated == 0 and rep.departed == 0 and rep.dropped == 0
        assert rep.out_of_order == 0

    def test_empty_workload_with_probe(self):
        wl = manual_workload([], [])
        probe = QueueProbe(units.us(1))
        rep = simulate(wl, StaticHashScheduler(), small_config(), probe=probe)
        assert rep.departed == 0
        assert probe.num_samples >= 1  # the final drain-end sample

    def test_completion_exactly_at_drain_end_departs(self):
        # service takes 1000 ns; arrival at 0 completes at exactly
        # last_arrival + drain_ns == 1000: inclusive bound, departs
        wl = manual_workload([0], [0])
        cfg = small_config(num_cores=1, drain_ns=1000)
        rep = simulate(wl, StaticHashScheduler(), cfg)
        assert rep.departed == 1

    def test_completion_past_drain_end_abandoned(self):
        wl = manual_workload([0], [0])
        cfg = small_config(num_cores=1, drain_ns=999)
        rep = simulate(wl, StaticHashScheduler(), cfg)
        # in flight past the bound: neither departed nor dropped
        assert rep.departed == 0 and rep.dropped == 0
        assert rep.generated == 1


# ----------------------------------------------------------------------
class TestDeterminism:
    def test_back_to_back_runs_identical(self):
        wl = trace_workload()
        cfg = small_config(num_cores=8)
        first = simulate(wl, laps(), cfg)
        second = simulate(wl, laps(), cfg)
        assert first == second  # dataclass: field-for-field

    def test_back_to_back_fault_runs_identical(self):
        wl = trace_workload()
        last = int(wl.arrival_ns[-1])
        cfg = small_config(num_cores=8)
        schedule = FaultSchedule([
            CoreFail(last // 3, core_id=0),
            CoreRecover(2 * last // 3, core_id=0),
        ])

        def once():
            return simulate(
                wl, FCFSScheduler(), cfg,
                injector=FaultInjector(schedule, drain_policy="reassign"),
            )

        assert once() == once()


# ----------------------------------------------------------------------
class TestRelease:
    @pytest.mark.parametrize("probe_cls", [QueueProbe, TelemetryProbe])
    def test_finished_kernel_freed_without_cyclic_gc(self, probe_cls):
        """A finished default kernel — span drain, injector and probe
        attached — must be freed by reference counting alone: a cycle
        through any of its helpers keeps the run's workload window and
        state resident until the cyclic collector happens to run."""
        wl = trace_workload()
        last = int(wl.arrival_ns[-1])
        schedule = FaultSchedule([
            CoreFail(last // 3, core_id=0),
            CoreRecover(2 * last // 3, core_id=0),
        ])
        gc.collect()
        gc.disable()
        try:
            kernel = SimKernel(small_config(num_cores=8), laps(), wl)
            assert kernel._span is not None
            kernel.attach_injector(FaultInjector(schedule))
            probe = probe_cls(units.us(50))
            kernel.attach_probe(probe)
            kernel.run()
            ref = weakref.ref(kernel)
            del kernel
            assert ref() is None
            assert probe.num_samples > 0  # the probe outlives its run
        finally:
            gc.enable()
