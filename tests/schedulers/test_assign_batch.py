"""Scalar/batch scheduling equivalence (the map-epoch protocol).

Two layers of pinning for the vectorized fast path:

* **scheduler-level** — twin instances of every registered policy see
  the same packet sequence, one through per-packet ``select_core``,
  the other through a consumer that replays the kernel's column
  discipline (plan via ``assign_batch``, honour ``-1`` sentinels, the
  occupancy guard and ``batch_commit``, replan on every ``map_epoch``
  bump).  The chosen cores must match packet for packet — including
  across mid-sequence epoch bumps forced by occupancy swings and core
  down/up events — and the final ``stats()`` must be equal.

* **kernel-level** — full simulations with ``vectorized=True`` vs
  ``False`` must produce bit-equal reports across schedulers, seeds,
  materialized vs streamed sources at several chunk sizes, fault
  schedules, and mid-run checkpoint/resume in either direction
  (a vectorized checkpoint resumed scalar and vice versa).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import units
from repro.core.laps import LAPSConfig, LAPSScheduler
from repro.faults.events import (
    CoreFail,
    CoreRecover,
    CoreSlowdown,
    FaultSchedule,
)
from repro.faults.injector import FaultInjector
from repro.net.service import Service, ServiceSet
from repro.schedulers.base import Scheduler, available_schedulers, make_scheduler
from repro.sim.config import SimConfig
from repro.sim.generator import HoltWintersParams
from repro.sim.kernel import SimKernel
from repro.sim.source import StreamingSource
from repro.sim.system import simulate
from repro.sim.workload import build_workload
from repro.trace.synthetic import preset_trace

# ----------------------------------------------------------------------
# scheduler-level twins
# ----------------------------------------------------------------------


class MutableLoads:
    """A LoadView whose occupancies the test script mutates."""

    def __init__(self, num_cores: int = 8, queue_capacity: int = 32) -> None:
        self.num_cores = num_cores
        self.queue_capacity = queue_capacity
        self.occ = [0] * num_cores

    def occupancy(self, core_id: int) -> int:
        return self.occ[core_id]


def _make(name: str) -> Scheduler:
    if name == "laps":
        return LAPSScheduler(LAPSConfig(num_services=2), rng=3)
    return make_scheduler(name)


def _sequence(n: int = 3000, seed: int = 11):
    rng = np.random.default_rng(seed)
    flow_id = rng.integers(0, 200, size=n).astype(np.int64)
    flow_hash = (flow_id * 2654435761) % 65536
    service_id = (flow_id % 2).astype(np.int32)
    arrival_ns = np.cumsum(rng.integers(200, 2000, size=n)).astype(np.int64)
    return flow_hash, service_id, flow_id.astype(np.int64), arrival_ns


def _script(loads: MutableLoads, n: int):
    """index -> mutation applied to (sched, loads) just before that
    packet, identically on both twins.  Swings occupancy across any
    plausible ``batch_guard`` and flaps a core, so every epoch-bump
    source fires mid-sequence."""

    def spike(sched, ld, t):
        ld.occ[:] = [31, 30, 2, 29, 31, 28, 30, 27][: ld.num_cores]

    def calm(sched, ld, t):
        ld.occ[:] = [0] * ld.num_cores

    def down(sched, ld, t):
        sched.on_core_down(1, t)

    def up(sched, ld, t):
        sched.on_core_up(1, t)

    return {n // 5: spike, 2 * n // 5: calm, 3 * n // 5: down, 4 * n // 5: up}


def _run_scalar(sched, loads, cols, script):
    fh, sid, fid, arr = cols
    chosen = []
    for i in range(len(fh)):
        t = int(arr[i])
        if i in script:
            script[i](sched, loads, t)
        chosen.append(sched.select_core(int(fid[i]), int(sid[i]), int(fh[i]), t))
    return chosen


def _run_batched(sched, loads, cols, script):
    """The kernel's column discipline, replayed in miniature."""
    fh, sid, fid, arr = cols
    n = len(fh)
    chosen = []
    col: list[int] = []
    cl = ch = 0
    epoch = -1
    plan_li = -1
    guard = sched.batch_guard
    commit = sched.batch_commit
    for i in range(n):
        t = int(arr[i])
        if i in script:
            script[i](sched, loads, t)
        if sched.map_epoch != epoch or (i >= ch and i > plan_li):
            out = sched.assign_batch(fh[i:], sid[i:], fid[i:], arr[i:], i)
            col = [] if out is None else out.tolist()
            cl = plan_li = i
            ch = i + len(col)
            epoch = sched.map_epoch
        if cl <= i < ch:
            core = col[i - cl]
            if core < 0:
                core = sched.select_core(int(fid[i]), int(sid[i]), int(fh[i]), t)
            elif guard is not None:
                occ = loads.occupancy(core)
                if occ >= guard:
                    core = sched.select_core(int(fid[i]), int(sid[i]), int(fh[i]), t)
                elif commit is not None:
                    commit(int(fid[i]), int(fh[i]), core, occ, t)
            elif commit is not None:
                commit(int(fid[i]), int(fh[i]), core, -1, t)
        else:
            core = sched.select_core(int(fid[i]), int(sid[i]), int(fh[i]), t)
        chosen.append(core)
    return chosen


@pytest.mark.parametrize("name", available_schedulers())
def test_batched_consumption_matches_scalar(name):
    cols = _sequence()
    scalar, batched = _make(name), _make(name)
    loads_a, loads_b = MutableLoads(), MutableLoads()
    scalar.bind(loads_a)
    batched.bind(loads_b)
    # batch_guard may only be fixed at bind time (LAPS)
    a = _run_scalar(scalar, loads_a, cols, _script(loads_a, len(cols[0])))
    b = _run_batched(batched, loads_b, cols, _script(loads_b, len(cols[0])))
    assert a == b
    assert scalar.stats() == batched.stats()


@pytest.mark.parametrize("name", available_schedulers())
def test_epoch_bumps_on_bind(name):
    sched = _make(name)
    before = sched.map_epoch
    sched.bind(MutableLoads())
    assert sched.map_epoch > before


def test_base_assign_batch_is_none():
    fh, sid, fid, arr = _sequence(16)
    sched = _make("fcfs")
    sched.bind(MutableLoads())
    if type(sched).assign_batch is Scheduler.assign_batch:
        assert sched.assign_batch(fh, sid, fid, arr, 0) is None


def test_per_flow_rebinders_keep_no_plan():
    """Flowlet and Flow Director rebind single flows so often that a
    plan of theirs was replanned hundreds of times per packet (what
    ``tests/sim/test_plan_waste.py`` now forbids); they keep the base
    ``assign_batch`` and dispatch through ``select_core`` alone."""
    for name in ("flowlet", "flow-director"):
        cls = type(make_scheduler(name))
        assert cls.assign_batch is Scheduler.assign_batch
        assert cls.batch_commit is None
        assert cls.batch_static is False


#: the schedulers that override ``assign_batch``
PLANNING_SCHEDULERS = [
    name for name in available_schedulers()
    if type(_make(name)).assign_batch is not Scheduler.assign_batch
]


@pytest.mark.parametrize("name", PLANNING_SCHEDULERS)
def test_planning_is_idempotent(name):
    """Planning twice over overlapping spans must not change state
    (the kernel replans the same suffix after every epoch bump)."""
    fh, sid, fid, arr = _sequence(512)
    a, b = _make(name), _make(name)
    a.bind(MutableLoads())
    b.bind(MutableLoads())
    once = a.assign_batch(fh, sid, fid, arr, 0)
    b.assign_batch(fh, sid, fid, arr, 0)
    twice = b.assign_batch(fh, sid, fid, arr, 0)
    assert once is not None and twice is not None
    np.testing.assert_array_equal(once, twice)
    assert a.stats() == b.stats()
    assert a.map_epoch == b.map_epoch


class TestLapsPinOverlayCache:
    """The migration-pin overlay snapshot is cached on the migration
    table's epoch (regression for the per-plan ``np.fromiter`` rebuild
    — same bug shape as the PR 6 ``lookup_batch`` cache fix)."""

    def _bound_laps(self):
        sched = LAPSScheduler(LAPSConfig(num_services=2), rng=3)
        sched.bind(MutableLoads())
        return sched

    def _plan(self, sched, fids):
        n = len(fids)
        fid = np.asarray(fids, dtype=np.int64)
        fh = fid * 7 + 1
        sid = np.zeros(n, dtype=np.int64)
        arr = np.arange(n, dtype=np.int64)
        return sched.assign_batch(fh, sid, fid, arr, 0)

    def test_snapshot_reused_while_epoch_holds(self):
        sched = self._bound_laps()
        core = sched.allocator.cores_of(0)[0]
        sched.migration.add(5, core)
        self._plan(sched, [5, 6, 7])
        first = sched._pin_fids
        assert first is not None
        self._plan(sched, [8, 5, 9])
        assert sched._pin_fids is first  # no rebuild without a mutation

    def test_every_mutation_invalidates(self):
        sched = self._bound_laps()
        cores = sched.allocator.cores_of(0)
        mig = sched.migration
        mig.add(5, cores[0])
        assert self._plan(sched, [5]).tolist() == [cores[0]]
        # retarget in place
        mig.add(5, cores[1])
        assert self._plan(sched, [5]).tolist() == [cores[1]]
        # add a second pin
        mig.add(6, cores[0])
        assert self._plan(sched, [5, 6]).tolist() == [cores[1], cores[0]]
        # remove one
        mig.remove(5)
        out = self._plan(sched, [5, 6])
        assert out.tolist()[1] == cores[0]
        assert out.tolist()[0] != cores[1] or 5 not in mig
        # drop a whole core's pins
        mig.drop_core(cores[0])
        assert 6 not in mig

    def test_stale_pin_maps_to_sentinel(self):
        """A pin whose target core left the service plans as ``-1`` so
        the scalar path prunes it."""
        sched = self._bound_laps()
        foreign = sched.allocator.cores_of(1)[0]
        sched.migration.add(5, foreign)  # pinned outside service 0
        assert self._plan(sched, [5]).tolist() == [-1]

    def test_overlay_matches_scalar_lookup(self):
        sched = self._bound_laps()
        cores = sched.allocator.cores_of(0)
        for f in range(0, 40, 3):
            sched.migration.add(f, cores[f % len(cores)])
        fids = list(range(50))
        out = self._plan(sched, fids).tolist()
        for f, planned in zip(fids, out):
            pin = sched.migration.lookup(f)
            if pin is not None and sched.allocator.owner_of(pin) == 0:
                assert planned == pin


# ----------------------------------------------------------------------
# kernel-level bit-identity
# ----------------------------------------------------------------------

#: every scheduler with a plan gets the full kernel-level bit-identity
#: battery; without one ``vectorized=True`` runs the scalar path
KERNEL_SCHEDULERS = PLANNING_SCHEDULERS
#: plus the two per-flow rebinders, whose scalar state must still
#: survive checkpoints and agree with the span drain on and off
ZOO_SCHEDULERS = [*KERNEL_SCHEDULERS, "flow-director", "flowlet"]


def _two_service_inputs(packets=3_000):
    traces = [
        preset_trace("caida-1", num_packets=packets),
        preset_trace("auck-1", num_packets=packets),
    ]
    params = [
        HoltWintersParams(a=3e6, b=2e8, sigma=0.1),
        HoltWintersParams(a=2e6),
    ]
    return traces, params


def _config(**kw):
    svc = ServiceSet([Service(0, "a", 800), Service(1, "b", 1200)])
    kw.setdefault("num_cores", 4)
    kw.setdefault("services", svc)
    kw.setdefault("collect_latencies", True)
    kw.setdefault("record_departures", True)
    return SimConfig(**kw)


def _kernel_sched(name: str, rng: int = 5) -> Scheduler:
    if name == "laps":
        return LAPSScheduler(LAPSConfig(num_services=2), rng=rng)
    return make_scheduler(name)


def _workload(seed: int, chunk_size: int | None):
    traces, params = _two_service_inputs()
    if chunk_size is None:
        return build_workload(traces, params, duration_ns=units.ms(1), seed=seed)
    return StreamingSource(
        traces, params, units.ms(1), seed=seed, chunk_size=chunk_size
    )


def _faults() -> FaultSchedule:
    return FaultSchedule(
        [
            CoreSlowdown(units.us(150), core_id=2, factor=1.5),
            CoreFail(units.us(300), core_id=1),
            CoreSlowdown(units.us(450), core_id=2, factor=1.0),
            CoreRecover(units.us(650), core_id=1),
        ]
    )


@pytest.mark.parametrize("name", KERNEL_SCHEDULERS)
@pytest.mark.parametrize("chunk_size", [None, 701, 4096])
@pytest.mark.parametrize("seed", [0, 9])
def test_vectorized_report_identical(name, chunk_size, seed):
    cfg = _config()
    wl = _workload(seed, chunk_size)
    fast = simulate(wl, _kernel_sched(name), cfg, vectorized=True)
    slow = simulate(wl, _kernel_sched(name), cfg, vectorized=False)
    assert fast == slow


@pytest.mark.parametrize("name", KERNEL_SCHEDULERS)
def test_vectorized_identical_under_faults(name):
    cfg = _config()
    wl = _workload(3, 997)
    fast = simulate(
        wl, _kernel_sched(name), cfg,
        injector=FaultInjector(_faults()), vectorized=True,
    )
    slow = simulate(
        wl, _kernel_sched(name), cfg,
        injector=FaultInjector(_faults()), vectorized=False,
    )
    assert fast == slow


def _flap_faults() -> FaultSchedule:
    """A core that fails and recovers twice (flap): every down/up edge
    is an epoch-bump source for map-keeping schedulers and an eviction
    trigger for flowlet/LAPS, so the planned columns churn mid-run."""
    return FaultSchedule(
        [
            CoreFail(units.us(200), core_id=2),
            CoreRecover(units.us(320), core_id=2),
            CoreFail(units.us(450), core_id=2),
            CoreRecover(units.us(600), core_id=2),
        ]
    )


@pytest.mark.parametrize("name", KERNEL_SCHEDULERS)
def test_vectorized_identical_under_core_flaps(name):
    cfg = _config()
    wl = _workload(6, 701)
    fast = simulate(
        wl, _kernel_sched(name), cfg,
        injector=FaultInjector(_flap_faults()), vectorized=True,
    )
    slow = simulate(
        wl, _kernel_sched(name), cfg,
        injector=FaultInjector(_flap_faults()), vectorized=False,
    )
    assert fast == slow


@pytest.mark.parametrize("name", ZOO_SCHEDULERS)
@pytest.mark.parametrize("vec_first", [True, False])
def test_cross_mode_checkpoint_resume(name, vec_first):
    """A checkpoint taken by one mode resumes exactly in the other —
    planned columns are never serialized and batch bookkeeping commits
    per dispatched packet, so the modes share all durable state."""
    cfg = _config()
    wl = _workload(1, None)
    expected = simulate(wl, _kernel_sched(name), cfg, vectorized=True)

    kernel = SimKernel(cfg, _kernel_sched(name), wl, vectorized=vec_first)
    kernel.attach_injector(FaultInjector(_faults()))
    base = simulate(
        wl, _kernel_sched(name), cfg,
        injector=FaultInjector(_faults()), vectorized=True,
    )
    kernel.run_until(units.us(400))  # mid-run, with a core down
    ckpt = kernel.checkpoint()
    resumed = SimKernel.resume(ckpt, cfg, wl, vectorized=not vec_first)
    assert resumed.run() == base
    # and the fault-free report differs (the schedule really did bite),
    # guarding against a vacuous comparison above
    assert base != expected or base.fault_events == 0
