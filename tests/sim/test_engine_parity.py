"""Engine bit-identity: heap vs calendar vs calendar-numba.

The event engine is a *speed* knob — ISSUE 8's acceptance bar is that
``SimReport``s are bit-identical across engines for every registered
scheduler, materialized and streamed sources, fault schedules, and
checkpoints resumed on a *different* engine than the one that took
them.  The heap engine is the scalar oracle; the calendar engine adds
the batched span drain; calendar-numba swaps the phase-1 recurrence
for the compiled twin (or degrades to calendar when numba is absent —
also pinned here).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import units
from repro.obs.manifest import RunManifest
from repro.sim.engine import available_engines, resolve_engine
from repro.sim.events.backend import (
    OUT_SLOTS,
    NumpyBackend,
    numba_available,
    simulate_core,
)
from repro.sim.kernel import SimKernel
from repro.sim.system import simulate
from repro.faults.injector import FaultInjector
from tests.schedulers.test_assign_batch import (
    ZOO_SCHEDULERS,
    _config,
    _faults,
    _kernel_sched,
    _workload,
)

ENGINES = list(available_engines())


# ----------------------------------------------------------------------
# registry / fallback
# ----------------------------------------------------------------------


class TestRegistry:
    def test_known_engines(self):
        assert ENGINES == ["heap", "calendar", "calendar-numba"]

    def test_default_is_heap(self):
        assert resolve_engine(None).name == "heap"

    def test_unknown_rejected(self):
        with pytest.raises(Exception):
            resolve_engine("wheel-of-fortune")

    def test_numba_fallback_is_clean(self):
        """Requesting calendar-numba without numba must not raise: it
        degrades to the numpy calendar backend and says why."""
        spec = resolve_engine("calendar-numba")
        assert spec.requested == "calendar-numba"
        if numba_available()[0]:  # pragma: no cover - accel extra installed
            assert spec.name == "calendar-numba"
            assert spec.fallback_reason is None
        else:
            assert spec.name == "calendar"
            assert "numba" in spec.fallback_reason
            assert "repro[accel]" in spec.fallback_reason

    def test_fallback_engine_still_runs(self):
        wl = _workload(2, None)
        rep = simulate(wl, _kernel_sched("hash-static"), _config(),
                       engine="calendar-numba")
        assert rep.generated > 0

    def test_env_var_selects_engine(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_ENGINE", "calendar")
        assert resolve_engine(None).name == "calendar"


# ----------------------------------------------------------------------
# report bit-identity across engines
# ----------------------------------------------------------------------


def _run(name, engine, *, chunk_size=None, faulted=False, seed=3):
    wl = _workload(seed, chunk_size)
    injector = FaultInjector(_faults()) if faulted else None
    return simulate(wl, _kernel_sched(name), _config(),
                    injector=injector, engine=engine)


@pytest.mark.parametrize("name", ZOO_SCHEDULERS)
def test_engines_bit_identical_materialized(name):
    baseline = _run(name, "heap")
    for engine in ("calendar", "calendar-numba"):
        assert _run(name, engine) == baseline


@pytest.mark.parametrize("name", ZOO_SCHEDULERS)
def test_engines_bit_identical_streamed(name):
    baseline = _run(name, "heap", chunk_size=701)
    assert _run(name, "calendar", chunk_size=701) == baseline


@pytest.mark.parametrize("name", ZOO_SCHEDULERS)
def test_engines_bit_identical_faulted(name):
    baseline = _run(name, "heap", faulted=True)
    assert _run(name, "calendar", faulted=True) == baseline


def test_spans_actually_commit():
    """Guard against the parity tests passing vacuously because the
    calendar engine silently never drained a span."""
    wl = _workload(3, None)
    kernel = SimKernel(_config(), _kernel_sched("hash-static"), wl,
                       engine="calendar")
    kernel.run()
    stats = kernel.span_stats
    assert stats["spans_committed"] > 0
    assert stats["packets_spanned"] > 0


# ----------------------------------------------------------------------
# cross-engine checkpoint / resume
# ----------------------------------------------------------------------


@pytest.mark.parametrize("pair", [
    ("heap", "calendar"),
    ("calendar", "heap"),
    ("calendar", "calendar"),
    ("heap", "calendar-numba"),
])
@pytest.mark.parametrize("name", ["laps", "hash-static"])
def test_cross_engine_checkpoint_resume(name, pair):
    """A checkpoint taken on one engine resumes bit-exactly on another:
    the blob stores an engine-independent EventSnapshot (v4), never a
    live queue."""
    eng_a, eng_b = pair
    cfg = _config()
    wl = _workload(1, None)
    base = simulate(wl, _kernel_sched(name), cfg,
                    injector=FaultInjector(_faults()), engine=eng_a)

    kernel = SimKernel(cfg, _kernel_sched(name), wl, engine=eng_a)
    kernel.attach_injector(FaultInjector(_faults()))
    kernel.run_until(units.us(400))  # mid-run, with a core down
    ckpt = kernel.checkpoint()
    resumed = SimKernel.resume(ckpt, cfg, wl, engine=eng_b)
    assert resumed.run() == base


def test_checkpoint_blob_is_engine_free():
    """The pickled state must contain an EventSnapshot, not a queue
    object — that is what makes cross-engine resume possible at all."""
    import pickle

    from repro.sim.events.base import EventSnapshot
    from repro.sim.events.calendar import CalendarEventQueue

    wl = _workload(4, None)
    kernel = SimKernel(_config(), _kernel_sched("hash-static"), wl,
                       engine="calendar")
    kernel.run_until(units.us(300))
    assert kernel.checkpoint().version == 4
    state, _sched, _inj, _extras = pickle.loads(kernel.checkpoint().blob)
    assert isinstance(state.events, EventSnapshot)
    # and the live kernel still holds its real queue (checkpoint must
    # not disturb the running instance)
    assert isinstance(kernel.state.events, CalendarEventQueue)
    kernel.run()  # completes without error


# ----------------------------------------------------------------------
# manifest provenance
# ----------------------------------------------------------------------


class TestManifestEngine:
    def test_engine_recorded_and_round_trips(self):
        m = RunManifest.capture(seed=1, scheduler="laps", engine="calendar")
        assert m.engine == "calendar"
        assert RunManifest.from_dict(m.to_dict()).engine == "calendar"

    def test_engine_optional_for_old_manifests(self):
        d = RunManifest.capture(seed=1).to_dict()
        del d["engine"]
        assert RunManifest.from_dict(d).engine is None


# ----------------------------------------------------------------------
# backend twin: interpreted lists vs int64 arrays
# ----------------------------------------------------------------------


def test_backend_list_and_array_modes_agree():
    """``simulate_core`` is one source compiled two ways: driving it
    with plain lists (the interpreted fast path) and with int64 arrays
    (what the numba twin would see) must produce identical outputs,
    including the mutated flow_last/migrated overlays."""
    rng = np.random.default_rng(99)
    cap = 8
    for trial in range(20):
        n_rows = int(rng.integers(1, 200))
        n_flows = int(rng.integers(1, 32))
        n_pre = int(rng.integers(0, min(cap, n_rows) + 1))
        has_busy = int(n_pre > 0 and rng.integers(0, 2))
        arr_t = np.sort(rng.integers(0, 60_000, size=n_rows)).astype(np.int64)
        arr_t[:n_pre] = 0  # prelude rows predate the span
        busy_fin = int(rng.integers(0, 5_000))
        proc = rng.integers(200, 3_000, size=n_rows).astype(np.int64)
        sid = rng.integers(0, 2, size=n_rows).astype(np.int64)
        floc = rng.integers(0, n_flows, size=n_rows).astype(np.int64)
        flow_last = rng.integers(-1, 4, size=n_flows).astype(np.int64)
        migrated = np.zeros(n_flows, dtype=np.int64)
        last_sid = int(rng.integers(-1, 2))
        guard = 10**9 if rng.random() < 0.5 else int(rng.integers(2, cap))
        t_h = int(arr_t[-1]) + int(rng.integers(0, 20_000))

        size = n_rows + cap + 2
        cols_a = (arr_t, proc, sid, floc, flow_last.copy(), migrated.copy())
        cols_l = tuple(c.tolist() for c in cols_a)
        bufs_a = [np.zeros(size, dtype=np.int64) for _ in range(6)]
        bufs_l = [[0] * size for _ in range(6)]
        out_a = np.zeros(OUT_SLOTS, dtype=np.int64)
        out_l = [0] * OUT_SLOTS

        simulate_core(
            0, n_rows, n_pre, has_busy, busy_fin, *cols_a,
            last_sid, guard, cap, 120, 80, t_h, *bufs_a, out_a,
        )
        simulate_core(
            0, n_rows, n_pre, has_busy, busy_fin, *cols_l,
            last_sid, guard, cap, 120, 80, t_h, *bufs_l, out_l,
        )
        assert out_a.tolist() == out_l, f"trial {trial}: scalar outs differ"
        for slot, (ba, bl) in enumerate(zip(bufs_a, bufs_l)):
            assert ba.tolist() == bl, f"trial {trial}: buffer {slot} differs"
        assert cols_a[4].tolist() == cols_l[4], f"trial {trial}: flow_last"
        assert cols_a[5].tolist() == cols_l[5], f"trial {trial}: migrated"


def test_numpy_backend_is_the_default_span_engine():
    spec = resolve_engine("calendar")
    assert isinstance(spec.span_backend, NumpyBackend)
    assert not spec.span_backend.wants_arrays
