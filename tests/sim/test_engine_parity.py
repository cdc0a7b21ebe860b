"""Event-core bit-identity: span drain on vs the scalar oracle.

The kernel has one event queue (the binary heap) and two ways through
it: the default ``vectorized=True`` path, which plans a core column and
drains whole spans of it in the batched
:class:`~repro.sim.events.span.SpanDriver`, and ``vectorized=False``,
which dispatches every packet through ``select_core`` and the scalar
closures — the oracle.  ``SimReport``s must be bit-identical between
the two for every zoo scheduler, materialized and streamed sources,
fault schedules, and checkpoints resumed on the other path than the
one that took them.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro import units
from repro.faults.injector import FaultInjector
from repro.sim.events.base import EventQueue, EventSnapshot
from repro.sim.kernel import SimKernel
from repro.sim.system import simulate
from tests.schedulers.test_assign_batch import (
    ZOO_SCHEDULERS,
    _config,
    _faults,
    _kernel_sched,
    _workload,
)

# ----------------------------------------------------------------------
# report bit-identity, span on vs scalar
# ----------------------------------------------------------------------


def _run(name, vectorized, *, chunk_size=None, faulted=False, seed=3):
    wl = _workload(seed, chunk_size)
    injector = FaultInjector(_faults()) if faulted else None
    return simulate(wl, _kernel_sched(name), _config(),
                    injector=injector, vectorized=vectorized)


@pytest.mark.parametrize("name", ZOO_SCHEDULERS)
def test_engines_bit_identical_materialized(name):
    assert _run(name, True) == _run(name, False)


@pytest.mark.parametrize("name", ZOO_SCHEDULERS)
def test_engines_bit_identical_streamed(name):
    assert _run(name, True, chunk_size=701) == _run(name, False, chunk_size=701)


@pytest.mark.parametrize("name", ZOO_SCHEDULERS)
def test_engines_bit_identical_faulted(name):
    assert _run(name, True, faulted=True) == _run(name, False, faulted=True)


@pytest.mark.parametrize("name", ZOO_SCHEDULERS)
def test_engines_bit_identical_tied_arrivals(name):
    """Arrival instants rounded to 2 us, so many packets arrive at the
    same instant: the span commit must order their starts (and so the
    completion seqs that break same-time pops) exactly as the scalar
    loop dispatches them, in arrival-index order."""
    wl = _workload(3, None)
    wl = dataclasses.replace(wl, arrival_ns=(wl.arrival_ns // 2000) * 2000)
    span = SimKernel(_config(), _kernel_sched(name), wl)
    assert span.run() == simulate(wl, _kernel_sched(name), _config(),
                                  vectorized=False)


def test_spans_actually_commit():
    """Guard against the parity tests passing vacuously because the
    default kernel silently never drained a span."""
    wl = _workload(3, None)
    kernel = SimKernel(_config(), _kernel_sched("hash-static"), wl)
    kernel.run()
    stats = kernel.span_stats
    assert stats["spans_committed"] > 0
    assert stats["packets_spanned"] > 0


# ----------------------------------------------------------------------
# checkpoint / resume across the two paths
# ----------------------------------------------------------------------


@pytest.mark.parametrize("pair", [
    (True, False),
    (False, True),
    (True, True),
    (False, False),
])
@pytest.mark.parametrize("name", ["laps", "hash-static"])
def test_cross_engine_checkpoint_resume(name, pair):
    """A checkpoint taken with spans on resumes bit-exactly on the
    scalar path and vice versa.  No injector: one would make every
    span attempt bail, and the checkpoint must carry state that
    committed spans wrote (event seqs, queue contents, flow memory)."""
    vec_a, vec_b = pair
    cfg = _config()
    wl = _workload(1, None)
    base = simulate(wl, _kernel_sched(name), cfg, vectorized=False)

    kernel = SimKernel(cfg, _kernel_sched(name), wl, vectorized=vec_a)
    kernel.run_until(units.us(400))
    if vec_a:
        assert kernel.span_stats["spans_committed"] > 0
    ckpt = kernel.checkpoint()
    resumed = SimKernel.resume(ckpt, cfg, wl, vectorized=vec_b)
    assert resumed.run() == base


def test_checkpoint_blob_is_engine_free():
    """The pickled state must contain an EventSnapshot, not the live
    queue, and resume must rebuild a real EventQueue from it."""
    cfg = _config()
    wl = _workload(4, None)
    kernel = SimKernel(cfg, _kernel_sched("hash-static"), wl)
    kernel.run_until(units.us(300))
    ckpt = kernel.checkpoint()
    assert ckpt.version == 4
    state, _sched, _inj, _extras = pickle.loads(ckpt.blob)
    assert isinstance(state.events, EventSnapshot)
    # the live kernel still holds its real queue (checkpoint must not
    # disturb the running instance)
    assert isinstance(kernel.state.events, EventQueue)
    resumed = SimKernel.resume(ckpt, cfg, wl, vectorized=False)
    assert isinstance(resumed.state.events, EventQueue)
    assert resumed.run() == kernel.run()
