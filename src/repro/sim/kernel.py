"""The steppable simulation kernel.

:class:`SimState` owns every piece of live run state — core arrays,
per-flow placement memory, the queue bank, the event heap, metrics and
the reorder detector — as plain fields instead of run-loop closure
locals.  :class:`SimKernel` drives that state through ``step()`` /
``run_until(t_ns)`` / ``run()``: the arrival loop and the drain phase
are ordinary methods, and everything that observes or perturbs the run
(probes, fault injectors, scheduler queue-edge callbacks) registers on
one :class:`~repro.sim.hooks.HookBus` instead of poking attributes onto
the simulator.

The kernel consumes packets through a
:class:`~repro.sim.source.PacketSource`: a plain
:class:`~repro.sim.workload.Workload` is wrapped in a
:class:`~repro.sim.source.MaterializedSource` whose single whole-run
chunk reproduces the historical in-memory path, while a
:class:`~repro.sim.source.StreamingSource` feeds the same packet
sequence chunk by chunk at O(chunk) memory.  Live chunks form the
**arrival window** (``kernel.window``): arrivals dispatch from it,
in-flight packet indices stay global, and a chunk is retired as soon as
every packet it holds is dead (dispatched, departed or dropped), which
bounds resident workload memory for streamed runs.

Two properties are preserved from the original monolithic loop:

* **hot-loop cost** — at activation the kernel compiles ``start_packet``
  and ``complete_until`` as closures over the state containers (lists,
  dicts, arrays mutated in place), so the per-packet path performs no
  ``self.`` attribute lookups and allocates no per-packet objects; the
  closures re-compile only when the window slides (once per chunk).
  On top of that sits the **epoch-cached vectorized scheduling** fast
  path: for schedulers implementing
  :meth:`~repro.schedulers.base.Scheduler.assign_batch` the kernel
  plans a ``core_of`` column for the window suffix in one vector call
  and the arrival loop consumes it instead of calling ``select_core``
  per packet, re-planning whenever the scheduler's ``map_epoch`` shows
  a table mutation (see ``docs/performance.md``).  Every replan throws
  the rest of the column away, so a scheduler whose tables move per
  flow (flowlet, Flow Director) keeps no plan and runs ``select_core``
  per packet, like fcfs and topk; ``plan_calls`` / ``plan_rows`` in
  :attr:`SimKernel.span_stats` count the planning work.  A static plan
  (``batch_static``) goes one step further: the
  :class:`~repro.sim.events.span.SpanDriver` drains whole spans of it
  without per-packet heap pushes.  ``vectorized=False`` turns both off
  and is the scalar oracle every fast path is tested against;
* **determinism** — advancing in any sequence of ``run_until`` horizons
  produces bit-identical results to one uninterrupted ``run()``,
  because events are popped in the same global time order either way,
  and a streamed run is bit-identical to a materialized one because the
  sources produce identical packet sequences.  That equivalence is what
  makes checkpoint/resume exact.

Checkpointing: :meth:`SimKernel.checkpoint` pickles the state graph —
``SimState`` *and* the scheduler *and* the injector in one blob, so
shared references (the scheduler's bound ``LoadView`` is the state's
queue bank) survive the round trip — and stamps it with config/workload
fingerprints (the workload fingerprint is the streaming digest of
:func:`~repro.sim.source.workload_fingerprint`, identical across
materialized and streamed builds of the same spec).  For a streaming
source the blob also carries the source cursor and the live window, so
resume continues generation mid-chunk without replay.
:meth:`SimKernel.resume` restores the blob against the same config and
workload-or-source (which are deliberately *not* serialized: they are
large or regenerable) and continues the run; the resumed run's
:class:`~repro.sim.metrics.SimReport` is identical to an uninterrupted
one, even resuming a streamed checkpoint against a materialized
workload or vice versa.  See ``docs/architecture.md``.
"""

from __future__ import annotations

import pickle
import time
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from repro.errors import ConfigError, SimulationError
from repro.schedulers.base import Scheduler
from repro.sim.config import SimConfig
from repro.sim.events.base import EventQueue, EventSnapshot
from repro.sim.events.span import RETRY_STRIDE, SpanDriver
from repro.sim.hooks import HookBus
from repro.sim.metrics import SimMetrics, SimReport
from repro.sim.queues import QueueBank
from repro.sim.reorder import ReorderDetector
from repro.sim.source import (
    MaterializedSource,
    PacketSource,
    WorkloadChunk,
    concat_chunks,
    empty_chunk,
    workload_fingerprint,
)
from repro.sim.workload import Workload

__all__ = ["SimState", "SimKernel", "Checkpoint", "CHECKPOINT_VERSION"]

#: bump when the pickled state layout changes incompatibly.
#: v4: ``SimState.events`` is serialized as an
#: :class:`~repro.sim.events.base.EventSnapshot` (the pending
#: ``(time, seq, payload)`` entries plus the queue's counters), never
#: as a live queue.
CHECKPOINT_VERSION = 4

#: local-index stride the arrival loop converts to plain Python lists
#: at a time — bounds resident unboxed columns to O(segment) for any
#: window size (a whole-window tolist would undo PR 4's memory bounds)
_SEGMENT = 65_536

#: segment stride while the span drain is live: every committed span
#: invalidates the unboxed segment, and the scalar stretches between
#: spans are short (a retry stride, a guard episode), so unboxing the
#: full 65k-row segment per stretch would cost more than the scalar
#: packets it feeds — spans with a drain active unbox small slices
_SPAN_SEGMENT = 4_096

#: ceiling for the exponential span-retry backoff: guard-heavy
#: schedulers in sustained overload settle at one (cheap, bailed)
#: attempt per ~16k arrivals instead of one per RETRY_STRIDE
_MAX_RETRY_STRIDE = 16_384

#: cap on how far ahead one assign_batch plan reaches; bounds both the
#: column's list size and the vector work wasted per epoch bump
_PLAN_SPAN = 65_536


# ----------------------------------------------------------------------
@dataclass
class SimState:
    """All live state of one simulation run, explicitly owned.

    Everything the run loop mutates lives here — nothing hides in
    closure locals or instance attributes of the kernel.  The whole
    object (together with the scheduler and injector sharing its
    references) pickles into a :class:`Checkpoint`.  Packet indices
    (``next_arrival``, ``core_current_pkt``, queue contents, heap
    completions) are *global* positions in the packet sequence, valid
    across window slides.
    """

    #: horizon up to which the run has advanced (``run_until`` bound)
    now_ns: int
    #: global index of the next workload arrival to dispatch
    next_arrival: int
    #: the drain phase has completed
    drained: bool
    core_busy: list[bool]
    core_last_service: list[int]
    core_speed: list[float]
    core_current_pkt: list[int]
    #: in-flight packets tombstoned by a core failure
    killed_pkts: set[int]
    #: last core each flow was served on (-1 = never) — a plain list,
    #: not an ndarray: the hot loop reads and writes one scalar per
    #: packet, where list indexing beats numpy scalar boxing ~4x
    flow_last_core: list[int]
    flow_migrated: np.ndarray
    queues: QueueBank
    events: EventQueue
    metrics: SimMetrics
    reorder: ReorderDetector
    departures: list[tuple[int, int, int]]
    drop_records: list[tuple[int, int, int]]
    #: arrival instant of the last dispatched packet (drain anchor —
    #: with a streamed source the final arrival time is not known up
    #: front, so the run loop records it as it dispatches)
    last_arrival_ns: int = 0

    @classmethod
    def initial(cls, config: SimConfig, source: PacketSource) -> "SimState":
        """Fresh pre-run state for *config* and *source*."""
        n_cores = config.num_cores
        return cls(
            now_ns=0,
            next_arrival=0,
            drained=False,
            core_busy=[False] * n_cores,
            core_last_service=[-1] * n_cores,
            core_speed=[1.0] * n_cores,
            core_current_pkt=[-1] * n_cores,
            killed_pkts=set(),
            flow_last_core=[-1] * source.num_flows,
            flow_migrated=np.zeros(source.num_flows, dtype=bool),
            queues=QueueBank(config.num_cores, config.queue_capacity),
            events=EventQueue(),
            metrics=SimMetrics(len(config.services), config.num_cores),
            reorder=ReorderDetector(),
            departures=[],
            drop_records=[],
        )


# ----------------------------------------------------------------------
def _config_fingerprint(config: SimConfig) -> str:
    svc = ",".join(
        f"{config.services[s].base_ns}+{config.services[s].per_64b_ns}"
        for s in range(len(config.services))
    )
    return (
        f"cores={config.num_cores};cap={config.queue_capacity};"
        f"fm={config.fm_penalty_ns};cc={config.cc_penalty_ns};"
        f"drain={config.drain_ns};lat={int(config.collect_latencies)};"
        f"dep={int(config.record_departures)};svc=[{svc}]"
    )


@dataclass(frozen=True)
class Checkpoint:
    """A paused run, serialized: resume it with :meth:`SimKernel.resume`.

    The ``blob`` pickles ``(SimState, scheduler, injector, extras)`` in
    one object graph — ``extras`` carries the streaming source cursor
    and live window for non-materialized sources (None otherwise);
    config and workload are validated by fingerprint at resume time
    rather than stored.  ``to_bytes``/``from_bytes`` give a file-ready
    wire form.
    """

    version: int
    time_ns: int
    blob: bytes
    config_fingerprint: str
    workload_fingerprint: str

    def to_bytes(self) -> bytes:
        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Checkpoint":
        obj = pickle.loads(raw)
        if not isinstance(obj, cls):
            raise SimulationError(
                f"not a simulation checkpoint: {type(obj).__name__}"
            )
        if obj.version != CHECKPOINT_VERSION:
            raise SimulationError(
                f"checkpoint version {obj.version} unsupported "
                f"(expected {CHECKPOINT_VERSION})"
            )
        return obj


# ----------------------------------------------------------------------
def _no_timed_handler(event, t_ns):  # pragma: no cover - defensive
    raise SimulationError(
        f"timed event {event!r} at {t_ns} ns but no handler is subscribed"
    )


class SimKernel:
    """Steppable network-processor simulation over an explicit state.

    Lifecycle: construct (fresh state, scheduler bound and subscribed
    to the bus) → optionally :meth:`attach_probe` / :meth:`attach_injector`
    → any mix of :meth:`step` / :meth:`run_until` / :meth:`run` →
    :class:`~repro.sim.metrics.SimReport`.  :meth:`checkpoint` may be
    called between advances; :meth:`resume` restores one.

    *workload* may be a :class:`~repro.sim.workload.Workload` (wrapped
    in a whole-run :class:`~repro.sim.source.MaterializedSource`) or
    any :class:`~repro.sim.source.PacketSource`.  A source argument is
    cloned, so one source object can seed any number of kernels.

    The kernel itself satisfies the sampler view protocol (``queues``,
    ``metrics``, ``scheduler``, ``reorder``, ``injector`` attributes),
    so rich probes bind to it directly.
    """

    def __init__(
        self,
        config: SimConfig,
        scheduler: Scheduler,
        workload: Workload | PacketSource,
        *,
        bus: HookBus | None = None,
        vectorized: bool = True,
        state: SimState | None = None,
        _resumed: bool = False,
        _chunks: list[WorkloadChunk] | None = None,
        _exhausted: bool = False,
    ) -> None:
        if isinstance(workload, Workload):
            source = MaterializedSource(workload)
        elif isinstance(workload, PacketSource):
            source = workload if _resumed else workload.clone()
        else:
            raise ConfigError(
                f"workload must be a Workload or PacketSource, "
                f"got {type(workload).__name__}"
            )
        if source.num_services > len(config.services):
            raise ConfigError(
                f"workload uses {source.num_services} services but the "
                f"config defines only {len(config.services)}"
            )
        self.config = config
        self.scheduler = scheduler
        self.source = source
        self._chunks: deque[WorkloadChunk] = deque(_chunks) if _chunks else deque()
        self._exhausted = bool(_exhausted)
        #: live arrival window (consecutive un-retired chunks)
        self.window: WorkloadChunk = (
            concat_chunks(list(self._chunks)) if self._chunks else empty_chunk(0)
        )
        self.bus = bus if bus is not None else HookBus()
        self.state = state if state is not None else SimState.initial(config, source)
        self.injector = None
        self._finished = False
        self._start_packet = None
        self._complete_until = None
        self._wl_fp: str | None = None
        #: the vectorized fast path is on iff requested and the
        #: scheduler actually overrides assign_batch (results are
        #: bit-identical either way — the flag exists for equivalence
        #: tests and scalar-baseline benchmarks, and deliberately does
        #: not enter the config fingerprint)
        self.vectorized = bool(vectorized)
        self._batch_on = self.vectorized and (
            type(scheduler).assign_batch is not Scheduler.assign_batch
        )
        # planned core_of column: local-index span [_col_lo, _col_hi)
        # of the current window, valid while the scheduler's map_epoch
        # equals _col_epoch.  Never checkpointed — replanning is
        # idempotent by the assign_batch contract.
        self._col: list[int] | None = None
        self._col_arr: np.ndarray | None = None
        self._col_lo = 0
        self._col_hi = 0
        self._col_epoch = -1
        self._col_plan_li = -1
        #: nominal service-time column for the live window (set by
        #: :meth:`_activate`, consumed by the span drain)
        self._nominal: np.ndarray | None = None
        #: batched span drain, for schedulers whose plan is a static
        #: map between table mutations (``batch_static``);
        #: ``vectorized=False`` never builds one and stays the scalar
        #: oracle
        self._span = (
            SpanDriver(self)
            if self._batch_on and scheduler.batch_static
            else None
        )
        #: cumulative wall-clock ns spent planning columns
        #: (:meth:`_plan_column`) — the "plan" leg of the span-drain
        #: phase breakdown in :attr:`span_stats`
        self.plan_ns = 0
        #: column plans made and planned rows they returned; rows per
        #: generated packet above 1 is replanning waste
        self.plan_calls = 0
        self.plan_rows = 0
        if not _resumed:
            # a restored scheduler is already bound to the restored
            # queue bank (shared pickle graph); re-binding would reset
            # its placement state
            scheduler.bind(self.state.queues)
        scheduler.register_hooks(self.bus)

    # -- sampler view protocol -----------------------------------------
    @property
    def queues(self) -> QueueBank:
        return self.state.queues

    @property
    def metrics(self) -> SimMetrics:
        return self.state.metrics

    @property
    def reorder(self) -> ReorderDetector:
        return self.state.reorder

    @property
    def events_popped(self) -> int:
        """Heap events popped so far (profiling signal)."""
        return self.state.events.popped

    @property
    def now_ns(self) -> int:
        return self.state.now_ns

    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def arrivals_pending(self) -> bool:
        """An undispatched arrival exists (may pull a source chunk to
        find out — deterministic and idempotent)."""
        return self._peek_arrival_ns() is not None

    # -- hook attachment -----------------------------------------------
    def attach_probe(self, probe) -> None:
        """Register a periodic sampler on the bus.

        Accepts anything with ``maybe_sample(t_ns, queues, metrics)``
        (:class:`repro.sim.probes.QueueProbe`,
        :class:`repro.obs.TelemetryProbe`, ...).  A probe with a
        ``bind`` method is bound to the kernel so its samplers see the
        scheduler, reorder detector and injector too.
        """
        if probe is None:
            return
        if hasattr(probe, "bind"):
            probe.bind(self)
        queues = self.state.queues
        metrics = self.state.metrics
        maybe_sample = probe.maybe_sample

        def sample(t_ns: int) -> None:
            maybe_sample(t_ns, queues, metrics)

        self.bus.subscribe(
            "sample", sample, period_ns=getattr(probe, "period_ns", None)
        )

    def attach_injector(self, injector, *, resumed: bool = False) -> None:
        """Bind a :class:`repro.faults.FaultInjector` to this run.

        The injector validates its schedule against the config, pushes
        its timed events into the heap (skipped on resume — they are
        already in the restored heap) and subscribes to ``timed_event``.
        """
        if injector is None:
            return
        if self.injector is not None:
            raise SimulationError("a kernel takes at most one injector")
        self.injector = injector
        injector.bind(self, schedule_events=not resumed)
        self.bus.subscribe("timed_event", injector.apply)

    # -- the sliding arrival window ------------------------------------
    def _min_live_pkt(self) -> int:
        """Smallest global packet index the run can still touch: the
        next arrival, any packet in service, any queued packet (after a
        fault reassignment queue order is no longer index order, so the
        minimum is scanned, not peeked)."""
        st = self.state
        lo = st.next_arrival
        for pkt in st.core_current_pkt:
            if 0 <= pkt < lo:
                lo = pkt
        for q in st.queues:
            m = q.min_item()
            if m is not None and m < lo:
                lo = m
        return lo

    def _pull_chunk(self) -> bool:
        """Append the source's next chunk to the window (retiring fully
        dead leading chunks first); False when the source is exhausted.
        Invalidates the compiled hot loop — it binds the old arrays.
        """
        if self._exhausted:
            return False
        chunk = self.source.next_chunk()
        if chunk is None:
            self._exhausted = True
            return False
        chunks = self._chunks
        retired = False
        if chunks:
            lo = self._min_live_pkt()
            while chunks and chunks[0].end <= lo:
                chunks.popleft()
                retired = True
        win = self.window
        chunks.append(chunk)
        if not retired and len(win) and win.base == chunks[0].base:
            # nothing retired: extend the standing window with the one
            # new chunk instead of re-concatenating every live chunk
            self.window = concat_chunks([win, chunk])
        else:
            self.window = concat_chunks(list(chunks))
        self._start_packet = None
        self._complete_until = None
        self._nominal = None
        self._col = None
        self._col_arr = None
        self._col_lo = self._col_hi = 0
        self._col_epoch = -1
        self._col_plan_li = -1
        return True

    def _plan_column(self, li: int) -> None:
        """(Re)compute the planned ``core_of`` column for the window
        suffix starting at local index *li*, under the scheduler's
        current tables; stamps the column with the post-plan
        ``map_epoch`` (planning itself must not self-invalidate)."""
        t0 = time.perf_counter_ns()
        sched = self.scheduler
        win = self.window
        hi = len(win)
        if hi > li + _PLAN_SPAN:
            hi = li + _PLAN_SPAN
        out = sched.assign_batch(
            win.flow_hash[li:hi],
            win.service_id[li:hi],
            win.flow_id[li:hi],
            win.arrival_ns[li:hi],
            win.base + li,
        )
        if out is None:
            self._col = []
            self._col_arr = None
            self._col_hi = li
        else:
            self._col = out.tolist()
            # the span drain consumes the un-unboxed array directly
            self._col_arr = out
            self._col_hi = li + len(self._col)
        self._col_lo = li
        self._col_plan_li = li
        self._col_epoch = sched.map_epoch
        self.plan_calls += 1
        self.plan_rows += self._col_hi - li
        self.plan_ns += time.perf_counter_ns() - t0

    def _peek_arrival_ns(self) -> int | None:
        """Arrival time of the next undispatched packet, pulling chunks
        as needed; None when the source has no packets left."""
        st = self.state
        while True:
            win = self.window
            if st.next_arrival - win.base < len(win):
                return int(win.arrival_ns[st.next_arrival - win.base])
            if not self._pull_chunk():
                return None

    # -- activation: compile the hot loop ------------------------------
    def _activate(self) -> None:
        """Compile ``start_packet`` / ``complete_until`` over the state
        and the current window.

        Closures capture the state *containers* (mutated in place), so
        the per-packet path touches only locals — the original loop's
        no-attribute-lookup property; packet columns are indexed at
        ``pkt - base`` within the window.  Re-run after :meth:`resume`
        or a window slide to re-close over the current containers.
        """
        self.bus.freeze()
        cfg = self.config
        st = self.state
        win = self.window
        services = cfg.services
        base_ns = [services[s].base_ns for s in range(len(services))]
        per64_ns = [services[s].per_64b_ns for s in range(len(services))]
        fm_pen = cfg.fm_penalty_ns
        cc_pen = cfg.cc_penalty_ns
        core_busy = st.core_busy
        core_last_service = st.core_last_service
        core_speed = st.core_speed
        core_current_pkt = st.core_current_pkt
        killed_pkts = st.killed_pkts
        flow_last_core = st.flow_last_core
        flow_migrated = st.flow_migrated
        queues = st.queues
        events = st.events
        metrics = st.metrics
        reorder = st.reorder
        base = win.base
        # bound-method element accessors: ``arr.item(i)`` unboxes a
        # numpy scalar to a Python int noticeably cheaper than
        # ``int(arr[i])`` on the random-access paths below
        arr_item = win.arrival_ns.item
        svc_item = win.service_id.item
        flow_item = win.flow_id.item
        seq_item = win.seq.item
        # nominal per-packet service time (eq. 3 without penalties),
        # vectorized once per window: base_ns[sid] + round(p64*size/64).
        # p64*size is exact in int64 and /64.0 is an exact float scale,
        # so np.rint matches Python round() bit-for-bit.  Kept as an
        # int64 array (not a list) so resident size stays O(window)
        # bytes, matching the other window columns.
        if len(win):
            sids = win.service_id
            nominal = np.asarray(base_ns, dtype=np.int64)[sids] + np.rint(
                np.asarray(per64_ns, dtype=np.float64)[sids]
                * win.size_bytes.astype(np.float64)
                / 64.0
            ).astype(np.int64)
        else:
            nominal = np.empty(0, dtype=np.int64)
        self._nominal = nominal  # consumed by the span drain
        proc_item = nominal.item
        collect_lat = cfg.collect_latencies
        latencies = metrics.latencies_ns
        record_dep = cfg.record_departures
        departures = st.departures
        on_queue_empty = self.bus.dispatcher("queue_empty")
        dispatch_timed = self.bus.dispatcher("timed_event") or _no_timed_handler
        on_depart = reorder.on_depart
        busy_ns = metrics.busy_ns_per_core
        # per-core FIFO deques, hoisted past QueueBank.__getitem__ and
        # BoundedQueue.take/is_empty (the deques are mutated in place
        # for a bank's whole lifetime, so the bindings stay valid)
        q_items = [q._items for q in queues]

        # the closures inline heappush/heappop on the raw heap list
        # with the queue's bookkeeping batched in locals
        heap = events.heap

        def start_packet(core: int, pkt: int, t_ns: int) -> None:
            """Begin service of packet *pkt* (global index) on *core*."""
            li = pkt - base
            sid = svc_item(li)
            fid = flow_item(li)
            t_proc = proc_item(li)
            last = flow_last_core[fid]
            if last >= 0 and last != core:
                t_proc += fm_pen
                metrics.flow_migration_events += 1
                flow_migrated[fid] = True
            flow_last_core[fid] = core
            if core_last_service[core] != sid:
                if core_last_service[core] >= 0:
                    t_proc += cc_pen
                    metrics.cold_cache_events += 1
                core_last_service[core] = sid
            speed = core_speed[core]
            if speed != 1.0:  # degraded core (repro.faults CoreSlowdown)
                t_proc = int(round(t_proc * speed))
            core_busy[core] = True
            core_current_pkt[core] = pkt
            busy_ns[core] += t_proc
            # inlined events.push: completions are scheduled at
            # t_ns + t_proc >= t_ns >= the last pop, so the causality
            # check is vacuous here (the validated push remains on the
            # injector path)
            s = events._seq
            heappush(heap, (t_ns + t_proc, s, (core, pkt)))
            events._seq = s + 1

        def complete_until(horizon_ns: int) -> None:
            """Drain heap events with time <= horizon in time order.

            Pops are inlined (heappop on the raw heap) with the queue's
            popped/now bookkeeping — and the departed/last-depart
            metrics — batched in locals; both batches are flushed
            before any timed-event or queue-empty dispatch, so handlers
            that push events or read counters see exact state, and at
            exit, before probes sample.
            """
            n_popped = 0
            n_departed = 0
            t_done = -1
            t_dep = -1
            while heap and heap[0][0] <= horizon_ns:
                t_done, _, payload = heappop(heap)
                n_popped += 1
                core, pkt = payload
                if core < 0:  # timed platform event, not a completion
                    events.flush_pops(n_popped, t_done)
                    n_popped = 0
                    if n_departed:
                        metrics.departed += n_departed
                        metrics.last_depart_ns = t_dep
                        n_departed = 0
                    dispatch_timed(pkt, t_done)
                    continue
                if killed_pkts and pkt in killed_pkts:
                    killed_pkts.discard(pkt)  # died with its core
                    continue
                li = pkt - base
                n_departed += 1
                t_dep = t_done  # pops are time-ordered
                on_depart(flow_item(li), seq_item(li))
                if collect_lat:
                    latencies.append(t_done - arr_item(li))
                if record_dep:
                    departures.append((flow_item(li), seq_item(li), t_done))
                qi = q_items[core]
                if qi:
                    start_packet(core, qi.popleft(), t_done)
                else:
                    core_busy[core] = False
                    core_current_pkt[core] = -1
                    if on_queue_empty is not None:
                        events.flush_pops(n_popped, t_done)
                        n_popped = 0
                        if n_departed:
                            metrics.departed += n_departed
                            metrics.last_depart_ns = t_dep
                            n_departed = 0
                        on_queue_empty(core, t_done)
            if n_popped:
                events.flush_pops(n_popped, t_done)
            if n_departed:
                metrics.departed += n_departed
                metrics.last_depart_ns = t_dep

        self._start_packet = start_packet
        self._complete_until = complete_until

    @property
    def active(self) -> bool:
        """The hot loop is compiled for the current window."""
        return self._start_packet is not None

    @property
    def span_stats(self) -> dict[str, int]:
        """Batched-drain counters (zero without a span drain):
        spans committed, attempts bailed to the scalar path, packets
        dispatched through committed spans, and the wall-clock phase
        split — ``plan_ns`` (column planning, accumulated whenever a
        plan is made, next to its ``plan_calls`` and ``plan_rows``
        counts),
        ``drain_ns`` (phase-1 per-core simulation) and ``commit_ns``
        (phase-2 state commit including the scheduler's span
        commit)."""
        s = self._span
        return {
            "spans_committed": s.spans_committed if s else 0,
            "spans_bailed": s.spans_bailed if s else 0,
            "packets_spanned": s.packets_spanned if s else 0,
            "plan_ns": self.plan_ns,
            "plan_calls": self.plan_calls,
            "plan_rows": self.plan_rows,
            "drain_ns": s.drain_ns if s else 0,
            "commit_ns": s.commit_ns if s else 0,
        }

    def start_packet(self, core: int, pkt: int, t_ns: int) -> None:
        """Begin service of *pkt* on *core* (injector reassignment path)."""
        if self._start_packet is None:
            self._activate()
        self._start_packet(core, pkt, t_ns)

    # -- advancing the run ---------------------------------------------
    def run_until(self, t_ns: int) -> None:
        """Advance the run to *t_ns*.

        Dispatches every arrival with ``arrival_ns <= t_ns`` — each
        preceded by the completions and timed events due by then, in
        strict time order, pulling source chunks as the window runs out
        — then drains remaining heap events up to *t_ns*.  Splitting a
        run across any sequence of horizons yields state (and
        ultimately a report) identical to one uninterrupted
        :meth:`run`.
        """
        if self._finished:
            raise SimulationError("kernel already finished")
        st = self.state
        if t_ns < st.now_ns:
            raise SimulationError(
                f"run_until({t_ns}) is behind current time {st.now_ns}"
            )
        cfg = self.config
        sched = self.scheduler
        n_cores = cfg.num_cores
        cap = cfg.queue_capacity
        record_dep = cfg.record_departures
        metrics = st.metrics
        queues = st.queues
        reorder = st.reorder
        core_busy = st.core_busy
        drop_records = st.drop_records
        gen_per_service = metrics.generated_per_service
        drop_per_service = metrics.dropped_per_service
        qs = [queues[c] for c in range(n_cores)]
        ev_heap = st.events.heap  # mutated in place; identity is stable
        batch_on = self._batch_on
        span = self._span
        sel = sched.select_core
        guard = sched.batch_guard
        commit = sched.batch_commit
        while True:
            if self._start_packet is None:
                self._activate()
            complete_until = self._complete_until
            start_packet = self._start_packet
            sample = self.bus.dispatcher("sample")
            on_queue_busy = self.bus.dispatcher("queue_busy")
            win = self.window
            base = win.base
            arrival = win.arrival_ns
            seq = win.seq
            n_local = arrival.shape[0]
            li = li0 = st.next_arrival - base
            # next local index at which to attempt a batched span drain
            # (-1 disables).  A bailed attempt costs a full interpreted
            # phase 1, so repeated bails back the retry distance off
            # exponentially; the first win snaps it back to RETRY_STRIDE.
            span_li = li if span is not None else -1
            span_stride = RETRY_STRIDE
            # column-plan locals mirror the kernel attrs; they diverge
            # only through _plan_column, which updates both
            col = self._col
            cl = self._col_lo
            ch = self._col_hi
            col_epoch = self._col_epoch
            plan_li = self._col_plan_li
            # arrival columns are unboxed to plain lists one bounded
            # segment at a time: list indexing beats per-packet numpy
            # scalar conversion several times over
            seg_lo = 0
            seg_hi = li  # force a segment load on the first iteration
            arr_seg = svc_seg = flow_seg = hash_seg = ()
            try:
                while li < n_local:
                    if li == span_li:
                        li2 = span.attempt(li, t_ns)
                        # the attempt replans/consumes the column plan:
                        # resync the mirrored locals unconditionally
                        col = self._col
                        cl = self._col_lo
                        ch = self._col_hi
                        col_epoch = self._col_epoch
                        plan_li = self._col_plan_li
                        if li2 > li:
                            li = li2
                            seg_hi = li  # stale: force a segment reload
                            span_li = li  # a win: try to continue batched
                            span_stride = RETRY_STRIDE
                            continue
                        span_li = li + span_stride
                        if span_stride < _MAX_RETRY_STRIDE:
                            span_stride *= 2
                    if li >= seg_hi:
                        seg_lo = li
                        seg_hi = li + (_SEGMENT if span is None else _SPAN_SEGMENT)
                        if seg_hi > n_local:
                            seg_hi = n_local
                        arr_seg = arrival[seg_lo:seg_hi].tolist()
                        svc_seg = win.service_id[seg_lo:seg_hi].tolist()
                        flow_seg = win.flow_id[seg_lo:seg_hi].tolist()
                        hash_seg = win.flow_hash[seg_lo:seg_hi].tolist()
                    k = li - seg_lo
                    t = arr_seg[k]
                    if t > t_ns:
                        break
                    if ev_heap and ev_heap[0][0] <= t:
                        complete_until(t)
                    if sample is not None:
                        sample(t)
                    metrics.generated += 1
                    sid = svc_seg[k]
                    gen_per_service[sid] += 1
                    if batch_on:
                        # any table mutation since the plan — by the
                        # completions/timed events just drained, or by a
                        # previous packet's scalar fallback — bumped the
                        # epoch: replan the remaining suffix.  Also
                        # replan on walking off a non-empty span.
                        if sched.map_epoch != col_epoch or (
                            li >= ch and li > plan_li
                        ):
                            self._plan_column(li)
                            col = self._col
                            cl = self._col_lo
                            ch = self._col_hi
                            col_epoch = self._col_epoch
                            plan_li = self._col_plan_li
                        if cl <= li < ch:
                            core = col[li - cl]
                            if core < 0:
                                # sentinel: this packet needs the
                                # scalar path (e.g. stale pin pruning)
                                core = sel(flow_seg[k], sid, hash_seg[k], t)
                            elif guard is not None:
                                q = qs[core]
                                occ = cap if q.down else len(q)
                                if occ >= guard:
                                    # overloaded target: the planned
                                    # entry is invalid, run the real
                                    # balancer
                                    core = sel(flow_seg[k], sid, hash_seg[k], t)
                                elif commit is not None:
                                    commit(flow_seg[k], hash_seg[k], core, occ, t)
                            elif commit is not None:
                                commit(flow_seg[k], hash_seg[k], core, -1, t)
                        else:
                            core = sel(flow_seg[k], sid, hash_seg[k], t)
                    else:
                        core = sel(flow_seg[k], sid, hash_seg[k], t)
                    if not 0 <= core < n_cores:
                        raise SimulationError(
                            f"{sched.name} returned core {core} of {n_cores}"
                        )
                    if core_busy[core]:
                        q = qs[core]
                        if q.is_empty and on_queue_busy is not None:
                            on_queue_busy(core, t)
                        if not q.offer(base + li):
                            metrics.dropped += 1
                            drop_per_service[sid] += 1
                            if q.down:  # black-holed: the target core is dead
                                metrics.fault_dropped += 1
                            reorder.on_drop(flow_seg[k], seq.item(li))
                            if record_dep:
                                drop_records.append((flow_seg[k], seq.item(li), t))
                    else:
                        if on_queue_busy is not None:
                            on_queue_busy(core, t)
                        start_packet(core, base + li, t)
                    li += 1
            finally:
                st.next_arrival = base + li
                if li > li0:
                    st.last_arrival_ns = int(arrival[li - 1])
            if li < n_local:
                break  # the next arrival is beyond the horizon
            # release the compiled closures and unboxed segments before
            # sliding: they bind the old window's arrays (and its
            # service-time column), and holding them across the pull
            # would double the resident window at the peak
            complete_until = start_packet = None
            arr_seg = svc_seg = flow_seg = hash_seg = ()
            if not self._pull_chunk():
                break  # source exhausted: every arrival dispatched
        if self._complete_until is None:  # pragma: no cover - defensive
            self._activate()
        self._complete_until(t_ns)
        st.now_ns = t_ns

    def next_event_ns(self) -> int | None:
        """Time of the next pending instant (arrival or heap event),
        or None when nothing is left.  May pull a source chunk to see
        the next arrival (deterministic and idempotent)."""
        nxt = self.state.events.peek_time()
        t_arr = self._peek_arrival_ns()
        if t_arr is not None:
            nxt = t_arr if nxt is None else min(nxt, t_arr)
        return nxt

    def step(self) -> int | None:
        """Advance to the next event instant and process everything due
        at it; returns that time, or None when the run is quiescent.

        Note: unbounded stepping runs past the drain bound the full
        :meth:`run` would stop at — clamp against
        ``last_arrival + config.drain_ns`` to reproduce ``run()``'s
        abandonment of late in-flight packets.
        """
        nxt = self.next_event_ns()
        if nxt is None:
            return None
        self.run_until(nxt)
        return nxt

    # -- drain + report -------------------------------------------------
    def _drain(self) -> None:
        """Serve queued work after the last arrival (bounded).

        With a periodic ``sample`` hook the drain advances one sample
        period at a time so time series keep covering departures after
        the last arrival; an empty heap means nothing is in flight (a
        non-empty queue implies a busy core, which implies a pending
        completion), so further boundaries would only repeat a frozen
        state.
        """
        if self._complete_until is None:
            self._activate()
        cfg = self.config
        st = self.state
        events = st.events
        complete_until = self._complete_until
        sample = self.bus.dispatcher("sample")
        last_arrival_ns = st.last_arrival_ns
        drain_end = last_arrival_ns + cfg.drain_ns
        if sample is not None and cfg.drain_ns > 0:
            step = self.bus.sample_period_ns or cfg.drain_ns
            t = last_arrival_ns + step
            while t <= st.now_ns:  # resumed mid-drain: catch up first
                t += step
            # stop early when the next heap event is past the drain
            # bound: nothing can change before drain_end
            while t < drain_end and events:
                nxt = events.peek_time()
                if nxt is not None and nxt > drain_end:
                    break
                complete_until(t)
                sample(t)
                t += step
        if drain_end > st.now_ns:
            complete_until(drain_end)
            st.now_ns = drain_end
        if sample is not None:
            sample(max(drain_end, st.now_ns))
        st.drained = True
        # anything still in flight past the drain bound is abandoned
        # unscored (counted as neither departed nor dropped)

    def run_arrivals(self) -> int:
        """Advance through every remaining arrival (no drain).

        Returns the last arrival instant dispatched so far — the
        sharded coordinator gathers these across shards to agree on the
        *global* last arrival before anyone drains (see :meth:`finish`).
        """
        if self._finished:
            raise SimulationError("kernel already finished")
        st = self.state
        while self._peek_arrival_ns() is not None:
            # the peek pulled the window forward; run to its last
            # arrival (run_until keeps pulling if equal-time arrivals
            # straddle the chunk boundary)
            horizon = int(self.window.arrival_ns[-1])
            self.run_until(max(horizon, st.now_ns))
        return st.last_arrival_ns

    def finish(self, last_arrival_ns: int | None = None) -> SimReport:
        """Drain and finalize (arrivals must be exhausted by the caller).

        *last_arrival_ns* overrides the drain horizon's anchor when it
        is later than this kernel's own last arrival: a shard of a
        partitioned run stops receiving packets before the full system
        does, but must keep draining until ``global_last + drain_ns``
        so its departures are scored over the same window a
        single-process run would use.
        """
        st = self.state
        if last_arrival_ns is not None and int(last_arrival_ns) > st.last_arrival_ns:
            st.last_arrival_ns = int(last_arrival_ns)
        self._drain()
        return self.finalize()

    def run(self) -> SimReport:
        """Advance to completion (arrivals, then drain) and report.

        Continues from wherever previous ``step``/``run_until`` calls —
        or a restored checkpoint — left the state.  Advances one window
        at a time, so a streamed source never materializes beyond the
        live chunks.
        """
        self.run_arrivals()
        return self.finish()

    def finalize(self) -> SimReport:
        """Freeze the metrics into the immutable report (once)."""
        if self._finished:
            raise SimulationError("kernel already finished")
        self._finished = True
        st = self.state
        return st.metrics.finalize(
            duration_ns=self.source.duration_ns,
            out_of_order=st.reorder.out_of_order,
            scheduler_name=self.scheduler.name,
            scheduler_stats=self.scheduler.stats(),
            migrated_flows=int(st.flow_migrated.sum()),
            departures=tuple(st.departures),
            drop_records=tuple(st.drop_records),
        )

    # -- checkpoint / resume --------------------------------------------
    def _workload_fp(self) -> str:
        if self._wl_fp is None:
            self._wl_fp = self.source.fingerprint()
        return self._wl_fp

    def checkpoint(self) -> Checkpoint:
        """Serialize the paused run (between advances) for later resume.

        Probes are *not* captured — re-attach fresh ones at resume; the
        time series restarts but the simulation outcome is unaffected
        (sampling never mutates run state).  A non-materialized source
        contributes its cursor and the live window chunks, so resuming
        against a same-spec source continues generation mid-chunk with
        no replay.
        """
        if self._finished:
            raise SimulationError("cannot checkpoint a finished run")
        extras = None
        if not isinstance(self.source, MaterializedSource):
            extras = {
                "source_cls": type(self.source).__qualname__,
                "snapshot": self.source.snapshot(),
                "chunks": list(self._chunks),
                "exhausted": self._exhausted,
            }
        st = self.state
        payload = (st, self.scheduler, self.injector, extras)
        # v4: the blob stores an EventSnapshot, not the live queue
        live_events = st.events
        st.events = live_events.snapshot()
        try:
            blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise SimulationError(
                f"run state is not serializable: {exc}"
            ) from exc
        finally:
            st.events = live_events
        return Checkpoint(
            version=CHECKPOINT_VERSION,
            time_ns=self.state.now_ns,
            blob=blob,
            config_fingerprint=_config_fingerprint(self.config),
            workload_fingerprint=self._workload_fp(),
        )

    @classmethod
    def resume(
        cls,
        checkpoint: Checkpoint,
        config: SimConfig,
        workload: Workload | PacketSource,
        *,
        probe=None,
        bus: HookBus | None = None,
        vectorized: bool = True,
    ) -> "SimKernel":
        """Rebuild a kernel from *checkpoint* and continue the run.

        *vectorized* need not match the checkpointing kernel's setting:
        planned columns are never serialized and every scheduler's
        batch bookkeeping is committed per dispatched packet, so either
        mode resumes to the same report: a checkpoint taken with the
        span drain on resumes bit-identically on the scalar path and
        vice versa (pinned by ``tests/sim/test_engine_parity.py``).

        *config* and *workload* must describe the packet sequence the
        checkpointed run used (validated by fingerprint — materialized
        and streamed builds of the same spec share it, so a streamed
        checkpoint resumes against a materialized workload and vice
        versa).  When *workload* is a source of the same class the
        checkpoint's cursor snapshot restores it mid-stream; otherwise
        the window is rebuilt by pulling (and immediately retiring)
        chunks up to the saved position.  The scheduler and injector
        come back from the checkpoint with their state intact.
        """
        if checkpoint.version != CHECKPOINT_VERSION:
            raise SimulationError(
                f"checkpoint version {checkpoint.version} unsupported "
                f"(expected {CHECKPOINT_VERSION})"
            )
        if _config_fingerprint(config) != checkpoint.config_fingerprint:
            raise SimulationError(
                "checkpoint was taken under a different SimConfig"
            )
        if workload_fingerprint(workload) != checkpoint.workload_fingerprint:
            raise SimulationError(
                "checkpoint was taken against a different workload"
            )
        state, scheduler, injector, extras = pickle.loads(checkpoint.blob)
        if isinstance(state.events, EventSnapshot):
            state.events = EventQueue.from_snapshot(state.events)
        chunks = None
        exhausted = False
        source_arg = workload
        if isinstance(workload, PacketSource):
            source_arg = workload.clone()
            if (
                extras is not None
                and type(workload).__qualname__ == extras["source_cls"]
            ):
                source_arg.restore(extras["snapshot"])
                chunks = extras["chunks"]
                exhausted = extras["exhausted"]
        kernel = cls(
            config, scheduler, source_arg, bus=bus, state=state,
            vectorized=vectorized, _resumed=True,
            _chunks=chunks, _exhausted=exhausted,
        )
        if injector is not None:
            kernel.attach_injector(injector, resumed=True)
        if probe is not None:
            kernel.attach_probe(probe)
        return kernel
