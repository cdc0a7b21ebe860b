"""The batched span drain: arrival columns in, committed state out.

PR 5 vectorized the *scheduling* decision; the wall moved to the event
loop itself — one heap push/pop plus ~20 lines of Python bookkeeping
per packet.  This module removes that per-packet work for the common
case by draining a whole **span** of planned arrivals at once:

1. **Phase 1 — pure compute.**  Each core's span is an independent
   single-server FIFO recurrence (its in-flight packet, its queued
   backlog, its share of the planned arrivals).  :func:`simulate_core`
   runs it per core over plain-list columns and replicated copies of
   the shared state (flow→last-core, migration flags).  Nothing global
   is touched, so a bail costs nothing.
2. **Phase 2 — vectorized commit.**  The per-core results are merged
   back into the exact scalar-kernel state: event seqs are assigned in
   the precise global start order the scalar loop would have produced
   (see below), departures/latencies/metrics/queues/flow state are
   committed with numpy gathers, and the event queue's pending set is
   replaced wholesale via ``reset_entries``.

This is the state/compute split of State-Compute Replication (Xu et
al., PAPERS.md): the packet-rate recurrence runs over replicated
scalar state, and per-flow/global state is reconciled once per span.

**Exactness, not approximation.**  The scalar closures
(``vectorized=False``) remain the bit-identity oracle; a span only
commits when its semantics are provably identical, and otherwise
*bails* to scalar dispatch:

* any hook that fires per arrival (probes' ``sample``, queue
  busy/empty edges), a fault injector, killed packets, degraded core
  speeds or downed queues — bail;
* a flow resident on one core (busy/queued) while the plan maps it to
  another — the relative order of their flow-state writes would be
  cross-core — bail;
* a zero nominal service time (completions could tie their own
  starts) — bail;
* a planned ``-1`` sentinel — truncate the span before it;
* a ``batch_guard`` trip — truncate the span to the first tripping
  arrival and re-run phase 1 (rows before the trip are unaffected; the
  tripping arrival reruns scalar, exactly as the PR 5 guard contract
  prescribes).

**Exact event seqs.**  The scalar loop pushes one completion event per
started packet, seq-numbered in global start order, and a checkpoint
(or a same-timestamp pop) exposes those seqs — so the commit must
reproduce them bit for bit.  Start order is reconstructed from each
start's *trigger*: an idle-core start triggers at its arrival instant
(after all completions ≤ it — ``complete_until`` runs first), a
queue-pop start triggers at its predecessor's completion ``(fin,
seq)``.  A stable lexsort by (trigger time, trigger class, arrival
index) resolves everything except multiple queue-pop starts sharing
one trigger *time* across cores; those groups are fixed up in trigger
``seq`` order, which is well-founded because a trigger always starts
strictly earlier than the start it triggers (service times are
positive), so its own rank is already final.

**Reorder accounting.**  Departures and drops are replayed into the
:class:`~repro.sim.reorder.ReorderDetector` per flow.  Flows whose
accounted sequence numbers in merged depart/drop order are exactly
consecutive from the detector's expectation (the overwhelming case for
order-preserving schedulers) commit as one bulk counter update; any
other flow replays its events through the real ``on_depart``/
``on_drop`` methods — exact by construction.
"""

from __future__ import annotations

import time
import weakref

import numpy as np

__all__ = ["SpanDriver", "simulate_core"]

#: spans shorter than this go scalar — setup cost beats the savings
_MIN_SPAN = 64

#: after a bail, retry the span path once this many scalar arrivals
#: later (a bail cause is usually transient: a guard episode, a
#: sentinel, a conflicting leftover in a queue).  Kept small — the
#: kernel doubles it per consecutive bail up to its ceiling, so
#: persistent bail causes still settle at a cheap cadence while a
#: one-packet guard episode no longer costs hundreds of scalar
#: arrivals
RETRY_STRIDE = 64

_NO_GUARD = 1 << 60

#: adaptive span-cap bounds (see ``SpanDriver._cap``); the ceiling
#: bounds the per-attempt buffers — a larger cap only grows resident
#: memory, since committed results are identical for any cap
_CAP_INIT = 2048
_CAP_MIN = 512
_CAP_MAX = 1 << 13


def simulate_core(
    core_id,
    n_rows,      # total rows: [busy?] + queued prelude + span arrivals
    n_pre,       # prelude rows (busy + queued); arrivals start here
    has_busy,    # 1 when row 0 is the in-flight packet, else 0
    busy_fin,    # its completion time (undefined when idle)
    arr_t,       # [n_rows] arrival times (admission driver for span rows)
    proc,        # [n_rows] nominal service ns (eq. 3 without penalties)
    sid,         # [n_rows] service ids
    floc,        # [n_rows] dense flow index
    flow_last,   # [n_flows] dense last-core overlay (mutated)
    migrated,    # [n_flows] migration flags 0/1 (mutated)
    last_sid,    # core_last_service at span start
    guard,       # occupancy guard (a huge value when unguarded)
    cap,         # queue capacity
    fm_pen,
    cc_pen,
    t_h,         # drain horizon: the span's last global arrival time
    # preallocated outputs, all [n_rows(+1)]:
    order_buf,   # rows in service order (busy prelude first)
    fin_buf,     # completion time per served row, aligned with order_buf
    kind_buf,    # 1 = started on an idle-core arrival, 0 = queue pop
    drop_buf,    # dropped row ids, first n_drops valid
    queue_buf,   # FIFO ring storage
    occ_buf,     # [span rows] pre-offer occupancy per admitted arrival
    out,         # [OUT_SLOTS] scalar outputs (unpacked by SpanDriver)
):
    """One core's span recurrence: admit / drop / start / complete.

    Bit-for-bit the scalar kernel's per-core behaviour: completions at
    or before an arrival instant drain first, the guard is read on the
    pre-offer occupancy, a full queue drops, an idle core starts the
    arrival immediately, and after the last arrival completions keep
    chaining up to *t_h* (the global arrival loop would have drained
    them inside the span).  Flow-migration and cold-cache penalties
    mutate the replicated ``flow_last``/``last_sid`` copies exactly as
    ``start_packet`` would.

    Pure with respect to simulator state: everything it writes is a
    caller-owned buffer or copy, so a bail discards the attempt at zero
    cost.  Returns nothing; scalars land in ``out``.  Written in a
    plain array-index style (preallocated outputs, a ring buffer for
    the FIFO, no containers grown) so it ports to a compiled language
    line for line.
    """
    head = 0
    tail = 0
    q_start = has_busy
    for r in range(q_start, n_pre):
        queue_buf[tail] = r
        tail += 1
    served = 0
    if has_busy:
        order_buf[0] = 0
        fin_buf[0] = busy_fin
        kind_buf[0] = 0
        served = 1
    cur = 0 if has_busy else -1
    cur_fin = busy_fin if has_busy else 0
    fm = 0
    cc = 0
    busy_add = 0
    n_drops = 0
    max_occ = 0
    trip = -1
    r = n_pre
    while r < n_rows:
        t = arr_t[r]
        while cur >= 0 and cur_fin <= t:
            # completion: pop the FIFO or go idle
            if head < tail:
                nxt = queue_buf[head]
                head += 1
                p = proc[nxt]
                f = floc[nxt]
                last = flow_last[f]
                if last >= 0 and last != core_id:
                    p += fm_pen
                    fm += 1
                    migrated[f] = 1
                flow_last[f] = core_id
                s = sid[nxt]
                if last_sid != s:
                    if last_sid >= 0:
                        p += cc_pen
                        cc += 1
                    last_sid = s
                busy_add += p
                order_buf[served] = nxt
                fin_buf[served] = cur_fin + p
                kind_buf[served] = 0
                served += 1
                cur = nxt
                cur_fin = cur_fin + p
            else:
                cur = -1
        occ = tail - head
        if occ >= guard:
            trip = r
            break
        # the occupancy the scalar guard/commit would have read for
        # this arrival (pre-offer, post-drain)
        occ_buf[r - n_pre] = occ
        if cur >= 0:
            if occ >= cap:
                drop_buf[n_drops] = r
                n_drops += 1
            else:
                queue_buf[tail] = r
                tail += 1
                if occ + 1 > max_occ:
                    max_occ = occ + 1
        else:
            p = proc[r]
            f = floc[r]
            last = flow_last[f]
            if last >= 0 and last != core_id:
                p += fm_pen
                fm += 1
                migrated[f] = 1
            flow_last[f] = core_id
            s = sid[r]
            if last_sid != s:
                if last_sid >= 0:
                    p += cc_pen
                    cc += 1
                last_sid = s
            busy_add += p
            order_buf[served] = r
            fin_buf[served] = t + p
            kind_buf[served] = 1
            served += 1
            cur = r
            cur_fin = t + p
        r += 1
    # post-arrival drain: the global loop's complete_until calls keep
    # popping this core's chain while later arrivals land elsewhere
    while cur >= 0 and cur_fin <= t_h:
        if head < tail:
            nxt = queue_buf[head]
            head += 1
            p = proc[nxt]
            f = floc[nxt]
            last = flow_last[f]
            if last >= 0 and last != core_id:
                p += fm_pen
                fm += 1
                migrated[f] = 1
            flow_last[f] = core_id
            s = sid[nxt]
            if last_sid != s:
                if last_sid >= 0:
                    p += cc_pen
                    cc += 1
                last_sid = s
            busy_add += p
            order_buf[served] = nxt
            fin_buf[served] = cur_fin + p
            kind_buf[served] = 0
            served += 1
            cur = nxt
            cur_fin = cur_fin + p
        else:
            cur = -1
    # departed = the service-order prefix with fin <= t_h (fins are
    # strictly increasing along the chain)
    n_dep = 0
    while n_dep < served and fin_buf[n_dep] <= t_h:
        n_dep += 1
    out[0] = served
    out[1] = n_dep
    out[2] = cur
    out[3] = cur_fin if cur >= 0 else -1
    out[4] = head
    out[5] = tail
    out[6] = fm
    out[7] = cc
    out[8] = busy_add
    out[9] = n_drops
    out[10] = max_occ
    out[11] = trip
    out[12] = last_sid


#: scalar-output slot count for the ``out`` buffer above
OUT_SLOTS = 13


class SpanDriver:
    """Per-kernel orchestrator for the batched span drain.

    Bound to one :class:`~repro.sim.kernel.SimKernel`, which owns it
    and calls :meth:`attempt` from its arrival loop; each attempt
    commits as many consecutive spans as stay eligible and returns the
    new local arrival index (unchanged on an immediate bail).
    """

    def __init__(self, kernel) -> None:
        # a weak back-reference: the kernel holds this object, and a
        # strong one both ways would be a cycle keeping a finished
        # run's workload window and state alive until the cyclic
        # collector next runs
        self._kernel_ref = weakref.ref(kernel)
        #: committed spans / bailed attempts / packets committed —
        #: profiling signals (``SimKernel.span_stats``)
        self.spans_committed = 0
        self.spans_bailed = 0
        self.packets_spanned = 0
        #: wall-clock phase split of committed spans (perf_counter_ns):
        #: phase-1 per-core simulation vs phase-2 state commit
        #: (including the scheduler's span commit).  Plan time lives on
        #: the kernel (``SimKernel.plan_ns``) — together the three make
        #: the bench report's plan/drain/commit breakdown.
        self.drain_ns = 0
        self.commit_ns = 0
        #: adaptive attempt-size cap (AIMD): a guard trip re-runs
        #: phase 1 truncated, so oversizing an attempt during an
        #: overload episode costs the whole surplus — shrink toward the
        #: observed trip distance on a trip, double back on a clean
        #: commit that filled the cap.  Purely a work bound; committed
        #: results are identical for any attempt size.
        self._cap = _CAP_INIT

    # ------------------------------------------------------------------
    def attempt(self, li: int, horizon_ns: int) -> int:
        """Drain consecutive spans starting at local index *li*; stop
        at the first bail or at *horizon_ns*.  Returns the new li."""
        while True:
            li2 = self._one_span(li, horizon_ns)
            if li2 == li:
                self.spans_bailed += 1
                return li
            li = li2

    # ------------------------------------------------------------------
    def _one_span(self, li: int, horizon_ns: int) -> int:
        k = self._kernel_ref()
        st = k.state
        cfg = k.config
        sched = k.scheduler

        batch_commit = sched.batch_commit
        commit_span = getattr(sched, "batch_commit_span", None)
        if not getattr(sched, "commit_vectorized", False):
            # an unvectorized batch_commit_span buys nothing over the
            # driver's own replay loop below — ignore it so a scalar
            # loop can't masquerade as a batch-native commit
            commit_span = None
        if st.killed_pkts or k.injector is not None:
            return li
        bus = k.bus
        if (
            bus.dispatcher("sample") is not None
            or bus.dispatcher("queue_busy") is not None
            or bus.dispatcher("queue_empty") is not None
        ):
            return li
        n_cores = cfg.num_cores
        if st.core_speed.count(1.0) != n_cores:
            return li
        queues = st.queues
        core_busy = st.core_busy
        core_current = st.core_current_pkt
        for c in range(n_cores):
            if queues[c].down:
                return li
            if not core_busy[c] and len(queues[c]):
                return li  # broken invariant: queued work on an idle core

        # every pending event must be the completion of a busy core's
        # current packet (no timed events, exactly one per busy core)
        events = st.events
        busy_ev: dict[int, tuple[int, int]] = {}
        for t_ev, s_ev, payload in events.entries():
            if type(payload) is not tuple or len(payload) != 2:
                return li
            c_ev, p_ev = payload
            if c_ev < 0 or c_ev in busy_ev or core_current[c_ev] != p_ev:
                return li
            busy_ev[c_ev] = (t_ev, s_ev)
        for c in range(n_cores):
            if core_busy[c] != (c in busy_ev):
                return li

        # -- column coverage (same replan rule as the scalar loop) -----
        if sched.map_epoch != k._col_epoch or (
            li >= k._col_hi and li > k._col_plan_li
        ):
            k._plan_column(li)
        cl = k._col_lo
        if not (cl <= li < k._col_hi) or k._col_arr is None:
            return li
        win = k.window
        nominal = k._nominal
        if nominal is None:
            return li
        arrival = win.arrival_ns
        hi = li + int(
            np.searchsorted(arrival[li : k._col_hi], horizon_ns, side="right")
        )
        if hi - li < _MIN_SPAN:
            return li
        if hi - li > self._cap:
            hi = li + self._cap
        cores = np.asarray(k._col_arr[li - cl : hi - cl], dtype=np.int64)
        neg = np.nonzero(cores < 0)[0]
        if neg.size:
            hi = li + int(neg[0])
            if hi - li < _MIN_SPAN:
                return li
            cores = cores[: hi - li]
        span_n = hi - li

        base = win.base
        arr_span = arrival[li:hi]
        fid_span = win.flow_id[li:hi]
        proc_span = nominal[li:hi]
        if int(proc_span.min()) <= 0:
            return li

        # -- prelude: per-core in-flight + queued packets --------------
        pre_pkts: list[list[int]] = []
        for c in range(n_cores):
            rows = [core_current[c]] if core_busy[c] else []
            rows.extend(queues[c]._items)
            pre_pkts.append(rows)
        pre_all = [g for rows in pre_pkts for g in rows]
        n_win = len(win)
        if pre_all:
            pre_lrow = np.asarray(pre_all, dtype=np.int64) - base
            if int(pre_lrow.min()) < 0 or int(pre_lrow.max()) >= n_win:
                return li  # prelude packet outside the live window
            if int(nominal[pre_lrow].min()) <= 0:
                return li
            pre_fid = win.flow_id[pre_lrow]
            pre_core = np.repeat(
                np.arange(n_cores, dtype=np.int64),
                [len(rows) for rows in pre_pkts],
            )
        else:
            pre_lrow = np.empty(0, dtype=np.int64)
            pre_fid = np.empty(0, dtype=np.int64)
            pre_core = np.empty(0, dtype=np.int64)

        # -- dense flow table + cross-core conflict detection ----------
        all_fid = np.concatenate([pre_fid, np.asarray(fid_span, dtype=np.int64)])
        all_core = np.concatenate([pre_core, np.asarray(cores, dtype=np.int64)])
        uniq, inv = np.unique(all_fid, return_inverse=True)
        fcore = np.empty(uniq.size, dtype=np.int64)
        fcore[inv] = all_core  # last write wins
        if not np.array_equal(fcore[inv], all_core):
            return li  # a flow spans two cores: write order matters
        n_pre_all = pre_fid.size
        inv_pre = inv[:n_pre_all]
        inv_span = inv[n_pre_all:]
        flow_last_core = st.flow_last_core
        uniq_list = uniq.tolist()
        init_last = [flow_last_core[f] for f in uniq_list]

        guard = sched.batch_guard
        guard_val = guard if guard is not None else _NO_GUARD
        cap = cfg.queue_capacity
        fm_pen = cfg.fm_penalty_ns
        cc_pen = cfg.cc_penalty_ns
        sid_win = win.service_id

        # span rows grouped by core, arrival order preserved
        order = np.argsort(cores, kind="stable")
        bounds = np.searchsorted(cores[order], np.arange(n_cores + 1))
        pre_off = np.zeros(n_cores + 1, dtype=np.int64)
        np.cumsum([len(rows) for rows in pre_pkts], out=pre_off[1:])

        last_service = st.core_last_service

        def run_phase1(S: int):
            """Phase 1 over span prefix [0, S): pure, committable."""
            t_h = int(arr_span[S - 1])
            flow_last = list(init_last)
            migrated = [0] * len(init_last)
            per_core = []
            for c in range(n_cores):
                rows_all = order[bounds[c] : bounds[c + 1]]
                cut = int(np.searchsorted(rows_all, S))
                rows_c = rows_all[:cut]
                n_pre_c = len(pre_pkts[c])
                hb = 1 if core_busy[c] else 0
                n_rows = n_pre_c + rows_c.size
                if n_rows == 0:
                    per_core.append(None)
                    continue
                p_lo, p_hi = int(pre_off[c]), int(pre_off[c + 1])
                lrow = np.concatenate([pre_lrow[p_lo:p_hi], li + rows_c])
                arr_t = np.concatenate(
                    [np.zeros(n_pre_c, dtype=np.int64), arr_span[rows_c]]
                )
                proc = nominal[lrow]
                sid = sid_win[lrow].astype(np.int64)
                floc = np.concatenate([inv_pre[p_lo:p_hi], inv_span[rows_c]])
                busy_fin = busy_ev[c][0] if hb else 0
                nb = n_rows + 1
                order_buf = [0] * nb
                fin_buf = [0] * nb
                kind_buf = [0] * nb
                drop_buf = [0] * nb
                queue_buf = [0] * nb
                occ_buf = [0] * (rows_c.size + 1)
                out = [0] * OUT_SLOTS
                simulate_core(
                    c, n_rows, n_pre_c, hb, busy_fin,
                    arr_t.tolist(), proc.tolist(), sid.tolist(), floc.tolist(),
                    flow_last, migrated,
                    last_service[c], guard_val, cap, fm_pen, cc_pen, t_h,
                    order_buf, fin_buf, kind_buf, drop_buf, queue_buf,
                    occ_buf, out,
                )
                per_core.append(
                    (rows_c, lrow, order_buf, fin_buf, kind_buf,
                     drop_buf, queue_buf, occ_buf, out)
                )
            return t_h, flow_last, migrated, per_core

        S = span_n
        t_drain0 = time.perf_counter_ns()
        t_h, flow_last, migrated, per_core = run_phase1(S)
        self.drain_ns += time.perf_counter_ns() - t_drain0

        # guard trip: truncate to the first tripping arrival and re-run
        trip_rows = []
        for c in range(n_cores):
            r = per_core[c]
            if r is not None and r[8][11] >= 0:
                n_pre_c = len(pre_pkts[c])
                trip_rows.append(int(r[0][r[8][11] - n_pre_c]))
        if trip_rows:
            S = min(trip_rows)
            # shrink the next attempt toward the observed trip
            # distance: re-running past it is pure waste
            self._cap = max(_CAP_MIN, 1 << max(S, 1).bit_length())
            if S < _MIN_SPAN:
                return li
            t_drain0 = time.perf_counter_ns()
            t_h, flow_last, migrated, per_core = run_phase1(S)
            self.drain_ns += time.perf_counter_ns() - t_drain0
            for r in per_core:
                if r is not None and r[8][11] >= 0:  # pragma: no cover
                    return li  # defensive: a re-run must not trip

        # ==============================================================
        # Phase 2: commit.  From here on nothing can bail.
        # ==============================================================
        t_commit0 = time.perf_counter_ns()
        base_seq = events._seq

        # -- per-core served entries → global started/departed arrays --
        g_T, g_kind, g_tie, g_prev, g_prevseq = [], [], [], [], []
        g_fin, g_core, g_lrow = [], [], []
        d_fin, d_seq_parts, d_lrow = [], [], []
        dep_entry_started = []  # per departed entry: global started idx or -1
        ends = []  # per core: (started entries slice, e_* views) for later
        n_started = 0
        n_busy_dep = 0
        for c in range(n_cores):
            r = per_core[c]
            if r is None:
                ends.append(None)
                continue
            rows_c, lrow, order_buf, fin_buf, kind_buf = r[0], r[1], r[2], r[3], r[4]
            out = r[8]
            served, n_dep = out[0], out[1]
            e_row = np.asarray(order_buf[:served], dtype=np.int64)
            e_fin = np.asarray(fin_buf[:served], dtype=np.int64)
            e_kind = np.asarray(kind_buf[:served], dtype=np.int64)
            hb = 1 if core_busy[c] else 0
            n_pre_c = len(pre_pkts[c])
            # started entries: all served except the pre-span busy head
            s0 = hb  # first started entry index within e_*
            ns_c = served - s0
            if ns_c:
                sk = e_kind[s0:]
                arr_mask = sk == 1
                pop_mask = ~arr_mask
                # trigger time: arrival instant for idle-core starts,
                # predecessor completion time for queue pops
                tT = np.empty(ns_c, dtype=np.int64)
                srow_started = np.zeros(ns_c, dtype=np.int64)
                if arr_mask.any():
                    sr = rows_c[(e_row[s0:][arr_mask] - n_pre_c)]
                    srow_started[arr_mask] = sr
                    tT[arr_mask] = arr_span[sr]
                if pop_mask.any():
                    jj = np.nonzero(pop_mask)[0] + s0
                    tT[pop_mask] = e_fin[jj - 1]
                g_T.append(tT)
                # sort class: pops (kind 0) before arrival starts
                # (kind 1) at equal instants — complete_until first
                g_kind.append(sk)
                g_tie.append(srow_started)
                # predecessor started index (global) or -1 when the
                # trigger is the pre-span busy completion
                prev = np.arange(s0, served, dtype=np.int64) - 1
                prev_started = np.where(
                    prev >= s0, n_started + prev - s0, -1
                )
                prev_is_pop = pop_mask
                g_prev.append(np.where(prev_is_pop, prev_started, -1))
                g_prevseq.append(
                    np.full(ns_c, busy_ev[c][1] if hb else -1, dtype=np.int64)
                )
                g_fin.append(e_fin[s0:])
                g_core.append(np.full(ns_c, c, dtype=np.int64))
                g_lrow.append(lrow[e_row[s0:]])
            ends.append((r, e_row, e_fin, e_kind, s0, ns_c, n_started))
            # departures: first n_dep served entries (chain order)
            if n_dep:
                d_fin.append(e_fin[:n_dep])
                d_lrow.append(lrow[e_row[:n_dep]])
                started_idx = np.arange(n_dep, dtype=np.int64) - s0 + n_started
                if hb:
                    started_idx[0] = -1  # busy head keeps its original seq
                    n_busy_dep += 1
                dep_entry_started.append(started_idx)
                d_seq_parts.append(
                    np.full(n_dep, busy_ev[c][1] if hb else 0, dtype=np.int64)
                )
            n_started += ns_c

        if n_started:
            g_T = np.concatenate(g_T)
            g_kind = np.concatenate(g_kind)
            g_tie = np.concatenate(g_tie)
            g_prev = np.concatenate(g_prev)
            g_prevseq = np.concatenate(g_prevseq)
            g_fin = np.concatenate(g_fin)
            g_core = np.concatenate(g_core)
            g_lrow = np.concatenate(g_lrow)
        else:
            g_T = g_kind = g_tie = g_prev = g_prevseq = np.empty(0, np.int64)
            g_fin = g_core = g_lrow = np.empty(0, np.int64)

        # -- exact global start ranks ----------------------------------
        # class 0 = queue-pop starts (complete_until runs before the
        # arrival dispatch at equal instants), class 1 = arrival starts
        # ordered by arrival index; g_kind was built as (1 - kind).
        ord0 = np.lexsort((g_tie, g_kind, g_T))
        rank = np.empty(n_started, dtype=np.int64)
        rank[ord0] = np.arange(n_started, dtype=np.int64)
        if n_started > 1:
            sT = g_T[ord0]
            sk0 = g_kind[ord0] == 0
            linked = np.zeros(n_started, dtype=bool)
            linked[1:] = (sT[1:] == sT[:-1]) & sk0[1:] & sk0[:-1]
            if linked.any():
                # fix up each multi-pop tie group in trigger-seq order;
                # left to right, so trigger ranks are already final
                pos = np.nonzero(linked)[0]
                runs: list[tuple[int, int]] = []
                start = int(pos[0]) - 1
                prev_p = int(pos[0])
                for p in pos[1:].tolist():
                    if p != prev_p + 1:
                        runs.append((start, prev_p))
                        start = p - 1
                    prev_p = p
                runs.append((start, prev_p))
                for lo, hi_r in runs:
                    members = ord0[lo : hi_r + 1].tolist()
                    tseqs = [
                        int(g_prevseq[m])
                        if g_prev[m] < 0
                        else base_seq + int(rank[g_prev[m]])
                        for m in members
                    ]
                    fixed = [m for _, m in sorted(zip(tseqs, members))]
                    for off, m in enumerate(fixed):
                        rank[m] = lo + off
                    ord0[lo : hi_r + 1] = fixed

        # -- departures in exact pop order -----------------------------
        n_dep_total = 0
        if d_fin:
            dep_fin = np.concatenate(d_fin)
            dep_lrow = np.concatenate(d_lrow)
            dep_started = np.concatenate(dep_entry_started)
            dep_seq = np.concatenate(d_seq_parts)
            m = dep_started >= 0
            dep_seq[m] = base_seq + rank[dep_started[m]]
            ord_dep = np.lexsort((dep_seq, dep_fin))
            dep_fin = dep_fin[ord_dep]
            dep_lrow = dep_lrow[ord_dep]
            dep_seq = dep_seq[ord_dep]
            n_dep_total = int(dep_fin.size)
            dep_flow = win.flow_id[dep_lrow]
            dep_pseq = win.seq[dep_lrow]
            dep_arr = win.arrival_ns[dep_lrow]
        else:
            dep_fin = dep_lrow = dep_seq = np.empty(0, np.int64)
            dep_flow = dep_pseq = dep_arr = np.empty(0, np.int64)

        # -- drops in arrival order ------------------------------------
        drop_srows = []
        for c in range(n_cores):
            r = per_core[c]
            if r is None:
                continue
            nd = r[8][9]
            if nd:
                n_pre_c = len(pre_pkts[c])
                rows_c = r[0]
                tb = np.asarray(r[5][:nd], dtype=np.int64)
                drop_srows.append(rows_c[tb - n_pre_c])
                queues[c].drops += nd
        if drop_srows:
            drop_srow = np.sort(np.concatenate(drop_srows))
            drop_t = arr_span[drop_srow]
            drop_lrow = li + drop_srow
            drop_flow = win.flow_id[drop_lrow]
            drop_pseq = win.seq[drop_lrow]
        else:
            drop_srow = drop_t = np.empty(0, np.int64)
            drop_flow = drop_pseq = np.empty(0, np.int64)
        n_drop_total = int(drop_srow.size)

        # -- metrics counters ------------------------------------------
        metrics = st.metrics
        metrics.generated += S
        gen_counts = np.bincount(
            win.service_id[li : li + S], minlength=metrics.num_services
        )
        gps = metrics.generated_per_service
        for s_id in np.nonzero(gen_counts)[0].tolist():
            gps[s_id] += int(gen_counts[s_id])
        if n_drop_total:
            metrics.dropped += n_drop_total
            dcnt = np.bincount(
                win.service_id[drop_lrow], minlength=metrics.num_services
            )
            dps = metrics.dropped_per_service
            for s_id in np.nonzero(dcnt)[0].tolist():
                dps[s_id] += int(dcnt[s_id])
        busy_ns = metrics.busy_ns_per_core
        for c in range(n_cores):
            r = per_core[c]
            if r is None:
                continue
            out = r[8]
            busy_ns[c] += out[8]
            metrics.flow_migration_events += out[6]
            metrics.cold_cache_events += out[7]
        if n_dep_total:
            metrics.departed += n_dep_total
            metrics.last_depart_ns = int(dep_fin[-1])
        if cfg.collect_latencies:
            metrics.latencies_ns.extend((dep_fin - dep_arr).tolist())
        if cfg.record_departures:
            st.departures.extend(
                zip(dep_flow.tolist(), dep_pseq.tolist(), dep_fin.tolist())
            )
            st.drop_records.extend(
                zip(drop_flow.tolist(), drop_pseq.tolist(), drop_t.tolist())
            )

        # -- reorder accounting ----------------------------------------
        self._commit_reorder(
            st.reorder, dep_fin, dep_seq, dep_flow, dep_pseq,
            drop_t, drop_srow, drop_flow, drop_pseq,
        )

        # -- flow state ------------------------------------------------
        mig = np.asarray(migrated, dtype=bool)
        if mig.any():
            st.flow_migrated[uniq[mig]] = True
        for f, c in zip(uniq_list, flow_last):
            flow_last_core[f] = c

        # -- core / queue / event state --------------------------------
        new_entries = []
        for c in range(n_cores):
            info = ends[c]
            if info is None:
                # untouched core: its pre-existing event (if any) stays
                if c in busy_ev:
                    t_ev, s_ev = busy_ev[c]
                    new_entries.append((t_ev, s_ev, (c, core_current[c])))
                continue
            r, e_row, e_fin, e_kind, s0, ns_c, started_off = info
            rows_c, lrow = r[0], r[1]
            out = r[8]
            served, cur = out[0], out[2]
            head, tail = out[4], out[5]
            q = queues[c]
            items = q._items
            items.clear()
            if tail > head:
                qrows = np.asarray(r[6][head:tail], dtype=np.int64)
                items.extend((base + lrow[qrows]).tolist())
            if out[10] > q.peak:
                q.peak = out[10]
            last_service[c] = out[12]
            if cur >= 0:
                pkt = int(base + lrow[cur])
                core_busy[c] = True
                core_current[c] = pkt
                # seq of the in-flight packet's completion event: the
                # last served entry is always the current one
                j = served - 1
                if j < s0:  # the pre-span busy packet never completed
                    ev_seq = busy_ev[c][1]
                else:
                    ev_seq = base_seq + int(rank[started_off + (j - s0)])
                new_entries.append((int(e_fin[j]), ev_seq, (c, pkt)))
            else:
                core_busy[c] = False
                core_current[c] = -1
        last_pop = int(dep_fin[-1]) if n_dep_total else events._last_pop_ns
        events.reset_entries(
            new_entries,
            seq=base_seq + n_started,
            last_pop_ns=last_pop,
            popped_delta=n_dep_total,
        )

        # -- scheduler per-packet bookkeeping --------------------------
        if batch_commit is not None:
            if guard is not None:
                occs = np.empty(S, dtype=np.int64)
                for c in range(n_cores):
                    r = per_core[c]
                    if r is None:
                        continue
                    rows_c = r[0]
                    if rows_c.size:
                        occs[rows_c] = np.asarray(
                            r[7][: rows_c.size], dtype=np.int64
                        )
            else:
                occs = np.full(S, -1, dtype=np.int64)
            if commit_span is not None:
                commit_span(
                    win.flow_id[li : li + S],
                    win.flow_hash[li : li + S],
                    cores[:S],
                    occs,
                    arr_span[:S],
                )
            else:
                # generic fallback: replay the per-packet hook in
                # arrival order (exactly what a scalar
                # ``batch_commit_span`` would do)
                for f, h, cc, o, t in zip(
                    win.flow_id[li : li + S].tolist(),
                    win.flow_hash[li : li + S].tolist(),
                    cores[:S].tolist(),
                    occs.tolist(),
                    arr_span[:S].tolist(),
                ):
                    batch_commit(f, h, cc, o, t)

        self.commit_ns += time.perf_counter_ns() - t_commit0
        self.spans_committed += 1
        self.packets_spanned += S
        if not trip_rows and S == self._cap and self._cap < _CAP_MAX:
            self._cap *= 2  # clean full-cap commit: probe larger spans
        return li + S

    # ------------------------------------------------------------------
    @staticmethod
    def _commit_reorder(
        det, dep_fin, dep_seq, dep_flow, dep_pseq,
        drop_t, drop_srow, drop_flow, drop_pseq,
    ) -> None:
        """Apply the span's departures and drops to the detector.

        The merged accounting order is (time, departs-before-drops,
        event seq / arrival index): ``complete_until(t)`` pops every
        fin ≤ t before the arrival at t runs its drop.  The detector is
        per-flow state, so flows are committed independently: bulk for
        exactly-consecutive flows, method replay otherwise.
        """
        n_dep = int(dep_fin.size)
        n_drop = int(drop_t.size)
        if n_dep + n_drop == 0:
            return
        m_t = np.concatenate([dep_fin, drop_t])
        m_ph = np.concatenate(
            [np.zeros(n_dep, np.int64), np.ones(n_drop, np.int64)]
        )
        m_key = np.concatenate([dep_seq, drop_srow])
        m_flow = np.concatenate([dep_flow, drop_flow]).astype(np.int64)
        m_pseq = np.concatenate([dep_pseq, drop_pseq]).astype(np.int64)
        ord_m = np.lexsort((m_key, m_ph, m_t))
        fl = m_flow[ord_m]
        ph = m_ph[ord_m]
        ps = m_pseq[ord_m]
        ord_f = np.argsort(fl, kind="stable")  # per-flow, merged order kept
        fl = fl[ord_f]
        ph = ph[ord_f]
        ps = ps[ord_f]
        n = fl.size
        grp_start = np.empty(n, dtype=bool)
        grp_start[0] = True
        grp_start[1:] = fl[1:] != fl[:-1]
        starts = np.nonzero(grp_start)[0]
        ends = np.append(starts[1:], n)
        # a flow is bulk-committable iff its accounted seqs are strictly
        # consecutive within the span ...
        bad = np.zeros(n, dtype=bool)
        bad[1:] = (~grp_start[1:]) & (ps[1:] != ps[:-1] + 1)
        grp_bad = np.add.reduceat(bad, starts) > 0
        dep_counts = np.add.reduceat(ph == 0, starts)
        expected_map = det._next_expected
        pending = det._pending
        fl_list = fl.tolist()
        ps_list = ps.tolist()
        ph_list = ph.tolist()
        on_depart = det.on_depart
        on_drop = det.on_drop
        for gi in range(starts.size):
            lo = int(starts[gi])
            hi = int(ends[gi])
            f = fl_list[lo]
            # ... and start at the expectation with nothing pending
            if (
                not grp_bad[gi]
                and f not in pending
                and expected_map.get(f, 0) == ps_list[lo]
            ):
                cnt = hi - lo
                expected_map[f] = ps_list[lo] + cnt
                det.accounted += cnt
                det.departed += int(dep_counts[gi])
            else:
                for i in range(lo, hi):
                    if ph_list[i] == 0:
                        on_depart(f, ps_list[i])
                    else:
                        on_drop(f, ps_list[i])
