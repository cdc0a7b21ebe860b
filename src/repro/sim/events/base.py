"""A minimal discrete-event core: a monotone event heap.

Events are ``(time_ns, seq, payload)`` tuples in a binary heap; ``seq``
is a monotonically increasing tiebreaker so simultaneous events pop in
insertion order (deterministic) and payloads are never compared.  The
simulator's hot loop pushes one completion event per packet, so the
queue is deliberately tuple-based — no Event objects, no allocation
beyond the tuple itself (per the HPC guidance: keep the inner loop free
of attribute lookups).

:class:`EventSnapshot` is the queue's serialized form — checkpoint blob
v4 stores a snapshot instead of the live heap (the snapshot carries the
exact ``(time, seq)`` pairs, the tie-break counter and the pop
bookkeeping, which is everything ordering-relevant).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Iterator

from repro.errors import SimulationError

__all__ = ["EventQueue", "EventSnapshot"]


@dataclass(frozen=True)
class EventSnapshot:
    """Image of a paused event queue.

    ``entries`` is the pending set sorted by ``(time_ns, seq)`` — the
    exact pop order a restored queue replays — plus
    the tie-break counter, the last pop time (causality floor) and the
    lifetime pop count.
    """

    entries: tuple[tuple[int, int, Any], ...]
    seq: int
    last_pop_ns: int
    popped: int


class EventQueue:
    """Time-ordered event heap with deterministic tie-breaking."""

    __slots__ = ("_heap", "_seq", "_last_pop_ns", "popped")

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Any]] = []
        self._seq = 0
        self._last_pop_ns = -1
        #: lifetime count of popped events (profiling signal)
        self.popped = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, time_ns: int, payload: Any) -> None:
        """Schedule *payload* at *time_ns*.

        Scheduling into the past (before the last popped event) is a
        causality violation and raises :class:`SimulationError`.
        """
        if time_ns < self._last_pop_ns:
            raise SimulationError(
                f"event scheduled at {time_ns} ns, before current time "
                f"{self._last_pop_ns} ns"
            )
        heapq.heappush(self._heap, (time_ns, self._seq, payload))
        self._seq += 1

    def peek_time(self) -> int | None:
        """Timestamp of the next event, or None when empty."""
        return self._heap[0][0] if self._heap else None

    @property
    def heap(self) -> list[tuple[int, int, Any]]:
        """The raw heap list, for compiled consumers that inline
        ``heapq.heappop`` and batch the bookkeeping through
        :meth:`flush_pops`.  Treat as read-and-heappop-only."""
        return self._heap

    def flush_pops(self, count: int, last_pop_ns: int) -> None:
        """Record *count* events popped directly off :attr:`heap`, the
        last at *last_pop_ns*.  Callers must flush before anything that
        reads :attr:`popped` / :attr:`now_ns` or pushes new events."""
        self.popped += count
        self._last_pop_ns = last_pop_ns

    @property
    def now_ns(self) -> int:
        """Time of the last popped event (-1 before the first pop) —
        the earliest instant a new event may be scheduled at."""
        return self._last_pop_ns

    def pop(self) -> tuple[int, Any]:
        """Remove and return ``(time_ns, payload)`` of the next event."""
        if not self._heap:
            raise SimulationError("pop from an empty event queue")
        time_ns, _, payload = heapq.heappop(self._heap)
        self._last_pop_ns = time_ns
        self.popped += 1
        return time_ns, payload

    def pop_until(self, horizon_ns: int) -> Iterator[tuple[int, Any]]:
        """Yield events with ``time <= horizon_ns`` in order.

        The caller may push new events while iterating (a completion
        starting the next packet); newly pushed events inside the
        horizon are yielded too.
        """
        while self._heap and self._heap[0][0] <= horizon_ns:
            yield self.pop()

    def clear(self) -> None:
        """Reset to the freshly constructed state.

        The tie-break counter restarts too: a cleared queue must replay
        a push sequence with the same (time, seq) pairs as a new one,
        otherwise two runs sharing a recycled queue would order
        simultaneous events differently.
        """
        self._heap.clear()
        self._seq = 0
        self._last_pop_ns = -1
        self.popped = 0

    # -- checkpoint form -----------------------------------------------
    def entries(self) -> list[tuple[int, int, Any]]:
        """Pending events sorted by ``(time_ns, seq)`` (a copy)."""
        # seqs are unique, so sorted() never compares payloads
        return sorted(self._heap, key=lambda e: (e[0], e[1]))

    def snapshot(self) -> EventSnapshot:
        """Freeze the queue into an :class:`EventSnapshot`."""
        return EventSnapshot(
            entries=tuple(self.entries()),
            seq=self._seq,
            last_pop_ns=self._last_pop_ns,
            popped=self.popped,
        )

    @classmethod
    def from_snapshot(cls, snap: EventSnapshot) -> "EventQueue":
        """Rebuild a queue replaying *snap* exactly (same pop order,
        same tie-break counter, same causality floor)."""
        q = cls()
        q._heap = list(snap.entries)
        heapq.heapify(q._heap)
        q._seq = snap.seq
        q._last_pop_ns = snap.last_pop_ns
        q.popped = snap.popped
        return q

    def reset_entries(
        self,
        entries: list[tuple[int, int, Any]],
        *,
        seq: int,
        last_pop_ns: int,
        popped_delta: int,
    ) -> None:
        """Replace the pending set wholesale (the span drain's commit).

        *entries* are ``(time_ns, seq, payload)`` tuples with caller-
        assigned seqs; *seq* is the new tie-break counter,
        *last_pop_ns* the new causality floor, *popped_delta* the
        number of events the span drained without individual pops.
        The heap list is replaced in place — compiled closures bind the
        raw list (:attr:`heap`) and must keep seeing the live contents.
        """
        self._heap[:] = entries
        heapq.heapify(self._heap)
        self._seq = seq
        self._last_pop_ns = last_pop_ns
        self.popped += popped_delta
