"""The event core: one event queue plus the batched span drain.

This package owns everything below the kernel's arrival loop:

* :mod:`repro.sim.events.base` — the binary-heap :class:`EventQueue`
  (completions and timed platform events in exact ``(time_ns, seq)``
  order) and the :class:`EventSnapshot` that checkpoint blob v4
  stores instead of a live queue;
* :mod:`repro.sim.events.span` — the batched arrival/departure drain
  that consumes a planned scheduler column without per-packet event
  pushes, falling back to scalar dispatch whenever a hook, fault
  event, guard trip or ordering ambiguity makes batching inexact.  It
  runs under the kernel's default ``vectorized=True``;
  ``vectorized=False`` is the scalar oracle.
"""

from repro.sim.events.base import EventQueue, EventSnapshot

__all__ = ["EventQueue", "EventSnapshot"]
