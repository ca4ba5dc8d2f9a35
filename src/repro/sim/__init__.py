"""A from-scratch discrete-event simulation kernel.

This subpackage is the substrate every simulation in :mod:`repro` runs on. It
is one callback kernel:

* :class:`~repro.sim.kernel.Simulator` — the clock and run loop: ``schedule``
  (relative delay) / ``schedule_at`` (absolute time) a callback, then ``run``
  until the queue drains or a given time.
* :class:`~repro.sim.events.EventQueue` — the ``(time, sequence, callback)``
  heap, and :class:`~repro.sim.events.ScheduledCallback`, the cancellable
  handle ``schedule`` returns.
* :mod:`~repro.sim.monitor` — counters, time-series probes and hourly
  bucketing used by the experiment layer.
"""

from repro.sim.events import EventQueue, ScheduledCallback
from repro.sim.kernel import Simulator
from repro.sim.monitor import Counter, HourlyBuckets, TimeSeries, WelfordStats

__all__ = [
    "Counter",
    "EventQueue",
    "HourlyBuckets",
    "ScheduledCallback",
    "Simulator",
    "TimeSeries",
    "WelfordStats",
]
