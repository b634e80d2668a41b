"""Observability: per-level run metrics, windowed utilization, traces.

The paper's evaluation phase locates "the utilization and possible
points of inefficiency in the I/O path" (§III-C); this package turns
the simulator's raw counters into that evidence:

* :class:`~repro.obs.metrics.MetricsRegistry` — per-level counter and
  histogram collection with snapshot/diff semantics (the measured
  run's deltas, whatever ran on the system before it);
* :class:`~repro.obs.sampler.UtilizationSampler` — windowed busy-time
  sampling during the simulation, feeding the per-window bottleneck
  attribution of :class:`~repro.core.utilization.UtilizationReport`;
* :mod:`~repro.obs.export` — JSONL and Chrome-trace-format exporters
  for the MPI-IO event stream;
* :mod:`~repro.obs.runreport` — the ``repro report`` document:
  counters + utilization + phase-replay observability as JSON/CSV.
"""

from .metrics import LEVELS, CounterSnapshot, Histogram, IOLibStats, MetricsRegistry
from .sampler import UtilizationSampler

__all__ = [
    "LEVELS",
    "CounterSnapshot",
    "Histogram",
    "IOLibStats",
    "MetricsRegistry",
    "UtilizationSampler",
]
