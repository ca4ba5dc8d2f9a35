"""The Section 4 case study: an adaptive Gnutella-like content-sharing network.

Two schemes share one workload, one churn schedule and one latency model:

* **static Gnutella** — random neighbor selection at login, random
  replacement when a neighbor logs off, no reconfiguration;
* **dynamic Gnutella** — the framework instantiation: benefit ``B/R`` per
  result, periodic reconfiguration every ``T`` own requests plus forced
  reconfiguration on neighbor log-off, invitations always accepted (Algo 5).

Two engines implement the same protocol:

* :mod:`~repro.gnutella.fast` — queries execute atomically as hop-layered
  BFS at their issue instant with analytic delays; churn/reconfiguration
  run on the :mod:`repro.sim` kernel. This is what the figure-scale
  experiments use.
* :mod:`~repro.gnutella.detailed` — every query/reply/invite/evict is an
  individually scheduled message. Used to validate the fast engine
  (cross-engine agreement is asserted in
  ``tests/gnutella/test_cross_engine.py``).
"""

from repro.gnutella.asymmetric import AsymmetricFastEngine, service_gini
from repro.gnutella.bootstrap import BootstrapServer
from repro.gnutella.config import GnutellaConfig
from repro.gnutella.detailed import DetailedGnutellaEngine
from repro.gnutella.fast import FastGnutellaEngine
from repro.gnutella.metrics import SimulationMetrics
from repro.gnutella.probes import ClusteringProbe, DegreeProbe
from repro.gnutella.simulation import SimulationResult, run_simulation

__all__ = [
    "AsymmetricFastEngine",
    "BootstrapServer",
    "ClusteringProbe",
    "DegreeProbe",
    "DetailedGnutellaEngine",
    "FastGnutellaEngine",
    "GnutellaConfig",
    "SimulationMetrics",
    "SimulationResult",
    "run_simulation",
    "service_gini",
]
