"""Multi-process serving fleet.

One :class:`ServeFleet` router in front of a fixed set of N worker
processes, each a full :class:`~repro.serve.service.LocalizationService`,
all serving the deployment's one fingerprint map when it has one.
Sessions and localize clients are placed by :func:`worker_for` (SHA-1
of the key, mod N), and a dead worker respawns under its own id with
checkpoint-backed session recovery. See ``docs/ALGORITHMS.md`` §8 for
the placement and failover invariants.
"""

from repro.fleet.metrics import FleetMetrics
from repro.fleet.router import REDELIVERY_LIMIT, ServeFleet, worker_for
from repro.fleet.worker import FAULT_EXIT_CODE, SessionSpec, WorkerSpec

__all__ = [
    "FleetMetrics",
    "ServeFleet",
    "REDELIVERY_LIMIT",
    "worker_for",
    "FAULT_EXIT_CODE",
    "SessionSpec",
    "WorkerSpec",
]
