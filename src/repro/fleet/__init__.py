"""Multi-process serving fleet.

One :class:`ServeFleet` router in front of N worker processes, each a
full :class:`~repro.serve.service.LocalizationService`, all serving the
deployment's one fingerprint map when it has one. Sessions are placed
by consistent hashing with affinity (:class:`ConsistentHashRing`),
dead workers respawn in-slot with checkpoint-backed session recovery,
and live sessions migrate between workers bitwise-continuously (drain
→ checkpoint → reattach). See ``docs/ALGORITHMS.md`` §8 for the
placement/migration invariants.
"""

from repro.fleet.hashring import ConsistentHashRing
from repro.fleet.metrics import FleetMetrics, merge_worker_snapshots
from repro.fleet.router import ServeFleet
from repro.fleet.worker import (
    FAULT_EXIT_CODE,
    SessionSpec,
    WorkerSpec,
    checkpoint_path,
)

__all__ = [
    "ConsistentHashRing",
    "FleetMetrics",
    "merge_worker_snapshots",
    "ServeFleet",
    "FAULT_EXIT_CODE",
    "SessionSpec",
    "WorkerSpec",
    "checkpoint_path",
]
