"""Shared map registry for session fleets.

A streaming deployment runs many tracking sessions against the same
sniffer set; each needs the same fingerprint map, and rebuilding it
per session would dwarf the tracking cost. The registry keys built
maps by deployment hash (field + sniffer positions + ``d_floor``), so:

* sessions over the same deployment share one read-only map (maps are
  never mutated after build — queries only read, and the per-map LRU
  kernel cache hands out write-protected blocks);
* a *changed* sniffer set hashes differently, which transparently
  invalidates the old entry: the next ``get_or_build`` builds a fresh
  map, and stale entries age out of the bounded store.

Thread-safe: several :class:`repro.serve.LocalizationService`\\ s may
share one registry from different threads, so concurrent
``get_or_build`` calls for the same deployment must not race a
half-built map into view. The build itself runs outside the lock only
for distinct deployments.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.fpmap.builder import build_fingerprint_map
from repro.fpmap.map import FingerprintMap
from repro.geometry.field import Field
from repro.util.persistence import deployment_hash


class MapRegistry:
    """Bounded, hash-keyed store of built fingerprint maps.

    Parameters
    ----------
    capacity:
        Maximum retained maps; least recently used deployments are
        evicted (a fleet normally needs exactly one).
    """

    def __init__(self, capacity: int = 4):
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._maps: "OrderedDict[str, FingerprintMap]" = OrderedDict()
        self._locks: dict = {}
        self._shards: dict = {}  # (deployment, shards, cluster_cells)
        self._lock = threading.Lock()
        self.builds = 0
        self.partitions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._maps)

    def get(self, deployment: str) -> Optional[FingerprintMap]:
        """Look up a map by deployment hash without building."""
        with self._lock:
            fmap = self._maps.get(deployment)
            if fmap is not None:
                self._maps.move_to_end(deployment)
            return fmap

    def get_or_build(
        self,
        field: Field,
        sniffer_positions: np.ndarray,
        resolution: float = 1.0,
        d_floor: float = 1.0,
        sniffer_ids: Optional[np.ndarray] = None,
    ) -> FingerprintMap:
        """Return the fleet's shared map, building it on first use.

        A changed sniffer set (different hash) never returns the stale
        map — it builds and registers a new one.
        """
        key = deployment_hash(field, np.asarray(sniffer_positions, float), d_floor)
        with self._lock:
            fmap = self._maps.get(key)
            if fmap is not None:
                self._maps.move_to_end(key)
                return fmap
            # One build lock per deployment: concurrent requesters of
            # the same key wait; different keys build in parallel.
            build_lock = self._locks.setdefault(key, threading.Lock())
        with build_lock:
            with self._lock:
                fmap = self._maps.get(key)
                if fmap is not None:
                    return fmap
            built = build_fingerprint_map(
                field,
                sniffer_positions,
                resolution=resolution,
                d_floor=d_floor,
                sniffer_ids=sniffer_ids,
            )
            with self._lock:
                self._maps[key] = built
                self._maps.move_to_end(key)
                while len(self._maps) > self.capacity:
                    evicted, _ = self._maps.popitem(last=False)
                    self._locks.pop(evicted, None)
                    self._drop_shards_locked(evicted)
                self.builds += 1
            return built

    def register(self, fmap: FingerprintMap) -> str:
        """Adopt an externally built/loaded map (e.g. from ``.npz``)."""
        key = fmap.deployment
        with self._lock:
            self._maps[key] = fmap
            self._maps.move_to_end(key)
            while len(self._maps) > self.capacity:
                evicted, _ = self._maps.popitem(last=False)
                self._locks.pop(evicted, None)
                self._drop_shards_locked(evicted)
        return key

    def get_or_partition(
        self,
        fmap: FingerprintMap,
        shards: int,
        cluster_cells: int = 4,
    ) -> List[FingerprintMap]:
        """Cached spatial partition of a map into ``shards`` sub-maps.

        The fleet router asks for the same partition once per spawn (and
        again for every respawn-in-slot after a worker death), so the
        split — whole spatial clusters dealt round-robin, a disjoint
        cover of the parent's cells (:func:`repro.fleet.partition.
        partition_map`) — is cached under the deployment hash alongside
        the parent map and evicted with it.
        """
        key = (fmap.deployment, int(shards), int(cluster_cells))
        with self._lock:
            cached = self._shards.get(key)
            if cached is not None:
                return cached
        # Runtime import: repro.fleet depends on fpmap at import time;
        # this direction resolves lazily to keep the layering acyclic.
        from repro.fleet.partition import partition_map

        submaps, _ = partition_map(fmap, shards, cluster_cells)
        with self._lock:
            existing = self._shards.setdefault(key, submaps)
            if existing is submaps:
                self.partitions += 1
            return existing

    def _drop_shards_locked(self, deployment: str) -> None:
        for key in [k for k in self._shards if k[0] == deployment]:
            del self._shards[key]

    def invalidate(self, deployment: str) -> bool:
        """Drop one deployment's map; returns whether it was present."""
        with self._lock:
            self._locks.pop(deployment, None)
            self._drop_shards_locked(deployment)
            return self._maps.pop(deployment, None) is not None

    def clear(self) -> None:
        with self._lock:
            self._maps.clear()
            self._locks.clear()
            self._shards.clear()


_SHARED = MapRegistry()


def shared_registry() -> MapRegistry:
    """The process-wide registry stream fleets share by default."""
    return _SHARED
