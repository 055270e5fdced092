"""The precomputed flux-kernel fingerprint map.

A :class:`FingerprintMap` stores, for every cell of a spatial grid
over the field, the geometry kernel ``g(cell)`` of the discrete flux
model evaluated at the deployed sniffer set — the cell's *signature*.
The paper's sampling-based NLS search (Section IV.A) re-derives these
kernels for thousands of random candidates per window; with the map
built once offline, the online stages reduce to cheap signature
matching (classic fingerprinting: offline survey + online lookup) and
local refinement.

Maps are npz-backed with versioned metadata: format version,
deployment hash (field + sniffer positions + ``d_floor``), sniffer
ids, and grid resolution. Loaders and consumers refuse mismatched
metadata with :class:`~repro.errors.ConfigurationError`, following the
same persistence conventions as stream checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.fpmap.cache import KernelLRUCache
from repro.fpmap.index import SpatialIndex
from repro.geometry.field import Field
from repro.util.persistence import (
    deployment_hash,
    field_from_arrays,
    field_to_arrays,
    require_format,
    require_keys,
)

_PathLike = Union[str, Path]

#: Bumped on any incompatible layout change; loaders refuse mismatches.
FPMAP_FORMAT = 1

_REQUIRED_KEYS = (
    "format",
    "field_kind",
    "field_params",
    "cell_positions",
    "signatures",
    "sniffer_positions",
    "sniffer_ids",
    "scalars",
    "deployment",
)


@dataclass
class MapMatch:
    """Result of one signature query: top cells with fit diagnostics."""

    indices: np.ndarray
    positions: np.ndarray
    thetas: np.ndarray
    residuals: np.ndarray


@dataclass
class FingerprintMap:
    """Precomputed per-cell flux signatures plus query machinery.

    Attributes
    ----------
    field:
        Deployment field the grid covers.
    cell_positions:
        ``(C, 2)`` grid cell centers (cells outside the field are
        dropped at build time).
    signatures:
        ``(C, n)`` geometry kernels: row ``c`` is ``g(cell_c)`` at the
        ``n`` sniffers.
    sniffer_positions:
        ``(n, 2)`` sniffer coordinates the signatures were computed
        against.
    sniffer_ids:
        ``(n,)`` indices of the sniffers in the parent deployment
        (matches ``FluxObservation.sniffers``).
    resolution:
        Grid spacing the map was built with.
    d_floor:
        Near-sink clamp of the flux model used at build time.
    """

    field: Field
    cell_positions: np.ndarray
    signatures: np.ndarray
    sniffer_positions: np.ndarray
    sniffer_ids: np.ndarray
    resolution: float
    d_floor: float
    _index: Optional[SpatialIndex] = dataclass_field(
        default=None, repr=False, compare=False
    )
    _cache: Optional[KernelLRUCache] = dataclass_field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.cell_positions = np.asarray(self.cell_positions, dtype=float)
        self.signatures = np.asarray(self.signatures, dtype=float)
        self.sniffer_positions = np.asarray(self.sniffer_positions, dtype=float)
        self.sniffer_ids = np.asarray(self.sniffer_ids, dtype=np.int64)
        if self.cell_positions.ndim != 2 or self.cell_positions.shape[1] != 2:
            raise ConfigurationError(
                f"cell_positions must be (C, 2), got {self.cell_positions.shape}"
            )
        C = self.cell_positions.shape[0]
        if C == 0:
            raise ConfigurationError("fingerprint map has no cells")
        if self.signatures.shape[0] != C:
            raise ConfigurationError(
                f"signatures {self.signatures.shape} must have one row per "
                f"cell ({C})"
            )
        n = self.signatures.shape[1]
        if self.sniffer_positions.shape != (n, 2):
            raise ConfigurationError(
                f"sniffer_positions must be ({n}, 2), got "
                f"{self.sniffer_positions.shape}"
            )
        if self.sniffer_ids.shape != (n,):
            raise ConfigurationError(
                f"sniffer_ids must be ({n},), got {self.sniffer_ids.shape}"
            )
        if self.resolution <= 0:
            raise ConfigurationError(
                f"resolution must be > 0, got {self.resolution}"
            )

    # ------------------------------------------------------------------
    @property
    def cell_count(self) -> int:
        return self.cell_positions.shape[0]

    @property
    def sniffer_count(self) -> int:
        return self.signatures.shape[1]

    @property
    def deployment(self) -> str:
        """Hash of the (field, sniffers, d_floor) the map was built for."""
        return deployment_hash(self.field, self.sniffer_positions, self.d_floor)

    @property
    def index(self) -> SpatialIndex:
        """Lazily built signature index over the cells."""
        if self._index is None:
            self._index = SpatialIndex(self.signatures)
        return self._index

    @property
    def cache(self) -> KernelLRUCache:
        """Lazily created LRU cache of sliced kernel blocks."""
        if self._cache is None:
            self._cache = KernelLRUCache()
        return self._cache

    # ------------------------------------------------------------------
    # Validation.
    # ------------------------------------------------------------------
    def validate_against(
        self,
        field: Field,
        sniffer_positions: np.ndarray,
        d_floor: float,
    ) -> None:
        """Refuse to serve a deployment the map was not built for."""
        expected = deployment_hash(field, sniffer_positions, d_floor)
        if expected != self.deployment:
            raise ConfigurationError(
                "fingerprint map was built for a different deployment "
                f"(map hash {self.deployment[:12]}…, live deployment "
                f"{expected[:12]}…); rebuild the map with repro build-map"
            )

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------
    @staticmethod
    def _observation_columns(values: np.ndarray) -> np.ndarray:
        good = np.isfinite(np.asarray(values, dtype=float))
        if not np.any(good):
            raise ConfigurationError(
                "all sniffer readings are NaN; nothing to match"
            )
        return np.flatnonzero(good)

    def match(self, values: np.ndarray, k: int = 10) -> MapMatch:
        """Top-``k`` single-user matches for one observed flux vector.

        ``values`` is the full-width observation (aligned to
        ``sniffer_ids``); NaN readings (dropout) are masked out of the
        match.
        """
        values = np.asarray(values, dtype=float)
        if values.shape != (self.sniffer_count,):
            raise ConfigurationError(
                f"values must have shape ({self.sniffer_count},), got "
                f"{values.shape}"
            )
        columns = self._observation_columns(values)
        idx, thetas, residuals = self.index.knn_by_signature(
            values[columns], k, columns=columns
        )
        return MapMatch(
            indices=idx,
            positions=self.cell_positions[idx],
            thetas=thetas,
            residuals=residuals,
        )

    def match_many(
        self,
        values: np.ndarray,
        ks: Sequence[int],
    ) -> List[MapMatch]:
        """Fused single-user matches for a batch of observations.

        The serving scheduler's hot path: one einsum scores every
        (cell, observation) pair instead of one small-op cascade per
        observation, with per-observation results bitwise-identical to
        any other batch split (see :meth:`SpatialIndex.
        knn_by_signature_batch`). Observations must be finite
        everywhere — dropout requests go through :meth:`match`.
        """
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[1] != self.sniffer_count:
            raise ConfigurationError(
                f"values must be (B, {self.sniffer_count}), got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ConfigurationError(
                "match_many requires finite observations; route dropout "
                "observations through match()"
            )
        return [
            MapMatch(
                indices=idx,
                positions=self.cell_positions[idx],
                thetas=thetas,
                residuals=residuals,
            )
            for idx, thetas, residuals in self.index.knn_by_signature_batch(
                values, ks
            )
        ]

    def peel_matches(
        self, values: np.ndarray, users: int, k: int = 10
    ) -> List[MapMatch]:
        """Greedy multi-user matching by residual peeling.

        Match the strongest single-user signature, subtract its fitted
        contribution from the observed flux, and repeat — one
        :class:`MapMatch` per user. This mirrors the greedy
        residual-peeling initialization of the coordinate-descent NLS
        search, but against precomputed signatures.
        """
        if users < 1:
            raise ConfigurationError(f"users must be >= 1, got {users}")
        values = np.asarray(values, dtype=float)
        residual = values.copy()
        matches: List[MapMatch] = []
        for _ in range(users):
            match = self.match(residual, k=k)
            matches.append(match)
            best = int(match.indices[0])
            theta = float(match.thetas[0])
            contribution = theta * self.signatures[best]
            good = np.isfinite(residual)
            residual = residual.copy()
            residual[good] = residual[good] - contribution[good]
        return matches

    def kernels_for(
        self,
        cell_indices: np.ndarray,
        columns: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Signature rows for some cells, optionally column-restricted.

        Slices go through the map's LRU block cache, so the hot online
        pattern — the same top-match cells evaluated against the same
        surviving sniffer subset round after round — is served without
        recomputing or re-slicing.
        """
        cell_indices = np.asarray(cell_indices, dtype=np.int64)
        col_key = b"all" if columns is None else np.asarray(
            columns, dtype=np.int64
        ).tobytes()
        key = (cell_indices.tobytes(), col_key)
        block = self.cache.get(key)
        if block is None:
            block = self.signatures[cell_indices]
            if columns is not None:
                block = block[:, np.asarray(columns, dtype=np.int64)]
            block = self.cache.put(key, block)
        return block

    # ------------------------------------------------------------------
    # Persistence.
    # ------------------------------------------------------------------
    def save(self, path: _PathLike) -> Path:
        """Serialize to ``.npz`` (atomic write, bitwise round-trip)."""
        field_kind, field_params = field_to_arrays(self.field)
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(path.suffix + ".tmp")
        with tmp.open("wb") as handle:
            np.savez_compressed(
                handle,
                format=np.array([FPMAP_FORMAT]),
                field_kind=np.array(field_kind),
                field_params=field_params,
                cell_positions=self.cell_positions,
                signatures=self.signatures,
                sniffer_positions=self.sniffer_positions,
                sniffer_ids=self.sniffer_ids,
                scalars=np.array([self.resolution, self.d_floor]),
                deployment=np.array(self.deployment),
            )
        tmp.replace(path)
        return path

    @classmethod
    def load(cls, path: _PathLike) -> "FingerprintMap":
        """Load a map saved by :meth:`save`, verifying its metadata.

        Raises :class:`~repro.errors.ConfigurationError` on missing
        keys, an unsupported format version, or a stored deployment
        hash that no longer matches the stored geometry (a corrupt or
        hand-edited archive).
        """
        path = Path(path)
        if not path.exists():
            raise ConfigurationError(
                f"{path}: no such fingerprint map; build one with "
                "repro build-map"
            )
        with np.load(path, allow_pickle=False) as data:
            require_keys(data, _REQUIRED_KEYS, path)
            require_format(data, FPMAP_FORMAT, path, kind="fingerprint map")
            fmap = cls(
                field=field_from_arrays(
                    str(data["field_kind"]), data["field_params"]
                ),
                cell_positions=data["cell_positions"],
                signatures=data["signatures"],
                sniffer_positions=data["sniffer_positions"],
                sniffer_ids=data["sniffer_ids"],
                resolution=float(data["scalars"][0]),
                d_floor=float(data["scalars"][1]),
            )
            stored = str(data["deployment"])
        if stored != fmap.deployment:
            raise ConfigurationError(
                f"{path}: stored deployment hash {stored[:12]}… does not "
                f"match the archived geometry ({fmap.deployment[:12]}…); "
                "the map is stale or corrupt — rebuild it"
            )
        return fmap

    def grid_shape(self) -> Tuple[int, int]:
        """Approximate (cols, rows) of the build grid, for reporting."""
        xmin, ymin, xmax, ymax = self.field.bounding_box
        cols = max(1, int(round((xmax - xmin) / self.resolution)))
        rows = max(1, int(round((ymax - ymin) / self.resolution)))
        return cols, rows
