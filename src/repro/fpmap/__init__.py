"""Fingerprint map subsystem: precomputed flux-kernel grid + lookups.

Classic fingerprinting splits localization into an offline survey and
a cheap online matching stage. This package applies that split to the
paper's flux attack: :func:`build_fingerprint_map` precomputes the
discrete flux model's geometry kernel at every cell of a spatial grid,
:class:`FingerprintMap` persists the result (npz, versioned metadata,
deployment hash) and serves signature queries through a
:class:`SpatialIndex`, and the NLS / SMC layers consume the top map
matches as search seeds (see
:class:`repro.fingerprint.candidates.MapSeededCandidates` and the SMC
tracker's degenerate-sample recovery).
"""

from repro.fpmap.builder import build_fingerprint_map, grid_cells
from repro.fpmap.cache import KernelLRUCache
from repro.fpmap.index import SpatialIndex
from repro.fpmap.map import FPMAP_FORMAT, FingerprintMap, MapMatch

__all__ = [
    "FPMAP_FORMAT",
    "FingerprintMap",
    "MapMatch",
    "SpatialIndex",
    "KernelLRUCache",
    "build_fingerprint_map",
    "grid_cells",
]
