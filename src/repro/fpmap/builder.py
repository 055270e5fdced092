"""Offline construction of fingerprint maps.

Builds the spatial grid over the field, drops cells outside the
boundary, and evaluates the discrete flux model's geometry kernel at
every (cell, sniffer) pair — the O(cells x sniffers) work the online
stages then never repeat. The kernel evaluator works through the cells
in row blocks of a fixed pair budget, so its scratch stays small at
large grids; only the signature matrix itself (a 30x30 field at 0.25
resolution with 90 sniffers is 14400 x 90 doubles) is cells-sized.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.fluxmodel.discrete import DiscreteFluxModel
from repro.fpmap.map import FingerprintMap
from repro.geometry.field import Field
from repro.util.validation import check_positive


def grid_cells(field: Field, resolution: float) -> np.ndarray:
    """Cell centers of a ``resolution``-spaced grid clipped to the field.

    Centers start half a cell in from the bounding box so every center
    is interior for rectangular fields; non-rectangular fields drop the
    centers outside the boundary.
    """
    resolution = check_positive("resolution", resolution)
    xmin, ymin, xmax, ymax = field.bounding_box
    if resolution > max(xmax - xmin, ymax - ymin):
        raise ConfigurationError(
            f"resolution {resolution} exceeds the field extent"
        )
    xs = np.arange(xmin + resolution / 2.0, xmax, resolution)
    ys = np.arange(ymin + resolution / 2.0, ymax, resolution)
    gx, gy = np.meshgrid(xs, ys)
    cells = np.column_stack([gx.ravel(), gy.ravel()])
    inside = field.contains(cells)
    cells = cells[inside]
    if cells.shape[0] == 0:
        raise ConfigurationError(
            "no grid cells fall inside the field; lower the resolution"
        )
    return cells


def build_fingerprint_map(
    field: Field,
    sniffer_positions: np.ndarray,
    resolution: float = 1.0,
    d_floor: float = 1.0,
    sniffer_ids: Optional[np.ndarray] = None,
) -> FingerprintMap:
    """Precompute the flux-kernel fingerprint of every grid cell.

    Parameters
    ----------
    field:
        Deployment field.
    sniffer_positions:
        ``(n, 2)`` sniffer coordinates.
    resolution:
        Grid spacing; candidate seeding can localize no finer than
        about half of this before local refinement.
    d_floor:
        Near-sink clamp of the flux model (must match the model used
        online — it is part of the deployment hash).
    sniffer_ids:
        Optional ``(n,)`` deployment indices of the sniffers (defaults
        to ``arange(n)``); stored so observations can be aligned.
    """
    sniffer_positions = np.asarray(sniffer_positions, dtype=float)
    if sniffer_positions.ndim != 2 or sniffer_positions.shape[1] != 2:
        raise ConfigurationError(
            f"sniffer_positions must be (n, 2), got {sniffer_positions.shape}"
        )
    if sniffer_positions.shape[0] == 0:
        raise ConfigurationError("need at least one sniffer")
    if sniffer_ids is None:
        sniffer_ids = np.arange(sniffer_positions.shape[0], dtype=np.int64)
    else:
        sniffer_ids = np.asarray(sniffer_ids, dtype=np.int64)
        if sniffer_ids.shape != (sniffer_positions.shape[0],):
            raise ConfigurationError(
                f"sniffer_ids must be ({sniffer_positions.shape[0]},), got "
                f"{sniffer_ids.shape}"
            )

    cells = grid_cells(field, resolution)
    model = DiscreteFluxModel(field, sniffer_positions, d_floor=d_floor)
    # One evaluation straight into the signature matrix.
    signatures = np.empty((cells.shape[0], sniffer_positions.shape[0]))
    model.geometry_kernels(cells, out=signatures)

    return FingerprintMap(
        field=field,
        cell_positions=cells,
        signatures=signatures,
        sniffer_positions=sniffer_positions,
        sniffer_ids=sniffer_ids,
        resolution=float(resolution),
        d_floor=float(d_floor),
    )
