"""Planar geometry substrate.

Provides the field-boundary abstraction used by the flux model: for a
sink at ``p`` and a node at ``q`` inside the field, the model needs the
distance ``l`` from ``p`` to the field boundary along the ray
``p -> q`` (paper Formula 3.4). All boundary types implement vectorized
ray casting for this query.
"""

from repro.geometry.field import (
    CircularField,
    Field,
    PolygonField,
    RectangularField,
)
from repro.geometry.rays import (
    boundary_distances,
    pairwise_boundary_distances,
    pairwise_ray_lengths,
)
from repro.geometry.distance import pairwise_distances, distances_to_point
from repro.geometry.grid import SpatialHashGrid

__all__ = [
    "Field",
    "RectangularField",
    "CircularField",
    "PolygonField",
    "boundary_distances",
    "pairwise_boundary_distances",
    "pairwise_ray_lengths",
    "pairwise_distances",
    "distances_to_point",
    "SpatialHashGrid",
]
