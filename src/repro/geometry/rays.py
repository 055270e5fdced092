"""Boundary-distance queries for the flux model.

Formula 3.4 of the paper needs, for every (sink, node) pair, the length
``l`` of the chord from the sink through the node to the field
boundary. These helpers vectorize that query over many nodes (and many
candidate sink positions), which is the inner loop of both NLS fitting
and SMC filtering.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import GeometryError
from repro.geometry.field import Field

_EPS = 1e-12


def boundary_distances(
    field: Field,
    sink: np.ndarray,
    nodes: np.ndarray,
    degenerate_direction: np.ndarray = (1.0, 0.0),
) -> np.ndarray:
    """Distance from ``sink`` to the boundary along each sink->node ray.

    Parameters
    ----------
    field:
        The deployment field.
    sink:
        ``(2,)`` sink position (must be inside the field).
    nodes:
        ``(n, 2)`` node positions.
    degenerate_direction:
        Direction to use for nodes coincident with the sink (where the
        ray direction is undefined). Any fixed unit vector is fine —
        the flux model clamps the corresponding distance ``d`` anyway.

    Returns
    -------
    ``(n,)`` boundary distances ``l_i >= d_i`` for in-field nodes.
    """
    sink = np.asarray(sink, dtype=float).reshape(2)
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 2 or nodes.shape[1] != 2:
        raise GeometryError(f"nodes must have shape (n, 2), got {nodes.shape}")
    directions = nodes - sink[None, :]
    norms = np.hypot(directions[:, 0], directions[:, 1])
    fallback = np.asarray(degenerate_direction, dtype=float).reshape(2)
    unit = np.where(
        norms[:, None] > _EPS, directions / np.maximum(norms, _EPS)[:, None], fallback
    )
    origins = np.broadcast_to(sink, nodes.shape).copy()
    return field.ray_exit_distance(origins, unit)


#: Sink-node pairs per row block of :func:`pairwise_ray_lengths`: the
#: ray cast's ``(rows * n, 2)`` temporaries stay a few MiB however many
#: sinks are asked for.
_BLOCK_PAIRS = 1 << 15


def pairwise_ray_lengths(
    field: Field, sinks: np.ndarray, nodes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Sink-node distances and boundary distances for every pair.

    Returns ``(d, l)``, both ``(m, n)``: entry ``(j, i)`` of ``d`` is
    ``np.hypot`` of node ``i`` minus sink ``j``, and of ``l`` the
    distance from sink ``j`` to the boundary along the ray towards node
    ``i``. One broadcast ray cast per block of sink rows; every value
    depends on its own pair alone, so row ``j`` is bit for bit
    :func:`boundary_distances` of sink ``j`` (and its norms).
    """
    sinks = np.asarray(sinks, dtype=float)
    if sinks.ndim == 1:
        sinks = sinks[None, :]
    if sinks.ndim != 2 or sinks.shape[1] != 2:
        raise GeometryError(f"sinks must have shape (m, 2), got {sinks.shape}")
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 2 or nodes.shape[1] != 2:
        raise GeometryError(f"nodes must have shape (n, 2), got {nodes.shape}")
    m, n = sinks.shape[0], nodes.shape[0]
    d = np.empty((m, n))
    l = np.empty((m, n))
    fallback = np.array([1.0, 0.0])
    step = max(1, _BLOCK_PAIRS // max(n, 1))
    for lo in range(0, m, step):
        block = sinks[lo:lo + step]
        c = block.shape[0]
        directions = nodes[None, :, :] - block[:, None, :]  # (c, n, 2)
        norms = np.hypot(directions[..., 0], directions[..., 1])
        unit = np.where(
            norms[..., None] > _EPS,
            directions / np.maximum(norms, _EPS)[..., None],
            fallback,
        )
        d[lo:lo + c] = norms
        l[lo:lo + c] = field.ray_exit_distance(
            np.repeat(block, n, axis=0), unit.reshape(c * n, 2)
        ).reshape(c, n)
    return d, l


def pairwise_boundary_distances(
    field: Field, sinks: np.ndarray, nodes: np.ndarray
) -> np.ndarray:
    """Boundary distances for every (sink, node) pair.

    Returns an ``(m, n)`` array where entry ``(j, i)`` is the distance
    from sink ``j`` to the boundary along the ray towards node ``i`` —
    the ``l`` of :func:`pairwise_ray_lengths`. Used to batch-evaluate
    the flux model for many candidate sink positions at once.
    """
    return pairwise_ray_lengths(field, sinks, nodes)[1]
