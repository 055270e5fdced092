"""Zero-copy float64 geometry-kernel evaluation.

The Formula-3.4 geometry kernel ``g = (l^2 - d^2) / (2 d)`` over an
``(m sinks, n nodes)`` pair grid is the single hottest operation of the
reproduction: candidate search evaluates it for thousands of sinks per
sweep, the SMC tracker repeats that per user per window, and the
fingerprint-map builder runs it over every grid cell. The original
implementation (kept below as :func:`reference_geometry_kernels`, the
equivalence oracle and benchmark baseline) materialized the flattened
pair grid — ``np.repeat``/``np.tile`` of two ``(m*n, 2)`` coordinate
arrays plus the same-sized direction/unit temporaries — before ray
casting.

This module replaces that with:

* **broadcasting** — per-component ``(rows, n)`` arithmetic, never an
  ``(m*n, 2)`` coordinate materialization;
* a **closed-form rectangular ray exit on the unnormalized ray** — the
  norm is ``d = sqrt(dx^2 + dy^2)``, and for axis-aligned rectangles
  the slab loop over four walls collapses to two divisions of
  ``(dx, dy)`` itself and a ``max`` per axis, giving the exit
  parameter ``s`` and ``l = s * d``, so no pair is divided by its norm
  (see :func:`_axis_exit`); the rare-path fix-ups (exits at or behind
  the origin, a node at the sink, non-finite kernels) each hide behind
  one ``min``/``max`` reduction;
* **row blocks** — the rows are evaluated ``_BLOCK_PAIRS`` pairs at a
  time on reused scratch, so the working set stays in L2 whatever the
  number of sinks.

Every value depends on its own (sink, node) pair and row alone, so all
paths through the evaluator — an ``out=`` buffer, or a sink alone
against its row of a batch on either side of a row-block boundary —
agree bit for bit. Fused batches rely on this. Against the reference
they agree within ``|dg| <= 1e-12 * max(1, |g|)``: ``sqrt`` and
``np.hypot``, and the exit on the unnormalized ray against the unit
one, round differently in the last bits.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, FaultInjected
from repro.faults.plan import should_fire
from repro.geometry.field import Field, RectangularField

_EPS = 1e-12


# ----------------------------------------------------------------------
# Reference implementation (pre-engine), kept as oracle + baseline.
# ----------------------------------------------------------------------
def reference_geometry_kernels(
    field: Field,
    node_positions: np.ndarray,
    sinks: np.ndarray,
    d_floor: float,
) -> np.ndarray:
    """The original ``DiscreteFluxModel.geometry_kernels`` implementation.

    Flattens the (sink, node) pair grid into one ``(m*n, 2)`` ray-cast
    batch via ``np.repeat``/``np.tile``. Retained verbatim as the
    specification oracle for the equivalence tests and as the serial
    baseline every ``BENCH_engine.json`` speedup is measured against.
    """
    sinks = np.asarray(sinks, dtype=float)
    if sinks.ndim == 1:
        sinks = sinks[None, :]
    sinks = field.clip(sinks)
    node_positions = np.asarray(node_positions, dtype=float)
    m, n = sinks.shape[0], node_positions.shape[0]
    origins = np.repeat(sinks, n, axis=0)  # (m*n, 2)
    nodes = np.tile(node_positions, (m, 1))  # (m*n, 2)
    directions = nodes - origins
    norms = np.hypot(directions[:, 0], directions[:, 1])
    safe = np.maximum(norms, _EPS)
    unit = directions / safe[:, None]
    unit[norms < _EPS] = (1.0, 0.0)  # degenerate: node at the sink
    l = field.ray_exit_distance(origins, unit)
    d = np.maximum(norms, d_floor)
    kernels = np.maximum((l * l - d * d) / (2.0 * d), 0.0)
    return kernels.reshape(m, n)


# ----------------------------------------------------------------------
# Row fillers.
# ----------------------------------------------------------------------
#: Sink-node pairs per row block (about 180 rows at 180 sniffers). The
#: rectangular filler's four scratch arrays, 256 KiB each in float64,
#: stay in L2 where a whole pool's would not.
_BLOCK_PAIRS = 1 << 15


def _row_blocks(m: int, n: int) -> List[Tuple[int, int]]:
    """Rows ``[0, m)`` as spans of about ``_BLOCK_PAIRS`` pairs."""
    rows = max(1, _BLOCK_PAIRS // max(n, 1))
    return [(lo, min(lo + rows, m)) for lo in range(0, m, rows)]


def _axis_exit(
    v: np.ndarray,
    o: np.ndarray,
    lo: float,
    hi: float,
    scale: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Exit parameter ``s`` along the unnormalized direction on one axis.

    ``o + s * v`` reaches the slab's far wall: for an origin inside
    ``[lo, hi]`` the crossing ahead of it is the larger of the two wall
    quotients, and ``v == 0`` gives ``±inf``, so the reference's
    four-candidate slab scan collapses to two divisions and a ``max``.
    The reference keeps a crossing only if its distance ``t > eps``.
    Here the distance is ``t = s * scale``, ``scale`` being the norm of
    ``v``. That rule can reject a crossing only for an origin within
    eps of a wall (for any other the crossing is farther than the
    wall), so only those rows test it; an exit it rejects, and a
    ``0 / 0`` on a wall, becomes ``+inf``. Each row's result depends on
    that row alone. Writes the result to ``out`` and overwrites ``v``.
    """
    ahead = hi - o  # (rows, 1)
    behind = lo - o
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.divide(ahead, v, out=out)
        np.maximum(s, np.divide(behind, v, out=v), out=s)
    near = (ahead[:, 0] <= _EPS) | (behind[:, 0] >= -_EPS)
    if near.any():  # rare: an origin on or within eps of a wall
        rows = s[near]
        with np.errstate(invalid="ignore"):
            rows[~(rows * scale[near] > _EPS)] = np.inf
        s[near] = rows
    return s


def _fill_rect(
    field: RectangularField,
    nodes: np.ndarray,
    d_floor: float,
    sinks: np.ndarray,
    out: np.ndarray,
) -> None:
    """Closed-form kernels for every sink row of a rectangle.

    The norm is ``d = sqrt(dx^2 + dy^2)`` and the boundary run is
    ``l = s * d``, ``s`` being the exit parameter along ``(dx, dy)``
    itself, so no pair is divided by its norm. Works through the rows
    in :func:`_row_blocks` on four reused scratch arrays. Every step is
    elementwise or row-local, so the blocking never changes a value.
    """
    n = nodes.shape[0]
    if n == 0:
        return
    nx = np.ascontiguousarray(nodes[:, 0])
    ny = np.ascontiguousarray(nodes[:, 1])
    blocks = _row_blocks(sinks.shape[0], n)
    scratch = np.empty((4, blocks[0][1], n))
    for r0, r1 in blocks:
        dx, dy, norms, l = scratch[:, : r1 - r0]
        sx = sinks[r0:r1, 0:1]  # (rows, 1)
        sy = sinks[r0:r1, 1:2]
        np.subtract(nx, sx, out=dx)  # (rows, n) — broadcast, no pair grid
        np.subtract(ny, sy, out=dy)
        np.multiply(dx, dx, out=norms)
        np.multiply(dy, dy, out=l)
        np.add(norms, l, out=norms)
        np.sqrt(norms, out=norms)
        degenerate = None
        if norms.min() < _EPS:  # rare: a node at the sink
            # The reference's direction (1, 0), at unit scale; the
            # true norm comes back for d below.
            degenerate = norms < _EPS
            true_norms = norms[degenerate]
            dx[degenerate] = 1.0
            dy[degenerate] = 0.0
            norms[degenerate] = 1.0
        tx = _axis_exit(dx, sx, field.xmin, field.xmax, norms, out=l)
        ty = _axis_exit(dy, sy, field.ymin, field.ymax, norms, out=dx)
        np.minimum(tx, ty, out=l)
        np.multiply(l, norms, out=l)  # l = s * d
        if degenerate is not None:
            norms[degenerate] = true_norms
        d = np.maximum(norms, d_floor, out=norms)
        np.multiply(l, l, out=l)  # l^2
        np.multiply(d, d, out=dy)  # d^2
        np.subtract(l, dy, out=l)  # l^2 - d^2
        np.multiply(d, 2.0, out=d)
        np.divide(l, d, out=l)
        block = out[r0:r1]
        np.maximum(l, 0.0, out=block)
        if not np.isfinite(block.max()):
            # Unreachable-boundary pairs (sink on a wall looking out or
            # along it); the reference raises here — we define them to
            # contribute no flux instead.
            block[~np.isfinite(block)] = 0.0


def _fill_generic(
    field: Field,
    nodes: np.ndarray,
    d_floor: float,
    sinks: np.ndarray,
    out: np.ndarray,
) -> None:
    """Fallback for non-rectangular fields: the reference ray cast.

    Uses the field's own ``ray_exit_distance`` on the unit direction, as
    the reference does, with the rectangular filler's ``sqrt`` norm.
    Works through the rows in :func:`_row_blocks`, so it only ever
    materializes one block's ``(rows * n, 2)`` slice of the pair grid.
    """
    n = nodes.shape[0]
    for r0, r1 in _row_blocks(sinks.shape[0], n):
        rows = sinks[r0:r1]
        c = rows.shape[0]
        directions = (nodes[None, :, :] - rows[:, None, :]).reshape(c * n, 2)
        dx, dy = directions[:, 0], directions[:, 1]
        norms = np.sqrt(dx * dx + dy * dy)
        safe = np.maximum(norms, _EPS)
        unit = directions / safe[:, None]
        unit[norms < _EPS] = (1.0, 0.0)
        origins = np.repeat(rows, n, axis=0)
        l = field.ray_exit_distance(origins, unit)
        d = np.maximum(norms, d_floor)
        out[r0:r1] = np.maximum((l * l - d * d) / (2.0 * d), 0.0).reshape(c, n)


# ----------------------------------------------------------------------
# Entry point.
# ----------------------------------------------------------------------
def evaluate_geometry_kernels(
    field: Field,
    node_positions: np.ndarray,
    sinks: np.ndarray,
    d_floor: float,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Stacked float64 geometry kernels ``(m, n)`` for many candidate sinks.

    Parameters
    ----------
    field / node_positions / d_floor:
        The deployment geometry (see
        :class:`~repro.fluxmodel.discrete.DiscreteFluxModel`).
    sinks:
        ``(m, 2)`` candidate sink positions (``(2,)`` is promoted);
        out-of-field sinks are clipped onto the field first.
    out:
        Optional preallocated ``(m, n)`` float64 output, written in
        place — the fingerprint-map builder passes its signature matrix
        here. Any other shape or dtype raises
        :class:`~repro.errors.ConfigurationError`.

    The ``engine.kernel.transient`` fault site fires at most once per
    call, before any row is written.
    """
    sinks = np.asarray(sinks, dtype=float)
    if sinks.ndim == 1:
        sinks = sinks[None, :]
    if sinks.ndim != 2 or sinks.shape[1] != 2:
        raise ConfigurationError(f"sinks must be (m, 2), got {sinks.shape}")
    sinks = np.ascontiguousarray(field.clip(sinks))
    nodes = np.ascontiguousarray(node_positions, dtype=float)
    m, n = sinks.shape[0], nodes.shape[0]

    if out is None:
        out = np.empty((m, n))
    elif out.shape != (m, n) or out.dtype != np.float64:
        raise ConfigurationError(
            f"out must be a ({m}, {n}) float64 array, got {out.shape} "
            f"{out.dtype}"
        )
    if m == 0:
        return out
    if should_fire("engine.kernel.transient") is not None:
        raise FaultInjected(
            f"engine.kernel.transient: kernel evaluation of {m} rows failed"
        )
    fill = _fill_rect if isinstance(field, RectangularField) else _fill_generic
    fill(field, nodes, float(d_floor), sinks, out)
    return out
