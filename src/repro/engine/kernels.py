"""Chunked, zero-copy geometry-kernel evaluation.

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

* **broadcasting** — per-component ``(chunk, n)`` arithmetic, never an
  ``(m*n, 2)`` coordinate materialization;
* a **closed-form rectangular ray exit on the unnormalized ray** — the
  norm is ``d = sqrt(dx^2 + dy^2)``, and for axis-aligned rectangles
  the slab loop over four walls collapses to two divisions of
  ``(dx, dy)`` itself and a ``max`` per axis, giving the exit
  parameter ``s`` and ``l = s * d``, so no pair is divided by its norm
  (see :func:`_axis_exit`); the rare-path fix-ups (exits at or behind
  the origin, a node at the sink, non-finite kernels) each hide behind
  one ``min``/``max`` reduction;
* **row blocks** — every chunk is evaluated ``_BLOCK_PAIRS`` pairs at
  a time on reused scratch, so the working set stays in L2 whatever the
  chunk size;
* **chunking** — ``chunk_size`` is only the executor's unit of fan-out
  (chunks write disjoint output rows, so any worker count is
  bitwise-identical to serial);
* an optional **float32 mode** that halves memory traffic for
  huge pools (the theta solve downstream stays float64).

Every value depends on its own (sink, node) pair and row alone, so all
paths through the evaluator — any chunking, worker count, ``out=``
buffer, or a sink alone against its row of a batch — agree bit for
bit. Against the reference they agree within ``|dg| <= 1e-12 *
max(1, |g|)``: ``sqrt`` and ``np.hypot``, and the exit on the
unnormalized ray against the unit one, round differently in the last
bits.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.engine.config import EngineConfig
from repro.engine.executor import Engine, resolve_engine
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
# Chunk fillers.
# ----------------------------------------------------------------------
#: Sink-node pairs per row block (about 180 rows at 180 sniffers). The
#: rectangular filler's four scratch arrays, 256 KiB each in float64,
#: stay in L2 where a whole 4096-row chunk's would not.
_BLOCK_PAIRS = 1 << 15


def _row_blocks(start: int, stop: int, n: int) -> List[Tuple[int, int]]:
    """Rows ``[start, stop)`` as spans of about ``_BLOCK_PAIRS`` pairs."""
    rows = max(1, _BLOCK_PAIRS // max(n, 1))
    return [(lo, min(lo + rows, stop)) for lo in range(start, stop, rows)]


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
    scalar = v.dtype.type
    ahead = scalar(hi) - o  # (c, 1)
    behind = scalar(lo) - o
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


def _fill_rect_chunk(
    field: RectangularField,
    nodes: np.ndarray,
    d_floor: float,
    sinks: np.ndarray,
    out: np.ndarray,
    start: int,
    stop: int,
) -> None:
    """Closed-form kernels for sink rows ``[start, stop)`` of a rectangle.

    The norm is ``d = sqrt(dx^2 + dy^2)`` and the boundary run is
    ``l = s * d``, ``s`` being the exit parameter along ``(dx, dy)``
    itself, so no pair is divided by its norm. Works through the rows
    in :func:`_row_blocks` on four reused scratch arrays. Every step is
    elementwise or row-local, so the blocking never changes a value.
    """
    n = nodes.shape[0]
    if n == 0:
        return
    one = out.dtype.type(1.0)
    zero = out.dtype.type(0.0)
    nx = np.ascontiguousarray(nodes[:, 0])
    ny = np.ascontiguousarray(nodes[:, 1])
    blocks = _row_blocks(start, stop, n)
    scratch = np.empty((4, blocks[0][1] - start, n), dtype=out.dtype)
    for r0, r1 in blocks:
        dx, dy, norms, l = scratch[:, : r1 - r0]
        sx = sinks[r0:r1, 0:1]  # (c, 1)
        sy = sinks[r0:r1, 1:2]
        np.subtract(nx, sx, out=dx)  # (c, n) — broadcast, no pair grid
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
            dx[degenerate] = one
            dy[degenerate] = zero
            norms[degenerate] = one
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
        np.maximum(l, zero, out=block)
        if not np.isfinite(block.max()):
            # Unreachable-boundary pairs (sink on a wall looking out or
            # along it); the reference raises here — we define them to
            # contribute no flux instead.
            block[~np.isfinite(block)] = zero


def _fill_generic_chunk(
    field: Field,
    nodes: np.ndarray,
    d_floor: float,
    sinks: np.ndarray,
    out: np.ndarray,
    start: int,
    stop: int,
) -> None:
    """Fallback for non-rectangular fields: chunked reference ray cast.

    Uses the field's own ``ray_exit_distance`` on the unit direction, as
    the reference does, with the rectangular filler's ``sqrt`` norm; it
    only ever materializes the ``(chunk * n, 2)`` slice of the pair grid.
    """
    chunk = sinks[start:stop]
    c, n = chunk.shape[0], nodes.shape[0]
    directions = (nodes[None, :, :] - chunk[:, None, :]).reshape(c * n, 2)
    dx, dy = directions[:, 0], directions[:, 1]
    norms = np.sqrt(dx * dx + dy * dy)
    safe = np.maximum(norms, _EPS)
    unit = directions / safe[:, None]
    unit[norms < _EPS] = (1.0, 0.0)
    origins = np.repeat(chunk, n, axis=0)
    l = field.ray_exit_distance(
        origins.astype(float, copy=False), unit.astype(float, copy=False)
    ).astype(out.dtype, copy=False)
    d = np.maximum(norms, d_floor)
    out[start:stop] = np.maximum((l * l - d * d) / (2.0 * d), 0.0).reshape(c, n)


def _fill_span(
    field: Field,
    nodes: np.ndarray,
    d_floor: float,
    sinks: np.ndarray,
    out: np.ndarray,
    start: int,
    stop: int,
) -> None:
    if should_fire("engine.kernel.transient") is not None:
        raise FaultInjected(
            f"engine.kernel.transient: kernel chunk [{start}, {stop}) failed"
        )
    if isinstance(field, RectangularField):
        _fill_rect_chunk(field, nodes, d_floor, sinks, out, start, stop)
    else:
        for r0, r1 in _row_blocks(start, stop, nodes.shape[0]):
            _fill_generic_chunk(field, nodes, d_floor, sinks, out, r0, r1)


# ----------------------------------------------------------------------
# Entry point.
# ----------------------------------------------------------------------
def evaluate_geometry_kernels(
    field: Field,
    node_positions: np.ndarray,
    sinks: np.ndarray,
    d_floor: float,
    engine: Optional[Engine] = None,
    out: Optional[np.ndarray] = None,
    chunk_size: Optional[int] = None,
) -> np.ndarray:
    """Stacked geometry kernels ``(m, n)`` for many candidate sinks.

    Parameters
    ----------
    field / node_positions / d_floor:
        The deployment geometry (see
        :class:`~repro.fluxmodel.discrete.DiscreteFluxModel`).
    sinks:
        ``(m, 2)`` candidate sink positions (``(2,)`` is promoted);
        out-of-field sinks are clipped onto the field first.
    engine:
        Parallel engine; ``None`` evaluates inline with the default
        chunking and float64. The engine's dtype selects float32 mode.
    out:
        Optional preallocated ``(m, n)`` output (its dtype wins over the
        engine dtype); chunks are written straight into it — the
        fingerprint-map builder passes its signature matrix here.
    chunk_size:
        Per-call override of the engine's chunk size (the fan-out unit;
        it does not change the working set).
    """
    eng = resolve_engine(engine)
    cfg: EngineConfig = eng.config
    sinks = np.asarray(sinks, dtype=float)
    if sinks.ndim == 1:
        sinks = sinks[None, :]
    if sinks.ndim != 2 or sinks.shape[1] != 2:
        raise ConfigurationError(f"sinks must be (m, 2), got {sinks.shape}")
    sinks = field.clip(sinks)
    node_positions = np.asarray(node_positions, dtype=float)
    m, n = sinks.shape[0], node_positions.shape[0]

    if out is not None:
        if out.shape != (m, n):
            raise ConfigurationError(
                f"out must have shape ({m}, {n}), got {out.shape}"
            )
        dtype = out.dtype
    else:
        dtype = cfg.np_dtype
        out = np.empty((m, n), dtype=dtype)
    sinks = np.ascontiguousarray(sinks, dtype=dtype)
    nodes = np.ascontiguousarray(node_positions, dtype=dtype)
    floor = dtype.type(d_floor)

    size = cfg.chunk_size if chunk_size is None else int(chunk_size)
    if size < 1:
        raise ConfigurationError(f"chunk_size must be >= 1, got {size}")

    eng.run_chunks(
        m,
        lambda start, stop: _fill_span(
            field, nodes, floor, sinks, out, start, stop
        ),
        chunk_size=size,
    )
    return out
