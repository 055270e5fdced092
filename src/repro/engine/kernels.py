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
* a **closed-form rectangular ray exit** — for axis-aligned rectangles
  the slab loop over four walls collapses to two divisions and a
  ``max`` per axis, with no per-pair selection (bitwise-equal to the
  reference slab method for in-field sinks, see :func:`_axis_exit`);
  the rare-path fix-ups (exits behind the origin, a node at the sink,
  non-finite kernels) each hide behind one ``min``/``max`` reduction;
* **row blocks** — every chunk is evaluated ``_BLOCK_PAIRS`` pairs at
  a time on reused scratch, so the working set stays in L2 whatever the
  chunk size;
* **chunking** — ``chunk_size`` is only the executor's unit of fan-out
  (chunks write disjoint output rows, so any worker count is
  bitwise-identical to serial);
* an optional **float32 mode** that halves memory traffic for
  huge pools (the theta solve downstream stays float64).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.engine.config import EngineConfig
from repro.engine.executor import Engine, resolve_engine
from repro.errors import ConfigurationError, FaultInjected, WorkerCrashed
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
    u: np.ndarray, o: np.ndarray, lo: float, hi: float, out: np.ndarray
) -> np.ndarray:
    """Smallest positive slab crossing along one axis, ``inf`` if none.

    Closed form of the reference slab loop restricted to one axis: for
    an origin inside ``[lo, hi]`` the crossing ahead of it is the larger
    of the two wall quotients (``u == 0`` gives ``±inf`` or NaN, which
    end as ``+inf``), so the four-candidate scan collapses to two
    divisions and a ``max``. The reference validity rule ``isfinite(t)
    and t > eps`` is applied to that candidate, which keeps the result
    bitwise-equal to the reference for every in-field origin. Writes
    the result to ``out`` and overwrites ``u``.
    """
    scalar = u.dtype.type
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.divide(scalar(hi) - o, u, out=out)
        np.maximum(t, np.divide(scalar(lo) - o, u, out=u), out=t)
    if not t.min() > _EPS:  # rare: an origin on a wall facing out, or NaN
        t[~(t > _EPS)] = np.inf
    return t


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

    Works through the rows in :func:`_row_blocks` on four reused
    scratch arrays. Every step is elementwise, so the blocking never
    changes a value.
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
        np.hypot(dx, dy, out=norms)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(dx, norms, out=dx)  # dx/dy now hold the unit direction
            np.divide(dy, norms, out=dy)
        if norms.min() < _EPS:  # rare: a node at the sink
            degenerate = norms < _EPS
            dx[degenerate] = one
            dy[degenerate] = zero
        tx = _axis_exit(dx, sx, field.xmin, field.xmax, out=l)
        ty = _axis_exit(dy, sy, field.ymin, field.ymax, out=dx)
        np.minimum(tx, ty, out=l)
        d = np.maximum(norms, d_floor, out=norms)
        np.multiply(l, l, out=l)  # l^2
        np.multiply(d, d, out=dy)  # d^2
        np.subtract(l, dy, out=l)  # l^2 - d^2
        np.multiply(d, 2.0, out=d)
        np.divide(l, d, out=l)
        block = out[r0:r1]
        np.maximum(l, zero, out=block)
        if not np.isfinite(block.max()):
            # Unreachable-boundary pairs (sink within eps of a wall
            # looking along it); the reference raises here — we define
            # them to contribute no flux instead.
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

    Uses the field's own ``ray_exit_distance`` (same operations as the
    reference, hence bitwise-equal), but only ever materializes the
    ``(chunk * n, 2)`` slice of the pair grid.
    """
    chunk = sinks[start:stop]
    c, n = chunk.shape[0], nodes.shape[0]
    directions = (nodes[None, :, :] - chunk[:, None, :]).reshape(c * n, 2)
    norms = np.hypot(directions[:, 0], directions[:, 1])
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
# Process backend: fork workers filling a shared-memory block.
# ----------------------------------------------------------------------
def _process_worker(payload) -> None:  # pragma: no cover - exercised via subprocess
    import os
    import time
    from multiprocessing import shared_memory

    # Fork children inherit the armed fault plan; firings counted here
    # never propagate back to the parent's counters (documented in
    # repro.faults.plan), so crash/hang faults repeat across retries —
    # recovery from them is the serve layer's serial fallback.
    spec = should_fire("engine.worker.crash")
    if spec is not None:
        os._exit(1)
    spec = should_fire("engine.worker.hang")
    if spec is not None:
        time.sleep(spec.delay_s)

    shm_name, shape, dtype, field, nodes, d_floor, sinks, start, stop = payload
    shm = shared_memory.SharedMemory(name=shm_name)
    try:
        out = np.ndarray(shape, dtype=dtype, buffer=shm.buf)
        _fill_span(field, nodes, d_floor, sinks, out, start, stop)
    finally:
        shm.close()


def _fork_available() -> bool:
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def _fill_processes(
    field: Field,
    nodes: np.ndarray,
    d_floor: float,
    sinks: np.ndarray,
    out: np.ndarray,
    chunk_size: int,
    workers: int,
    watchdog_s: Optional[float] = None,
) -> None:
    import multiprocessing
    from multiprocessing import shared_memory

    total = sinks.shape[0]
    shm = shared_memory.SharedMemory(create=True, size=max(out.nbytes, 1))
    try:
        shared = np.ndarray(out.shape, dtype=out.dtype, buffer=shm.buf)
        spans = [
            (start, min(start + chunk_size, total))
            for start in range(0, total, chunk_size)
        ]
        payloads = [
            (
                shm.name, out.shape, out.dtype.str, field, nodes, d_floor,
                sinks, start, stop,
            )
            for start, stop in spans
        ]
        ctx = multiprocessing.get_context("fork")
        pool = ctx.Pool(processes=workers)
        try:
            # A worker killed mid-task (OOM, segfault, SIGKILL) silently
            # loses its chunk and a plain pool.map joins forever; the
            # watchdog turns both death and hang into a typed error.
            result = pool.map_async(_process_worker, payloads)
            try:
                result.get(timeout=watchdog_s)
            except multiprocessing.TimeoutError:
                pool.terminate()
                raise WorkerCrashed(
                    f"process backend: {len(spans)} kernel chunk(s) not "
                    f"completed within watchdog_s={watchdog_s}s — a worker "
                    "died or hung"
                ) from None
        finally:
            pool.terminate()
            pool.join()
        out[:] = shared
    finally:
        shm.close()
        shm.unlink()


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

    if (
        cfg.backend == "process"
        and eng.parallel
        and m > size
        and _fork_available()
    ):
        def _run_processes() -> None:
            _fill_processes(
                field, nodes, floor, sinks, out, size, cfg.workers,
                watchdog_s=cfg.watchdog_s,
            )

        if eng.retry_policy is None:
            _run_processes()
        else:
            from repro.faults.retry import call_with_retry

            call_with_retry(
                _run_processes, eng.retry_policy,
                label="engine.process_backend evaluation",
            )
        return out

    eng.run_chunks(
        m,
        lambda start, stop: _fill_span(
            field, nodes, floor, sinks, out, start, stop
        ),
        chunk_size=size,
    )
    return out
