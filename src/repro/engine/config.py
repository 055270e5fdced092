"""Configuration of the parallel kernel engine.

One frozen dataclass carries every knob the hot paths consult: worker
count, kernel chunk size, kernel dtype, and the executor backend. The
config is deliberately immutable — an :class:`~repro.engine.executor.
Engine` is handed to long-lived objects (trackers, sessions, builders)
and mutating knobs mid-flight would make "parallel output is bitwise
equal to serial" unverifiable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError

_DTYPES = ("float64", "float32")
_BACKENDS = ("thread", "process")


@dataclass(frozen=True)
class EngineConfig:
    """Knobs of the parallel kernel engine.

    Attributes
    ----------
    workers:
        Worker count for fan-out (kernel chunks, solver row chunks,
        per-user rankings, fingerprint-map cell batches, cross-session
        drains). ``0`` runs everything inline on the calling thread —
        the default, and always bitwise-identical to any ``workers >=
        1`` run in float64 because parallel units write disjoint output
        slices and no reduction order changes.
    chunk_size:
        Candidate (sink) rows per kernel-evaluation chunk: the unit of
        work the executor fans out. It does not bound the working set;
        the evaluator works through every chunk in row blocks of a
        fixed pair budget (``repro.engine.kernels._BLOCK_PAIRS``).
    dtype:
        ``"float64"`` (default) or ``"float32"`` for geometry-kernel
        evaluation. float32 halves kernel memory traffic; the batched
        theta solve always runs in float64, so only the kernel values
        themselves lose precision (see docs/PERFORMANCE.md for the
        observed error envelope).
    backend:
        ``"thread"`` (default) — a shared thread pool; numpy releases
        the GIL in the large vectorized sections, so threads scale on
        multi-core hosts with zero serialization cost. ``"process"`` —
        a fork-based process pool writing kernel blocks into POSIX
        shared memory; only worthwhile for very large pools on hosts
        where the thread path is GIL-bound. Falls back to ``thread``
        where ``fork`` is unavailable.
    watchdog_s:
        Process-backend watchdog: the longest one fork-pool evaluation
        may take before the executor declares a dead or hung worker and
        raises :class:`~repro.errors.WorkerCrashed` instead of waiting
        on ``join()`` forever (a killed worker's chunk is silently lost
        by ``multiprocessing.Pool``). ``None`` disables the watchdog
        (the pre-resilience behavior; only sensible in debuggers).
    """

    workers: int = 0
    chunk_size: int = 4096
    dtype: str = "float64"
    backend: str = "thread"
    watchdog_s: Optional[float] = 60.0

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {self.workers}")
        if self.chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {self.chunk_size}"
            )
        if self.dtype not in _DTYPES:
            raise ConfigurationError(
                f"dtype must be one of {_DTYPES}, got {self.dtype!r}"
            )
        if self.backend not in _BACKENDS:
            raise ConfigurationError(
                f"backend must be one of {_BACKENDS}, got {self.backend!r}"
            )
        if self.watchdog_s is not None and self.watchdog_s <= 0:
            raise ConfigurationError(
                f"watchdog_s must be positive or None, got {self.watchdog_s}"
            )

    @property
    def np_dtype(self) -> np.dtype:
        return np.dtype(self.dtype)
