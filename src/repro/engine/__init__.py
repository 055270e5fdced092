"""The geometry-kernel evaluator and the benchmark recorder.

* :mod:`repro.engine.kernels` evaluates the cost that dominates every
  localization and tracking round — the geometry kernels of paper
  Formula 3.4 — in float64 through a broadcast (no ``(m*n, 2)``
  materialization) in row blocks, with a closed-form rectangular
  ray-exit fast path. Every row depends on its own sink alone, so a
  sink evaluated alone equals its row of any batch bit for bit;
* :mod:`repro.engine.benchrunner` records every perf benchmark into a
  machine-readable ``BENCH_*.json`` trajectory.

Both are plain functions on the calling thread. A second core is used
by running more processes: :class:`repro.fleet.ServeFleet` (see
docs/PERFORMANCE.md).
"""

from repro.engine.kernels import (
    evaluate_geometry_kernels,
    reference_geometry_kernels,
)
from repro.engine.benchrunner import (
    measure_interleaved,
    peak_rss_kb,
    write_bench_json,
)

__all__ = [
    "evaluate_geometry_kernels",
    "reference_geometry_kernels",
    "measure_interleaved",
    "peak_rss_kb",
    "write_bench_json",
]
