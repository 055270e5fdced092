"""Shared machine-readable benchmark runner (the perf trajectory).

Every performance benchmark in ``benchmarks/`` funnels its results
through :func:`write_bench_json`, producing one ``BENCH_<name>.json``
per hot path with a stable schema::

    {
      "benchmark": "engine",
      "env": {"cpus": ..., "python": ..., "numpy": ...},
      "records": [ {case record...}, ... ]
    }

so this and every future perf PR appends comparable numbers — the
"benchmark trajectory" the ROADMAP's fast-as-the-hardware-allows goal
is steered by. :func:`measure_interleaved` is the shared timing core:
repeated wall-clock runs of one or more functions, interleaved so that
their ratio does not follow the host's load, reduced to median/p95
plus the process peak RSS, and optionally the Python-level peak
allocation of one traced run (the bounded-working-set evidence for the
row-blocked kernel evaluator).
"""

from __future__ import annotations

import fnmatch
import json
import os
import platform
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

# Percentile reduction is shared with the stream/serve metrics layers;
# re-exported here because benchmark modules import it from benchrunner.
from repro.metrics import quantile

__all__ = [
    "peak_rss_kb",
    "quantile",
    "measure_interleaved",
    "environment",
    "git_state",
    "write_bench_json",
]


def peak_rss_kb() -> int:
    """Process high-water resident set size in KiB (Linux semantics)."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - ru_maxrss is bytes there
        rss //= 1024
    return int(rss)


def measure_interleaved(
    fns: Sequence[Callable[[], Any]],
    repeats: int = 5,
    warmup: int = 1,
    trace_memory: bool = False,
) -> List[Dict[str, Any]]:
    """Time several functions in interleaved repeats; one record each.

    Repeat ``i`` runs every function once, the ``i``-th (mod their
    count) first, so a change in the host's load between repeats falls
    on every side alike and no side always runs first: the ratio of two
    records' medians stays comparable between regenerations.

    Each record, in the order of ``fns``, has ``median_s``, ``p95_s``,
    ``min_s``, the raw ``runs_s`` list, and ``peak_rss_kb``. With
    ``trace_memory`` one extra (untimed) run of each function executes
    under :mod:`tracemalloc` and its record gains
    ``traced_peak_bytes`` — the Python-allocator high-water mark of
    that run, which includes numpy array buffers and is what bounds a
    row-blocked evaluator's working set.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    fns = list(fns)
    for _ in range(max(0, warmup)):
        for fn in fns:
            fn()
    runs: List[List[float]] = [[] for _ in fns]
    for i in range(repeats):
        for j in range(len(fns)):
            k = (i + j) % len(fns)
            started = time.perf_counter()
            fns[k]()
            runs[k].append(time.perf_counter() - started)
    records = []
    for fn, times in zip(fns, runs):
        record: Dict[str, Any] = {
            "runs_s": times,
            "median_s": quantile(times, 0.5),
            "p95_s": quantile(times, 0.95),
            "min_s": min(times),
            "peak_rss_kb": peak_rss_kb(),
        }
        if trace_memory:
            tracemalloc.start()
            try:
                fn()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            record["traced_peak_bytes"] = int(peak)
        records.append(record)
    return records


def git_state(path: Path) -> Tuple[Optional[str], Optional[bool]]:
    """``(short commit, dirty)`` of the git checkout holding ``path``.

    ``dirty``: a tracked file other than a ``BENCH_*.json`` (which a
    benchmark rewrites before it is committed) differs from the commit.
    Both are ``None`` where git or the checkout is missing.
    """

    def git(*args: str) -> Optional[str]:
        try:
            done = subprocess.run(
                ["git", *args], capture_output=True, text=True, timeout=5.0,
                cwd=path,
            )
        except (OSError, subprocess.SubprocessError):
            return None
        return done.stdout if done.returncode == 0 else None

    commit = (git("rev-parse", "--short", "HEAD") or "").strip() or None
    changed = git("diff", "--name-only", "HEAD") if commit else None
    if changed is None:
        return commit, None
    return commit, any(
        not fnmatch.fnmatch(Path(name).name, "BENCH_*.json")
        for name in changed.splitlines()
    )


def environment() -> Dict[str, Any]:
    """Run metadata that makes BENCH_*.json files comparable.

    ``cpus`` is the machine's logical count; ``cpus_available`` is what
    this process may actually schedule on (CI runners and cgroup limits
    routinely make it smaller — the number that governs any multi-core
    speedup).
    ``git_commit`` pins the code the numbers were measured at, unless
    ``git_dirty`` (see :func:`git_state`) says the tree differed from it.
    """
    import numpy

    try:
        cpus_available = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        cpus_available = os.cpu_count()
    git_commit, git_dirty = git_state(Path(__file__).resolve().parent)
    return {
        "cpus": os.cpu_count(),
        "cpus_available": cpus_available,
        "git_commit": git_commit,
        "git_dirty": git_dirty,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": sys.platform,
    }


def write_bench_json(
    benchmark: str,
    records: Sequence[Dict[str, Any]],
    path: Optional[str] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> Path:
    """Write ``BENCH_<benchmark>.json`` (or ``path``) and return the path."""
    out = Path(path) if path else Path(f"BENCH_{benchmark}.json")
    payload: Dict[str, Any] = {
        "benchmark": benchmark,
        "env": environment(),
        "records": list(records),
    }
    if meta:
        payload["meta"] = dict(meta)
    out.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
    return out
