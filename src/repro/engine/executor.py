"""The parallel executor behind every engine-aware hot path.

:class:`Engine` wraps an :class:`~repro.engine.config.EngineConfig`
plus one lazily created thread pool, and exposes exactly two
primitives:

``map(fn, items)``
    Ordered fan-out — results come back in submission order, so a
    caller that consumes them positionally (per-user rankings) sees the
    same data flow as a serial loop.

``run_chunks(total, task, chunk_size=None)``
    Splits ``range(total)`` into contiguous ``[start, stop)`` spans and
    runs ``task(start, stop)`` for each. Tasks write disjoint slices of
    a caller-owned output array; because no two spans overlap and no
    cross-chunk reduction exists, the result is bitwise identical to
    the serial execution regardless of scheduling.

Nesting rule: a task submitted through an Engine must not itself fan
out through the same Engine (a saturated pool waiting on its own
children deadlocks). Engine-aware call sites therefore pass
``engine=None`` to the inner calls they fan out.

Resilience: an Engine built with a :class:`~repro.faults.RetryPolicy`
re-runs failed units (a mapped item, a chunk span) on *transient*
failures — injected faults, engine errors, ``FloatingPointError`` —
under bounded backoff. Both primitives are retry-safe by construction:
``map`` results are per-item and ``run_chunks`` tasks rewrite their
disjoint spans from scratch, so a retried unit is bitwise-identical to
a first-try success. Exhausted budgets surface as typed
:class:`~repro.errors.RetriesExhausted`.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from repro.engine.config import EngineConfig

T = TypeVar("T")
R = TypeVar("R")


class Engine:
    """A reusable parallel execution context.

    Parameters
    ----------
    config:
        Full configuration; mutually exclusive with the keyword
        shortcuts below.
    retry_policy:
        Optional :class:`~repro.faults.RetryPolicy`. When set, every
        mapped item and every chunk task is re-run under bounded
        backoff on transient failures (see module docstring); when
        ``None`` (default) failures propagate on the first occurrence.
    workers / chunk_size / dtype:
        Shortcuts building an :class:`EngineConfig` in place, e.g.
        ``Engine(workers=4)``.

    The worker pool is created on first parallel use and shared across
    all subsequent calls (one pool per Engine, not per call — pool
    startup is microseconds but it adds up in per-window paths). Use as
    a context manager, or call :meth:`close`, to release the pool;
    a closed Engine silently degrades to inline execution.
    """

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        retry_policy=None,
        **overrides,
    ):
        if config is None:
            config = EngineConfig(**overrides)
        elif overrides:
            raise TypeError("pass either a config or keyword overrides, not both")
        self.config = config
        self.retry_policy = retry_policy
        self._pool: Optional[ThreadPoolExecutor] = None
        self._lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        return self.config.workers

    @property
    def chunk_size(self) -> int:
        return self.config.chunk_size

    @property
    def parallel(self) -> bool:
        """Whether this engine will actually fan work out."""
        return self.config.workers >= 1 and not self._closed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Engine(workers={self.config.workers}, "
            f"chunk_size={self.config.chunk_size}, "
            f"dtype={self.config.dtype!r})"
        )

    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.config.workers,
                    thread_name_prefix="repro-engine",
                )
            return self._pool

    def _resilient(self, fn: Callable[..., R], label: str) -> Callable[..., R]:
        """``fn`` wrapped under this engine's retry policy (identity if none)."""
        if self.retry_policy is None:
            return fn
        from repro.faults.retry import call_with_retry

        policy = self.retry_policy

        def wrapped(*args):
            return call_with_retry(
                lambda: fn(*args), policy, label=label
            )

        return wrapped

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Apply ``fn`` to every item; results in submission order."""
        items = list(items)
        fn = self._resilient(fn, "engine.map item")
        if not self.parallel or len(items) < 2:
            return [fn(item) for item in items]
        return list(self._ensure_pool().map(fn, items))

    def run_chunks(
        self,
        total: int,
        task: Callable[[int, int], None],
        chunk_size: Optional[int] = None,
    ) -> List[Tuple[int, int]]:
        """Run ``task(start, stop)`` over contiguous spans covering ``total``.

        Returns the spans (mostly useful to tests). ``chunk_size``
        overrides the configured chunk size for this call — the
        fingerprint-map builder passes its block size through here.
        """
        size = self.config.chunk_size if chunk_size is None else int(chunk_size)
        if size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {size}")
        spans = [
            (start, min(start + size, total)) for start in range(0, total, size)
        ]
        task = self._resilient(task, "engine.run_chunks span")
        if not self.parallel or len(spans) < 2:
            for start, stop in spans:
                task(start, stop)
            return spans
        list(self._ensure_pool().map(lambda span: task(span[0], span[1]), spans))
        return spans

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the worker pool down; the Engine degrades to inline mode."""
        with self._lock:
            pool, self._pool = self._pool, None
            self._closed = True
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


_SERIAL = Engine()


def resolve_engine(engine: Optional[Engine]) -> Engine:
    """``engine`` or the shared inline (serial) engine."""
    return _SERIAL if engine is None else engine
