"""Bounded retries with exponential backoff and seeded jitter.

:class:`RetryPolicy` is a frozen description — attempts, backoff curve,
jitter band — and :func:`call_with_retry` is the one executor every
retrying call site shares (the serve scheduler's fused kernel pass,
the checkpoint writes of ``run_stream`` and the service drain, and the
fleet workers' checkpoint writes). Backoff sleeps go
through the injected clock (:mod:`repro.faults.clock`), so chaos tests
retry "for seconds" in microseconds, and jitter draws from a caller-
seeded RNG — a retried computation is exactly as deterministic as its
first attempt.

When the budget runs out the caller gets a typed
:class:`~repro.errors.RetriesExhausted` with the final failure chained
as ``__cause__`` — never a bare swallowed exception, never an unbounded
loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Type, TypeVar

import numpy as np

from repro.errors import (
    ConfigurationError,
    EngineError,
    FaultInjected,
    RetriesExhausted,
)
from repro.faults import clock as _clock

T = TypeVar("T")

#: Default exception classes worth retrying: injected faults and the
#: transient numerical/backend failures they imitate. Deliberately NOT
#: ``Exception`` — retrying a programming error just repeats it.
TRANSIENT_ERRORS: Tuple[Type[BaseException], ...] = (
    FaultInjected,
    EngineError,
    FloatingPointError,
    OSError,
)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff: ``base * multiplier**attempt`` capped.

    Attributes
    ----------
    max_attempts:
        Total tries including the first (``1`` = no retry at all).
    base_delay_s / multiplier / max_delay_s:
        Backoff curve between attempts; the delay before retry ``k``
        (0-based) is ``min(base * multiplier**k, max_delay)``.
    jitter:
        Fractional jitter band: the delay is scaled by a uniform draw
        from ``[1 - jitter, 1 + jitter]`` (``0`` = deterministic
        spacing). The draw comes from the RNG handed to
        :func:`call_with_retry`, never from wall-clock entropy.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.005
    multiplier: float = 2.0
    max_delay_s: float = 0.25
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay_s < 0:
            raise ConfigurationError(
                f"base_delay_s must be >= 0, got {self.base_delay_s}"
            )
        if self.multiplier < 1.0:
            raise ConfigurationError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )
        if self.max_delay_s < self.base_delay_s:
            raise ConfigurationError(
                f"max_delay_s ({self.max_delay_s}) must be >= base_delay_s "
                f"({self.base_delay_s})"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigurationError(
                f"jitter must be in [0, 1), got {self.jitter}"
            )

    def delay_s(
        self, attempt: int, rng: Optional[np.random.Generator] = None
    ) -> float:
        """Backoff before retrying after failed attempt ``attempt`` (0-based)."""
        raw = min(
            self.base_delay_s * self.multiplier**attempt, self.max_delay_s
        )
        if self.jitter > 0 and rng is not None:
            raw *= float(rng.uniform(1.0 - self.jitter, 1.0 + self.jitter))
        return raw


#: The library's one default policy, for the serve scheduler's fused
#: kernel pass and every checkpoint write (service drain, fleet workers,
#: ``repro track-stream``): three attempts, 5 ms then 10 ms apart.
DEFAULT_RETRY_POLICY = RetryPolicy(
    max_attempts=3, base_delay_s=0.005, max_delay_s=0.1
)


def call_with_retry(
    fn: Callable[[], T],
    policy: RetryPolicy,
    retry_on: Optional[Tuple[Type[BaseException], ...]] = None,
    clock=None,
    rng: Optional[np.random.Generator] = None,
    on_retry: Optional[Callable[[int, BaseException], None]] = None,
    label: str = "operation",
) -> T:
    """Run ``fn`` under ``policy``; raise :class:`RetriesExhausted` on defeat.

    Parameters
    ----------
    fn:
        Zero-argument callable. It must be idempotent — every retrying
        call site in this library recomputes into caller-owned buffers
        or rebuilds its temp file from scratch.
    retry_on:
        Exception classes worth another attempt; anything else
        propagates immediately. Defaults to the transient set (injected
        faults, engine/backend failures, ``FloatingPointError``,
        ``OSError``).
    clock:
        Sleep target for backoff; defaults to the installed faults
        clock.
    rng:
        Jitter stream. ``None`` uses deterministic (jitter-free)
        spacing, keeping default behavior reproducible.
    on_retry:
        Observer called ``on_retry(attempt, exc)`` before each backoff —
        the metrics hook (e.g. ``ServerMetrics.record_retry``).
    label:
        Human-readable operation name for the exhaustion message.
    """
    if retry_on is None:
        retry_on = TRANSIENT_ERRORS
    if clock is None:
        clock = _clock.current_clock()
    last: Optional[BaseException] = None
    for attempt in range(policy.max_attempts):
        try:
            return fn()
        except retry_on as exc:
            last = exc
            if attempt + 1 >= policy.max_attempts:
                break
            if on_retry is not None:
                on_retry(attempt, exc)
            clock.sleep(policy.delay_s(attempt, rng))
    raise RetriesExhausted(
        f"{label} failed after {policy.max_attempts} attempts "
        f"({type(last).__name__}: {last})"
    ) from last
