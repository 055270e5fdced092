"""repro.faults — deterministic fault injection and resilience primitives.

The production layers built in PRs 1–4 (streaming, fingerprint map,
parallel engine, batched serving) are exercised under *failure* through
this package: seeded :class:`FaultPlan`\\ s fire at named injection
sites wired into kernel evaluation, stream sources, checkpoint
persistence, the serve scheduler, fleet workers and the gateway;
:class:`RetryPolicy` bounds the recovery attempts those layers make;
and the injectable :mod:`clock <repro.faults.clock>` makes every
deadline and backoff decision testable without real sleeps.

Quick chaos run::

    from repro.faults import FaultPlan, FaultSpec, injected

    plan = FaultPlan(
        [FaultSpec("serve.batch.fuse", times=1),
         FaultSpec("checkpoint.partial_write", times=1)],
        seed=7,
    )
    with injected(plan):
        ...  # drive the service; retries absorb both faults
    print(plan.summary())

Disarmed (the default), every fault point costs a single ``None``
check — see ``tests/chaos`` for the invariants this package enforces:
exactly one typed reply per request, checkpoints absent or
bitwise-resumable, retried float64 results bitwise-identical to the
no-fault run.
"""

from repro.errors import (
    EngineError,
    FaultInjected,
    RetriesExhausted,
    WorkerCrashed,
)
from repro.faults import clock
from repro.faults.clock import FakeClock, SystemClock
from repro.faults.plan import (
    KNOWN_SITES,
    FaultPlan,
    FaultSpec,
    active_plan,
    arm,
    disarm,
    injected,
    should_fire,
)
from repro.faults.retry import (
    TRANSIENT_ERRORS,
    RetryPolicy,
    call_with_retry,
)
from repro.faults.streams import torn_observation, wrap_observation_stream

__all__ = [
    "KNOWN_SITES",
    "FaultPlan",
    "FaultSpec",
    "FaultInjected",
    "EngineError",
    "WorkerCrashed",
    "RetriesExhausted",
    "RetryPolicy",
    "TRANSIENT_ERRORS",
    "call_with_retry",
    "arm",
    "disarm",
    "active_plan",
    "injected",
    "should_fire",
    "clock",
    "SystemClock",
    "FakeClock",
    "torn_observation",
    "wrap_observation_stream",
]
