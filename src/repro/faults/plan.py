"""Deterministic fault-injection plans and the fault-point registry.

A :class:`FaultPlan` is a seeded description of *which* failure sites
fire, *how often*, and *when* — the chaos harness's steering wheel. The
library's hot paths carry named **fault points** (``should_fire(site)``
calls) at the places production failures actually happen:

======================== ==================================================
site                      effect at the call site
======================== ==================================================
``engine.kernel.transient`` kernel chunk raises :class:`FaultInjected`
                          (a transient numerical failure; retryable)
``stream.source.stall``   observation stream sleeps ``delay_s``
``stream.source.duplicate`` one window is delivered twice
``stream.source.torn``    a window arrives truncated (half its sniffers)
``checkpoint.partial_write`` checkpoint temp file is written half, then
                          the write raises (a torn write / full disk)
``checkpoint.fsync``      checkpoint fsync raises before the rename
``serve.batch.fuse``      the scheduler's fused kernel pass raises
                          mid-batch
``fleet.worker.exit``     a fleet worker process ``os._exit``\\ s on
                          request receipt (killed between track steps)
``gateway.client.slow``   the gateway stalls ``delay_s`` before writing a
                          reply frame (a slow-consuming client)
``gateway.conn.half_open`` the gateway aborts a connection's transport on
                          frame receipt without a FIN (half-open peer;
                          in-flight replies are discarded and counted)
``gateway.frame.torn``    a reply frame is written half, then the
                          connection is torn down mid-frame
======================== ==================================================

Determinism and overhead are the two contracts:

* **Deterministic** — each site draws from its own RNG stream spawned
  from ``(plan seed, crc32(site))``, and activation counting is
  per-site, so the same plan against the same workload fires at the
  same opportunities every run. A chaos failure reproduces from just
  the plan JSON (``repro serve --fault-plan plan.json``).
* **Zero overhead disarmed** — a disarmed process pays one module
  attribute read and a ``None`` check per fault point, nothing else.
  No plan object, no RNG, no lock is ever touched.

Fork caveat: fleet workers inherit the armed plan by ``fork``, so the
worker-side site (``fleet.worker.exit``) fires in the child with the
child's *copy* of the counters — the parent's ``fired``/
``opportunities`` tallies do not include child-side activations.
"""

from __future__ import annotations

import json
import threading
import zlib
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, Optional, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError

_PathLike = Union[str, Path]

#: Every injection site wired into the library. Plans naming a site
#: outside this set fail construction (typos must not silently disarm
#: a chaos run); pass ``strict=False`` for experimental custom sites.
KNOWN_SITES = (
    "engine.kernel.transient",
    "stream.source.stall",
    "stream.source.duplicate",
    "stream.source.torn",
    "checkpoint.partial_write",
    "checkpoint.fsync",
    "serve.batch.fuse",
    "fleet.worker.exit",
    "gateway.client.slow",
    "gateway.conn.half_open",
    "gateway.frame.torn",
)


@dataclass(frozen=True)
class FaultSpec:
    """When one site fires.

    Attributes
    ----------
    site:
        Fault-point name (see :data:`KNOWN_SITES`).
    times:
        Maximum activations before the site goes quiet (``None`` =
        unlimited). ``times=1`` is the classic *transient* fault: fail
        once, succeed on retry.
    probability:
        Chance of firing at each opportunity, drawn from the site's
        seeded stream (``1.0`` = every opportunity, the default).
    delay_s:
        Duration parameter for stall/hang-style sites.
    skip:
        Let this many opportunities pass before the site may fire —
        places a fault mid-run instead of at the first touch.
    """

    site: str
    times: Optional[int] = 1
    probability: float = 1.0
    delay_s: float = 0.0
    skip: int = 0

    def __post_init__(self) -> None:
        if not self.site:
            raise ConfigurationError("fault site must be non-empty")
        if self.times is not None and self.times < 1:
            raise ConfigurationError(
                f"times must be >= 1 or None, got {self.times}"
            )
        if not 0.0 < self.probability <= 1.0:
            raise ConfigurationError(
                f"probability must be in (0, 1], got {self.probability}"
            )
        if self.delay_s < 0:
            raise ConfigurationError(
                f"delay_s must be >= 0, got {self.delay_s}"
            )
        if self.skip < 0:
            raise ConfigurationError(f"skip must be >= 0, got {self.skip}")


class FaultPlan:
    """A seeded set of :class:`FaultSpec`\\ s with firing state.

    Thread-safe: fault points are hit from scheduler threads, stream
    pumps, and engine threads concurrently; all decision state mutates
    under one lock.
    """

    def __init__(
        self,
        specs: Iterable[FaultSpec] = (),
        seed: int = 0,
        strict: bool = True,
    ):
        self.seed = int(seed)
        self.strict = bool(strict)
        self._specs: Dict[str, FaultSpec] = {}
        for spec in specs:
            if not isinstance(spec, FaultSpec):
                raise ConfigurationError(
                    f"specs must be FaultSpec, got {type(spec).__name__}"
                )
            if spec.site in self._specs:
                raise ConfigurationError(
                    f"duplicate spec for site {spec.site!r}"
                )
            if strict and spec.site not in KNOWN_SITES:
                raise ConfigurationError(
                    f"unknown fault site {spec.site!r}; known sites: "
                    f"{', '.join(KNOWN_SITES)} (strict=False allows custom)"
                )
            self._specs[spec.site] = spec
        self._lock = threading.Lock()
        self._fired: Dict[str, int] = {site: 0 for site in self._specs}
        self._opportunities: Dict[str, int] = {site: 0 for site in self._specs}
        self._rngs: Dict[str, np.random.Generator] = {
            site: np.random.default_rng(
                np.random.SeedSequence([self.seed, zlib.crc32(site.encode())])
            )
            for site, spec in self._specs.items()
            if spec.probability < 1.0
        }

    # ------------------------------------------------------------------
    @property
    def sites(self) -> Tuple[str, ...]:
        return tuple(self._specs)

    def spec(self, site: str) -> Optional[FaultSpec]:
        return self._specs.get(site)

    def should_fire(self, site: str) -> Optional[FaultSpec]:
        """Decide one opportunity at ``site``; returns the spec if it fires."""
        spec = self._specs.get(site)
        if spec is None:
            return None
        with self._lock:
            opportunity = self._opportunities[site]
            self._opportunities[site] = opportunity + 1
            if opportunity < spec.skip:
                return None
            if spec.times is not None and self._fired[site] >= spec.times:
                return None
            if spec.probability < 1.0:
                if float(self._rngs[site].random()) >= spec.probability:
                    return None
            self._fired[site] += 1
            return spec

    def fired(self, site: str) -> int:
        with self._lock:
            return self._fired.get(site, 0)

    def opportunities(self, site: str) -> int:
        with self._lock:
            return self._opportunities.get(site, 0)

    def summary(self) -> Dict[str, Dict[str, int]]:
        """``{site: {"fired": n, "opportunities": m}}`` (JSON-ready)."""
        with self._lock:
            return {
                site: {
                    "fired": self._fired[site],
                    "opportunities": self._opportunities[site],
                }
                for site in self._specs
            }

    # ------------------------------------------------------------------
    def to_json(self, indent: int = 2) -> str:
        payload = {
            "seed": self.seed,
            "specs": [asdict(spec) for spec in self._specs.values()],
        }
        return json.dumps(payload, indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str, strict: bool = True) -> "FaultPlan":
        try:
            payload = json.loads(text)
            specs = [FaultSpec(**raw) for raw in payload.get("specs", [])]
            seed = int(payload.get("seed", 0))
        except (ValueError, TypeError, KeyError) as exc:
            raise ConfigurationError(
                f"cannot parse fault plan JSON ({type(exc).__name__}: {exc})"
            ) from exc
        return cls(specs, seed=seed, strict=strict)

    def save(self, path: _PathLike) -> Path:
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: _PathLike, strict: bool = True) -> "FaultPlan":
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read fault plan {path}: {exc}"
            ) from exc
        try:
            return cls.from_json(text, strict=strict)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{path}: {exc}") from exc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan(seed={self.seed}, sites={list(self._specs)})"


# ----------------------------------------------------------------------
# Global arming. One plan per process; fault points consult it through
# the module-level `should_fire`, whose disarmed cost is a None check.
# ----------------------------------------------------------------------
_armed: Optional[FaultPlan] = None


def arm(plan: FaultPlan) -> FaultPlan:
    """Make ``plan`` the process's active fault plan."""
    global _armed
    if not isinstance(plan, FaultPlan):
        raise ConfigurationError(
            f"arm() needs a FaultPlan, got {type(plan).__name__}"
        )
    _armed = plan
    return plan


def disarm() -> None:
    global _armed
    _armed = None


def active_plan() -> Optional[FaultPlan]:
    return _armed


@contextmanager
def injected(plan: Optional[FaultPlan]) -> Iterator[Optional[FaultPlan]]:
    """Arm ``plan`` for a scope (``None`` = no-op, for optional wiring)."""
    global _armed
    previous = _armed
    if plan is not None:
        arm(plan)
    try:
        yield plan
    finally:
        _armed = previous


def should_fire(site: str) -> Optional[FaultSpec]:
    """The fault-point call: ``None`` unless an armed plan fires here."""
    plan = _armed
    if plan is None:
        return None
    return plan.should_fire(site)
