"""The fleet worker: one process, one full serving stack.

Each worker process runs its own :class:`~repro.serve.service.
LocalizationService` — admission queue, micro-batch scheduler, the
deployment's fingerprint map when it has one — and speaks a
tiny envelope protocol with the router over a pair of pipes:

parent -> worker
    ``("req", seq, request)`` — serve one Localize/TrackStep request;
    ``("open", seq, spec)`` / ``("resume", seq, path)`` /
    ``("close", seq, session_id)`` — session lifecycle;
    ``("metrics", seq)`` — snapshot;
    ``("stop", seq)`` — drain, checkpoint, exit.
worker -> parent
    ``("reply", worker_id, seq, reply)`` for requests,
    ``("control", worker_id, seq, ok, payload)`` for everything else.

Two invariants make the fleet's failure semantics work:

* **Checkpoint-before-reply.** After every tracking-step reply (applied
  *or* skipped — skip counters are session state too) the worker
  checkpoints the session before the reply leaves the process. A reply
  the router has seen therefore implies durable state at least that
  far, so crash recovery resumes from the newest replied-to step and
  the router's redelivery of unanswered steps replays forward from
  exactly there (checkpoint-bounded replay).
* **In-order forwarding.** Envelopes are forwarded to the service in
  arrival order and the scheduler keeps per-session FIFO, so the
  steps the router redelivers after a respawn apply in submission
  order.

The ``fleet.worker.exit`` fault point fires on request receipt and
terminates the process with ``os._exit`` — the chaos harness's way of
killing a worker *between* track steps with seeded determinism.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.faults.plan import should_fire
from repro.serve.requests import TrackStepReply
from repro.serve.service import LocalizationService
from repro.smc.tracker import TrackerConfig
from repro.stream.checkpoint import checkpoint_path, save_checkpoint

#: Exit code of a fault-injected worker kill (tests assert on it).
FAULT_EXIT_CODE = 17


@dataclass(frozen=True)
class SessionSpec:
    """Everything needed to (re)create a tracking session bitwise.

    ``seed`` feeds the tracker's RNG, so reopening from the spec
    reproduces the prior-draw exactly; ``config`` is the
    :class:`~repro.smc.tracker.TrackerConfig` as a plain dict (or
    ``None`` for defaults).
    """

    session_id: str
    user_count: int
    seed: int = 0
    config: Optional[dict] = None

    def tracker_config(self) -> TrackerConfig:
        """The session's tracker knobs (the defaults without ``config``)."""
        return (
            TrackerConfig(**self.config) if self.config is not None
            else TrackerConfig()
        )


@dataclass
class WorkerSpec:
    """Constructor arguments of one worker's in-process service.

    Built once by the router and inherited by every forked child. The
    ``fingerprint_map`` is the deployment's one map (``None`` without a
    map), the same object for every worker; fork makes the handoff
    copy-on-write.
    """

    field: object
    sniffer_positions: np.ndarray
    d_floor: float = 1.0
    fingerprint_map: object = None
    checkpoint_dir: Optional[str] = None
    max_batch: int = 32
    queue_capacity: int = 512

    def build_service(self) -> LocalizationService:
        return LocalizationService(
            self.field,
            self.sniffer_positions,
            d_floor=self.d_floor,
            fingerprint_map=self.fingerprint_map,
            max_batch=self.max_batch,
            queue_capacity=self.queue_capacity,
        )


def _open_session(service: LocalizationService, spec: SessionSpec):
    return service.open_session(
        spec.session_id, spec.user_count, config=spec.tracker_config(),
        rng=spec.seed,
    )


def worker_main(worker_id: int, spec: WorkerSpec, conn) -> None:
    """Run one worker until ``stop`` (or the parent/pipe goes away)."""
    service = spec.build_service().start()
    send_lock = threading.Lock()

    def send(message) -> None:
        with send_lock:
            conn.send(message)

    def complete_request(seq: int, future) -> None:
        # Runs on the scheduler thread at reply time: persist session
        # state *before* the reply leaves (checkpoint-before-reply).
        reply = future.result()  # service futures always resolve
        if (
            spec.checkpoint_dir is not None
            and isinstance(reply, TrackStepReply)
        ):
            session = service._session_for(reply.session_id)
            if session is not None:
                try:
                    save_checkpoint(
                        session,
                        checkpoint_path(spec.checkpoint_dir, reply.session_id),
                        retry_policy=service.retry_policy,
                    )
                except Exception:  # noqa: BLE001 - durability is
                    # bounded-retry best effort; answering the client
                    # beats hanging its future on a full disk.
                    pass
        try:
            send(("reply", worker_id, seq, reply))
        except (OSError, ValueError):  # pipe gone: router died or is
            pass  # tearing down; nothing left to answer to

    running = True
    while running:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break  # router gone; daemonized worker just exits
        kind, seq = message[0], message[1]
        if kind == "req":
            request = message[2]
            if should_fire("fleet.worker.exit") is not None:
                os._exit(FAULT_EXIT_CODE)  # simulated kill, no cleanup
            future = service.submit(request)
            future.add_done_callback(
                lambda f, seq=seq: complete_request(seq, f)
            )
            continue
        try:
            if kind == "open":
                session_spec: SessionSpec = message[2]
                session = _open_session(service, session_spec)
                path = None
                if spec.checkpoint_dir is not None:
                    path = checkpoint_path(
                        spec.checkpoint_dir, session_spec.session_id
                    )
                    save_checkpoint(session, path,
                                    retry_policy=service.retry_policy)
                send(("control", worker_id, seq, True, path))
            elif kind == "resume":
                path = message[2]
                session = service.resume_session(path)
                send(("control", worker_id, seq, True, session.session_id))
            elif kind == "close":
                session_id = message[2]
                service.close_session(session_id)
                send(("control", worker_id, seq, True, session_id))
            elif kind == "metrics":
                payload = {
                    "worker_id": worker_id,
                    "pid": os.getpid(),
                    "sessions": service.session_ids,
                    "metrics": service.metrics.snapshot(),
                }
                send(("control", worker_id, seq, True, payload))
            elif kind == "stop":
                summary = service.stop(
                    drain=True, checkpoint_dir=spec.checkpoint_dir
                )
                send(("control", worker_id, seq, True, summary))
                running = False
            else:
                send(("control", worker_id, seq, False,
                      f"unknown envelope kind {kind!r}"))
        except Exception as exc:  # typed refusal, never a dead worker
            send(("control", worker_id, seq, False,
                  f"{type(exc).__name__}: {exc}"))
    try:
        conn.close()
    except OSError:  # pragma: no cover - already torn down
        pass
