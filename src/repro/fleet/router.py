"""The fleet router: N worker processes behind one submit() front end.

:class:`ServeFleet` is the horizontal-scale layer over
:class:`~repro.serve.service.LocalizationService`. It forks a fixed set
of N worker processes (each a full admission+scheduler stack, see
:mod:`repro.fleet.worker`), places requests on them with one rule
(:func:`worker_for`), and preserves the serve layer's core contract
across process deaths: **every submitted request resolves to exactly one
typed reply**.

Placement and affinity
    Worker ids are fixed, ``0 .. N-1``, for the fleet's life.
    ``TrackStepRequest`` traffic goes to ``worker_for(session_id, N)``
    — the scheduler's per-session FIFO only holds inside one process.
    ``LocalizeRequest`` traffic goes to ``worker_for(client_id, N)``,
    which keeps a client's stream of one-shot requests on one admission
    queue (its fairness lane) without any shared state.

Failure semantics (exactly-one-reply, checkpoint-bounded replay)
    The router keeps every in-flight request in a seq-keyed pending map
    until its reply arrives; the first reply wins and duplicates are
    dropped. When a worker dies (detected by exit-code polling — pipe
    EOF is unreliable under fork, siblings inherit the fd), the router
    drains the dead worker's pipe (replies it managed to send still
    count), respawns a replacement *under the same id* (so no placement
    changes), resumes the dead worker's sessions from their latest
    checkpoints, and redelivers the still-unanswered envelopes in
    submission order. Workers checkpoint each session *before* each
    tracking reply leaves the process, so redelivered steps replay
    forward from exactly the last replied-to step; a step that was
    applied but never answered is deduplicated by the session's
    monotonic-time window (the client sees a skip reply — effectively
    once). A request whose :data:`REDELIVERY_LIMIT`-th delivery dies
    with its worker is answered with a ``worker_crashed``
    :class:`~repro.serve.requests.ErrorReply` instead of being retried
    forever.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import itertools
import multiprocessing as mp
import os
import signal
import tempfile
import threading
import time
from multiprocessing.connection import wait as connection_wait
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConfigurationError, ServeError, WorkerCrashed
from repro.fleet.metrics import FleetMetrics
from repro.fleet.worker import SessionSpec, WorkerSpec, worker_main
from repro.fpmap import build_fingerprint_map
from repro.serve.requests import (
    ERROR_SHUTDOWN,
    ERROR_UNKNOWN_SESSION,
    ERROR_WORKER_CRASHED,
    ErrorReply,
    LocalizeRequest,
    TrackStepRequest,
    require_session_rows,
    require_sniffer_count,
)
from repro.stream.checkpoint import checkpoint_path

#: Poll interval of the pump loop's liveness check.
_PUMP_TICK_S = 0.05

#: Most deliveries of one request: when its ``REDELIVERY_LIMIT``-th
#: delivery dies with its worker, the router answers ``worker_crashed``
#: instead of redelivering it.
REDELIVERY_LIMIT = 3


def worker_for(key: str, workers: int) -> int:
    """The worker id (``0 .. workers-1``) that serves ``key``.

    Sessions are placed by ``session_id`` and localize clients by
    ``client_id``: the first 8 bytes of ``sha1(key)``, big-endian, mod
    ``workers``. SHA-1 is stable across processes and runs (``hash()``
    is salted per process), so any client computes the same placement.
    """
    digest = hashlib.sha1(str(key).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % workers


class _Worker:
    """Router-side record of one worker slot (survives respawns)."""

    def __init__(self, worker_id: int):
        self.id = worker_id
        self.proc: Optional[mp.process.BaseProcess] = None
        self.conn = None
        self.alive = False
        self.recovering = False
        self.backlog: List[tuple] = []  # envelopes held during recovery


class _Pending:
    """One in-flight request: resolves exactly once, survives respawns."""

    __slots__ = ("seq", "request", "future", "worker_id", "attempts", "t0")

    def __init__(self, seq: int, request, future, worker_id: int):
        self.seq = seq
        self.request = request
        self.future = future
        self.worker_id = worker_id
        self.attempts = 1
        self.t0 = time.monotonic()


class ServeFleet:
    """N-worker serving fleet for one deployment.

    Parameters
    ----------
    field / sniffer_positions / d_floor:
        The deployment, as for :class:`~repro.serve.service.
        LocalizationService`.
    workers:
        Worker-process count (>= 1), fixed for the fleet's life.
    fingerprint_map / map_resolution:
        The deployment's one map: a prebuilt one, or, without it, one
        built here at ``map_resolution``. Every worker (a respawned one
        too) serves this same map, shared with the forked children
        copy-on-write, so replies match a single-process service
        bitwise.
    checkpoint_dir:
        Where session checkpoints live. ``None`` uses a private temp
        directory (cleaned by :meth:`stop`). Checkpoints are the
        failover currency, so the directory must be shared by all
        workers (it is: they fork from this process).
    max_batch / queue_capacity:
        Per-worker service knobs, forwarded to :class:`~repro.fleet.
        worker.WorkerSpec`.
    """

    def __init__(
        self,
        field,
        sniffer_positions: np.ndarray,
        d_floor: float = 1.0,
        workers: int = 2,
        fingerprint_map=None,
        map_resolution: Optional[float] = None,
        checkpoint_dir: Optional[str] = None,
        max_batch: int = 32,
        queue_capacity: int = 512,
    ):
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.field = field
        self.sniffer_positions = np.asarray(sniffer_positions, dtype=float)
        self.d_floor = float(d_floor)
        self.metrics = FleetMetrics()
        if fingerprint_map is None and map_resolution is not None:
            fingerprint_map = build_fingerprint_map(
                field, self.sniffer_positions,
                resolution=map_resolution, d_floor=d_floor,
            )
        self.fingerprint_map = fingerprint_map
        self._tmpdir = None
        if checkpoint_dir is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="fleet-ckpt-")
            checkpoint_dir = self._tmpdir.name
        os.makedirs(checkpoint_dir, exist_ok=True)
        self.checkpoint_dir = str(checkpoint_dir)
        self._spec = WorkerSpec(
            field=self.field,
            sniffer_positions=self.sniffer_positions,
            d_floor=self.d_floor,
            fingerprint_map=fingerprint_map,
            checkpoint_dir=self.checkpoint_dir,
            max_batch=max_batch,
            queue_capacity=queue_capacity,
        )
        # "fork" shares the (possibly large) fingerprint map with the
        # children copy-on-write; WorkerSpec never crosses a pickle.
        self._ctx = mp.get_context("fork")
        self._workers: Dict[int, _Worker] = {
            worker_id: _Worker(worker_id) for worker_id in range(int(workers))
        }
        self._sessions: Dict[str, SessionSpec] = {}
        self._pending: Dict[int, _Pending] = {}
        self._controls: Dict[int, list] = {}  # seq -> [event, ok, payload, wid]
        self._seq = itertools.count(1)
        self._lock = threading.RLock()
        self._started = False
        self._stopped = False
        self._pump_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def start(self) -> "ServeFleet":
        if self._started:
            raise ConfigurationError("fleet already started")
        self._started = True
        for worker in self._workers.values():
            self._spawn(worker)
            worker.alive = True
        self._pump_thread = threading.Thread(
            target=self._pump, name="fleet-pump", daemon=True
        )
        self._pump_thread.start()
        return self

    def stop(self) -> Dict[str, object]:
        """Drain every worker, checkpoint every session, shut down.

        Returns ``{"workers": {id: worker stop summary}}``. Requests
        still unanswered after the drain (there should be none — worker
        ``stop`` drains before acking) get ``shutdown`` error replies.
        """
        with self._lock:
            if self._stopped:
                return {"workers": {}}
            self._stopped = True
        summaries: Dict[int, object] = {}
        for worker in list(self._workers.values()):
            if not worker.alive:
                continue
            try:
                summaries[worker.id] = self._control(worker.id, "stop")
            except (ServeError, WorkerCrashed):
                summaries[worker.id] = None
            if worker.proc is not None:
                worker.proc.join(timeout=10)
        if self._pump_thread is not None:
            self._pump_thread.join(timeout=10)
        with self._lock:
            leftovers = list(self._pending.values())
            self._pending.clear()
        for entry in leftovers:
            self._answer(entry, ErrorReply(
                request_id=entry.request.request_id,
                client_id=entry.request.client_id,
                code=ERROR_SHUTDOWN,
                message="fleet stopped before evaluation",
                latency_s=time.monotonic() - entry.t0,
            ))
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
        return {"workers": summaries}

    def __enter__(self) -> "ServeFleet":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def worker_ids(self) -> List[int]:
        return list(self._workers)

    @property
    def session_ids(self) -> List[str]:
        with self._lock:
            return sorted(self._sessions)

    def session_owner(self, session_id: str) -> int:
        """The worker id that serves ``session_id``."""
        return worker_for(session_id, len(self._workers))

    # ------------------------------------------------------------------
    # Worker plumbing.
    # ------------------------------------------------------------------
    def _spawn(self, worker: _Worker) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=worker_main,
            args=(worker.id, self._spec, child_conn),
            name=f"fleet-worker-{worker.id}",
            daemon=True,
        )
        proc.start()
        child_conn.close()  # the child's end lives in the child now
        worker.proc = proc
        worker.conn = parent_conn

    def _send(self, worker_id: int, envelope: tuple) -> None:
        """Deliver (or park) one envelope; caller holds the lock."""
        worker = self._workers[worker_id]
        if worker.recovering:
            worker.backlog.append(envelope)
            return
        try:
            worker.conn.send(envelope)
        except (OSError, ValueError, BrokenPipeError):
            # Dying worker: the pump's liveness check will fail it over
            # and redeliver from the pending map; park controls too.
            worker.backlog.append(envelope)

    def _control(self, worker_id: int, kind: str, *payload,
                 timeout: float = 120.0):
        """Synchronous control round-trip with one worker."""
        event = threading.Event()
        with self._lock:
            seq = next(self._seq)
            holder = [event, False, None, worker_id]
            self._controls[seq] = holder
            self._send(worker_id, (kind, seq) + payload)
        if not event.wait(timeout):
            with self._lock:
                self._controls.pop(seq, None)
            raise ServeError(
                f"worker {worker_id} did not answer {kind!r} "
                f"within {timeout}s"
            )
        _, ok, result, _ = holder
        if not ok:
            raise ServeError(
                f"worker {worker_id} refused {kind!r}: {result}"
            )
        return result

    # ------------------------------------------------------------------
    # Pump: replies, control acks, liveness.
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        while True:
            with self._lock:
                if self._stopped and not self._pending and not self._controls:
                    live = [w for w in self._workers.values() if w.alive]
                    if not live:
                        return
                conns = {
                    w.conn: w for w in self._workers.values()
                    if w.conn is not None and (w.alive or w.recovering)
                }
                stopped = self._stopped
            if not conns:
                if stopped:
                    # Nothing left to read acks from: fail outstanding
                    # controls now instead of letting callers sit out
                    # their full wait timeout.
                    self._fail_controls("fleet pump exited at shutdown")
                    return
                time.sleep(_PUMP_TICK_S)
                continue
            for conn in connection_wait(list(conns), timeout=_PUMP_TICK_S):
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    continue  # liveness check below owns the failover
                self._dispatch(message)
            self._check_liveness()

    def _dispatch(self, message: tuple) -> None:
        kind = message[0]
        if kind == "reply":
            _, _, seq, reply = message
            with self._lock:
                entry = self._pending.pop(seq, None)
            if entry is None:
                self.metrics.record_duplicate_reply()
                return
            self._answer(entry, reply)
        elif kind == "control":
            _, _, seq, ok, payload = message
            with self._lock:
                holder = self._controls.pop(seq, None)
            if holder is not None:
                holder[1], holder[2] = ok, payload
                holder[0].set()

    def _answer(self, entry: _Pending, reply) -> None:
        self.metrics.record_reply(reply.ok, getattr(reply, "code", None))
        entry.future.set_result(reply)

    def _fail_controls(self, reason: str) -> None:
        with self._lock:
            holders = list(self._controls.values())
            self._controls.clear()
        for holder in holders:
            holder[1], holder[2] = False, reason
            holder[0].set()

    def _check_liveness(self) -> None:
        dead: List[_Worker] = []
        drained: List[tuple] = []
        with self._lock:
            if self._stopped:
                for worker in self._workers.values():
                    if worker.alive and worker.proc is not None \
                            and worker.proc.exitcode is not None:
                        worker.alive = False
                        # The exited worker's last words (its stop ack,
                        # late replies) may still sit in the pipe if the
                        # poll loop lost the race with its exit — drain
                        # them or stop() waits out the control timeout.
                        if worker.conn is not None:
                            try:
                                while worker.conn.poll(0):
                                    drained.append(worker.conn.recv())
                            except (EOFError, OSError):
                                pass
                            try:
                                worker.conn.close()
                            except OSError:
                                pass
                            worker.conn = None
            else:
                for worker in self._workers.values():
                    if (
                        worker.alive
                        and not worker.recovering
                        and worker.proc is not None
                        and worker.proc.exitcode is not None
                    ):
                        worker.alive = False
                        worker.recovering = True
                        # Drain what the dead worker still managed to
                        # say — replies already in the pipe settle
                        # their futures and must not be redelivered
                        # (exactly-one-reply). Done here, on the pump
                        # thread, so no other thread ever touches a
                        # conn this loop may be recv-ing on.
                        try:
                            while worker.conn.poll(0):
                                drained.append(worker.conn.recv())
                        except (EOFError, OSError):
                            pass
                        try:
                            worker.conn.close()
                        except OSError:
                            pass
                        worker.conn = None
                        dead.append(worker)
        for message in drained:
            self._dispatch(message)
        for worker in dead:
            self.metrics.record_worker_death()
            # Recover off the pump thread: failover issues controls to
            # the replacement, whose acks this pump must keep serving.
            threading.Thread(
                target=self._failover, args=(worker,),
                name=f"fleet-failover-{worker.id}", daemon=True,
            ).start()

    # ------------------------------------------------------------------
    # Failover: respawn-in-slot, resume, redeliver.
    # ------------------------------------------------------------------
    def _failover(self, worker: _Worker) -> None:
        # The pump already drained and closed the dead incarnation's
        # pipe (see _check_liveness).
        # 1. Respawn a replacement under the SAME id: no placement
        #    changes.
        self._spawn(worker)
        self.metrics.record_worker_restart()
        # 2. Resume the dead worker's sessions from their newest
        #    checkpoints (written before each reply left the process).
        with self._lock:
            owned = [
                spec for session_id, spec in self._sessions.items()
                if self.session_owner(session_id) == worker.id
            ]
        for spec in owned:
            ckpt = checkpoint_path(self.checkpoint_dir, spec.session_id)
            try:
                if os.path.exists(ckpt):
                    self._control_recovering(worker, "resume", ckpt)
                else:  # never checkpointed (open raced the crash)
                    self._control_recovering(worker, "open", spec)
                self.metrics.record_session_resumed()
            except ServeError:
                pass  # redelivery answers unknown_session; bounded below
        # 3. Redeliver still-unanswered envelopes in submission order;
        #    a request whose REDELIVERY_LIMIT-th delivery just died is
        #    answered worker_crashed instead.
        give_up: List[_Pending] = []
        with self._lock:
            mine = sorted(
                (e for e in self._pending.values()
                 if e.worker_id == worker.id),
                key=lambda e: e.seq,
            )
            redelivered: List[tuple] = []
            for entry in mine:
                entry.attempts += 1
                if entry.attempts > REDELIVERY_LIMIT:
                    del self._pending[entry.seq]
                    give_up.append(entry)
                    continue
                redelivered.append(("req", entry.seq, entry.request))
                self.metrics.record_redelivery()
            # Redelivered envelopes precede anything submitted during
            # the recovery window — per-session FIFO must survive the
            # respawn or later steps would make earlier ones look
            # out-of-order to the session's monotonic-time window.
            worker.backlog[:0] = redelivered
            # Fail any control round-trip that was waiting on the dead
            # incarnation (its reply can never come).
            for seq, holder in list(self._controls.items()):
                if holder[3] == worker.id:
                    del self._controls[seq]
                    holder[1], holder[2] = False, "worker died"
                    holder[0].set()
            backlog, worker.backlog = worker.backlog, []
            worker.recovering = False
            worker.alive = True
            for envelope in backlog:
                self._send(worker.id, envelope)
        for entry in give_up:
            self.metrics.record_redelivery_failure()
            self._answer(entry, ErrorReply(
                request_id=entry.request.request_id,
                client_id=entry.request.client_id,
                code=ERROR_WORKER_CRASHED,
                message=(
                    f"worker {worker.id} crashed "
                    f"{entry.attempts - 1} times holding this request"
                ),
                latency_s=time.monotonic() - entry.t0,
            ))

    def _control_recovering(self, worker: _Worker, kind: str, *payload,
                            timeout: float = 120.0):
        """Control round-trip that bypasses the recovery backlog.

        During failover the slot is marked ``recovering`` (normal sends
        park in the backlog), but the recovery sequence itself must talk
        to the fresh process directly.
        """
        event = threading.Event()
        with self._lock:
            seq = next(self._seq)
            holder = [event, False, None, None]  # no worker tag: don't
            self._controls[seq] = holder         # fail it over with us
            worker.conn.send((kind, seq) + payload)
        if not event.wait(timeout):
            with self._lock:
                self._controls.pop(seq, None)
            raise ServeError(
                f"replacement worker {worker.id} did not answer {kind!r}"
            )
        _, ok, result, _ = holder
        if not ok:
            raise ServeError(
                f"replacement worker {worker.id} refused {kind!r}: {result}"
            )
        return result

    def kill_worker(self, worker_id: int) -> None:
        """Chaos helper: SIGKILL one worker process (no cleanup)."""
        with self._lock:
            worker = self._workers[worker_id]
            proc = worker.proc
        if proc is not None and proc.pid is not None:
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    # ------------------------------------------------------------------
    # Sessions.
    # ------------------------------------------------------------------
    def open_session(
        self,
        session_id: str,
        user_count: int,
        seed: int = 0,
        config: Optional[dict] = None,
    ) -> int:
        """Open a tracking session on the worker it is placed on.

        Returns the owning worker id. The worker writes an initial
        checkpoint immediately, so even a session that crashes before
        its first step can be resumed from durable state. A session over
        the row budget of :func:`~repro.serve.requests.
        require_session_rows` raises :class:`~repro.errors.
        ConfigurationError` here, before it reaches a worker.
        """
        with self._lock:
            if self._stopped or not self._started:
                raise ConfigurationError("fleet is not running")
            if session_id in self._sessions:
                raise ConfigurationError(
                    f"session {session_id!r} already open"
                )
        owner = self.session_owner(session_id)
        spec = SessionSpec(
            session_id=session_id, user_count=int(user_count),
            seed=int(seed), config=config,
        )
        require_session_rows(
            spec.user_count, spec.tracker_config().prediction_count
        )
        self._control(owner, "open", spec)
        with self._lock:
            self._sessions[session_id] = spec
        self.metrics.record_session_opened()
        return owner

    def close_session(self, session_id: str) -> None:
        with self._lock:
            if session_id not in self._sessions:
                raise ConfigurationError(f"unknown session {session_id!r}")
        self._control(self.session_owner(session_id), "close", session_id)
        with self._lock:
            self._sessions.pop(session_id, None)

    # ------------------------------------------------------------------
    # Request path.
    # ------------------------------------------------------------------
    def submit(self, request):
        """Route one request; returns a Future resolving to its reply.

        Exactly-one-reply holds across worker deaths: the future
        resolves with the worker's reply, a redelivered reply, or a
        typed ``worker_crashed``/``shutdown`` error — never twice,
        never not at all. A localize whose reading count is not the
        deployment's sniffer count raises
        :class:`~repro.errors.ConfigurationError` here, before it
        reaches a worker.
        """
        if not isinstance(request, (LocalizeRequest, TrackStepRequest)):
            raise ConfigurationError(
                f"request must be a LocalizeRequest or TrackStepRequest, "
                f"got {type(request).__name__}"
            )
        require_sniffer_count(request, len(self.sniffer_positions))
        future = concurrent.futures.Future()
        with self._lock:
            if self._stopped or not self._started:
                self.metrics.record_rejection()
                future.set_result(ErrorReply(
                    request_id=request.request_id,
                    client_id=request.client_id,
                    code=ERROR_SHUTDOWN,
                    message="fleet is not running",
                ))
                return future
            if isinstance(request, TrackStepRequest):
                if request.session_id not in self._sessions:
                    self.metrics.record_rejection()
                    future.set_result(ErrorReply(
                        request_id=request.request_id,
                        client_id=request.client_id,
                        code=ERROR_UNKNOWN_SESSION,
                        message=(
                            f"session {request.session_id!r} is not open "
                            f"on this fleet"
                        ),
                    ))
                    return future
                worker_id = self.session_owner(request.session_id)
            else:
                worker_id = worker_for(request.client_id, len(self._workers))
            seq = next(self._seq)
            self._pending[seq] = _Pending(seq, request, future, worker_id)
            self.metrics.record_submit(worker_id)
            self._send(worker_id, ("req", seq, request))
        return future

    def call(self, request, timeout: Optional[float] = None):
        """Blocking convenience: submit, wait, raise on error replies."""
        reply = self.submit(request).result(timeout=timeout)
        if not reply.ok:
            raise reply.to_exception()
        return reply

    # ------------------------------------------------------------------
    # Observability.
    # ------------------------------------------------------------------
    def worker_snapshot(self, worker_id: int) -> Optional[dict]:
        """One worker's metrics snapshot (``None`` if unreachable)."""
        if worker_id not in self._workers:
            return None
        try:
            return self._control(worker_id, "metrics", timeout=10.0)
        except ServeError:
            return None

    def fleet_snapshot(self) -> dict:
        """Router counters and each live worker process's own snapshot.

        ``router`` is the fleet's one reconciling count: every submitted
        request gets exactly one reply there, across worker deaths.
        ``workers`` maps each worker id to :meth:`worker_snapshot` of
        the process now in that slot (its pid, open sessions and
        service metrics), ``None`` if it did not answer. A respawned
        process counts from zero, so the workers' counters do not add
        up to ``router`` after a death.
        """
        return {
            "router": self.metrics.snapshot(),
            "workers": {
                str(wid): self.worker_snapshot(wid) for wid in self._workers
            },
        }
