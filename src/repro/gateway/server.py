"""Asyncio TCP gateway: thousands of cheap connections, one service.

:class:`GatewayServer` runs an :mod:`asyncio` event loop on a dedicated
daemon thread and speaks the newline-delimited JSON protocol of
:mod:`repro.gateway.protocol` to any number of concurrent connections,
multiplexing them into the admission queue of one backend — a
:class:`~repro.serve.LocalizationService` or a
:class:`~repro.fleet.ServeFleet`, which answer the same calls.
Connections are event-loop state, not threads, so connection count is
bounded by file descriptors, not by stacks.

The serve layer's exactly-one-typed-reply invariant extends end to end:

* every well-formed request frame produces exactly one reply frame on
  its connection — the service future *always* resolves, and the frame
  carrying it is written as soon as it does;
* a malformed frame gets a typed ``error`` frame (never a crash, never
  a dropped connection — framing survives because frames are
  line-delimited);
* control frames get exactly one answer too, and the gateway sends
  nothing unasked: metrics are read with the one-shot ``metrics``
  frame;
* a backend call that may block — ``open_session`` and ``snapshot()``,
  each a pipe round trip to a worker behind a fleet — runs on the
  loop's executor, so other connections keep being answered; frames
  of one connection are still handled in order, since each is awaited
  before the next is read;
* a connection that dies before its reply is written has that reply
  *discarded and counted* (``replies_dropped``), never blocking the
  scheduler, never resurrected.

Tracing starts here: each request frame is stamped with a span id
(``<gateway name>-<connection>-<frame id>``) that rides the request's
``span_id`` field through the scheduler's stage stamps, and the
gateway's own two legs — ``gateway_in`` (read → admitted) and
``gateway_out`` (future resolved → frame written) — are recorded into
the backend's :class:`~repro.serve.metrics.ServerMetrics` when it has
one, completing the per-stage latency decomposition.

Fault sites (deterministic, plan-driven — see :mod:`repro.faults`):
``gateway.client.slow`` stalls before a reply write, ``gateway.conn.
half_open`` aborts the transport on frame receipt, ``gateway.frame.
torn`` writes half a reply frame and tears the connection down.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import logging
import threading
from typing import Dict, Optional

from repro.errors import ConfigurationError, ProtocolError
from repro.faults import clock as _clock
from repro.faults.plan import should_fire
from repro.gateway import protocol
from repro.metrics import LatencyReservoir
from repro.serve.metrics import _nan_safe_deep, server_metrics_of
from repro.util.validation import check_integer

_LOG = logging.getLogger(__name__)


class GatewayMetrics:
    """Connection- and frame-level counters of one gateway (thread-safe)."""

    def __init__(self, latency_capacity: int = 4096):
        self._lock = threading.Lock()
        self.connections_opened = 0
        self.connections_closed = 0
        self.connections_open = 0  # gauge
        self.frames_received = 0
        self.frames_sent = 0
        self.replies_dropped = 0  # resolved, but the connection was gone
        self.protocol_errors = 0
        self.requests_forwarded = 0
        self.faults_injected: Dict[str, int] = {}
        self._ingress = LatencyReservoir(latency_capacity)  # gateway_in
        self._egress = LatencyReservoir(latency_capacity)  # gateway_out

    def connection_opened(self) -> None:
        with self._lock:
            self.connections_opened += 1
            self.connections_open += 1

    def connection_closed(self) -> None:
        with self._lock:
            self.connections_closed += 1
            self.connections_open -= 1

    def frame_received(self) -> None:
        with self._lock:
            self.frames_received += 1

    def frame_sent(self) -> None:
        with self._lock:
            self.frames_sent += 1

    def reply_dropped(self) -> None:
        with self._lock:
            self.replies_dropped += 1

    def protocol_error(self) -> None:
        with self._lock:
            self.protocol_errors += 1

    def request_forwarded(self, ingress_s: float) -> None:
        with self._lock:
            self.requests_forwarded += 1
            self._ingress.record(ingress_s)

    def egress(self, seconds: float) -> None:
        with self._lock:
            self._egress.record(seconds)

    def fault_injected(self, site: str) -> None:
        with self._lock:
            self.faults_injected[site] = self.faults_injected.get(site, 0) + 1

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            ingress = self._ingress.quantiles((0.50, 0.95))
            egress = self._egress.quantiles((0.50, 0.95))
            return {
                "connections_opened": self.connections_opened,
                "connections_closed": self.connections_closed,
                "connections_open": self.connections_open,
                "frames_received": self.frames_received,
                "frames_sent": self.frames_sent,
                "replies_dropped": self.replies_dropped,
                "protocol_errors": self.protocol_errors,
                "requests_forwarded": self.requests_forwarded,
                "faults_injected": dict(self.faults_injected),
                "gateway_in_p50_s": ingress["p50"],
                "gateway_in_p95_s": ingress["p95"],
                "gateway_out_p50_s": egress["p50"],
                "gateway_out_p95_s": egress["p95"],
            }


class _Connection:
    """Per-connection mutable state (event-loop confined)."""

    __slots__ = ("conn_id", "writer", "client_id", "closed", "inflight")

    def __init__(self, conn_id: int, writer: asyncio.StreamWriter):
        self.conn_id = conn_id
        self.writer = writer
        self.client_id = f"conn-{conn_id}"
        self.closed = False
        self.inflight = 0


class GatewayServer:
    """The network front door; see the module docstring.

    Parameters
    ----------
    backend:
        A started :class:`~repro.serve.LocalizationService` or
        :class:`~repro.fleet.ServeFleet`. The gateway never owns its
        lifecycle — callers start and stop the backend.
    host / port:
        Bind address; ``port=0`` (the default) picks a free ephemeral
        port, published via :attr:`port` and in :meth:`snapshot`.
    name:
        Span-id prefix, useful when several gateways front one fleet.
    """

    def __init__(
        self,
        backend,
        host: str = "127.0.0.1",
        port: int = 0,
        name: str = "gw",
    ):
        if not callable(getattr(backend, "submit", None)):
            raise ConfigurationError(
                f"backend must expose submit(), "
                f"got {type(backend).__name__}"
            )
        self.backend = backend
        self.host = host
        self._requested_port = int(port)
        self.name = str(name)
        self.metrics = GatewayMetrics()
        self._server_metrics = server_metrics_of(backend)
        self._conn_ids = itertools.count(1)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._thread: Optional[threading.Thread] = None
        self._bound_port: Optional[int] = None
        self._startup_error: Optional[BaseException] = None
        self._tasks: set = set()

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    @property
    def port(self) -> Optional[int]:
        """The bound port once started (``None`` before)."""
        return self._bound_port

    def start(self) -> int:
        """Bind, spawn the event-loop thread, return the bound port."""
        if self._thread is not None:
            raise ConfigurationError("gateway already started")
        started = threading.Event()
        self._thread = threading.Thread(
            target=self._run, args=(started,),
            name=f"repro-gateway-{self.name}", daemon=True,
        )
        self._thread.start()
        if not started.wait(timeout=10.0):
            raise ConfigurationError("gateway event loop failed to start")
        if self._startup_error is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
            raise ConfigurationError(
                f"gateway failed to bind {self.host}:{self._requested_port} "
                f"({self._startup_error})"
            )
        return self._bound_port

    def _run(self, started: threading.Event) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            self._server = loop.run_until_complete(
                asyncio.start_server(
                    self._handle_connection, self.host, self._requested_port,
                    limit=protocol.MAX_FRAME_BYTES,
                )
            )
            self._bound_port = int(
                self._server.sockets[0].getsockname()[1]
            )
        except BaseException as exc:  # surface bind failures to start()
            self._startup_error = exc
            started.set()
            loop.close()
            return
        started.set()
        try:
            loop.run_forever()
            # stop() requested: tear down inside the loop's thread.
            loop.run_until_complete(self._shutdown())
        finally:
            loop.close()

    async def _shutdown(self) -> None:
        self._server.close()
        await self._server.wait_closed()
        # Every live task on this private loop belongs to the gateway
        # (connection handlers and reply waiters).
        tasks = [
            task for task in asyncio.all_tasks()
            if task is not asyncio.current_task()
        ]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    def stop(self) -> None:
        """Stop accepting, cancel connection tasks, join the thread."""
        if self._thread is None:
            return
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
        self._thread = None

    def __enter__(self) -> "GatewayServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready gateway state: endpoint and counters."""
        snap = {
            "name": self.name,
            "host": self.host,
            "port": self._bound_port,
            "backend": type(self.backend).__name__,
        }
        snap.update(self.metrics.snapshot())
        return snap

    # ------------------------------------------------------------------
    # Connection handling (event-loop thread from here down).
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(next(self._conn_ids), writer)
        self.metrics.connection_opened()
        task = asyncio.current_task()
        self._tasks.add(task)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # Line longer than the frame limit: framing is
                    # unrecoverable, answer typed and hang up.
                    self.metrics.protocol_error()
                    await self._write(conn, protocol.error_frame(
                        None, protocol.ERROR_FRAME_TOO_LARGE,
                        f"frame exceeds {protocol.MAX_FRAME_BYTES} bytes",
                    ))
                    break
                except (ConnectionError, asyncio.CancelledError):
                    break
                if not line:
                    break  # clean EOF
                if not line.endswith(b"\n"):
                    break  # torn final line: peer died mid-frame
                await self._dispatch(conn, line)
                if conn.closed:
                    break
        finally:
            conn.closed = True
            self.metrics.connection_closed()
            self._tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _dispatch(self, conn: _Connection, line: bytes) -> None:
        received_at = _clock.monotonic()
        self.metrics.frame_received()
        try:
            frame = protocol.decode_frame(line)
        except ProtocolError as exc:
            self.metrics.protocol_error()
            await self._write(conn, protocol.error_frame(
                None, protocol.ERROR_BAD_FRAME, str(exc)
            ))
            return
        kind = frame["type"]
        frame_id = frame.get("id")
        if frame_id is not None:
            frame_id = str(frame_id)

        if kind in ("localize", "track_step"):
            spec = should_fire("gateway.conn.half_open")
            if spec is not None:
                # Half-open peer: the transport dies right now, without
                # a FIN. Whatever is in flight resolves into _write's
                # closed-connection branch and is counted, not hung.
                self.metrics.fault_injected("gateway.conn.half_open")
                conn.closed = True
                conn.writer.transport.abort()
                return
            await self._forward(conn, frame, frame_id, kind, received_at)
        elif kind == "connect":
            if frame.get("client_id"):
                conn.client_id = str(frame["client_id"])
            await self._write(conn, {
                "type": "connected",
                "id": frame_id,
                "client_id": conn.client_id,
                "server": {"name": self.name, "port": self._bound_port},
            })
        elif kind == "ping":
            await self._write(conn, {"type": "pong", "id": frame_id})
        elif kind == "open_session":
            await self._open_session(conn, frame, frame_id)
        elif kind == "metrics":
            await self._write(conn, {
                "type": "metrics",
                "id": frame_id,
                "snapshot": await self._metrics_payload(),
            })
        elif kind == "trace_dump":
            await self._trace_dump(conn, frame, frame_id)
        else:
            self.metrics.protocol_error()
            await self._write(conn, protocol.error_frame(
                frame_id, protocol.ERROR_UNKNOWN_TYPE,
                f"unknown frame type {kind!r}",
            ))

    async def _forward(
        self,
        conn: _Connection,
        frame: Dict,
        frame_id: Optional[str],
        kind: str,
        received_at: float,
    ) -> None:
        """Build the typed request, admit it, and arm the reply task."""
        span_id = f"{self.name}-{conn.conn_id}-{frame_id}"
        try:
            if kind == "localize":
                request = protocol.localize_request_from_frame(
                    frame, conn.client_id, span_id
                )
            else:
                request = protocol.track_request_from_frame(
                    frame, conn.client_id, span_id
                )
        except ProtocolError as exc:
            self.metrics.protocol_error()
            await self._write(conn, protocol.error_frame(
                frame_id, protocol.ERROR_BAD_REQUEST, str(exc)
            ))
            return
        try:
            future = self.backend.submit(request)
        except Exception as exc:
            await self._write(conn, protocol.error_frame(
                frame_id, protocol.ERROR_BAD_REQUEST,
                f"{type(exc).__name__}: {exc}",
            ))
            return
        ingress_s = _clock.monotonic() - received_at
        self.metrics.request_forwarded(ingress_s)
        if self._server_metrics is not None:
            self._server_metrics.record_stage("gateway_in", ingress_s)
        conn.inflight += 1
        task = asyncio.ensure_future(
            self._reply_when_done(conn, span_id, future)
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _reply_when_done(
        self, conn: _Connection, span_id: str, future
    ) -> None:
        """Await the service future and write its one reply frame."""
        try:
            reply = await asyncio.wrap_future(future)
        except asyncio.CancelledError:
            # Gateway shutdown: the backend future still resolves for
            # its own bookkeeping; the connection is going away.
            self.metrics.reply_dropped()
            return
        finally:
            conn.inflight -= 1
        resolved_at = _clock.monotonic()
        frame = protocol.reply_to_frame(reply, span_id=span_id)
        wrote = await self._write(conn, frame, is_reply=True)
        if wrote:
            egress_s = _clock.monotonic() - resolved_at
            self.metrics.egress(egress_s)
            if self._server_metrics is not None:
                self._server_metrics.record_stage("gateway_out", egress_s)

    async def _write(
        self, conn: _Connection, frame: Dict, is_reply: bool = False
    ) -> bool:
        """Write one frame; ``False`` (and counted) when the peer is gone."""
        if conn.closed or conn.writer.is_closing():
            if is_reply:
                self.metrics.reply_dropped()
            return False
        spec = should_fire("gateway.client.slow")
        if spec is not None:
            self.metrics.fault_injected("gateway.client.slow")
            await asyncio.sleep(spec.delay_s)
            if conn.closed or conn.writer.is_closing():
                if is_reply:
                    self.metrics.reply_dropped()
                return False
        data = protocol.encode_frame(frame)
        spec = should_fire("gateway.frame.torn")
        if spec is not None:
            # Half the frame goes out, then the transport dies: the
            # peer sees a line with no terminator and must treat the
            # stream as dead (readline framing makes that unambiguous).
            self.metrics.fault_injected("gateway.frame.torn")
            conn.closed = True
            try:
                conn.writer.write(data[: max(1, len(data) // 2)])
                conn.writer.transport.abort()
            except (ConnectionError, OSError, RuntimeError):
                pass
            if is_reply:
                self.metrics.reply_dropped()
            return False
        try:
            conn.writer.write(data)
            await conn.writer.drain()
        except (ConnectionError, OSError, RuntimeError):
            conn.closed = True
            if is_reply:
                self.metrics.reply_dropped()
            return False
        self.metrics.frame_sent()
        return True

    # ------------------------------------------------------------------
    # Non-request frames.
    # ------------------------------------------------------------------
    async def _open_session(
        self, conn: _Connection, frame: Dict, frame_id: Optional[str]
    ) -> None:
        session_id = str(frame.get("session_id") or "")
        user_count = frame.get("user_count", 1)
        seed = frame.get("seed", 0)
        try:
            if not session_id:
                raise ConfigurationError("open_session needs a session_id")
            check_integer("user_count", user_count, 1)
            check_integer("seed", seed, 0)
            await asyncio.get_running_loop().run_in_executor(
                None, functools.partial(
                    self.backend.open_session, session_id, user_count,
                    rng=seed,
                )
            )
        except Exception as exc:
            await self._write(conn, protocol.error_frame(
                frame_id, protocol.ERROR_BAD_REQUEST,
                f"{type(exc).__name__}: {exc}",
            ))
            return
        await self._write(conn, {
            "type": "session_opened",
            "id": frame_id,
            "session_id": session_id,
            "user_count": int(user_count),
        })

    async def _trace_dump(
        self, conn: _Connection, frame: Dict, frame_id: Optional[str]
    ) -> None:
        limit = frame.get("limit")
        if limit is not None:
            try:
                check_integer("limit", limit, 0)
            except ConfigurationError as exc:
                self.metrics.protocol_error()
                await self._write(conn, protocol.error_frame(
                    frame_id, protocol.ERROR_BAD_REQUEST, str(exc)
                ))
                return
        metrics = self._server_metrics
        await self._write(conn, _nan_safe_deep({
            "type": "traces",
            "id": frame_id,
            "traces": (
                metrics.recent_traces(limit) if metrics is not None else []
            ),
            "stages": (
                metrics.stage_quantiles() if metrics is not None else {}
            ),
            "gateway": self.metrics.snapshot(),
        }))

    async def _metrics_payload(self) -> Dict:
        service = await asyncio.get_running_loop().run_in_executor(
            None, self.backend.snapshot
        )
        return _nan_safe_deep({
            "gateway": self.metrics.snapshot(),
            "service": service,
        })
