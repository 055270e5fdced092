"""Asyncio client for the gateway's newline-delimited JSON protocol.

:class:`GatewayClient` owns one TCP connection and one background
reader task that correlates reply frames to in-flight requests by
``id`` — so any number of requests can be pipelined on one connection
and resolved out of order, which is exactly how the benchmark and the
chaos harness drive thousands of concurrent requests from one process.

Exactly-one-reply shows up client-side as: every awaited request either
returns its one reply frame (success *or* typed error frame — check
``frame["ok"]``) or raises :class:`~repro.errors.GatewayError` because
the connection died first. Never two resolutions, never a silent hang.
"""

from __future__ import annotations

import asyncio
import itertools
import json
from typing import Dict, Optional

from repro.errors import GatewayError, ProtocolError
from repro.gateway import protocol


class GatewayClient:
    """One connection to a :class:`~repro.gateway.GatewayServer`.

    Use as an async context manager::

        async with GatewayClient("127.0.0.1", port, "probe") as client:
            reply = await client.localize(observation, seed=7)
    """

    def __init__(
        self,
        host: str,
        port: int,
        client_id: str = "client",
        timeout_s: Optional[float] = 30.0,
    ):
        self.host = host
        self.port = int(port)
        self.client_id = str(client_id)
        self.timeout_s = timeout_s
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._pending: Dict[str, asyncio.Future] = {}
        self._ids = itertools.count(1)
        self._dead: Optional[BaseException] = None

    # ------------------------------------------------------------------
    async def connect(self) -> Dict:
        """Open the connection and complete the ``connect`` handshake."""
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=protocol.MAX_FRAME_BYTES
        )
        self._reader_task = asyncio.ensure_future(self._read_loop())
        return await self.request({
            "type": "connect", "client_id": self.client_id,
        })

    async def close(self) -> None:
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):
                pass
            self._reader_task = None
        if self._writer is not None:
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None
        self._fail_pending(GatewayError("connection closed"))

    async def __aenter__(self) -> "GatewayClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    @property
    def alive(self) -> bool:
        return self._writer is not None and self._dead is None

    # ------------------------------------------------------------------
    # The reader task: route frames to their waiters.
    # ------------------------------------------------------------------
    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line or not line.endswith(b"\n"):
                    # EOF or a torn frame: the stream is dead either way.
                    raise GatewayError(
                        "connection closed by gateway"
                        if not line else "torn frame from gateway"
                    )
                try:
                    frame = json.loads(line.decode("utf-8"))
                except (ValueError, UnicodeDecodeError) as exc:
                    raise ProtocolError(f"unparseable frame: {exc}") from exc
                self._route(frame)
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            self._dead = exc
            self._fail_pending(exc)

    def _route(self, frame: Dict) -> None:
        """Resolve the waiter of ``frame``'s id.

        A frame nobody waits for any more (a late reply after a client
        timeout, an ``id: null`` error) is dropped.
        """
        frame_id = frame.get("id")
        if frame_id is None:
            return
        waiter = self._pending.pop(str(frame_id), None)
        if waiter is not None and not waiter.done():
            waiter.set_result(frame)

    def _fail_pending(self, exc: BaseException) -> None:
        for waiter in self._pending.values():
            if not waiter.done():
                waiter.set_exception(
                    exc if isinstance(exc, GatewayError)
                    else GatewayError(f"{type(exc).__name__}: {exc}")
                )
        self._pending.clear()

    # ------------------------------------------------------------------
    # Requests.
    # ------------------------------------------------------------------
    async def request(self, frame: Dict) -> Dict:
        """Send one frame, await its one correlated reply frame."""
        if self._writer is None:
            raise GatewayError("client is not connected")
        if self._dead is not None:
            raise GatewayError(f"connection is dead ({self._dead})")
        frame = dict(frame)
        frame_id = str(frame.get("id") or f"{self.client_id}-{next(self._ids)}")
        frame["id"] = frame_id
        waiter = asyncio.get_running_loop().create_future()
        self._pending[frame_id] = waiter
        try:
            self._writer.write(protocol.encode_frame(frame))
            await self._writer.drain()
        except (ConnectionError, OSError) as exc:
            self._pending.pop(frame_id, None)
            raise GatewayError(f"send failed: {exc}") from exc
        if self.timeout_s is None:
            return await waiter
        return await asyncio.wait_for(waiter, self.timeout_s)

    async def ping(self) -> Dict:
        return await self.request({"type": "ping"})

    async def localize(self, observation, **knobs) -> Dict:
        frame = {"type": "localize",
                 "observation": protocol.observation_to_wire(observation)}
        frame.update(knobs)
        return await self.request(frame)

    async def track_step(self, session_id: str, observation, **knobs) -> Dict:
        frame = {"type": "track_step", "session_id": session_id,
                 "observation": protocol.observation_to_wire(observation)}
        frame.update(knobs)
        return await self.request(frame)

    async def open_session(
        self, session_id: str, user_count: int = 1, seed: int = 0
    ) -> Dict:
        return await self.request({
            "type": "open_session", "session_id": session_id,
            "user_count": int(user_count), "seed": int(seed),
        })

    async def metrics(self) -> Dict:
        return await self.request({"type": "metrics"})

    async def trace_dump(self, limit: Optional[int] = None) -> Dict:
        frame: Dict = {"type": "trace_dump"}
        if limit is not None:
            frame["limit"] = int(limit)
        return await self.request(frame)
