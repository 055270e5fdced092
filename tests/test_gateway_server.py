"""GatewayServer end to end over real sockets.

The serve layer's exactly-one-typed-reply invariant, extended through
the network: every request frame written by any of N concurrent
connections gets exactly one correlated reply frame (none lost, none
duplicated), malformed frames get typed error frames with the
connection surviving, a connection that dies before its reply is
written has that reply counted as dropped (never a scheduler hang),
and a tracked session driven over the wire is bitwise-identical to a
local tracking loop.
"""

import asyncio
import json
import threading
import time

import numpy as np
import pytest

from repro.errors import ConfigurationError, GatewayError
from repro.fpmap import build_fingerprint_map
from repro.gateway import GatewayClient, GatewayServer, protocol
from repro.geometry import RectangularField
from repro.network import build_network, sample_sniffers_percentage
from repro.serve import LocalizationService
from repro.smc import SequentialMonteCarloTracker
from repro.stream import SyntheticLiveSource, TrackingSession
from repro.traffic import MeasurementModel, simulate_flux


@pytest.fixture(scope="module")
def scenario():
    net = build_network(
        field=RectangularField(10, 10), node_count=100, radius=2.0, rng=5
    )
    sniffers = sample_sniffers_percentage(net, 20, rng=2)
    fmap = build_fingerprint_map(net.field, net.positions[sniffers],
                                 resolution=2.0)
    return net, sniffers, fmap


def _service(scenario, **kwargs):
    net, sniffers, fmap = scenario
    kwargs.setdefault("fingerprint_map", fmap)
    kwargs.setdefault("max_batch", 8)
    return LocalizationService(net.field, net.positions[sniffers], **kwargs)


def _observations(scenario, count, seed=0):
    net, sniffers, _ = scenario
    gen = np.random.default_rng(seed)
    measure = MeasurementModel(net, sniffers, smooth=True, rng=gen)
    out = []
    for _ in range(count):
        truth = net.field.sample_uniform(1, gen)
        flux = simulate_flux(
            net, list(truth), [float(gen.uniform(1.0, 3.0))], rng=gen
        )
        out.append(measure.observe(flux))
    return out


def _run(coro):
    return asyncio.run(coro)


class TestLifecycle:
    def test_ephemeral_port_is_published(self, scenario):
        with _service(scenario) as service:
            gateway = GatewayServer(service, port=0)
            assert gateway.port is None
            with gateway:
                assert isinstance(gateway.port, int) and gateway.port > 0
                snap = gateway.snapshot()
                assert snap["port"] == gateway.port
                assert snap["backend"] == "LocalizationService"

    def test_backend_must_expose_submit(self):
        with pytest.raises(ConfigurationError):
            GatewayServer(object())

    def test_connect_handshake_and_ping(self, scenario):
        with _service(scenario) as service, GatewayServer(service) as gateway:
            async def go():
                async with GatewayClient(
                    "127.0.0.1", gateway.port, "probe"
                ) as client:
                    pong = await client.ping()
                    return pong

            pong = _run(go())
            assert pong["type"] == "pong"
            # The server handles the client's FIN on its own event loop,
            # possibly after the client's exit has returned.
            deadline = time.monotonic() + 5.0
            snap = gateway.snapshot()
            while snap["connections_open"] and time.monotonic() < deadline:
                time.sleep(0.01)
                snap = gateway.snapshot()
            assert snap["connections_opened"] == 1
            assert snap["connections_open"] == 0  # closed on exit


class TestExactlyOneReply:
    def test_no_lost_or_duplicated_replies(self, scenario):
        """6 connections x 5 pipelined requests: every id exactly once."""
        observations = _observations(scenario, 5, seed=1)
        with _service(scenario) as service, GatewayServer(service) as gateway:
            async def one_client(c):
                async with GatewayClient(
                    "127.0.0.1", gateway.port, f"client-{c}", timeout_s=60.0
                ) as client:
                    pending = [
                        client.localize(obs, id=f"c{c}-r{r}",
                                        candidate_count=24, seed=c * 100 + r)
                        for r, obs in enumerate(observations)
                    ]
                    return await asyncio.gather(*pending)

            async def go():
                return await asyncio.gather(
                    *(one_client(c) for c in range(6))
                )

            replies = [f for frames in _run(go()) for f in frames]
        ids = [f["id"] for f in replies]
        assert len(ids) == 30
        assert len(set(ids)) == 30  # none duplicated
        for frame in replies:
            assert frame["ok"] is True
            assert frame["kind"] == "localize"
            assert len(frame["estimates"]) >= 1
            assert frame["span_id"].endswith(frame["id"])
        assert gateway.metrics.replies_dropped == 0
        assert gateway.metrics.requests_forwarded == 30

    def test_oversized_budget_is_refused_and_its_batch_mate_answered(
        self, scenario
    ):
        """A budget past MAX_CANDIDATE_ROWS, a knob that is not an
        integer, an infinite reading, a reading count that is not the
        deployment's, or a finite reading whose square overflows is a
        typed bad_request, never a request that fails the whole fused
        batch."""
        obs = _observations(scenario, 1, seed=6)[0]
        # observation_to_wire sends non-finite readings as null (NaN),
        # so the Infinity goes into the wire dict by hand.
        infinite = protocol.observation_to_wire(obs)
        infinite["values"][0] = float("inf")
        short = protocol.observation_to_wire(obs)
        for key in ("sniffers", "values", "raw_values"):
            short[key] = short[key][:-1]
        # Finite, so JSON carries it as a plain number.
        overflowing = protocol.observation_to_wire(obs)
        overflowing["values"][0] = 1e200
        with _service(scenario) as service, GatewayServer(service) as gateway:
            async def go():
                async with GatewayClient(
                    "127.0.0.1", gateway.port, timeout_s=60.0
                ) as client:
                    return await asyncio.gather(
                        client.localize(obs, id="huge",
                                        candidate_count=50_000_000, seed=1),
                        client.localize(obs, id="small",
                                        candidate_count=24, seed=2),
                        client.localize(obs, id="textual",
                                        candidate_count=24, top_m="3",
                                        seed=3),
                        client.request({"type": "localize", "id": "inf",
                                        "observation": infinite,
                                        "candidate_count": 24, "seed": 4}),
                        client.request({"type": "localize", "id": "short",
                                        "observation": short,
                                        "candidate_count": 24, "seed": 5}),
                        client.request({"type": "localize", "id": "overflow",
                                        "observation": overflowing,
                                        "candidate_count": 24, "seed": 6}),
                    )

            huge, small, textual, inf, shortened, overflow = _run(go())
        assert huge["type"] == "error"
        assert huge["code"] == "bad_request"
        assert "MAX_CANDIDATE_ROWS" in huge["message"]
        assert textual["type"] == "error"
        assert textual["code"] == "bad_request"
        assert "top_m" in textual["message"]
        assert inf["type"] == "error"
        assert inf["code"] == "bad_request"
        assert "infinite" in inf["message"]
        assert shortened["type"] == "error"
        assert shortened["code"] == "bad_request"
        assert "readings" in shortened["message"]
        assert overflow["type"] == "error"
        assert overflow["code"] == "bad_request"
        assert "overflow" in overflow["message"]
        assert small["ok"] is True
        assert small["id"] == "small"

    def test_malformed_frame_gets_typed_error_and_connection_survives(
        self, scenario
    ):
        with _service(scenario) as service, GatewayServer(service) as gateway:
            async def go():
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", gateway.port
                )
                try:
                    writer.write(b"{this is not json\n")
                    await writer.drain()
                    error = json.loads(await reader.readline())
                    writer.write(protocol.encode_frame(
                        {"type": "ping", "id": "after"}
                    ))
                    await writer.drain()
                    pong = json.loads(await reader.readline())
                    return error, pong
                finally:
                    writer.close()
                    await writer.wait_closed()

            error, pong = _run(go())
        assert error["type"] == "error"
        assert error["code"] == "bad_frame"
        assert pong == {"type": "pong", "id": "after"}
        assert gateway.metrics.protocol_errors == 1

    def test_unknown_frame_type_is_typed(self, scenario):
        with _service(scenario) as service, GatewayServer(service) as gateway:
            async def go():
                async with GatewayClient("127.0.0.1", gateway.port) as client:
                    return await client.request({"type": "teleport"})

            frame = _run(go())
        assert frame["type"] == "error"
        assert frame["code"] == "unknown_type"

    def test_bad_request_frame_is_typed(self, scenario):
        with _service(scenario) as service, GatewayServer(service) as gateway:
            async def go():
                async with GatewayClient("127.0.0.1", gateway.port) as client:
                    return await client.request(
                        {"type": "localize", "observation": None}
                    )

            frame = _run(go())
        assert frame["type"] == "error"
        assert frame["code"] == "bad_request"

    def test_dead_connection_reply_is_dropped_not_hung(self, scenario):
        """Close right after sending: the reply is counted, never blocks."""
        obs = _observations(scenario, 1, seed=2)[0]
        # The scheduler starts only once the gateway has seen the hang-up:
        # client, gateway and solver share one interpreter, so otherwise
        # the reply can be written before the client gets to close.
        service = _service(scenario)
        with GatewayServer(service) as gateway:
            async def go():
                _, writer = await asyncio.open_connection(
                    "127.0.0.1", gateway.port
                )
                writer.write(protocol.encode_frame({
                    "type": "localize", "id": "doomed",
                    "observation": protocol.observation_to_wire(obs),
                    "candidate_count": 24, "seed": 3,
                }))
                await writer.drain()
                writer.close()  # gone before the solve completes

            _run(go())
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and (
                service.metrics.requests_submitted < 1
                or gateway.metrics.connections_open
            ):
                time.sleep(0.01)
            with service:
                while time.monotonic() < deadline:
                    if gateway.metrics.replies_dropped >= 1:
                        break
                    time.sleep(0.02)
            assert gateway.metrics.replies_dropped >= 1
            # The service still resolved its future and stayed healthy.
            assert service.metrics.replies_ok >= 1


class TestSessionsOverTheWire:
    def test_tracked_stream_matches_local_loop_bitwise(self, scenario):
        net, sniffers, fmap = scenario
        windows = list(SyntheticLiveSource(
            net, sniffers, user_count=2, rounds=4, rng=3
        ))
        with _service(scenario) as service, GatewayServer(service) as gateway:
            async def go():
                async with GatewayClient(
                    "127.0.0.1", gateway.port, "tracker", timeout_s=60.0
                ) as client:
                    opened = await client.open_session("s", 2, seed=11)
                    frames = []
                    for obs in windows:
                        frames.append(await client.track_step("s", obs))
                    return opened, frames

            opened, frames = _run(go())
            session = service.close_session("s")
        assert opened["type"] == "session_opened"
        for frame in frames:
            assert frame["ok"] is True and frame["stepped"] is True
        local = TrackingSession("local", SequentialMonteCarloTracker(
            net.field, net.positions[sniffers], 2,
            rng=np.random.default_rng(11), fingerprint_map=fmap,
        ))
        for obs in windows:
            local.process(obs)
        assert np.array_equal(session.estimates(), local.estimates())
        # The wire frames themselves carry the estimates bitwise.
        wire_last = np.asarray(frames[-1]["estimates"], dtype=float)
        assert np.array_equal(wire_last, local.estimates()[-len(wire_last):])

    def test_duplicate_session_is_a_typed_error_frame(self, scenario):
        with _service(scenario) as service, GatewayServer(service) as gateway:
            async def go():
                async with GatewayClient("127.0.0.1", gateway.port) as client:
                    first = await client.open_session("dup", 1, seed=0)
                    second = await client.open_session("dup", 1, seed=0)
                    return first, second

            first, second = _run(go())
        assert first["type"] == "session_opened"
        assert second["type"] == "error"
        assert second["code"] == "bad_request"

    @pytest.mark.parametrize("field, value", [
        ("seed", "abc"),
        ("user_count", 1.5),
        ("user_count", 2.9),
        ("user_count", True),
        ("user_count", 1000),
        ("seed", 2.5),
    ])
    def test_non_numeric_seed_is_a_typed_error_frame(
        self, scenario, field, value
    ):
        """A ``seed`` or ``user_count`` that is not an integer, or a
        session over the sample-row budget, gets ``bad_request`` (never a
        truncated session, never a stalled event loop), and the
        connection keeps serving."""
        with _service(scenario) as service, GatewayServer(service) as gateway:
            async def go():
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", gateway.port
                )
                frames = []
                try:
                    for frame in (
                        {"type": "open_session", "id": "s1",
                         "session_id": "x", field: value},
                        {"type": "ping", "id": "after"},
                    ):
                        writer.write(protocol.encode_frame(frame))
                        await writer.drain()
                        line = await asyncio.wait_for(reader.readline(), 30)
                        frames.append(json.loads(line))
                    return frames
                finally:
                    writer.close()
                    await writer.wait_closed()

            error, pong = _run(go())
            assert service.session_ids == []
        assert error["type"] == "error"
        assert error["code"] == "bad_request"
        assert error["id"] == "s1"
        assert pong == {"type": "pong", "id": "after"}


class TestObservability:
    def test_trace_dump_carries_stage_decomposition(self, scenario):
        obs = _observations(scenario, 2, seed=4)
        with _service(scenario) as service, GatewayServer(
            service, name="gw"
        ) as gateway:
            async def go():
                async with GatewayClient(
                    "127.0.0.1", gateway.port, timeout_s=60.0
                ) as client:
                    for r, o in enumerate(obs):
                        await client.localize(o, id=f"t{r}",
                                              candidate_count=24, seed=r)
                    return await client.trace_dump(limit=10)

            dump = _run(go())
        assert dump["type"] == "traces"
        spans = {t["span_id"] for t in dump["traces"]}
        assert any(s.startswith("gw-") for s in spans)
        stages = dump["stages"]
        for stage in ("gateway_in", "admission", "solve", "reply",
                      "gateway_out"):
            assert stage in stages, f"missing stage {stage!r}"
            assert stages[stage]["count"] >= 1
        for trace in dump["traces"]:
            assert trace["total_s"] == pytest.approx(
                sum(trace["stages"].values())
            )
        assert dump["gateway"]["frames_received"] >= 3

    def test_metrics_frame_and_subscription_pushes(self, scenario):
        with _service(scenario) as service, GatewayServer(service) as gateway:
            async def go():
                async with GatewayClient("127.0.0.1", gateway.port) as client:
                    return await client.metrics()

            one_shot = _run(go())
        assert one_shot["type"] == "metrics"
        assert "gateway" in one_shot["snapshot"]
        assert "service" in one_shot["snapshot"]

    @pytest.mark.parametrize("limit", ["abc", 2.5, -1, True])
    def test_non_integer_trace_limit_is_a_typed_error_frame(
        self, scenario, limit
    ):
        """A ``trace_dump`` ``limit`` that is not an integer ``>= 0``
        gets ``bad_request`` (never a truncated or dropped answer), and
        the connection keeps serving."""
        with _service(scenario) as service, GatewayServer(service) as gateway:
            async def go():
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", gateway.port
                )
                frames = []
                try:
                    for frame in (
                        {"type": "trace_dump", "id": "t1", "limit": limit},
                        {"type": "ping", "id": "after"},
                    ):
                        writer.write(protocol.encode_frame(frame))
                        await writer.drain()
                        line = await asyncio.wait_for(reader.readline(), 30)
                        frames.append(json.loads(line))
                    return frames
                finally:
                    writer.close()
                    await writer.wait_closed()

            error, pong = _run(go())
        assert error["type"] == "error"
        assert error["code"] == "bad_request"
        assert error["id"] == "t1"
        assert "limit" in error["message"]
        assert pong == {"type": "pong", "id": "after"}

    def test_client_request_raises_when_gateway_dies(self, scenario):
        with _service(scenario) as service:
            gateway = GatewayServer(service)
            gateway.start()

            async def go():
                client = GatewayClient(
                    "127.0.0.1", gateway.port, timeout_s=5.0
                )
                await client.connect()
                gateway.stop()  # connection torn down under the client
                with pytest.raises(GatewayError):
                    while True:  # first write may still land in buffers
                        await client.ping()
                await client.close()

            try:
                _run(go())
            finally:
                gateway.stop()


class _BlockingBackend:
    """A backend whose control calls block until released (a fleet whose
    worker is slow to answer its pipe)."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()

    def submit(self, request):
        raise AssertionError("no request is sent")

    def _block(self):
        self.entered.set()
        assert self.release.wait(10.0)

    def open_session(self, session_id, user_count, config=None, rng=None):
        self._block()

    def snapshot(self):
        self._block()
        return {"blocked": True}


class TestBlockingBackendCalls:
    @pytest.mark.parametrize("kind", ["open_session", "metrics"])
    def test_other_connections_are_answered_meanwhile(self, kind):
        backend = _BlockingBackend()
        with GatewayServer(backend) as gateway:
            async def go():
                loop = asyncio.get_running_loop()
                async with GatewayClient(
                    "127.0.0.1", gateway.port, "slow"
                ) as slow, GatewayClient(
                    "127.0.0.1", gateway.port, "fast"
                ) as fast:
                    call = asyncio.ensure_future(
                        slow.open_session("s", 2, seed=1)
                        if kind == "open_session" else slow.metrics()
                    )
                    assert await loop.run_in_executor(
                        None, backend.entered.wait, 10.0
                    )
                    pong = await fast.ping()
                    answered_first = not call.done()
                    backend.release.set()
                    return pong, answered_first, await call

            pong, answered_first, answer = _run(go())
        assert pong["type"] == "pong"
        assert answered_first
        if kind == "open_session":
            assert answer["type"] == "session_opened"
        else:
            assert answer["snapshot"]["service"] == {"blocked": True}


class TestFleetBackend:
    def test_localize_and_session_through_fleet(self, scenario):
        fleet_mod = pytest.importorskip("repro.fleet")
        net, sniffers, fmap = scenario
        obs = _observations(scenario, 2, seed=6)
        fleet = fleet_mod.ServeFleet(
            net.field, net.positions[sniffers], workers=2,
            fingerprint_map=fmap, max_batch=8,
        )
        with fleet, GatewayServer(fleet) as gateway:
            async def go():
                async with GatewayClient(
                    "127.0.0.1", gateway.port, timeout_s=120.0
                ) as client:
                    replies = [
                        await client.localize(o, id=f"f{r}",
                                              candidate_count=24, seed=r)
                        for r, o in enumerate(obs)
                    ]
                    opened = await client.open_session("fs", 1, seed=5)
                    snap = await client.metrics()
                    return replies, opened, snap

            replies, opened, snap = _run(go())
        for frame in replies:
            assert frame["ok"] is True
        assert opened["type"] == "session_opened"
        assert set(snap["snapshot"]) == {"gateway", "service"}
        router = snap["snapshot"]["service"]["router"]
        assert router["requests_submitted"] == router["replies_ok"] == 2
