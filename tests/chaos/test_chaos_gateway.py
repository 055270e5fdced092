"""Chaos sweep over the gateway: faults on the wire, results bitwise.

Two sweeps, one invariant ladder:

* **slow plans** only delay reply writes, so the plain client must see
  every reply (exactly one per request, none lost or duplicated) and
  results bitwise-identical to the no-fault baseline;
* **drop plans** tear frames and half-open connections, so an
  at-least-once client (reconnect + resend) is required — and *still*
  gets bitwise-identical results: a resent localize recomputes
  deterministically from its seed, and a resent track window that
  already landed is skipped as out-of-order with tracker state
  untouched. A reply that resolved after its connection died is
  discarded and counted (``replies_dropped``), never a hang.
"""

import asyncio

import numpy as np
import pytest

from repro.errors import GatewayError, ProtocolError
from repro.faults import FaultPlan, FaultSpec, injected
from repro.fpmap import build_fingerprint_map
from repro.gateway import GatewayClient, GatewayServer, protocol
from repro.geometry import RectangularField
from repro.network import build_network, sample_sniffers_percentage
from repro.serve import LocalizationService
from repro.stream import SyntheticLiveSource
from repro.traffic import MeasurementModel, simulate_flux

from .plans import random_gateway_drop_plan, random_gateway_slow_plan

SLOW_SEEDS = range(8)
DROP_SEEDS = range(12)

_RETRYABLE = (GatewayError, ProtocolError, ConnectionError, OSError,
              asyncio.TimeoutError)


@pytest.fixture(scope="module")
def scenario():
    net = build_network(
        field=RectangularField(8, 8), node_count=64, radius=2.0, rng=11
    )
    sniffers = sample_sniffers_percentage(net, 25, rng=3)
    fmap = build_fingerprint_map(net.field, net.positions[sniffers],
                                 resolution=2.0)
    gen = np.random.default_rng(17)
    measure = MeasurementModel(net, sniffers, smooth=True, rng=gen)
    observations = []
    for _ in range(4):
        truth = net.field.sample_uniform(1, gen)
        flux = simulate_flux(
            net, list(truth), [float(gen.uniform(1.0, 3.0))], rng=gen
        )
        observations.append(measure.observe(flux))
    windows = list(SyntheticLiveSource(
        net, sniffers, user_count=2, rounds=3, rng=7
    ))
    return net, sniffers, fmap, observations, windows


def _service(scenario):
    net, sniffers, fmap, _, _ = scenario
    return LocalizationService(
        net.field, net.positions[sniffers], fingerprint_map=fmap,
        max_batch=4,
    )


class _AtLeastOnceClient:
    """Reconnect-and-resend wrapper: survives torn and half-open faults."""

    def __init__(self, host, port, attempts=10):
        self.host = host
        self.port = port
        self.attempts = attempts
        self._client = None

    async def _ensure(self):
        while self._client is None:
            client = GatewayClient(
                self.host, self.port, "chaos", timeout_s=15.0
            )
            try:
                await client.connect()
                self._client = client
            except _RETRYABLE:
                await client.close()

    async def call(self, frame):
        for _ in range(self.attempts):
            await self._ensure()
            try:
                return await self._client.request(dict(frame))
            except _RETRYABLE:
                await self.close()
        raise AssertionError(
            f"frame {frame.get('id')!r} never survived its retry budget"
        )

    async def close(self):
        if self._client is not None:
            client, self._client = self._client, None
            await client.close()


async def _drive(port, observations, windows):
    """One full client run: localizations, then a tracked session.

    Returns the localize estimates read off the wire. Requests go out
    sequentially so every run (clean or faulted) batches identically.
    """
    client = _AtLeastOnceClient("127.0.0.1", port)
    estimates = []
    try:
        for i, obs in enumerate(observations):
            reply = await client.call({
                "type": "localize", "id": f"q{i}",
                "observation": protocol.observation_to_wire(obs),
                "candidate_count": 24, "seed": 1000 + i,
            })
            assert reply["ok"] is True, reply
            estimates.append(reply["estimates"])
        opened = await client.call({
            "type": "open_session", "id": "open",
            "session_id": "chaos", "user_count": 2, "seed": 11,
        })
        # At-least-once: a resent open after a torn session_opened
        # reply is a duplicate — the typed error frame is the ack.
        assert opened["type"] in ("session_opened", "error"), opened
        for i, obs in enumerate(windows):
            reply = await client.call({
                "type": "track_step", "id": f"w{i}",
                "session_id": "chaos",
                "observation": protocol.observation_to_wire(obs),
            })
            # A resent window that already landed is skipped
            # (ok=True, stepped=False): state untouched either way.
            assert reply["ok"] is True, reply
    finally:
        await client.close()
    return estimates


def _run(scenario, plan):
    _, _, _, observations, windows = scenario
    with _service(scenario) as service:
        with GatewayServer(service) as gateway:
            with injected(plan):
                estimates = asyncio.run(_drive(
                    gateway.port, observations, windows,
                ))
            fired = dict(gateway.metrics.faults_injected)
            dropped = gateway.metrics.replies_dropped
        session = service.close_session("chaos")
    return estimates, session.estimates(), fired, dropped


@pytest.fixture(scope="module")
def baseline(scenario):
    return _run(scenario, None)


@pytest.mark.parametrize("seed", SLOW_SEEDS)
def test_slow_plans_lose_nothing(scenario, baseline, seed):
    plan = random_gateway_slow_plan(seed)
    estimates, tracked, fired, dropped = _run(scenario, plan)
    clean_estimates, clean_tracked, _, _ = baseline
    assert fired.get("gateway.client.slow", 0) >= 1
    assert dropped == 0  # delays never drop a reply
    assert estimates == clean_estimates  # wire floats: bitwise equality
    assert np.array_equal(tracked, clean_tracked)


@pytest.mark.parametrize("seed", DROP_SEEDS)
def test_drop_plans_survive_reconnect_and_resend(scenario, baseline, seed):
    plan = random_gateway_drop_plan(seed)
    estimates, tracked, fired, dropped = _run(scenario, plan)
    clean_estimates, clean_tracked, _, _ = baseline
    assert sum(fired.values()) >= 1  # the plan was never vacuous
    assert estimates == clean_estimates
    assert np.array_equal(tracked, clean_tracked)


def test_torn_reply_is_discarded_and_counted(scenario, baseline):
    """Pin the drop accounting: the first write after the handshake is
    the q0 localize reply, so ``skip=1`` tears exactly one reply frame
    — which must surface as ``replies_dropped``, never a hang."""
    plan = FaultPlan([FaultSpec("gateway.frame.torn", times=1, skip=1)])
    estimates, tracked, fired, dropped = _run(scenario, plan)
    clean_estimates, clean_tracked, _, _ = baseline
    assert fired == {"gateway.frame.torn": 1}
    assert dropped == 1
    assert estimates == clean_estimates
    assert np.array_equal(tracked, clean_tracked)
