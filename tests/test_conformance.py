"""One seeded request, one answer, from every stack.

The library (``NLSLocalizer.localize(rng=seed)``), a
``LocalizationService`` at ``max_batch`` 1 and 16, a 2-worker
``ServeFleet`` and a ``GatewayServer`` round trip must agree bitwise on
a mixed corpus: K=1 and K=2, a map-seeded deployment and one without a
map, ``use_map=False`` and NaN dropout. A K=2 tracking session opened
with one seed must likewise step to the same estimates in the library
``SequentialMonteCarloTracker``, the service, the fleet and over the
gateway. The stacks are compared with each other, not with a pinned
digest, so the test holds on any Python and numpy.
"""

import asyncio

import numpy as np
import pytest

from repro.fingerprint import NLSLocalizer
from repro.fleet import ServeFleet
from repro.gateway import GatewayClient, GatewayServer
from repro.serve import LocalizationService, TrackStepRequest
from repro.smc import SequentialMonteCarloTracker
from repro.traffic import MeasurementModel, simulate_flux

from .test_serve_scheduler import _mixed_requests
from .test_serve_scheduler import scenario  # noqa: F401 - the shared fixture

_KNOBS = ("user_count", "candidate_count", "top_m", "restarts", "sweeps",
          "seed_top_k")


def _payload(result):
    return [
        (fit.positions.tobytes(), fit.thetas.tobytes(), float(fit.objective))
        for fit in result.fits
    ]


def _library(net, sniffers, fmap, requests):
    localizer = NLSLocalizer(net.field, net.positions[sniffers])
    return {
        r.request_id: localizer.localize(
            r.observation, rng=r.seed,
            fingerprint_map=fmap if r.use_map else None,
            **{k: getattr(r, k) for k in _KNOBS},
        )
        for r in requests
    }


def _service(net, sniffers, fmap, max_batch):
    return LocalizationService(
        net.field, net.positions[sniffers], fingerprint_map=fmap,
        max_batch=max_batch,
    )


def _served(service, requests):
    """Submit everything before the scheduler starts, so max_batch=16
    fuses the corpus into one batch."""
    futures = [service.submit(r) for r in requests]
    with service:
        replies = [f.result(timeout=60) for f in futures]
    assert all(reply.ok for reply in replies)
    return {reply.request_id: reply.result for reply in replies}


def _fleet(net, sniffers, fmap):
    return ServeFleet(
        net.field, net.positions[sniffers], workers=2, fingerprint_map=fmap,
        max_batch=16,
    )


def _fleet_served(fleet, requests):
    with fleet:
        futures = [fleet.submit(r) for r in requests]
        replies = [f.result(timeout=120) for f in futures]
    assert all(reply.ok for reply in replies)
    return {reply.request_id: reply.result for reply in replies}


def _over_the_wire(service, requests):
    async def drive(port):
        async with GatewayClient("127.0.0.1", port, "conformance") as client:
            return await asyncio.gather(*[
                client.localize(
                    r.observation, id=r.request_id, seed=r.seed,
                    use_map=r.use_map, **{k: getattr(r, k) for k in _KNOBS},
                )
                for r in requests
            ])

    with service, GatewayServer(service, port=0) as gateway:
        frames = asyncio.run(drive(gateway.port))
    assert all(frame["ok"] for frame in frames), frames
    return {frame["id"]: frame for frame in frames}


@pytest.mark.parametrize("with_map", [True, False], ids=["map", "no-map"])
def test_every_stack_gives_the_same_bits(scenario, with_map):
    net, sniffers, fmap = scenario
    fmap = fmap if with_map else None
    requests = _mixed_requests(net, sniffers)
    library = _library(net, sniffers, fmap, requests)
    alone = _served(_service(net, sniffers, fmap, 1), requests)
    fused = _served(_service(net, sniffers, fmap, 16), requests)
    fleet = _fleet_served(_fleet(net, sniffers, fmap), requests)
    wire = _over_the_wire(_service(net, sniffers, fmap, 16), requests)
    assert set(library) == set(alone) == set(fused) == set(fleet) == set(wire)
    for r in requests:
        want = library[r.request_id]
        assert _payload(alone[r.request_id]) == _payload(want), r.request_id
        assert _payload(fused[r.request_id]) == _payload(want), r.request_id
        assert _payload(fleet[r.request_id]) == _payload(want), r.request_id
        frame = wire[r.request_id]
        assert frame["estimates"] == want.position_estimates().tolist()
        assert frame["best_objective"] == want.best.objective
        assert frame["best_thetas"] == want.best.thetas.tolist()
        assert frame["fit_count"] == len(want.fits)


# ----------------------------------------------------------------------
# Tracking: one K=2 session, one seed.
# ----------------------------------------------------------------------
_SEED = 7
_USERS = 2


def _stream(net, sniffers, windows=4):
    gen = np.random.default_rng(21)
    measure = MeasurementModel(net, sniffers, smooth=True, rng=gen)
    truth = net.field.sample_uniform(_USERS, gen)
    stream = []
    for step in range(windows):
        truth = net.field.clip(truth + gen.normal(0.0, 0.5, truth.shape))
        flux = simulate_flux(net, list(truth), [1.5, 2.5], rng=gen)
        stream.append(measure.observe(flux, time=float(step)))
    return stream


def _steps(stream):
    return [
        TrackStepRequest(
            request_id=f"t{i}", client_id="tracker", session_id="s",
            observation=obs,
        )
        for i, obs in enumerate(stream)
    ]


def _tracked_over_the_wire(service, stream):
    async def drive(port):
        async with GatewayClient("127.0.0.1", port, "conformance") as client:
            opened = await client.open_session("s", _USERS, seed=_SEED)
            assert opened["type"] == "session_opened", opened
            return [
                await client.track_step("s", obs, id=f"t{i}")
                for i, obs in enumerate(stream)
            ]

    with service, GatewayServer(service, port=0) as gateway:
        frames = asyncio.run(drive(gateway.port))
    assert all(frame["ok"] and frame["stepped"] for frame in frames), frames
    return [frame["estimates"] for frame in frames]


@pytest.mark.parametrize("with_map", [True, False], ids=["map", "no-map"])
def test_every_stack_tracks_with_the_same_bits(scenario, with_map):
    net, sniffers, fmap = scenario
    fmap = fmap if with_map else None
    stream = _stream(net, sniffers)
    tracker = SequentialMonteCarloTracker(
        net.field, net.positions[sniffers], _USERS,
        rng=np.random.default_rng(_SEED), fingerprint_map=fmap,
    )
    library = []
    for obs in stream:
        tracker.step(obs)
        library.append(tracker.estimates())
    with _service(net, sniffers, fmap, 16) as service:
        service.open_session("s", _USERS, rng=_SEED)
        served = [service.call(r, timeout=60) for r in _steps(stream)]
    with _fleet(net, sniffers, fmap) as fleet:
        fleet.open_session("s", _USERS, seed=_SEED)
        fleet_served = [fleet.call(r, timeout=120) for r in _steps(stream)]
    wire = _tracked_over_the_wire(_service(net, sniffers, fmap, 16), stream)
    assert len(served) == len(fleet_served) == len(wire) == len(library)
    for i, want in enumerate(library):
        assert served[i].step is not None, i
        assert served[i].estimates.tobytes() == want.tobytes(), i
        assert fleet_served[i].estimates.tobytes() == want.tobytes(), i
        assert wire[i] == want.tolist(), i
