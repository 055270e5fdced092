"""One seeded request, one answer, from every stack.

The library (``NLSLocalizer.localize(rng=seed)``), a
``LocalizationService`` at ``max_batch`` 1 and 16, and a
``GatewayServer`` round trip must agree bitwise on a mixed corpus: K=1
and K=2, a map-seeded deployment and one without a map, ``use_map=False``
and NaN dropout. The stacks are compared with each other, not with a
pinned digest, so the test holds on any Python and numpy.
"""

import asyncio

import pytest

from repro.fingerprint import NLSLocalizer
from repro.gateway import GatewayClient, GatewayServer
from repro.serve import LocalizationService

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
        max_batch=max_batch, max_wait_s=0.002,
    )


def _served(service, requests):
    """Submit everything before the scheduler starts, so max_batch=16
    fuses the corpus into one batch."""
    futures = [service.submit(r) for r in requests]
    with service:
        replies = [f.result(timeout=60) for f in futures]
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
    wire = _over_the_wire(_service(net, sniffers, fmap, 16), requests)
    assert set(library) == set(alone) == set(fused) == set(wire)
    for r in requests:
        want = library[r.request_id]
        assert _payload(alone[r.request_id]) == _payload(want), r.request_id
        assert _payload(fused[r.request_id]) == _payload(want), r.request_id
        frame = wire[r.request_id]
        assert frame["estimates"] == want.position_estimates().tolist()
        assert frame["best_objective"] == want.best.objective
        assert frame["best_thetas"] == want.best.thetas.tolist()
        assert frame["fit_count"] == len(want.fits)
