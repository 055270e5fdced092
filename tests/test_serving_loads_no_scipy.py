"""Serving K ≤ 2 localizes and tracking windows loads no scipy.

Loading ``scipy.optimize`` takes a serving process 0.3–0.4 s and 39 MB
of memory (docs/PERFORMANCE.md), for nothing but a 1x1 or 2x2
assignment, which ``repro.util.assignment`` answers in closed form. The check needs an
interpreter that has never imported scipy, so the test runs this file
as a script in a fresh one; CI runs it the same way::

    python tests/test_serving_loads_no_scipy.py

The script starts a ``LocalizationService`` with a fingerprint map,
answers K=1 and K=2 localizes (map-seeded, ``use_map=False`` and NaN
dropout), steps a K=2 tracking session, makes one ``GatewayServer``
round trip of each kind, and then finds no ``scipy`` module loaded.
"""

import os
import subprocess
import sys


def serve_without_scipy() -> None:
    import asyncio

    import numpy as np

    from repro.fpmap import build_fingerprint_map
    from repro.gateway import GatewayClient, GatewayServer
    from repro.gateway.protocol import reply_to_frame
    from repro.geometry import RectangularField
    from repro.network import build_network, sample_sniffers_percentage
    from repro.serve import LocalizationService, LocalizeRequest, TrackStepRequest
    from repro.traffic import FluxObservation, MeasurementModel, simulate_flux

    net = build_network(field=RectangularField(10, 10), node_count=100,
                        radius=2.0, rng=5)
    gen = np.random.default_rng(2)
    sniffers = sample_sniffers_percentage(net, 20, rng=gen)
    fmap = build_fingerprint_map(net.field, net.positions[sniffers],
                                 resolution=2.0)
    measure = MeasurementModel(net, sniffers, smooth=True, rng=gen)

    def observe(truth, time=0.0, dropout=False):
        flux = simulate_flux(net, list(truth), [1.5, 2.5][:len(truth)], rng=gen)
        obs = measure.observe(flux, time=time)
        if dropout:
            values = obs.values.copy()
            values[:3] = np.nan
            obs = FluxObservation(time=obs.time, sniffers=obs.sniffers,
                                  values=values)
        return obs

    requests = [
        LocalizeRequest(
            request_id=f"k{users}-{mode}", client_id="probe",
            observation=observe(net.field.sample_uniform(users, gen),
                                dropout=mode == "dropout"),
            user_count=users, candidate_count=32, restarts=2, sweeps=2,
            seed=users, use_map=mode != "no-map",
        )
        for users in (1, 2)
        for mode in ("map", "no-map", "dropout")
    ]
    truth = net.field.sample_uniform(2, gen)
    windows = []
    for step in range(6):
        truth = net.field.clip(truth + gen.normal(0.0, 0.5, truth.shape))
        windows.append(observe(truth, time=float(step)))

    async def round_trip(port):
        async with GatewayClient("127.0.0.1", port, "probe") as client:
            localized = await client.localize(windows[-1], user_count=2,
                                              candidate_count=32, seed=3)
            stepped = await client.track_step("s", windows[-1])
        return localized, stepped

    service = LocalizationService(net.field, net.positions[sniffers],
                                  fingerprint_map=fmap)
    with service, GatewayServer(service, port=0) as gateway:
        for request in requests:
            frame = reply_to_frame(service.call(request, timeout=60))
            assert frame["ok"], frame
        service.open_session("s", 2, rng=7)
        for step, obs in enumerate(windows[:-1]):
            reply = service.call(TrackStepRequest(
                request_id=f"t{step}", client_id="probe", session_id="s",
                observation=obs,
            ), timeout=60)
            assert reply.ok and reply.step is not None, reply
        frames = asyncio.run(round_trip(gateway.port))
    assert all(frame["ok"] for frame in frames), frames
    assert frames[1]["stepped"], frames[1]

    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    assert not loaded, f"{len(loaded)} scipy modules loaded: {loaded[:8]}"


def test_serving_k_up_to_2_loads_no_scipy():
    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, __file__], capture_output=True, text=True, env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr


if __name__ == "__main__":
    serve_without_scipy()
    print("served K=1 and K=2 localizes, a K=2 session and a gateway "
          "round trip without loading scipy")
