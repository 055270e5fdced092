#!/usr/bin/env python
"""The flux attack over the wire: a gateway, traced end to end.

Spins up the full serving stack behind a :class:`repro.gateway.
GatewayServer` — asyncio TCP front door, micro-batched localization
service — then plays the attacker from the *client*
side of real sockets: concurrent localizations and a tracked session,
all speaking the newline-delimited JSON protocol. Finishes with the
per-stage latency decomposition (gateway_in → admission → fuse →
solve → reply → gateway_out) read back through a ``trace_dump``
frame, so you can see exactly where each millisecond of a request
went.

Run:  PYTHONPATH=src python examples/gateway_attack.py
"""

import asyncio

import numpy as np

from repro import build_network, sample_sniffers_percentage, simulate_flux
from repro.fpmap import build_fingerprint_map
from repro.gateway import GatewayClient, GatewayServer
from repro.geometry import RectangularField
from repro.serve import LocalizationService
from repro.stream import SyntheticLiveSource
from repro.traffic import MeasurementModel

CLIENTS = 4
REQUESTS_PER_CLIENT = 4
TRACK_ROUNDS = 5

STAGE_ORDER = ("gateway_in", "admission", "fuse", "solve", "reply",
               "gateway_out")


async def attacker(port, name, observations):
    """One attacking client: pipelined localizations on one socket."""
    async with GatewayClient("127.0.0.1", port, name, timeout_s=60.0) as c:
        replies = await asyncio.gather(*(
            c.localize(obs, id=f"{name}-r{r}", candidate_count=48,
                       seed=hash(name) % 10_000 + r)
            for r, obs in enumerate(observations)
        ))
    return replies


async def tracker(port, windows):
    """A tracked session over the wire: open, then step every window."""
    async with GatewayClient("127.0.0.1", port, "tracker",
                             timeout_s=60.0) as c:
        await c.open_session("patrol", user_count=2, seed=11)
        estimates = None
        for r, obs in enumerate(windows):
            reply = await c.track_step("patrol", obs, id=f"w{r}")
            assert reply["ok"], reply
            estimates = reply["estimates"]
        dump = await c.trace_dump(limit=5)
    return estimates, dump


async def drive(port, work, windows):
    attacks = asyncio.gather(*(
        attacker(port, f"attacker-{c}", observations)
        for c, observations in enumerate(work)
    ))
    (estimates, dump), replies = await asyncio.gather(
        tracker(port, windows), attacks
    )
    return replies, estimates, dump


def main() -> None:
    print("Building the deployment (100 nodes, 20% sniffers)...")
    net = build_network(field=RectangularField(10, 10), node_count=100,
                        radius=2.0, rng=5)
    sniffers = sample_sniffers_percentage(net, 20, rng=2)
    fmap = build_fingerprint_map(net.field, net.positions[sniffers],
                                 resolution=2.0)

    gen = np.random.default_rng(7)
    measure = MeasurementModel(net, sniffers, smooth=True, rng=gen)
    work = []
    for _ in range(CLIENTS):
        observations = []
        for _ in range(REQUESTS_PER_CLIENT):
            truth = net.field.sample_uniform(1, gen)
            flux = simulate_flux(net, list(truth),
                                 [float(gen.uniform(1.0, 3.0))], rng=gen)
            observations.append(measure.observe(flux))
        work.append(observations)
    windows = list(SyntheticLiveSource(net, sniffers, user_count=2,
                                       rounds=TRACK_ROUNDS, rng=3))

    service = LocalizationService(
        net.field, net.positions[sniffers], fingerprint_map=fmap,
        max_batch=8, max_wait_s=0.002,
    )
    with service, GatewayServer(service) as gateway:
        print(f"Gateway listening on 127.0.0.1:{gateway.port} "
              f"(ephemeral bind)\n")
        replies, estimates, dump = asyncio.run(
            drive(gateway.port, work, windows)
        )

        flat = [r for batch in replies for r in batch]
        ok = sum(1 for r in flat if r.get("ok"))
        print(f"Localizations over the wire: {ok}/{len(flat)} ok "
              f"from {CLIENTS} concurrent connections")
        print(f"Tracked session: {TRACK_ROUNDS} windows, final "
              f"estimates {np.round(np.asarray(estimates), 2).tolist()}")

        snap = gateway.snapshot()
        print(f"\nGateway: {snap['connections_opened']} connections, "
              f"{snap['frames_received']} frames in / "
              f"{snap['frames_sent']} out, "
              f"{snap['replies_dropped']} replies dropped, "
              f"{snap['protocol_errors']} protocol errors")

        print("\nPer-stage latency decomposition (p95, from "
              "trace_dump):")
        stages = dump["stages"]
        for stage in STAGE_ORDER:
            if stage not in stages:
                continue
            info = stages[stage]
            print(f"  {stage:<12} {1e3 * info['p95_s']:>8.2f} ms "
                  f"({info['count']} samples)")
        sample = dump["traces"][-1]
        total_ms = 1e3 * sample["total_s"]
        print(f"\nOne traced request ({sample['span_id']}): "
              f"{total_ms:.2f} ms total")
        for stage, seconds in sorted(sample["stages"].items(),
                                     key=lambda kv: -kv[1]):
            print(f"  {stage:<12} {1e3 * seconds:>8.2f} ms "
                  f"({100 * seconds / sample['total_s']:.0f}%)")
    print("\nEvery reply above crossed a real TCP socket — the same "
          "frames, spans, and knobs the CLI's `repro gateway` serves.")


if __name__ == "__main__":
    main()
