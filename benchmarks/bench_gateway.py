"""Gateway fan-in: wire RPS and p95 at 64 / 256 / 1024 connections.

Drives a :class:`repro.gateway.GatewayServer` fronting one
:class:`repro.serve.LocalizationService` with tiers of concurrent TCP
connections, every connection a real socket speaking the
newline-delimited JSON protocol. Each tier records over-the-wire RPS,
client-observed latency quantiles, and the server-side per-stage
decomposition (gateway_in → admission → fuse → solve → reply →
gateway_out) pulled from a ``trace_dump`` frame.

The acceptance gate mirrors the serve layer's core contract, extended
through the network: at **every** tier — including 1024 concurrent
connections — every request frame gets exactly one reply frame (none
lost, none duplicated, all ok). Connection counts are event-loop
state, so the gate exercises file-descriptor scale, not thread scale.

Runs under pytest like the rest of the suite, or standalone::

    PYTHONPATH=src python benchmarks/bench_gateway.py [--quick]

emitting ``BENCH_gateway.json`` via the shared runner.
"""

from __future__ import annotations

import asyncio
import json
import os
import resource
import sys
import time

import numpy as np
import pytest

from repro.fpmap import build_fingerprint_map
from repro.gateway import GatewayClient, GatewayServer
from repro.geometry import RectangularField
from repro.network import build_network, sample_sniffers_percentage
from repro.serve import LocalizationService
from repro.traffic import MeasurementModel, simulate_flux

CONNECTION_TIERS = (64, 256, 1024)
QUICK_TIERS = (16, 64)
#: Total request budget per tier, spread across its connections.
TOTAL_REQUESTS = 256
QUICK_TOTAL = 64
CANDIDATES = 16
MAX_BATCH = 32
QUEUE_CAPACITY = 2048
#: Concurrent dials while ramping a tier up (stays under the listen
#: backlog); once connected, all connections are live simultaneously.
DIAL_LIMIT = 100
OBSERVATION_POOL = 16


def _scenario():
    net = build_network(
        field=RectangularField(10, 10), node_count=100, radius=2.0, rng=5
    )
    sniffers = sample_sniffers_percentage(net, 20, rng=2)
    fmap = build_fingerprint_map(net.field, net.positions[sniffers],
                                 resolution=2.0)
    return net, sniffers, fmap


def _observations(net, sniffers, count=OBSERVATION_POOL, seed=9):
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


async def _drive_tier(port, connections, observations, total_requests):
    """``connections`` live sockets, ``total_requests`` spread across."""
    per_connection = [total_requests // connections] * connections
    for i in range(total_requests % connections):
        per_connection[i] += 1
    dial_gate = asyncio.Semaphore(DIAL_LIMIT)
    ready = asyncio.Barrier(connections) if hasattr(asyncio, "Barrier") \
        else None

    async def one_connection(c, budget):
        async with dial_gate:
            client = GatewayClient(
                "127.0.0.1", port, f"bench-{c}", timeout_s=300.0
            )
            await client.connect()
        try:
            if ready is not None:
                await ready.wait()  # measure with all sockets live
            results = []
            for r in range(budget):
                obs = observations[(c + r) % len(observations)]
                started = time.monotonic()
                reply = await client.localize(
                    obs, id=f"b{c}-r{r}",
                    candidate_count=CANDIDATES, seed=c * 10_000 + r,
                )
                results.append((
                    reply["id"], bool(reply.get("ok")),
                    time.monotonic() - started,
                ))
            return results
        finally:
            await client.close()

    started = time.monotonic()
    batches = await asyncio.gather(*(
        one_connection(c, budget)
        for c, budget in enumerate(per_connection)
    ))
    elapsed = time.monotonic() - started
    return [r for batch in batches for r in batch], elapsed


async def _stage_dump(port):
    async with GatewayClient("127.0.0.1", port, "probe") as client:
        return await client.trace_dump(limit=0)


def _run_tier(service, gateway, observations, connections, total_requests):
    results, elapsed = asyncio.run(_drive_tier(
        gateway.port, connections, observations, total_requests
    ))
    stages = asyncio.run(_stage_dump(gateway.port)).get("stages", {})
    latencies = np.array([latency for _, _, latency in results])
    ids = [reply_id for reply_id, _, _ in results]
    record = {
        "connections": connections,
        "requests": total_requests,
        "replies": len(results),
        "replies_ok": sum(1 for _, ok, _ in results if ok),
        "unique_reply_ids": len(set(ids)),
        "elapsed_s": elapsed,
        "wire_rps": len(results) / elapsed if elapsed > 0 else float("nan"),
        "wire_latency_p50_s": float(np.quantile(latencies, 0.50)),
        "wire_latency_p95_s": float(np.quantile(latencies, 0.95)),
        "stages_p95_s": {
            stage: info["p95_s"] for stage, info in sorted(stages.items())
        },
        "replies_dropped": gateway.metrics.replies_dropped,
        "zero_lost": len(results) == total_requests,
        "zero_duplicated": len(set(ids)) == len(ids),
    }
    return record


def _gateway_stack(net, sniffers, fmap):
    service = LocalizationService(
        net.field, net.positions[sniffers], fingerprint_map=fmap,
        max_batch=MAX_BATCH,
        queue_capacity=QUEUE_CAPACITY,
    )
    return service, GatewayServer(service, name="bench")


def _check_fd_headroom(connections):
    soft, _ = resource.getrlimit(resource.RLIMIT_NOFILE)
    # Client + server side of every connection lives in this process.
    needed = 2 * connections + 64
    return soft >= needed, soft, needed


# ----------------------------------------------------------------------
# pytest entry points (smallest tier only: CI-speed).
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def gateway_scenario():
    return _scenario()


def test_gateway_tier_zero_lost_zero_dup(benchmark, gateway_scenario):
    net, sniffers, fmap = gateway_scenario
    observations = _observations(net, sniffers)
    service, gateway = _gateway_stack(net, sniffers, fmap)

    with service, gateway:
        def run():
            return _run_tier(service, gateway, observations,
                             connections=16, total_requests=64)

        record = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(record)
    print("\n" + json.dumps(record))
    assert record["zero_lost"] and record["zero_duplicated"]
    assert record["replies_ok"] == record["requests"]


def main() -> None:
    from repro.engine import write_bench_json

    quick = "--quick" in sys.argv[1:]
    tiers = QUICK_TIERS if quick else CONNECTION_TIERS
    total = QUICK_TOTAL if quick else TOTAL_REQUESTS
    net, sniffers, fmap = _scenario()
    observations = _observations(net, sniffers)
    records = []
    skipped = []
    for connections in tiers:
        enough, soft, needed = _check_fd_headroom(connections)
        if not enough:
            skipped.append({"connections": connections,
                            "rlimit_nofile": soft, "needed": needed})
            print(json.dumps(skipped[-1] | {"skipped": True}))
            continue
        service, gateway = _gateway_stack(net, sniffers, fmap)
        with service, gateway:
            record = _run_tier(
                service, gateway, observations, connections,
                total_requests=max(total, connections),
            )
        records.append(record)
        print(json.dumps(record))

    meta = {
        "tiers": list(tiers),
        "candidate_count": CANDIDATES,
        "max_batch": MAX_BATCH,
        "queue_capacity": QUEUE_CAPACITY,
        "map_resolution": 2.0,
        "quick": quick,
        "cpus": os.cpu_count(),
        "fd_skipped_tiers": skipped,
        "zero_lost_all_tiers": all(r["zero_lost"] for r in records),
        "zero_duplicated_all_tiers": all(
            r["zero_duplicated"] for r in records
        ),
        "all_ok_all_tiers": all(
            r["replies_ok"] == r["requests"] for r in records
        ),
        "max_connections_sustained": max(
            (r["connections"] for r in records), default=0
        ),
    }
    path = write_bench_json("gateway", records, meta=meta)
    print(f"wrote {path}")

    failures = [
        gate for gate in ("zero_lost_all_tiers", "zero_duplicated_all_tiers",
                          "all_ok_all_tiers")
        if not meta[gate]
    ]
    if not records:
        failures.append("no_tier_had_fd_headroom")
    if failures:
        raise AssertionError(f"gateway gates failed: {', '.join(failures)}")


if __name__ == "__main__":
    main()
