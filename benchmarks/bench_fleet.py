"""Fleet scaling: aggregate RPS at 1/2/4/8 workers, failover gate.

Drives the :class:`repro.fleet.ServeFleet` front end with a fixed
closed-loop client population over identical pre-generated workloads
while the worker count sweeps 1 → 8. Each worker is a full forked
serve stack (admission queue + micro-batch scheduler + engine), so the
aggregate RPS column is the direct value of spreading clients over
workers by :func:`repro.fleet.worker_for` — it should rise
monotonically through 4 workers on a multi-core runner, and honestly
flatlines on a single core (the JSON records the core count so readers
can tell which they are looking at). Each worker also answers one
untimed warm-up request, so ``worker_replies_ok`` is ``requests +
workers`` in every record.

One correctness gate rides along in ``meta``, mirroring the fleet's
core contract rather than its throughput:

``kill_one_*``
    A 2-worker fleet tracking one session has its owner worker
    SIGKILLed between steps with two requests still in flight. Zero
    loss means every submitted request resolved to exactly one reply;
    bitwise means the resumed stream's per-step estimates equal the
    unkilled baseline's, byte for byte (checkpoint-bounded replay).

Runs under pytest-benchmark like the rest of the suite, or
standalone::

    PYTHONPATH=src python benchmarks/bench_fleet.py [--quick]

emitting ``BENCH_fleet.json`` via the shared runner.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.fleet import ServeFleet, worker_for
from repro.geometry import RectangularField
from repro.network import build_network, sample_sniffers_percentage
from repro.serve import LocalizeRequest, TrackStepRequest
from repro.traffic import MeasurementModel, simulate_flux

WORKER_COUNTS = (1, 2, 4, 8)
CLIENTS = 8
REQUESTS_PER_CLIENT = 16
CANDIDATES = 64
SEED_TOP_K = 16
TOP_M = 5
MAX_BATCH = 16
#: Tracking-session gate parameters.
TRACK_STEPS = 12
KILL_AFTER = 4  # completed steps before the owner worker dies
SESSION_USERS = 2


def _scenario():
    net = build_network(
        field=RectangularField(10, 10), node_count=100, radius=2.2, rng=1234
    )
    sniffers = sample_sniffers_percentage(net, 25, rng=1)
    return net, sniffers


def _shared_map(net, sniffers):
    from repro.fpmap import build_fingerprint_map

    return build_fingerprint_map(
        net.field, net.positions[sniffers], resolution=1.0
    )


def _workload(net, sniffers, clients, per_client, seed=5):
    """Unique localize observations per request, grouped by client."""
    gen = np.random.default_rng(seed)
    measure = MeasurementModel(net, sniffers, smooth=True, rng=gen)
    work = []
    for c in range(clients):
        requests = []
        for r in range(per_client):
            truth = net.field.sample_uniform(1, gen)
            flux = simulate_flux(
                net, list(truth), [float(gen.uniform(1.0, 3.0))], rng=gen
            )
            requests.append(
                LocalizeRequest(
                    request_id=f"c{c}-r{r}",
                    client_id=f"client-{c}",
                    observation=measure.observe(flux),
                    candidate_count=CANDIDATES,
                    seed_top_k=SEED_TOP_K,
                    top_m=TOP_M,
                    seed=int(gen.integers(2**31)),
                )
            )
        work.append(requests)
    return work


def _track_stream(net, sniffers, steps, seed=21):
    """One deterministic observation stream (shared by every gate run)."""
    gen = np.random.default_rng(seed)
    measure = MeasurementModel(net, sniffers, smooth=True, rng=gen)
    truth = net.field.sample_uniform(SESSION_USERS, gen)
    return [
        measure.observe(
            simulate_flux(net, list(truth), [1.5, 2.5], rng=gen),
            time=float(step),
        )
        for step in range(steps)
    ]


def _fleet(net, sniffers, fmap, workers, **kwargs):
    kwargs.setdefault("max_batch", MAX_BATCH)
    return ServeFleet(
        net.field,
        net.positions[sniffers],
        workers=workers,
        fingerprint_map=fmap,
        **kwargs,
    )


def _drive(fleet, work):
    """Closed-loop clients; returns (replies, elapsed_s)."""
    replies = []
    lock = threading.Lock()

    def client(requests):
        mine = [fleet.submit(r).result(timeout=300) for r in requests]
        with lock:
            replies.extend(mine)

    threads = [
        threading.Thread(target=client, args=(requests,)) for requests in work
    ]
    started = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - started
    return replies, elapsed


def _warm_client(worker_id, workers):
    """The first ``warm-<i>`` client id placed on ``worker_id``."""
    return next(
        f"warm-{i}" for i in itertools.count()
        if worker_for(f"warm-{i}", workers) == worker_id
    )


def _run_workers(net, sniffers, fmap, work, workers):
    with _fleet(net, sniffers, fmap, workers) as fleet:
        # Warm every worker's caches outside the timed region: one
        # request per worker, each from a client placed on it.
        for wid in fleet.worker_ids:
            fleet.call(
                LocalizeRequest(
                    request_id=f"warm-{wid}",
                    client_id=_warm_client(wid, workers),
                    observation=work[0][0].observation,
                    candidate_count=CANDIDATES,
                    seed_top_k=SEED_TOP_K,
                    top_m=TOP_M,
                    seed=1,
                ),
                timeout=300,
            )
        replies, elapsed = _drive(fleet, work)
        snapshot = fleet.snapshot()
    bad = [r for r in replies if not r.ok]
    total = sum(len(requests) for requests in work)
    if bad or len(replies) != total:
        raise AssertionError(
            f"lost/failed replies at {workers} workers: "
            f"{len(replies)}/{total} back, {len(bad)} errors"
        )
    return replies, elapsed, snapshot


def _record(workers, clients, per_client, replies, elapsed, snapshot):
    total = len(replies)
    # Each live worker's own counters; no worker dies in the sweep.
    workers_seen = [
        w["metrics"] for w in snapshot["workers"].values() if w is not None
    ]
    batches = sum(m["batches"] for m in workers_seen)
    return {
        "benchmark": "fleet_scaling",
        "workers": workers,
        "clients": clients,
        "requests_per_client": per_client,
        "requests": total,
        "elapsed_s": elapsed,
        "aggregate_rps": total / elapsed,
        "rps_per_worker": total / elapsed / workers,
        "worker_replies_ok": sum(m["replies_ok"] for m in workers_seen),
        "worker_batches": batches,
        "worker_batch_size_mean": (
            sum(m["batch_size_mean"] * m["batches"] for m in workers_seen
                if m["batches"]) / batches
            if batches else None
        ),
        "workers_reporting": len(workers_seen),
    }


# ----------------------------------------------------------------------
# Correctness gate (recorded in the JSON meta).
# ----------------------------------------------------------------------
def _step(index, observation):
    return TrackStepRequest(
        request_id=f"s0-t{index}",
        client_id="tracker",
        session_id="s0",
        observation=observation,
    )


def _run_session(net, sniffers, fmap, stream, kill_after=None):
    """Drive one tracked session; returns (per-step estimate bytes, snapshot).

    ``kill_after=k`` SIGKILLs the session's owner worker after step k
    completes, with steps k and k+1 already submitted (in flight) — the
    redelivery path.
    """
    estimates = []
    with _fleet(net, sniffers, fmap, workers=2, max_batch=8) as fleet:
        fleet.open_session("s0", user_count=SESSION_USERS, rng=7)
        owner = fleet.session_owner("s0")
        i = 0
        while i < len(stream):
            if kill_after is not None and i == kill_after:
                kill_after = None
                in_flight = [
                    fleet.submit(_step(i + j, stream[i + j]))
                    for j in range(min(2, len(stream) - i))
                ]
                fleet.kill_worker(owner)
                for future in in_flight:
                    reply = future.result(timeout=300)
                    if not reply.ok:
                        raise AssertionError(
                            f"lost step across failover: {reply.code}"
                        )
                    estimates.append(reply.estimates.tobytes())
                    i += 1
                continue
            reply = fleet.call(_step(i, stream[i]), timeout=300)
            estimates.append(reply.estimates.tobytes())
            i += 1
        snapshot = fleet.snapshot()
    return estimates, snapshot


def check_kill_one(net, sniffers, fmap, stream):
    """Kill-one-worker chaos: zero loss + bitwise-continuous stream."""
    baseline, _ = _run_session(net, sniffers, fmap, stream)
    killed, snapshot = _run_session(
        net, sniffers, fmap, stream, kill_after=KILL_AFTER
    )
    router = snapshot["router"]
    return {
        "kill_one_zero_loss": len(killed) == len(stream),
        "kill_one_bitwise": killed == baseline,
        "kill_one_worker_deaths": router["worker_deaths"],
        "kill_one_redeliveries": router["redeliveries"],
        "kill_one_sessions_resumed": router["sessions_resumed"],
    }


# ----------------------------------------------------------------------
# pytest-benchmark entry points.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fleet_scenario():
    net, sniffers = _scenario()
    return net, sniffers, _shared_map(net, sniffers)


@pytest.mark.parametrize("workers", (1, 2))
def test_fleet_scaling(benchmark, fleet_scenario, workers):
    net, sniffers, fmap = fleet_scenario
    work = _workload(net, sniffers, CLIENTS, per_client=4)

    def run():
        return _run_workers(net, sniffers, fmap, work, workers)

    replies, elapsed, snapshot = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    record = _record(workers, CLIENTS, 4, replies, elapsed, snapshot)
    benchmark.extra_info.update(record)
    print("\n" + json.dumps(record))
    assert len(replies) == CLIENTS * 4


def test_fleet_kill_one_gate(fleet_scenario):
    net, sniffers, fmap = fleet_scenario
    stream = _track_stream(net, sniffers, steps=8)
    gate = check_kill_one(net, sniffers, fmap, stream)
    assert gate["kill_one_zero_loss"]
    assert gate["kill_one_bitwise"]
    assert gate["kill_one_worker_deaths"] >= 1


def main() -> None:
    from repro.engine import write_bench_json

    quick = "--quick" in sys.argv[1:]
    net, sniffers = _scenario()
    fmap = _shared_map(net, sniffers)
    per_client = 4 if quick else REQUESTS_PER_CLIENT
    records = []
    rps = {}
    for workers in WORKER_COUNTS:
        work = _workload(net, sniffers, CLIENTS, per_client)
        replies, elapsed, snapshot = _run_workers(
            net, sniffers, fmap, work, workers
        )
        record = _record(
            workers, CLIENTS, per_client, replies, elapsed, snapshot
        )
        rps[workers] = record["aggregate_rps"]
        records.append(record)
        print(json.dumps(record))

    stream = _track_stream(net, sniffers, steps=8 if quick else TRACK_STEPS)
    meta = {
        "worker_counts": list(WORKER_COUNTS),
        "clients": CLIENTS,
        "requests_per_client": per_client,
        "candidate_count": CANDIDATES,
        "max_batch": MAX_BATCH,
        "map_resolution": 1.0,
        "quick": quick,
        "cpus": os.cpu_count(),
        "rps_monotonic_1_to_4": rps[1] <= rps[2] <= rps[4],
    }
    meta.update(check_kill_one(net, sniffers, fmap, stream))
    print(json.dumps({k: meta[k] for k in (
        "rps_monotonic_1_to_4", "kill_one_zero_loss", "kill_one_bitwise",
    )}))
    path = write_bench_json("fleet", records, meta=meta)
    print(f"wrote {path}")

    failures = [
        gate
        for gate in ("kill_one_zero_loss", "kill_one_bitwise")
        if not meta[gate]
    ]
    # RPS only scales with real cores; on a 1–2 core box the sweep
    # still runs (and the JSON says so via meta.cpus) but the
    # monotonicity acceptance gate would measure the machine, not the
    # router, so it is enforced on multi-core runners only.
    if (os.cpu_count() or 1) >= 4 and not meta["rps_monotonic_1_to_4"]:
        failures.append("rps_monotonic_1_to_4")
    if failures:
        raise AssertionError(f"fleet gates failed: {', '.join(failures)}")


if __name__ == "__main__":
    main()
