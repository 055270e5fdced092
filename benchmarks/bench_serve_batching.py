"""Serving throughput: micro-batched vs per-request dispatch.

Drives the :class:`repro.serve.LocalizationService` with 1, 8, and 64
closed-loop clients over identical pre-generated workloads, once with
micro-batching enabled (``max_batch=64``) and once degraded to
per-request dispatch (``max_batch=1`` — same scheduler, same code
path, no fusion). The speedup column is the direct value of fusing
each batch's candidate pools into one engine kernels call and its map
matches into one einsum. Each drain takes what is queued and never
lingers, so a lone client's batches hold one request and the 1-client
row pays no wait; the 64-client row shows the amortization. Each
record also carries both sides' p95 so the latency cost of batching is
visible, not just the throughput win.

Runs under pytest-benchmark like the rest of the suite, or
standalone::

    PYTHONPATH=src python benchmarks/bench_serve_batching.py [--quick] [--gate]

emitting ``BENCH_serve.json`` via the shared runner, with two
correctness gates in ``meta``: batched replies are bitwise-identical
(float64) to per-request replies, for a lone client and for four
interleaved ones, and deadline-expired requests get typed error
replies. ``--gate`` exits nonzero if any client count's batched
throughput falls below unbatched or a correctness gate fails — the CI
regression tripwire.
"""

from __future__ import annotations

import json
import sys
import threading
import time

import numpy as np
import pytest

from repro.geometry import RectangularField
from repro.network import build_network, sample_sniffers_percentage
from repro.serve import (
    ERROR_DEADLINE_EXPIRED,
    LocalizationService,
    LocalizeRequest,
)
from repro.traffic import MeasurementModel, simulate_flux

CLIENT_COUNTS = (1, 8, 64)
#: Closed-loop requests per client (total grows with the fleet, capped).
#: The 1-client row is the noisiest ratio (its true value is ~1.0 —
#: a lone client's drains hold one request, which is per-request
#: dispatch), so it gets the most samples.
REQUESTS_PER_CLIENT = {1: 128, 8: 32, 64: 8}
MAX_BATCH = 64
CANDIDATES = 64
SEED_TOP_K = 16
TOP_M = 5


def _scenario():
    net = build_network(
        field=RectangularField(15, 15), node_count=225, radius=2.4, rng=1234
    )
    sniffers = sample_sniffers_percentage(net, 20, rng=1)
    return net, sniffers


def _workload(net, sniffers, clients, per_client, seed=5):
    """Unique observations per request, grouped by client."""
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


def _service(net, sniffers, fingerprint_map, max_batch):
    return LocalizationService(
        net.field,
        net.positions[sniffers],
        fingerprint_map=fingerprint_map,
        max_batch=max_batch,
        queue_capacity=1024,
    )


def _shared_map(net, sniffers):
    from repro.fpmap import build_fingerprint_map

    return build_fingerprint_map(
        net.field, net.positions[sniffers], resolution=1.0
    )


def _drive(service, work):
    """Closed-loop clients; returns (replies, elapsed_s)."""
    replies = []
    lock = threading.Lock()

    def client(requests):
        mine = [service.submit(r).result() for r in requests]
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


def _run_mode(net, sniffers, fmap, work, max_batch, warmup=4):
    with _service(net, sniffers, fmap, max_batch) as service:
        # Warm the shared caches (map signature norms, numpy dispatch)
        # outside the timed region; both modes get the same warmup.
        for request in work[0][:warmup]:
            service.call(request)
        replies, elapsed = _drive(service, work)
    bad = [r for r in replies if not r.ok]
    total = sum(len(requests) for requests in work)
    if bad or len(replies) != total:
        raise AssertionError(
            f"lost/failed replies: {len(replies)}/{total} back, "
            f"{len(bad)} errors"
        )
    return replies, elapsed, service.metrics


def _best_pair(net, sniffers, fmap, work, repeats):
    """Fastest-of-``repeats`` run per mode, modes interleaved.

    Best-of is the standard low-noise reduction for closed-loop
    throughput; interleaving the modes means drift on a busy runner
    biases neither side of the speedup ratio.
    """
    batched = unbatched = None
    for _ in range(repeats):
        run_b = _run_mode(net, sniffers, fmap, work, MAX_BATCH)
        run_u = _run_mode(net, sniffers, fmap, work, 1)
        if batched is None or run_b[1] < batched[1]:
            batched = run_b
        if unbatched is None or run_u[1] < unbatched[1]:
            unbatched = run_u
    return batched, unbatched


def _record(clients, per_client, batched, unbatched):
    replies_b, elapsed_b, metrics_b = batched
    replies_u, elapsed_u, metrics_u = unbatched
    total = len(replies_b)
    quantiles = metrics_b.latency_quantiles()
    quantiles_u = metrics_u.latency_quantiles()
    p95_ratio = (
        quantiles["p95"] / quantiles_u["p95"] if quantiles_u["p95"] else None
    )
    return {
        "benchmark": "serve_batching",
        "clients": clients,
        "requests_per_client": per_client,
        "requests": total,
        "batched_elapsed_s": elapsed_b,
        "unbatched_elapsed_s": elapsed_u,
        "batched_rps": total / elapsed_b,
        "unbatched_rps": total / elapsed_u,
        "speedup": elapsed_u / elapsed_b,
        "batched_mean_batch_size": metrics_b.mean_batch_size(),
        "batched_latency_p50_s": quantiles["p50"],
        "batched_latency_p95_s": quantiles["p95"],
        "batched_latency_p99_s": quantiles["p99"],
        "unbatched_latency_p50_s": quantiles_u["p50"],
        "unbatched_latency_p95_s": quantiles_u["p95"],
        "batched_p95_over_unbatched_p95": p95_ratio,
    }


# ----------------------------------------------------------------------
# Correctness gates (recorded in the JSON meta).
# ----------------------------------------------------------------------
def _fit_payload(result):
    return [
        (f.positions.tobytes(), f.thetas.tobytes(), float(f.objective))
        for f in result.fits
    ]


def check_bitwise_identity(net, sniffers, fmap) -> bool:
    """Batched replies == per-request replies, float64-bitwise.

    Two workloads: one client's 16 requests, and 4 clients x 6 requests
    whose lanes interleave in the fair drain. Batching only decides
    which requests share a drain, never what a request computes, so
    both must match the ``max_batch=1`` oracle on every bit.
    """
    for clients, per_client, seed in ((1, 16, 99), (4, 6, 97)):
        work = _workload(net, sniffers, clients=clients,
                         per_client=per_client, seed=seed)
        by_mode = {}
        for max_batch in (MAX_BATCH, 1):
            with _service(net, sniffers, fmap, max_batch) as service:
                futures = [
                    service.submit(r) for requests in work for r in requests
                ]
                by_mode[max_batch] = {
                    f.result().request_id: _fit_payload(f.result().result)
                    for f in futures
                }
        if by_mode[MAX_BATCH] != by_mode[1]:
            return False
    return True


def check_deadline_typed_errors(net, sniffers, fmap) -> bool:
    """Expired requests get ``deadline_expired`` replies, none dropped."""
    work = _workload(net, sniffers, clients=1, per_client=8, seed=98)
    expired = [
        LocalizeRequest(
            request_id=r.request_id,
            client_id=r.client_id,
            observation=r.observation,
            candidate_count=r.candidate_count,
            deadline_s=0.0,
        )
        for r in work[0]
    ]
    with _service(net, sniffers, fmap, MAX_BATCH) as service:
        replies = [service.submit(r).result() for r in expired]
    return len(replies) == len(expired) and all(
        not r.ok and r.code == ERROR_DEADLINE_EXPIRED for r in replies
    )


# ----------------------------------------------------------------------
# pytest-benchmark entry points.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def serve_scenario():
    net, sniffers = _scenario()
    return net, sniffers, _shared_map(net, sniffers)


@pytest.mark.parametrize("clients", CLIENT_COUNTS)
def test_serve_batching(benchmark, serve_scenario, clients):
    net, sniffers, fmap = serve_scenario
    per_client = max(2, REQUESTS_PER_CLIENT[clients] // 4)
    work = _workload(net, sniffers, clients, per_client)

    def run():
        return (
            _run_mode(net, sniffers, fmap, work, MAX_BATCH),
            _run_mode(net, sniffers, fmap, work, 1),
        )

    batched, unbatched = benchmark.pedantic(run, rounds=1, iterations=1)
    record = _record(clients, per_client, batched, unbatched)
    benchmark.extra_info.update(record)
    print("\n" + json.dumps(record))
    assert len(batched[0]) == clients * per_client


def test_serve_bitwise_identity(serve_scenario):
    net, sniffers, fmap = serve_scenario
    assert check_bitwise_identity(net, sniffers, fmap)



def main() -> None:
    from repro.engine import write_bench_json

    quick = "--quick" in sys.argv[1:]
    gate = "--gate" in sys.argv[1:]
    net, sniffers = _scenario()
    fmap = _shared_map(net, sniffers)
    records = []
    for clients in CLIENT_COUNTS:
        per_client = REQUESTS_PER_CLIENT[clients]
        if quick:
            per_client = max(2, per_client // 8)
        work = _workload(net, sniffers, clients, per_client)
        batched, unbatched = _best_pair(
            net, sniffers, fmap, work, repeats=1 if quick else 5
        )
        record = _record(clients, per_client, batched, unbatched)
        records.append(record)
        print(json.dumps(record))
    meta = {
        "max_batch": MAX_BATCH,
        "candidate_count": CANDIDATES,
        "seed_top_k": SEED_TOP_K,
        "top_m": TOP_M,
        "map_resolution": 1.0,
        "quick": quick,
        "bitwise_identical": check_bitwise_identity(net, sniffers, fmap),
        "deadline_typed_errors": check_deadline_typed_errors(
            net, sniffers, fmap
        ),
    }
    print(json.dumps({k: meta[k] for k in
                      ("bitwise_identical", "deadline_typed_errors")}))
    path = write_bench_json("serve", records, meta=meta)
    print(f"wrote {path}")
    if gate:
        # Strict batched >= unbatched wherever fusion actually engaged
        # (mean batch >= 2). Where drains held one request the
        # batched path IS per-request dispatch — the true ratio is 1.0
        # — so those rows only need to sit within the measurement noise
        # floor of a shared-CPU runner.
        noise_floor = 0.97
        failures = []
        for r in records:
            fused = r["batched_mean_batch_size"] >= 2.0
            floor = 1.0 if fused else noise_floor
            if r["batched_rps"] < floor * r["unbatched_rps"]:
                failures.append(
                    f"clients={r['clients']}: batched_rps "
                    f"{r['batched_rps']:.1f} < {floor:g} * unbatched_rps "
                    f"{r['unbatched_rps']:.1f}"
                )
        failures += [
            f"correctness gate failed: {k}"
            for k in ("bitwise_identical", "deadline_typed_errors")
            if not meta[k]
        ]
        if failures:
            print("GATE FAILED:\n  " + "\n  ".join(failures))
            raise SystemExit(1)
        print("GATE PASSED: batched throughput holds at every client count")


if __name__ == "__main__":
    main()
