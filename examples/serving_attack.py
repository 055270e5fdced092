#!/usr/bin/env python
"""Serve the attack to many clients at once — micro-batched.

The other examples run one attack per process. An adversary with a
sniffer deployment amortizes it: one service holds the flux model, the
fingerprint map, and the engine, and many logical clients ask it
"where is this user?" concurrently. This demo stands the service up
in-process, drives it with concurrent localize clients plus a
streaming tracking session, and shows the operational surface: the
batch-size histogram (how well micro-batching amortized the fused
kernel calls), typed error replies (a deadline-expired request and an
unknown-session request — answered, never dropped), and the
drain-and-checkpoint shutdown that a restarted service resumes from.

Run:  python examples/serving_attack.py
"""

import tempfile
import threading
from pathlib import Path

import numpy as np

from repro import build_network, sample_sniffers_percentage
from repro.geometry import RectangularField
from repro.serve import (
    LocalizationService,
    LocalizeRequest,
    TrackStepRequest,
)
from repro.stream import SyntheticLiveSource
from repro.traffic import MeasurementModel, simulate_flux

CLIENTS = 6
REQUESTS = 8


def main() -> None:
    gen = np.random.default_rng(11)
    network = build_network(
        field=RectangularField(15.0, 15.0), node_count=225, rng=gen
    )
    sniffers = sample_sniffers_percentage(network, 20.0, rng=gen)
    measure = MeasurementModel(network, sniffers, smooth=True, rng=gen)

    # One service per deployment: the map build below is the expensive
    # shared asset every request reuses (map-seeded candidate pools).
    # stop() checkpoints every tracking session into checkpoint_dir.
    workdir = Path(tempfile.mkdtemp(prefix="repro-serve-"))
    service = LocalizationService(
        network.field,
        network.positions[sniffers],
        fingerprint_map=None,
        map_resolution=2.0,
        checkpoint_dir=workdir,
        max_batch=16,
        queue_capacity=256,
    )

    # --- workload: each client brings its own observed windows ---------
    workload = []
    for c in range(CLIENTS):
        jobs = []
        for r in range(REQUESTS):
            truth = network.field.sample_uniform(1, gen)
            flux = simulate_flux(
                network, list(truth), [float(gen.uniform(1.0, 3.0))], rng=gen
            )
            request = LocalizeRequest(
                request_id=f"c{c}-r{r}",
                client_id=f"client-{c}",
                observation=measure.observe(flux),
                candidate_count=64,
                seed=int(gen.integers(2**31)),
            )
            jobs.append((request, truth))
        workload.append(jobs)

    live = SyntheticLiveSource(
        network, sniffers, user_count=2, rounds=REQUESTS, rng=gen
    )
    windows = list(live)
    service.open_session("patrol", user_count=2, rng=7)

    errors = []

    def localize_client(jobs):
        for request, truth in jobs:
            reply = service.submit(request).result()
            errors.append(reply.result.errors_to(truth).mean())

    def track_client():
        for r, obs in enumerate(windows):
            service.submit(
                TrackStepRequest(
                    request_id=f"patrol-r{r}",
                    client_id="tracker",
                    session_id="patrol",
                    observation=obs,
                )
            ).result()

    threads = [
        threading.Thread(target=localize_client, args=(jobs,))
        for jobs in workload
    ] + [threading.Thread(target=track_client)]
    with service:
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        # --- typed errors: failure is a reply, not a dropped future ----
        expired = service.submit(
            LocalizeRequest(
                request_id="too-late",
                client_id="impatient",
                observation=workload[0][0][0].observation,
                candidate_count=64,
                deadline_s=0.0,
            )
        ).result()
        lost = service.submit(
            TrackStepRequest(
                request_id="lost",
                client_id="tracker",
                session_id="no-such-session",
                observation=windows[0],
            )
        ).result()
        print(f"deadline_s=0 request  -> ok={expired.ok} code={expired.code}")
        print(f"unknown session       -> ok={lost.ok} code={lost.code}")

        # --- drain-and-checkpoint shutdown ------------------------------
        summary = service.stop()
    print(f"checkpointed on shutdown: {summary['checkpoints']}")

    print(
        f"\n{CLIENTS} clients x {REQUESTS} requests: mean localization "
        f"error {np.mean(errors):.2f}"
    )
    snapshot = service.snapshot()
    print(f"batch size histogram: {snapshot['batch_size_histogram']}")
    print(f"p50/p95/p99 latency:  {snapshot['latency_p50_s'] * 1e3:.1f} / "
          f"{snapshot['latency_p95_s'] * 1e3:.1f} / "
          f"{snapshot['latency_p99_s'] * 1e3:.1f} ms")

    # --- a restarted service resumes the tracking session ---------------
    revived = LocalizationService(
        network.field,
        network.positions[sniffers],
        fingerprint_map=service.fingerprint_map,
        max_batch=16,
    )
    session = revived.resume_session(
        summary["checkpoints"]["patrol"], truth=live.truth_at
    )
    print(
        f"\nresumed session {session.session_id!r} at window "
        f"{session.windows_consumed}; estimates:"
    )
    for user, (x, y) in enumerate(session.estimates()):
        print(f"  user {user}: ({x:6.2f}, {y:6.2f})")


if __name__ == "__main__":
    main()
