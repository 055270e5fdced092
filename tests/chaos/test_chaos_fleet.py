"""Chaos over the fleet: seeded worker kills between track steps.

A ``fleet.worker.exit`` fault plan is armed in the router process just
long enough to fork the initial workers, so exactly those workers
inherit it (the replacement forked at failover starts disarmed — the
plan state is per-process after fork). The inheriting owner worker
``os._exit``\\ s on its ``skip``-th request receipt — between track
steps, before the step is applied — and the router must:

* answer every submitted request exactly once (zero loss, the
  redelivery path);
* resume the session from its newest checkpoint so the surviving
  stream is bitwise-identical to a run that never saw the fault
  (checkpoint-bounded replay);
* count the death, respawn, and resume in its own metrics.
"""

import numpy as np
import pytest

from repro.faults import FaultPlan, FaultSpec, injected
from repro.fleet import ServeFleet
from repro.fpmap import build_fingerprint_map
from repro.geometry import RectangularField
from repro.network import build_network, sample_sniffers_percentage
from repro.serve import LocalizeRequest, TrackStepRequest
from repro.traffic import MeasurementModel, simulate_flux

STEPS = 8
USERS = 2


@pytest.fixture(scope="module")
def scenario():
    net = build_network(
        field=RectangularField(8, 8), node_count=64, radius=2.0, rng=11
    )
    sniffers = sample_sniffers_percentage(net, 25, rng=3)
    fmap = build_fingerprint_map(
        net.field, net.positions[sniffers], resolution=1.0
    )
    gen = np.random.default_rng(23)
    measure = MeasurementModel(net, sniffers, smooth=True, rng=gen)
    truth = net.field.sample_uniform(USERS, gen)
    stream = [
        measure.observe(
            simulate_flux(net, list(truth), [1.5, 2.5], rng=gen),
            time=float(step),
        )
        for step in range(STEPS)
    ]
    localizes = []
    for r in range(STEPS):
        point = net.field.sample_uniform(1, gen)
        flux = simulate_flux(
            net, list(point), [float(gen.uniform(1.0, 3.0))], rng=gen
        )
        localizes.append(LocalizeRequest(
            request_id=f"r{r}", client_id="lone-client",
            observation=measure.observe(flux), candidate_count=24,
            seed=int(gen.integers(2**31)),
        ))
    return net, sniffers, fmap, stream, localizes


def _kill_plan(skip):
    return FaultPlan(
        [FaultSpec("fleet.worker.exit", times=1, skip=skip)], seed=skip
    )


def _start_fleet(scenario, plan):
    net, sniffers, fmap, _, _ = scenario
    fleet = ServeFleet(
        net.field, net.positions[sniffers], workers=2,
        fingerprint_map=fmap, max_batch=8,
    )
    # Arm only across the fork: the initial workers inherit the armed
    # plan; by failover time the router is disarmed again, so the
    # replacement worker comes up clean and the fault fires once.
    with injected(plan):
        fleet.start()
    return fleet


def _run_tracked(scenario, plan=None):
    _, _, _, stream, _ = scenario
    fleet = _start_fleet(scenario, plan)
    try:
        fleet.open_session("s0", USERS, seed=7)
        estimates = []
        for i, obs in enumerate(stream):
            reply = fleet.call(
                TrackStepRequest(
                    request_id=f"t{i}", client_id="tracker",
                    session_id="s0", observation=obs,
                ),
                timeout=300,
            )
            estimates.append(reply.estimates.tobytes())
        snapshot = fleet.fleet_snapshot()
    finally:
        fleet.stop()
    return estimates, snapshot


def _run_localizes(scenario, plan=None):
    _, _, _, _, localizes = scenario
    fleet = _start_fleet(scenario, plan)
    try:
        replies = [fleet.call(r, timeout=300) for r in localizes]
        snapshot = fleet.fleet_snapshot()
    finally:
        fleet.stop()
    payload = [
        (f.positions.tobytes(), f.thetas.tobytes(), float(f.objective))
        for reply in replies
        for f in reply.result.fits
    ]
    return payload, snapshot


@pytest.fixture(scope="module")
def tracked_baseline(scenario):
    estimates, snapshot = _run_tracked(scenario)
    assert snapshot["router"]["worker_deaths"] == 0
    return estimates


@pytest.fixture(scope="module")
def localize_baseline(scenario):
    payload, _ = _run_localizes(scenario)
    return payload


@pytest.mark.parametrize("skip", [0, 3, 6])
def test_worker_killed_between_steps_resumes_bitwise(
    scenario, tracked_baseline, skip
):
    estimates, snapshot = _run_tracked(scenario, _kill_plan(skip))
    router = snapshot["router"]

    # Zero loss: every step answered exactly once, in order.
    assert len(estimates) == STEPS

    # The fault actually fired and was recovered from.
    assert router["worker_deaths"] == 1, router
    assert router["worker_restarts"] == 1
    assert router["sessions_resumed"] == 1
    assert router["redeliveries"] >= 1

    # Checkpoint-bounded replay: the resumed stream is the stream.
    assert estimates == tracked_baseline


def test_worker_killed_mid_localize_burst_loses_nothing(
    scenario, localize_baseline
):
    payload, snapshot = _run_localizes(scenario, _kill_plan(4))
    router = snapshot["router"]
    assert router["worker_deaths"] == 1
    assert router["redeliveries"] >= 1
    # Localize requests are stateless: the redelivered request
    # recomputes on the replacement and the reply is bitwise the same.
    assert payload == localize_baseline


def test_disarmed_plan_costs_nothing(scenario, tracked_baseline):
    # The no-fault run under a plan for a *different* site behaves as
    # the baseline (the fault point is one None check when disarmed).
    plan = FaultPlan(
        [FaultSpec("serve.batch.fuse", times=1, skip=10_000)], seed=1
    )
    estimates, snapshot = _run_tracked(scenario, plan)
    assert snapshot["router"]["worker_deaths"] == 0
    assert estimates == tracked_baseline
