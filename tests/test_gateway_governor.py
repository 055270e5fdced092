"""The AIMD governor against a real service, with scripted load.

The closed loop is tested deterministically: ``p95_source`` replays a
scripted load shift (calm -> overload -> recovery) against the real
knob (``queue.capacity``), so every assertion about hysteresis,
cooldown, clamping, and the multiplicative-decrease /
additive-increase law is exact — no sleeps, no real latency needed.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.fpmap import build_fingerprint_map
from repro.gateway import GatewayGovernor
from repro.geometry import RectangularField
from repro.network import build_network, sample_sniffers_percentage
from repro.serve import LocalizationService


@pytest.fixture(scope="module")
def scenario():
    net = build_network(
        field=RectangularField(10, 10), node_count=100, radius=2.0, rng=5
    )
    sniffers = sample_sniffers_percentage(net, 20, rng=2)
    fmap = build_fingerprint_map(net.field, net.positions[sniffers],
                                 resolution=2.0)
    return net, sniffers, fmap


@pytest.fixture()
def service(scenario):
    net, sniffers, fmap = scenario
    with LocalizationService(
        net.field, net.positions[sniffers], fingerprint_map=fmap,
        max_batch=8, max_wait_s=0.002, queue_capacity=256,
    ) as svc:
        yield svc


class _Script:
    """A p95_source that replays a list, holding its last value."""

    def __init__(self, values):
        self.values = list(values)
        self.calls = 0

    def __call__(self):
        value = self.values[min(self.calls, len(self.values) - 1)]
        self.calls += 1
        return value


def _governor(service, script, **kwargs):
    kwargs.setdefault("patience", 2)
    kwargs.setdefault("cooldown_ticks", 1)
    return GatewayGovernor(
        service, slo_p95_s=0.050, p95_source=script, **kwargs
    )


class TestControlLaw:
    def test_load_shift_sheds_capacity_and_recovers(self, service):
        """A scripted overload shrinks admission capacity; when p95
        returns inside the SLO the loop stops tightening."""
        script = _Script(
            [0.010, 0.010]          # calm
            + [0.120] * 8           # overload: 2.4x the 50ms SLO
            + [0.030] * 6           # recovered: inside SLO, above headroom
        )
        governor = _governor(service, script)
        baseline = int(service.queue.capacity)
        for _ in range(16):
            governor.tick()
        assert {e["knob"] for e in governor.events} == {"admission_capacity"}
        assert service.queue.capacity < baseline
        adjustments_after_overload = governor.adjustments_total
        # The recovered tail (in-SLO, above headroom) must be quiet.
        for _ in range(4):
            assert governor.tick() == []
        assert governor.adjustments_total == adjustments_after_overload
        # Every move was counted in the service metrics too.
        counted = service.metrics.governor_adjustments
        assert sum(counted.values()) == governor.adjustments_total
        assert set(counted) == {"admission_capacity"}

    def test_hysteresis_needs_a_patience_streak(self, service):
        script = _Script([0.120, 0.010, 0.120, 0.010, 0.120, 0.010])
        governor = _governor(service, script, patience=2)
        for _ in range(6):  # violations never persist 2 ticks in a row
            governor.tick()
        assert governor.adjustments_total == 0

    def test_cooldown_holds_after_a_move(self, service):
        script = _Script([0.120] * 10)
        governor = _governor(service, script, patience=1, cooldown_ticks=3)
        assert governor.tick() != []  # first violation moves immediately
        for _ in range(3):
            assert governor.tick() == []  # held by the cooldown
        assert governor.tick() != []  # cooldown expired, still violating

    def test_overload_shrinks_capacity_by_decrease_to_the_floor(
        self, service
    ):
        script = _Script([0.120] * 20)
        governor = _governor(service, script, patience=1, cooldown_ticks=0)
        floor = governor.capacity_range[0]
        for _ in range(20):
            governor.tick()
        moves = list(governor.events)
        assert len(moves) >= 2
        for move in moves:
            assert move["knob"] == "admission_capacity"
            assert move["new"] == max(
                floor, int(move["old"] * governor.decrease)
            )
        assert moves[-1]["new"] == floor
        assert service.queue.capacity == floor

    def test_knobs_clamp_at_their_ranges(self, service):
        governor = _governor(
            service, _Script([0.500] * 60), patience=1, cooldown_ticks=0,
            capacity_range=(100, 256),
        )
        for _ in range(60):  # unbounded overload
            governor.tick()
        assert service.queue.capacity == 100
        # Clamped knobs stop producing events: one more tick, no moves.
        assert governor.tick() == []
        governor._p95_source = _Script([0.001] * 60)  # deep headroom
        for _ in range(60):
            governor.tick()
        assert service.queue.capacity == 256
        assert governor.tick() == []

    def test_relax_restores_baselines_on_headroom(self, service):
        overload = _Script([0.120] * 6)
        governor = _governor(service, overload, patience=1, cooldown_ticks=0)
        baseline = int(service.queue.capacity)
        for _ in range(6):
            governor.tick()
        assert service.queue.capacity < baseline
        governor._p95_source = _Script([0.001] * 40)  # deep headroom
        for _ in range(40):
            governor.tick()
        assert service.queue.capacity == baseline
        relax = [e for e in governor.events if "headroom" in e["reason"]]
        assert relax  # the recovery arm actually ran
        for move in relax:
            assert move["new"] == min(
                baseline, move["old"] + governor.capacity_step
            )

    def test_nan_p95_is_a_no_op(self, service):
        script = _Script([float("nan")] * 5)
        governor = _governor(service, script, patience=1)
        for _ in range(5):
            assert governor.tick() == []
        assert governor.adjustments_total == 0


class TestLifecycleAndReporting:
    def test_snapshot_shape(self, service):
        script = _Script([0.120] * 4)
        governor = _governor(service, script, patience=1, cooldown_ticks=0)
        governor.tick()
        snap = governor.snapshot()
        assert snap["slo_p95_s"] == 0.050
        assert snap["ticks"] == 1
        assert snap["adjustments_total"] >= 1
        assert snap["knobs"] == {
            "admission_capacity": service.queue.capacity
        }
        assert snap["events"][0]["p95_s"] == 0.120
        assert snap["events"][0]["tick"] == 1

    def test_background_thread_ticks(self, service):
        script = _Script([0.010])
        governor = _governor(service, script, interval_s=0.01)
        governor.start()
        try:
            import time
            deadline = time.monotonic() + 5.0
            while governor.ticks < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            governor.stop()
        assert governor.ticks >= 3
        governor.stop()  # idempotent

    def test_bad_parameters_are_rejected(self, service):
        with pytest.raises(ConfigurationError):
            GatewayGovernor(service, slo_p95_s=0.0)
        with pytest.raises(ConfigurationError):
            GatewayGovernor(service, slo_p95_s=0.05, decrease=1.5)
        with pytest.raises(ConfigurationError):
            GatewayGovernor(service, slo_p95_s=0.05, patience=0)
        with pytest.raises(ConfigurationError):
            GatewayGovernor(service, slo_p95_s=0.05, headroom=0.0)

    def test_default_p95_source_reads_service_reservoir(self, service):
        governor = GatewayGovernor(service, slo_p95_s=0.050)
        assert np.isnan(governor._p95_source())  # no traffic yet
        service.metrics.record_reply(0.123)
        assert governor._p95_source() == pytest.approx(0.123)
