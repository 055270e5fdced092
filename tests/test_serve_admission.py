"""Admission queue: bounded, client-fair, deadline-aware."""

import threading
import time
from types import SimpleNamespace

import pytest

from repro.errors import ConfigurationError
from repro.serve import (
    ADMITTED,
    CLOSED,
    REJECTED,
    TIMED_OUT,
    AdaptiveBatchController,
    AdmissionQueue,
    PendingRequest,
)


def _item(client="c", request_id="r", deadline_s=None, now=None):
    request = SimpleNamespace(
        client_id=client, request_id=request_id, deadline_s=deadline_s
    )
    return PendingRequest.wrap(request, now=now)


def _lingering_queue(max_wait_s):
    """A queue with a controller attached, as the scheduler wires it."""
    queue = AdmissionQueue(capacity=8)
    queue.controller = AdaptiveBatchController(max_wait_s=max_wait_s)
    return queue


class TestPendingRequest:
    def test_expiry_from_relative_deadline(self):
        item = _item(deadline_s=2.0, now=100.0)
        assert item.expires_at == 102.0
        assert not item.expired(now=101.9)
        assert item.expired(now=102.0)

    def test_no_deadline_never_expires(self):
        assert not _item(now=0.0).expired(now=1e12)

    def test_latency_measured_from_submission(self):
        assert _item(now=10.0).latency(now=10.5) == pytest.approx(0.5)


class TestFairness:
    def test_round_robin_across_clients(self):
        queue = AdmissionQueue(capacity=16)
        for i in range(4):
            queue.offer(_item("flooder", f"f{i}"))
        queue.offer(_item("meek", "m0"))
        batch, expired = queue.take(3, wait_timeout=0)
        assert not expired
        # One item per client per turn: the meek client is served in
        # the first rotation despite submitting last.
        assert [i.request.request_id for i in batch] == ["f0", "m0", "f1"]

    def test_per_client_fifo_preserved(self):
        queue = AdmissionQueue(capacity=16)
        for i in range(3):
            queue.offer(_item("a", f"a{i}"))
        batch, _ = queue.take(3, wait_timeout=0)
        assert [i.request.request_id for i in batch] == ["a0", "a1", "a2"]

    def test_per_client_limit_rejects_only_the_flooder(self):
        queue = AdmissionQueue(capacity=16, per_client_limit=2)
        assert queue.offer(_item("flooder", "f0")) == ADMITTED
        assert queue.offer(_item("flooder", "f1")) == ADMITTED
        assert queue.offer(_item("flooder", "f2")) == REJECTED
        assert queue.offer(_item("meek", "m0")) == ADMITTED


class TestPolicies:
    def test_reject_when_full(self):
        queue = AdmissionQueue(capacity=2, policy="reject")
        assert queue.offer(_item("a", "0")) == ADMITTED
        assert queue.offer(_item("a", "1")) == ADMITTED
        assert queue.offer(_item("a", "2")) == REJECTED
        assert queue.depth() == 2

    def test_block_waits_for_room(self):
        queue = AdmissionQueue(capacity=1, policy="block", block_timeout_s=5.0)
        queue.offer(_item("a", "0"))
        outcomes = []

        def producer():
            outcomes.append(queue.offer(_item("a", "1")))

        thread = threading.Thread(target=producer)
        thread.start()
        time.sleep(0.05)
        assert not outcomes  # still blocked on the full queue
        batch, _ = queue.take(1, wait_timeout=0)
        thread.join(timeout=5.0)
        assert outcomes == [ADMITTED]
        assert [i.request.request_id for i in batch] == ["0"]

    def test_block_times_out(self):
        queue = AdmissionQueue(capacity=1, policy="block", block_timeout_s=0.05)
        queue.offer(_item("a", "0"))
        started = time.monotonic()
        assert queue.offer(_item("a", "1")) == TIMED_OUT
        assert time.monotonic() - started >= 0.05
        assert queue.depth() == 1

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            AdmissionQueue(capacity=0)
        with pytest.raises(ConfigurationError):
            AdmissionQueue(policy="balk")
        with pytest.raises(ConfigurationError):
            AdmissionQueue(block_timeout_s=0.0)
        with pytest.raises(ConfigurationError):
            AdmissionQueue(per_client_limit=0)


class TestDeadlines:
    def test_expired_work_is_purged_not_batched(self):
        queue = AdmissionQueue(capacity=8)
        queue.offer(_item("a", "fresh"))
        queue.offer(_item("a", "stale", deadline_s=0.0))
        time.sleep(0.005)
        batch, expired = queue.take(8, wait_timeout=0)
        assert [i.request.request_id for i in batch] == ["fresh"]
        assert [i.request.request_id for i in expired] == ["stale"]
        assert queue.depth() == 0


class TestBatchingAndShutdown:
    def test_take_lingers_to_fill_the_batch(self):
        queue = _lingering_queue(max_wait_s=0.5)
        queue.offer(_item("a", "0"))
        queue.offer(_item("b", "1"))  # depth 2: past the bypass

        def late_producer():
            time.sleep(0.02)
            queue.offer(_item("c", "2"))

        thread = threading.Thread(target=late_producer)
        thread.start()
        batch, _ = queue.take(3, wait_timeout=0.5)
        thread.join()
        assert len(batch) == 3

    def test_take_returns_partial_after_batch_wait(self):
        # The controller's window never exceeds max_wait_s.
        queue = _lingering_queue(max_wait_s=0.02)
        queue.offer(_item("a", "0"))
        queue.offer(_item("b", "1"))
        started = time.monotonic()
        batch, _ = queue.take(4, wait_timeout=0.5)
        assert len(batch) == 2
        assert time.monotonic() - started < 0.4

    def test_take_empty_times_out(self):
        queue = AdmissionQueue(capacity=8)
        batch, expired = queue.take(4, wait_timeout=0.01)
        assert batch == [] and expired == []

    def test_close_refuses_offers_and_wakes_takers(self):
        queue = AdmissionQueue(capacity=8)
        queue.offer(_item("a", "0"))
        queue.close()
        assert queue.closed
        assert queue.offer(_item("a", "1")) == CLOSED
        # What was admitted before close stays drainable.
        leftovers = queue.drain_all()
        assert [i.request.request_id for i in leftovers] == ["0"]

    def test_drain_all_returns_everything(self):
        queue = AdmissionQueue(capacity=8)
        for i in range(3):
            queue.offer(_item("a", f"{i}"))
        queue.offer(_item("a", "late", deadline_s=0.0))
        time.sleep(0.005)
        assert len(queue.drain_all()) == 4
        assert queue.depth() == 0


class TestControllerLinger:
    def test_lone_item_skips_the_linger(self):
        queue = _lingering_queue(max_wait_s=0.25)
        queue.offer(_item("a", "0"))
        started = time.monotonic()
        batch, _ = queue.take(4, wait_timeout=0.5)
        # The controller's depth bypass skips the linger at depth 1.
        assert time.monotonic() - started < 0.2
        assert [i.request.request_id for i in batch] == ["0"]
        assert queue.controller.bypasses == 1

    def test_two_queued_items_still_linger_and_fuse(self):
        queue = _lingering_queue(max_wait_s=0.5)
        queue.offer(_item("a", "0"))
        queue.offer(_item("b", "1"))

        late = threading.Timer(0.03, lambda: queue.offer(_item("c", "2")))
        late.start()
        try:
            batch, _ = queue.take(4, wait_timeout=0.5)
        finally:
            late.join()
        # Depth was 2 at take time, so the linger ran and picked up
        # the third request — fusion under load is unchanged.
        assert len(batch) == 3
        assert queue.controller.windows == 1

    def test_bare_queue_drains_at_once(self):
        queue = AdmissionQueue(capacity=8)
        queue.offer(_item("a", "0"))
        queue.offer(_item("b", "1"))

        late = threading.Timer(0.2, lambda: queue.offer(_item("c", "2")))
        late.start()
        try:
            started = time.monotonic()
            batch, _ = queue.take(4, wait_timeout=0.5)
            elapsed = time.monotonic() - started
        finally:
            late.join()
        # No controller attached: nothing lingers for company.
        assert len(batch) == 2
        assert elapsed < 0.15
