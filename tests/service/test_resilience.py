"""Unit tests for admission control, the WAL circuit breaker and the
connection tracker.

The first two read :func:`repro.faults.now`, so every cooldown test
here runs on an armed plan's virtual clock — no wall-clock sleeps.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro import faults
from repro.faults import FaultPlan
from repro.service.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    ConnectionTracker,
    InflightGauge,
)


class TestInflightGauge:
    def test_unbounded_by_default(self):
        gauge = InflightGauge()
        assert all(gauge.try_enter() for _ in range(1000))
        assert gauge.shed == 0

    def test_sheds_beyond_the_limit(self):
        gauge = InflightGauge(2)
        assert gauge.try_enter()
        assert gauge.try_enter()
        assert not gauge.try_enter()
        assert gauge.inflight == 2
        assert gauge.shed == 1
        gauge.exit()
        assert gauge.try_enter()

    def test_counters(self):
        gauge = InflightGauge(1)
        gauge.try_enter()
        gauge.try_enter()  # shed
        gauge.exit()
        stats = gauge.to_dict()
        assert stats == {
            "limit": 1,
            "inflight": 0,
            "peak": 1,
            "admitted": 1,
            "shed": 1,
        }


class TestConnectionTracker:
    def test_counters(self):
        tracker = ConnectionTracker()
        ours, theirs = socket.socketpair()
        with ours, theirs:
            tracker.opened(ours)
            tracker.count("requests_served")
            tracker.count("requests_served")
            tracker.count("idle_timeouts")
            assert tracker.to_dict() == {
                "connections_accepted": 1,
                "connections_open": 1,
                "requests_served": 2,
                "idle_timeouts": 1,
                "closed_unread_body": 0,
            }
            tracker.closed(ours)
            assert tracker.to_dict()["connections_open"] == 0
            assert tracker.to_dict()["connections_accepted"] == 1

    def test_drain_wakes_a_blocked_reader_and_waits_for_it(self):
        tracker = ConnectionTracker()
        ours, theirs = socket.socketpair()
        seen: list[bytes] = []

        def handler() -> None:
            seen.append(ours.recv(16))  # blocks: the peer sends nothing
            ours.close()
            tracker.closed(ours)

        with theirs:
            tracker.opened(ours)
            thread = threading.Thread(target=handler)
            thread.start()
            tracker.drain(timeout_s=5.0)
            assert tracker.to_dict()["connections_open"] == 0
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        assert seen == [b""]  # EOF, not an error

    def test_drain_gives_up_on_a_busy_handler(self):
        tracker = ConnectionTracker()
        ours, theirs = socket.socketpair()
        with ours, theirs:
            tracker.opened(ours)  # nobody ever reports it closed
            started = time.monotonic()
            tracker.drain(timeout_s=0.05)
            assert 0.05 <= time.monotonic() - started < 2.0
            assert tracker.to_dict()["connections_open"] == 1


class TestCircuitBreaker:
    def test_starts_closed_and_admits(self):
        breaker = CircuitBreaker()
        assert breaker.state == CLOSED
        admitted, retry_after = breaker.allow()
        assert admitted and retry_after is None

    def test_opens_after_threshold_failures(self):
        plan = FaultPlan()
        with faults.armed(plan):
            breaker = CircuitBreaker(failure_threshold=3, cooldown_ms=1000.0)
            for _ in range(2):
                breaker.record_failure()
            assert breaker.state == CLOSED
            breaker.record_failure()
            assert breaker.state == OPEN
            admitted, retry_after = breaker.allow()
            assert not admitted
            assert retry_after is not None and retry_after >= 1.0

    def test_half_open_probe_and_recovery(self):
        plan = FaultPlan()
        with faults.armed(plan):
            breaker = CircuitBreaker(failure_threshold=1, cooldown_ms=500.0)
            breaker.record_failure()
            assert breaker.state == OPEN
            plan.advance(499.0)
            assert not breaker.allow()[0]
            plan.advance(1.0)
            # Cooldown elapsed: exactly one probe is admitted.
            assert breaker.allow()[0]
            assert breaker.state == HALF_OPEN
            assert not breaker.allow()[0]
            breaker.record_success()
            assert breaker.state == CLOSED
            assert breaker.allow()[0]

    def test_failed_probe_reopens(self):
        plan = FaultPlan()
        with faults.armed(plan):
            breaker = CircuitBreaker(failure_threshold=1, cooldown_ms=500.0)
            breaker.record_failure()
            plan.advance(500.0)
            assert breaker.allow()[0]  # the probe
            breaker.record_failure()
            assert breaker.state == OPEN
            assert not breaker.allow()[0]
            plan.advance(500.0)
            assert breaker.allow()[0]
            breaker.record_success()
            assert breaker.state == CLOSED

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_to_dict(self):
        plan = FaultPlan()
        with faults.armed(plan):
            breaker = CircuitBreaker(failure_threshold=1, cooldown_ms=250.0)
            breaker.record_failure()
            stats = breaker.to_dict()
        assert stats["state"] == OPEN
        assert stats["consecutive_failures"] == 1
        assert stats["failure_threshold"] == 1
        assert stats["cooldown_ms"] == 250.0
        assert stats["trips"] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown_ms=0)
