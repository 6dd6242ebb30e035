"""Runtime lock-order sanitizer tests.

Covers the acceptance criterion that a deliberately mis-ordered
acquisition is detected, plus cycle detection without levels, self
deadlocks, fsync hazards, RW-lock re-entrancy semantics, the
plain-lock passthrough when the opt-in is off, and a clean run of the
real engine lock stack under the sanitizer.
"""

from __future__ import annotations

import threading

import pytest

from tools.analysis import lockdep
from tools.analysis.lockdep import InstrumentedLock, LockOrderError


@pytest.fixture()
def monitor(monkeypatch: pytest.MonkeyPatch) -> lockdep.LockDepMonitor:
    """A fresh process-wide monitor with the opt-in env set."""
    monkeypatch.setenv("YASK_LOCKDEP", "1")
    return lockdep.fresh_monitor()


def test_shim_returns_plain_locks_when_disabled(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    from repro import concurrency

    monkeypatch.delenv("YASK_LOCKDEP", raising=False)
    lock = concurrency.ordered_lock("t.plain", concurrency.LEVEL_LEAF)
    assert isinstance(lock, type(threading.Lock()))
    assert not concurrency.lockdep_active()


def test_shim_returns_instrumented_locks_when_enabled(
    monitor: lockdep.LockDepMonitor,
) -> None:
    from repro import concurrency

    assert concurrency.lockdep_active()
    lock = concurrency.ordered_lock("t.inst", concurrency.LEVEL_LEAF)
    assert isinstance(lock, InstrumentedLock)
    assert lock.level == concurrency.LEVEL_LEAF


def test_misordered_acquisition_detected(monitor: lockdep.LockDepMonitor) -> None:
    """The acceptance criterion: a deliberate inversion raises."""
    domain = InstrumentedLock(monitor, "t.domain", level=40)
    leaf = InstrumentedLock(monitor, "t.leaf", level=50)
    with domain:
        with leaf:  # correct order: strictly increasing levels
            pass
    with leaf:
        with pytest.raises(LockOrderError, match="lock-order violation"):
            domain.acquire()
    assert any("lock-order violation" in v for v in monitor.violations)


def test_equal_level_acquisition_detected(monitor: lockdep.LockDepMonitor) -> None:
    a = InstrumentedLock(monitor, "t.a", level=50)
    b = InstrumentedLock(monitor, "t.b", level=50)
    with a:
        with pytest.raises(LockOrderError, match="lock-order violation"):
            b.acquire()


def test_cycle_detected_without_levels(monitor: lockdep.LockDepMonitor) -> None:
    """A->B then B->A is a deadlock schedule even with no levels."""
    a = InstrumentedLock(monitor, "t.x")
    b = InstrumentedLock(monitor, "t.y")
    with a:
        with b:
            pass
    with b:
        with pytest.raises(LockOrderError, match="cycle"):
            a.acquire()


def test_cross_thread_cycle_detected(monitor: lockdep.LockDepMonitor) -> None:
    """The order learned on one thread applies to every thread."""
    a = InstrumentedLock(monitor, "t.c1")
    b = InstrumentedLock(monitor, "t.c2")

    def learn_order() -> None:
        with a:
            with b:
                pass

    thread = threading.Thread(target=learn_order)
    thread.start()
    thread.join()
    with b:
        with pytest.raises(LockOrderError, match="cycle"):
            a.acquire()


def test_self_deadlock_detected(monitor: lockdep.LockDepMonitor) -> None:
    lock = InstrumentedLock(monitor, "t.self", level=50)
    with lock:
        with pytest.raises(LockOrderError, match="self deadlock"):
            lock.acquire()


def test_rlock_reentry_allowed(monitor: lockdep.LockDepMonitor) -> None:
    lock = InstrumentedLock(monitor, "t.re", level=30, reentrant=True)
    with lock:
        with lock:
            pass
    assert monitor.held_names() == ()


def test_fsync_hazard_detected(monitor: lockdep.LockDepMonitor) -> None:
    lock = InstrumentedLock(monitor, "t.cachelock", level=50)
    with lock:
        with pytest.raises(LockOrderError, match="fsync hazard"):
            monitor.note_fsync("test")


def test_fsync_under_sanctioned_locks_allowed(
    monitor: lockdep.LockDepMonitor,
) -> None:
    wal = InstrumentedLock(monitor, "t.wal", level=30, fsync_safe=True)
    with wal:
        monitor.note_fsync("test")  # no raise
    assert monitor.violations == ()


def test_rwlock_nested_reads_allowed(monitor: lockdep.LockDepMonitor) -> None:
    from repro.core.mutations import ReadWriteLock

    rw = ReadWriteLock(name="t.rw", level=20)
    with rw.read():
        with rw.read():  # the why-not path's documented re-entry
            pass
    assert monitor.held_names() == ()


def test_rwlock_write_under_read_detected(
    monitor: lockdep.LockDepMonitor,
) -> None:
    from repro.core.mutations import ReadWriteLock

    rw = ReadWriteLock(name="t.rw2", level=20)
    with pytest.raises(LockOrderError, match="self deadlock"):
        with rw.read():
            with rw.write():
                pass


def test_engine_stack_runs_clean(
    monitor: lockdep.LockDepMonitor, tmp_path
) -> None:
    """The real lock stack — engine, WAL, executors, snapshot — under
    the sanitizer, end to end, with zero violations."""
    from repro.core.geometry import Point
    from repro.core.mutations import Mutation
    from repro.core.objects import SpatialObject
    from repro.core.query import SpatialKeywordQuery
    from repro.datasets.hotels import hong_kong_hotels
    from repro.service.api import YaskEngine
    from repro.service.executor import (
        QueryExecutor,
        WhyNotExecutor,
        consistent_stats,
    )
    from repro.service.wal import FollowerEngine, WriteAheadLog

    wal = WriteAheadLog(tmp_path / "wal")
    engine = YaskEngine(hong_kong_hotels(), shards=4)
    engine.attach_wal(wal)
    topk = QueryExecutor(engine)
    whynot = WhyNotExecutor(engine, topk)
    query = SpatialKeywordQuery(loc=Point(0.3, 0.4), doc=frozenset({"spa"}), k=3)
    execution = topk.execute(query)
    served = {entry.obj.oid for entry in execution.result.entries}
    missing = next(
        obj for obj in engine.database.objects if obj.oid not in served
    )
    engine.why_not(query, [missing.oid])
    report = engine.apply_mutations(
        [
            Mutation.insert(
                SpatialObject(
                    oid=91000, loc=Point(0.5, 0.5), doc=frozenset({"bar"})
                )
            )
        ]
    )
    topk.maintain(report.change)
    consistent_stats(topk, whynot)
    engine.snapshot()
    whynot.close()
    topk.close()
    engine.close()

    follower = FollowerEngine(tmp_path / "wal")
    _result, generation = follower.read(query)
    assert generation == 1
    follower.close()

    assert monitor.violations == ()
    edges = monitor.edges()
    # The documented hierarchy was actually observed.
    assert "wal.log" in edges.get("engine.rw", ())
    assert "executor.cache" in edges.get("executor.domain", ())
