"""Regression tests: every failure path resolves futures and frees capacity.

Two failure shapes of the serving layer, each locked down here:

* the engine raising inside a worker must fail every future of the
  execution, coalesced duplicates included, and return their pending slots;
* ``submit_batch`` failing after the pending-count bump (e.g. the pool
  rejecting work) must not leak backpressure capacity or strand futures.

The contract: a client blocked on a returned future ALWAYS gets a result or
an exception, and ``queue_depth`` always returns to zero, so backpressure
capacity never leaks.
"""

from __future__ import annotations

import time

import pytest

from repro import EngineServer, Query, ReCacheConfig
from repro.engine.expressions import AggregateSpec, FieldRef, RangePredicate

from tests.conftest import build_engine


def _query(index: int, low: float, width: float = 5.0) -> Query:
    return Query.select_aggregate(
        "flat",
        RangePredicate("value", low, low + width),
        [AggregateSpec("sum", FieldRef("score"))],
        label=f"fail-{index}",
    )


def _wait_drained(server: EngineServer, timeout: float = 5.0) -> None:
    deadline = time.perf_counter() + timeout
    while server.queue_depth != 0:
        assert time.perf_counter() < deadline, (
            f"queue never drained: depth={server.queue_depth}"
        )
        time.sleep(0.005)


@pytest.fixture()
def server(dataset_dir):
    engine = build_engine(dataset_dir, ReCacheConfig(max_workers=2))
    with EngineServer(engine) as srv:
        yield srv


class _Boom(RuntimeError):
    pass


def test_engine_failure_outside_callbacks_resolves_every_future(server):
    """A broken session must fail every execution's futures, not hang them."""
    def broken_execute(query, **kwargs):
        raise _Boom("session broke")

    server.engine.execute = broken_execute
    try:
        futures = server.submit_batch([_query(i, float(10 * i)) for i in range(4)])
        for future in futures:
            with pytest.raises(_Boom):
                future.result(timeout=5.0)
        _wait_drained(server)
    finally:
        del server.engine.execute
    # Capacity is intact: the same server still serves normally.
    report = server.execute(_query(99, 20.0))
    assert report.rows_returned == 1
    _wait_drained(server)


def test_pool_rejection_rolls_back_pending_and_strands_no_future(server):
    """submit_batch failing at enqueue must raise AND return every slot."""
    def rejecting_submit(*args, **kwargs):
        raise _Boom("pool rejected the task")

    server._pool.submit = rejecting_submit
    try:
        with pytest.raises(_Boom):
            server.submit_batch([_query(i, float(10 * i)) for i in range(3)])
        assert server.queue_depth == 0, "backpressure capacity leaked"
    finally:
        del server._pool.submit
    report = server.execute(_query(98, 30.0))
    assert report.rows_returned == 1
    _wait_drained(server)


def test_partial_enqueue_fails_only_the_stranded_groups(server):
    """Executions already in flight settle themselves; the rest fail cleanly."""
    real_submit = server._pool.submit
    calls = []

    def submit_once_then_fail(fn, *args, **kwargs):
        calls.append(fn)
        if len(calls) > 1:
            raise _Boom("pool full after the first execution")
        return real_submit(fn, *args, **kwargs)

    server._pool.submit = submit_once_then_fail
    try:
        # Two distinct queries: two executions, one pool task each.
        queries = [_query(0, 0.0), _query(1, 100.0)]
        with pytest.raises(_Boom):
            server.submit_batch(queries)
        assert len(calls) == 2
        _wait_drained(server)  # the in-flight execution settles itself
    finally:
        del server._pool.submit
    report = server.execute(_query(97, 40.0))
    assert report.rows_returned == 1
    _wait_drained(server)


def test_coalesced_duplicates_fail_exceptionally_with_the_primary(server):
    """Duplicates of a failing execution must not hang on their futures."""
    def broken_execute(query, **kwargs):
        raise _Boom("engine failed")

    server.engine.execute = broken_execute
    try:
        duplicate = _query(94, 70.0)
        futures = server.submit_batch([duplicate, duplicate, duplicate])
        assert len(futures) == 3
        for future in futures:
            with pytest.raises(_Boom):
                future.result(timeout=5.0)
        assert server.coalesced_served == 0  # failed duplicates count as no service
        _wait_drained(server)
    finally:
        del server.engine.execute
