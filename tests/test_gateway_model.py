"""Model-based test of the RequestGateway batching contract.

A Hypothesis state machine queues random ``count`` / ``sample`` / ``insert``
/ ``delete`` requests (unknown, duplicate and non-integral delete ids
included) on a paused gateway over a real :class:`ShardedEngine`, cancels
some of them, and runs ``process_pending``.  A plain dict of live intervals
is the model.  After every ``process_pending``:

* every future that was not cancelled is done;
* a read sees every write of its batch and of every earlier batch —
  including writes submitted after it in the same batch, because a batch
  applies its writes before its reads;
* a cancelled insert never lands;
* delete flags, insert ids and counts match the model;
* sampled ids are live and overlap their query.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import IntervalDataset, RequestGateway, ShardedEngine
from repro.core.query import integral_value

MAX_INTERVALS = 300
SAMPLE_SIZE = 5
QUERIES = [(0.0, 240.0), (10.0, 20.0), (50.0, 50.0), (100.0, 180.0), (-5.0, -1.0)]

intervals = st.tuples(st.integers(0, 200), st.integers(0, 40)).map(
    lambda pair: (float(pair[0]), float(pair[0] + pair[1]))
)
query_index = st.integers(0, len(QUERIES) - 1)
#: Plausible and unknown ids, an integral float, and values that are not ids.
raw_ids = st.one_of(
    st.integers(-2, MAX_INTERVALS + 5),
    st.sampled_from([2.0, 0.5, 2.5, True, False, "3", None]),
)

WRITE_OPS = ("insert", "delete")


class _Queued:
    __slots__ = ("op", "arg", "future")

    def __init__(self, op, arg, future) -> None:
        self.op, self.arg, self.future = op, arg, future


class GatewayModel(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.engine = None
        self.gateway = None
        self.live: dict[int, tuple[float, float]] = {}
        self.next_id = 0
        self.queued: list[_Queued] = []

    @initialize(
        initial=st.lists(intervals, min_size=4, max_size=60),
        num_shards=st.integers(1, 4),
        max_batch_size=st.sampled_from([1, 2, 3, 64]),
    )
    def build(self, initial, num_shards, max_batch_size):
        lefts, rights = (np.asarray(column) for column in zip(*initial))
        self.engine = ShardedEngine(IntervalDataset(lefts, rights), num_shards=num_shards)
        self.gateway = RequestGateway(self.engine, max_batch_size=max_batch_size, start=False)
        self.live = dict(enumerate(initial))
        self.next_id = len(initial)

    def _queued_inserts(self) -> int:
        return sum(1 for r in self.queued if r.op == "insert" and not r.future.cancelled())

    def _has_room(self) -> bool:
        return self.next_id + self._queued_inserts() < MAX_INTERVALS

    def _submit(self, op, arg, *args) -> None:
        self.queued.append(_Queued(op, arg, self.gateway.submit(op, *args)))

    # ------------------------------------------------------------------ #
    # submissions
    # ------------------------------------------------------------------ #
    @rule(q=query_index)
    def count(self, q):
        self._submit("count", q, QUERIES[q])

    @rule(q=query_index)
    def sample(self, q):
        self._submit("sample", q, QUERIES[q], SAMPLE_SIZE)

    @precondition(lambda self: self._has_room())
    @rule(interval=intervals)
    def insert(self, interval):
        self._submit("insert", interval, interval)

    @rule(raw=raw_ids, recent=st.booleans())
    def delete(self, raw, recent):
        if recent and type(raw) is int:
            # Aim at the newest ids, queued inserts included.
            raw = self.next_id + self._queued_inserts() - 1 - raw % 4
        global_id = integral_value(raw)
        if global_id is None:
            depth = self.gateway.queue_depth
            with pytest.raises(ValueError, match=r"delete id must be an integer"):
                self.gateway.submit("delete", raw)
            assert self.gateway.queue_depth == depth
            return
        self._submit("delete", global_id, raw)

    @rule(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("insert"), intervals),
                st.tuples(st.just("count"), query_index),
                st.tuples(st.just("sample"), query_index),
            ),
            min_size=2,
            max_size=6,
        )
    )
    def burst(self, ops):
        """Writes and reads queued back to back, so they share micro-batches."""
        for op, arg in ops:
            if op != "insert" or self._has_room():
                getattr(self, op)(arg)
        self.count(0)  # the full-domain count sees every write of its batch

    @precondition(lambda self: self.queued)
    @rule(index=st.integers(0, 10_000))
    def cancel(self, index):
        assert self.queued[index % len(self.queued)].future.cancel()

    # ------------------------------------------------------------------ #
    # dispatch and the model
    # ------------------------------------------------------------------ #
    @rule()
    def process_pending(self):
        queued, self.queued = self.queued, []
        assert self.gateway.process_pending() == len(queued)
        size = self.gateway.max_batch_size
        for start in range(0, len(queued), size):
            self._check_batch(queued[start : start + size])

    def _check_batch(self, batch: list[_Queued]) -> None:
        batch = [r for r in batch if not r.future.cancelled()]
        assert all(r.future.done() for r in batch)
        # Writes first, one group per kind in order of first appearance.
        for kind in dict.fromkeys(r.op for r in batch if r.op in WRITE_OPS):
            for r in (r for r in batch if r.op == kind):
                if kind == "insert":
                    assert r.future.result(0) == self.next_id
                    self.live[self.next_id] = r.arg
                    self.next_id += 1
                else:
                    assert r.future.result(0) is (self.live.pop(r.arg, None) is not None)
        for r in batch:
            if r.op == "count":
                assert r.future.result(0) == len(self._hits(r.arg))
            elif r.op == "sample":
                row = r.future.result(0).tolist()
                hits = self._hits(r.arg)
                assert len(row) == (SAMPLE_SIZE if hits else 0)
                assert set(row) <= hits

    def _hits(self, q: int) -> set[int]:
        q_left, q_right = QUERIES[q]
        return {
            global_id
            for global_id, (left, right) in self.live.items()
            if left <= q_right and q_left <= right
        }

    @invariant()
    def size_matches_model(self):
        if self.engine is not None:
            assert self.engine.size == len(self.live)

    def teardown(self):
        if self.gateway is not None:
            self.process_pending()  # check what the last steps left queued
            self.gateway.close()
        if self.engine is not None:
            self.engine.close()


GatewayModel.TestCase.settings = settings(
    max_examples=25,
    stateful_step_count=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestGatewayModel = GatewayModel.TestCase
