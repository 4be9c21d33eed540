"""Model-based test of the ShardedEngine write path.

A Hypothesis state machine drives one engine through random sequences of
bulk inserts, deletes (unknown, duplicate, already-deleted and non-integral
ids included), tombstone-heavy delete bursts, refreshes, compactions,
checkpoints and close-plus-reopen cycles, next to a plain dict of live
intervals.  After every step the engine must agree with the model:
``size``, exact counts and sample support.

Each run also picks the shard compaction threshold: the shipped fraction
(shards this small compact on almost every write), 1.0, or never — so the
delta tier grows, tombstones pile up, and queries whose base overlaps are
mostly dead take the report-and-filter sampling path.
"""

from __future__ import annotations

import shutil
import tempfile

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import IntervalDataset, ShardedEngine
from repro.service import shard as shard_module

MAX_INTERVALS = 300
SAMPLE_SIZE = 5
QUERIES = np.array(
    [[0.0, 240.0], [10.0, 20.0], [50.0, 50.0], [100.0, 180.0], [230.0, 240.0], [-5.0, -1.0]]
)

intervals = st.tuples(st.integers(0, 200), st.integers(0, 40)).map(
    lambda pair: (float(pair[0]), float(pair[0] + pair[1]))
)
#: Plausible, unknown (negative or never assigned) and non-integral ids.
raw_ids = st.one_of(
    st.integers(-2, MAX_INTERVALS + 5),
    st.sampled_from([0.5, 2.5, True, False]),
)


class EngineModel(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="engine-model-")
        self.engine = None
        self.live: dict[int, tuple[float, float]] = {}
        self.next_id = 0
        self.saved = False
        self.shipped_fraction = shard_module.COMPACT_FRACTION

    @initialize(
        initial=st.lists(intervals, min_size=4, max_size=60),
        num_shards=st.integers(1, 4),
        policy=st.sampled_from(["round_robin", "range"]),
        compact_fraction=st.sampled_from([shard_module.COMPACT_FRACTION, 1.0, float("inf")]),
    )
    def build(self, initial, num_shards, policy, compact_fraction):
        shard_module.COMPACT_FRACTION = compact_fraction
        lefts, rights = (np.asarray(column) for column in zip(*initial))
        self.engine = ShardedEngine(
            IntervalDataset(lefts, rights), num_shards=num_shards, policy=policy
        )
        self.live = dict(enumerate(initial))
        self.next_id = len(initial)

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #
    def _insert(self, batch) -> None:
        batch = batch[: MAX_INTERVALS - self.next_id]
        lefts = [left for left, _ in batch]
        rights = [right for _, right in batch]
        ids = self.engine.insert_many(lefts, rights)
        assert ids.tolist() == list(range(self.next_id, self.next_id + len(batch)))
        self.live.update(zip(ids.tolist(), batch))
        self.next_id += len(batch)

    def _delete(self, requested) -> None:
        expected = []
        for raw in requested:
            ok = type(raw) is int and raw in self.live
            if ok:
                del self.live[raw]
            expected.append(ok)
        assert self.engine.delete_many(requested).tolist() == expected

    @rule(batch=st.lists(intervals, max_size=10))
    def insert_many(self, batch):
        self._insert(batch)

    @rule(requested=st.lists(raw_ids, max_size=10), repeat=st.booleans())
    def delete_many(self, requested, repeat):
        # ``repeat`` doubles the batch: every id also appears as a duplicate.
        self._delete(requested * 2 if repeat else requested)

    @rule(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("insert"), st.lists(intervals, max_size=6)),
                st.tuples(st.just("delete"), st.lists(raw_ids, max_size=6)),
            ),
            min_size=2,
            max_size=5,
        )
    )
    def write_burst(self, ops):
        """Several writes without a read between them: one multi-op delta log."""
        for kind, payload in ops:
            if kind == "insert":
                self._insert(payload)
            else:
                # Also target the ids this burst just inserted (still pending).
                self._delete(payload + list(range(self.next_id - 2, self.next_id)))

    @rule(share=st.floats(0.55, 1.0), seed=st.integers(0, 2**16))
    def tombstone_burst(self, share, seed):
        """Delete most of the live set in one batch (base rows become tombstones)."""
        live = sorted(self.live)
        rng = np.random.default_rng(seed)
        doomed = rng.choice(len(live), size=int(share * len(live)), replace=False)
        self._delete([live[i] for i in doomed])

    @rule()
    def refresh(self):
        self.engine.refresh()
        assert self.engine.pending_ops() == 0

    @rule()
    def compact(self):
        self.engine.compact()
        assert self.engine.pending_ops() == 0
        assert all(shard.delta is None for shard in self.engine.shards)

    @rule()
    def save_snapshot(self):
        self.engine.save_snapshot(self.directory)
        self.saved = True

    @precondition(lambda self: self.saved)
    @rule()
    def reopen(self):
        # Every write since the checkpoint is in the WAL: close flushes it.
        self.engine.close()
        self.engine = ShardedEngine.open(self.directory)

    # ------------------------------------------------------------------ #
    # invariants
    # ------------------------------------------------------------------ #
    @invariant()
    def size_matches_model(self):
        assert self.engine.size == len(self.live)

    @invariant()
    def reads_match_model(self):
        ids = np.fromiter(self.live, dtype=np.int64, count=len(self.live))
        ends = np.asarray(list(self.live.values()), dtype=np.float64).reshape(-1, 2)
        lefts, rights = ends[:, 0], ends[:, 1]
        overlap = (lefts[None, :] <= QUERIES[:, 1:]) & (QUERIES[:, :1] <= rights[None, :])
        assert self.engine.count_many(QUERIES).tolist() == overlap.sum(axis=1).tolist()

        rows = self.engine.sample_many(QUERIES, SAMPLE_SIZE, random_state=self.next_id)
        for (q_left, q_right), row, hits in zip(QUERIES, rows, overlap):
            assert row.shape[0] == (SAMPLE_SIZE if hits.any() else 0)
            for global_id in row.tolist():
                left, right = self.live[global_id]  # KeyError: a dead id was sampled
                assert left <= q_right and q_left <= right
            assert set(row.tolist()) <= set(ids[hits].tolist())

    def teardown(self):
        shard_module.COMPACT_FRACTION = self.shipped_fraction
        if self.engine is not None:
            self.engine.close()
        shutil.rmtree(self.directory, ignore_errors=True)


EngineModel.TestCase.settings = settings(
    max_examples=25,
    stateful_step_count=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestEngineModel = EngineModel.TestCase
