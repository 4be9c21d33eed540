"""Correctness checks for the benchmark's outputs.

Every checker returns a list of human-readable problems; an empty list means
the output is correct.  Counts are compared with the exhaustive-scan oracle
(``repro.baselines.ExhaustiveScan``) or with a numpy live-set model kept
beside the engine, and samples are checked against the interval endpoints.
"""

from __future__ import annotations

import numpy as np

_MAX_REPORTED = 5


def overlap_counts(lefts: np.ndarray, rights: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """``|q ∩ X|`` per query by the repository's exhaustive-scan oracle."""
    from repro import IntervalDataset
    from repro.baselines import ExhaustiveScan

    return ExhaustiveScan(IntervalDataset(lefts, rights)).count_many(queries)


def check_counts(got, expected: np.ndarray, label: str) -> list[str]:
    """Counts must equal the reference exactly, query by query."""
    got = np.asarray(got, dtype=np.int64)
    if got.shape != expected.shape:
        return [f"{label}: {got.shape[0]} counts for {expected.shape[0]} queries"]
    bad = np.flatnonzero(got != expected)
    return [
        f"{label}: query {i} counted {int(got[i])}, expected {int(expected[i])}"
        for i in bad[:_MAX_REPORTED]
    ]


def check_sample_batch(
    rows,
    ql: np.ndarray,
    qr: np.ndarray,
    expected_counts: np.ndarray,
    sample_size: int,
    lefts: np.ndarray,
    rights: np.ndarray,
    live=None,
    label: str = "sample",
) -> list[str]:
    """Every row of one batched sample call.

    A row holds ``sample_size`` ids when its query matches anything and none
    otherwise; every id must name an interval that exists (and is live, when
    ``live`` is given) and overlaps the row's query.
    """
    if len(rows) != ql.shape[0]:
        return [f"{label}: {len(rows)} rows for {ql.shape[0]} queries"]
    lengths = np.fromiter((len(row) for row in rows), dtype=np.int64, count=len(rows))
    want = np.where(expected_counts > 0, sample_size, 0)
    bad = np.flatnonzero(lengths != want)
    if bad.shape[0]:
        i = int(bad[0])
        return [f"{label}: query {i} returned {int(lengths[i])} ids, expected {int(want[i])}"]
    if not lengths.any():
        return []
    ids = np.concatenate([np.asarray(row, dtype=np.int64) for row in rows])
    owner = np.repeat(np.arange(len(rows)), lengths)
    if ids.min() < 0 or ids.max() >= lefts.shape[0]:
        return [f"{label}: id out of range [0, {lefts.shape[0]})"]
    if live is not None and not live[ids].all():
        return [f"{label}: sampled a deleted or unknown id"]
    miss = np.flatnonzero((lefts[ids] > qr[owner]) | (rights[ids] < ql[owner]))
    if miss.shape[0]:
        return [f"{label}: query {int(owner[miss[0]])} sampled id {int(ids[miss[0]])}, which does not overlap it"]
    return []


class LiveModel:
    """A numpy model of the live interval set, kept next to an engine under writes.

    Holds the endpoints of every id ever assigned, a live mask, and the
    per-query counts of a fixed query pool, updated on every acknowledged
    write so each read can be checked without rescanning.
    """

    def __init__(self, lefts: np.ndarray, rights: np.ndarray, ql: np.ndarray, qr: np.ndarray) -> None:
        n = lefts.shape[0]
        capacity = max(16, 2 * n)
        self.lefts = np.empty(capacity, dtype=np.float64)
        self.rights = np.empty(capacity, dtype=np.float64)
        self.live = np.zeros(capacity, dtype=bool)
        self.lefts[:n] = lefts
        self.rights[:n] = rights
        self.live[:n] = True
        self.size = n
        self.ql = ql
        self.qr = qr
        self.counts = overlap_counts(lefts, rights, np.column_stack((ql, qr)))
        self._live_ids = list(range(n))
        self._slot = dict(zip(self._live_ids, range(n)))

    def copy(self) -> "LiveModel":
        twin = object.__new__(LiveModel)
        twin.lefts, twin.rights, twin.live = self.lefts.copy(), self.rights.copy(), self.live.copy()
        twin.size, twin.ql, twin.qr, twin.counts = self.size, self.ql, self.qr, self.counts.copy()
        twin._live_ids = list(self._live_ids)
        twin._slot = dict(self._slot)
        return twin

    @property
    def active(self) -> int:
        return len(self._live_ids)

    def insert(self, new_id: int, left: float, right: float) -> None:
        if new_id >= self.lefts.shape[0]:
            grow = self.lefts.shape[0]
            self.lefts = np.concatenate((self.lefts, np.empty(grow)))
            self.rights = np.concatenate((self.rights, np.empty(grow)))
            self.live = np.concatenate((self.live, np.zeros(grow, dtype=bool)))
        self.lefts[new_id], self.rights[new_id] = left, right
        self.live[new_id] = True
        self.size = max(self.size, new_id + 1)
        self._slot[new_id] = len(self._live_ids)
        self._live_ids.append(new_id)
        self.counts += (left <= self.qr) & (self.ql <= right)

    def delete(self, gid: int) -> None:
        slot = self._slot.pop(gid)
        last = self._live_ids.pop()
        if last != gid:
            self._live_ids[slot] = last
            self._slot[last] = slot
        self.live[gid] = False
        self.counts -= (self.lefts[gid] <= self.qr) & (self.ql <= self.rights[gid])

    def pick_live(self, rng: np.random.Generator) -> int:
        return self._live_ids[int(rng.integers(len(self._live_ids)))]

    def recount(self) -> np.ndarray:
        """Counts by a full scan of the live set (checks the incremental counts)."""
        ids = np.flatnonzero(self.live[: self.size])
        return overlap_counts(self.lefts[ids], self.rights[ids], np.column_stack((self.ql, self.qr)))
