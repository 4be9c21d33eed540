"""One shard of a :class:`~repro.service.engine.ShardedEngine`.

A shard owns a disjoint subset of the engine's intervals.  Internally it
keeps four layers of state:

* the **base** — columns ``lefts``, ``rights`` and (weighted engines only)
  ``weights``, addressed by *local* ids ``0..m-1`` (a local id is a row
  position), plus the :class:`~repro.core.flat.FlatAIT` built over them with
  :meth:`FlatAIT.from_arrays`.  The base is immutable between compactions;
* an **id map** ``global_ids[local]`` from base local ids to engine-global
  ids, so query results can be reported in the engine's id space;
* a **delta tier** of writes already visible to reads: the inserted
  intervals (endpoints plus global ids, in insertion order) and a sorted
  array of *tombstones* — the base local ids deleted since the base was
  built (:class:`ShardDelta`);
* a **delta log** of buffered writes not yet visible.

Writes never touch the base: the engine appends them to the delta log
(:meth:`Shard.buffer_insert_many` / :meth:`Shard.buffer_delete_many`), and
:meth:`Shard.refresh` — which the engine calls at *batch boundaries only*, so
the visible state never changes mid-batch — folds the whole log into the
delta tier: inserts join it, a delete of a delta insert drops the insert,
and a delete of a base interval adds a tombstone.  No replay order is
needed: inserted global ids are always fresh and the engine only buffers
deletes of live ids, so appending every insert and then dropping every
deleted id yields the same live set as replaying the log op by op.

Once the delta inserts plus tombstones exceed :data:`COMPACT_FRACTION` of
the base size, the refresh *compacts*: one ``from_arrays`` over the live
rows (surviving base rows in order, then surviving delta inserts) becomes
the new base and the delta tier empties.  ``save_snapshot`` compacts every
shard, so checkpoints only ever hold bases.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

import numpy as np

from ..core.flat import FlatAIT

__all__ = ["Shard", "ShardDelta", "DeltaOp", "COMPACT_FRACTION"]

#: One buffered write batch: ``("insert_many", global_ids, lefts, rights)``
#: or ``("delete_many", global_ids)`` carrying whole arrays (scalar engine
#: writes buffer as one-element batches).
DeltaOp = Union[
    tuple[str, np.ndarray, np.ndarray, np.ndarray],
    tuple[str, np.ndarray],
]

#: A refresh compacts the shard once its delta inserts plus tombstones exceed
#: this fraction of the base size.  Reads pay for the delta tier in
#: proportion to its size (tombstone rejections, delta overlap scans), while
#: a compaction costs one ``from_arrays`` over the whole shard; the sweep
#: behind the value is recorded in CHANGES.md.
COMPACT_FRACTION = 1 / 32

_ID = np.int64
_F8 = np.float64


class ShardDelta(NamedTuple):
    """A shard's delta tier, as the per-shard read ops consume it.

    ``tombs`` are the deleted base local ids (sorted, unique); ``gids``,
    ``lefts`` and ``rights`` describe the live delta inserts in insertion
    order.  A few KB at most between compactions, so it travels with the op
    payload to executor workers instead of being republished.
    """

    tombs: np.ndarray
    gids: np.ndarray
    lefts: np.ndarray
    rights: np.ndarray


_EMPTY = ShardDelta(
    np.empty(0, dtype=_ID), np.empty(0, dtype=_ID), np.empty(0, dtype=_F8), np.empty(0, dtype=_F8)
)


class Shard:
    """A partition of the engine's dataset: base, id map, delta tier and delta log."""

    __slots__ = (
        "shard_id",
        "wal",
        "_lefts",
        "_rights",
        "_weights",
        "_global_ids",
        "_kernels",
        "_pending",
        "_snapshot",
        "_version",
        "_base_version",
        "_gid_order",
        "_delta",
    )

    def __init__(
        self,
        shard_id: int,
        lefts: np.ndarray,
        rights: np.ndarray,
        weights: Optional[np.ndarray],
        global_ids: np.ndarray,
        snapshot: Optional[FlatAIT] = None,
        version: int = 1,
        kernel_backend=None,
    ) -> None:
        """Hold the base columns (row ``i`` is local id ``i``) and their id map.

        ``snapshot`` is a :class:`FlatAIT` already built over exactly these
        columns — e.g. the mmap-backed one :func:`repro.persist.durable.open_engine`
        loads — or None to build it here with :meth:`FlatAIT.from_arrays`.
        The delta tier and the delta log start empty.
        """
        self.shard_id = int(shard_id)
        #: Optional write-ahead log (:class:`repro.persist.DeltaLog`); when
        #: set, every buffered batch is journaled durably *before* joining
        #: the in-memory delta log.
        self.wal = None
        self._kernels = kernel_backend
        self._pending: list[DeltaOp] = []
        self._version = int(version)
        self._base_version = 0
        self._install(lefts, rights, weights, np.asarray(global_ids, dtype=_ID), snapshot)

    def _install(
        self,
        lefts: np.ndarray,
        rights: np.ndarray,
        weights: Optional[np.ndarray],
        global_ids: np.ndarray,
        snapshot: Optional[FlatAIT] = None,
    ) -> None:
        """Adopt a new base (its snapshot built here when None) with an empty delta tier."""
        if snapshot is None:
            # Built before any field changes: a failing build leaves the
            # shard exactly as it was.
            snapshot = FlatAIT.from_arrays(
                lefts, rights, weights=weights, kernel_backend=self._kernels
            )
        self._lefts = lefts
        self._rights = rights
        self._weights = weights
        self._global_ids = global_ids
        self._snapshot = snapshot
        self._gid_order = None
        self._delta = _EMPTY
        self._base_version += 1

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Number of intervals visible to reads: base minus tombstones plus delta inserts."""
        delta = self._delta
        return int(self._global_ids.shape[0] + delta.gids.shape[0] - delta.tombs.shape[0])

    @property
    def version(self) -> int:
        """Visible-state version; advances whenever :meth:`refresh` folded writes in."""
        return self._version

    @property
    def base_version(self) -> int:
        """Base version; advances only when a new base is built (a compaction)."""
        return self._base_version

    @property
    def pending_ops(self) -> int:
        """Number of buffered writes not yet folded into the delta tier."""
        return sum(int(op[1].shape[0]) for op in self._pending)

    @property
    def delta(self) -> Optional[ShardDelta]:
        """The delta tier, or None when it is empty (reads see exactly the base)."""
        return None if self._delta is _EMPTY else self._delta

    @property
    def snapshot(self) -> FlatAIT:
        """The base :class:`FlatAIT` (rebuilt only by a compaction)."""
        return self._snapshot

    @property
    def global_map(self) -> np.ndarray:
        """Local→global id map aligned with the base snapshot.

        Replaced only by a compaction, together with the snapshot — buffered
        writes and delta folds do not move it — so it is safe to publish to
        executor workers alongside the snapshot arrays
        (:mod:`repro.service.shm`).
        """
        return self._global_ids

    @property
    def columns(self) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """The base ``(lefts, rights, weights)`` columns, row ``i`` = local id ``i``."""
        return self._lefts, self._rights, self._weights

    def nbytes(self) -> int:
        """Approximate memory footprint: base columns, id map, snapshot and delta tier."""
        arrays = (self._lefts, self._rights, self._weights, self._global_ids, *self._delta)
        return sum(int(a.nbytes) for a in arrays if a is not None) + int(self._snapshot.nbytes())

    def delta_endpoints(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Delta tier endpoints: ``(insert lefts, insert rights, tomb lefts, tomb rights)``."""
        delta = self._delta
        return delta.lefts, delta.rights, self._lefts[delta.tombs], self._rights[delta.tombs]

    # ------------------------------------------------------------------ #
    # delta log
    # ------------------------------------------------------------------ #
    def buffer_insert_many(
        self, global_ids: np.ndarray, lefts: np.ndarray, rights: np.ndarray
    ) -> None:
        """Append a whole insertion batch to the delta log as one bulk op.

        With a write-ahead log attached the batch is journaled durably
        first — write-ahead ordering: if the record is not on disk (per the
        log's fsync policy), the write is not in memory either.
        """
        if global_ids.shape[0]:
            gids = np.asarray(global_ids, dtype=_ID)
            lefts_arr = np.asarray(lefts, dtype=_F8)
            rights_arr = np.asarray(rights, dtype=_F8)
            if self.wal is not None:
                self.wal.append_insert(gids, lefts_arr, rights_arr)
            self._pending.append(("insert_many", gids, lefts_arr, rights_arr))

    def buffer_delete_many(self, global_ids: np.ndarray) -> None:
        """Append a whole deletion batch to the delta log as one bulk op."""
        if global_ids.shape[0]:
            gids = np.asarray(global_ids, dtype=_ID)
            if self.wal is not None:
                self.wal.append_delete(gids)
            self._pending.append(("delete_many", gids))

    def _base_locals(self, global_ids: np.ndarray) -> np.ndarray:
        """Base local ids of ``global_ids`` (every one must be in the base)."""
        if self._gid_order is None:
            self._gid_order = np.argsort(self._global_ids, kind="stable")
        order = self._gid_order
        return order[np.searchsorted(self._global_ids[order], global_ids)]

    def refresh(self) -> bool:
        """Fold the delta log into the delta tier; compact when it has grown too large.

        The engine calls this at the start of every batch — never while a
        batch is executing — so within one scatter-gather round every shard
        serves one consistent state.  Returns True exactly when the base was
        rebuilt (a compaction, see :data:`COMPACT_FRACTION`).  The fold
        itself is pure array work on the small delta tier, and the delta log
        is cleared only once the new tier exists, so a failed refresh can be
        retried.
        """
        if not self._pending:
            return False
        delta = self._delta
        inserts = [op for op in self._pending if op[0] == "insert_many"]
        gids = np.concatenate([delta.gids] + [op[1] for op in inserts])
        lefts = np.concatenate([delta.lefts] + [op[2] for op in inserts])
        rights = np.concatenate([delta.rights] + [op[3] for op in inserts])
        tombs = delta.tombs
        deletes = [op[1] for op in self._pending if op[0] == "delete_many"]
        if deletes:
            doomed = np.concatenate(deletes)
            in_delta = np.isin(gids, doomed)
            # A deleted delta insert just leaves the tier; any other deleted
            # id is a base row and becomes a tombstone.
            doomed = doomed[~np.isin(doomed, gids[in_delta])]
            gids, lefts, rights = gids[~in_delta], lefts[~in_delta], rights[~in_delta]
            if doomed.shape[0]:
                tombs = np.union1d(tombs, self._base_locals(doomed))
        empty = not (gids.shape[0] or tombs.shape[0])
        self._delta = _EMPTY if empty else ShardDelta(tombs, gids, lefts, rights)
        self._pending = []
        self._version += 1
        if gids.shape[0] + tombs.shape[0] > COMPACT_FRACTION * self._global_ids.shape[0]:
            return self.compact()
        return False

    def compact(self) -> bool:
        """Rebuild the base over the live rows and empty the delta tier.

        The live rows are the surviving base rows in order followed by the
        surviving delta inserts in insertion order — the columns a fresh
        shard over the same writes would hold.  Returns True when a new base
        was built (False when the delta tier was already empty).  Buffered
        writes stay in the delta log; call :meth:`refresh` first to include
        them.
        """
        delta = self.delta
        if delta is None:
            return False
        live = np.ones(self._global_ids.shape[0], dtype=bool)
        live[delta.tombs] = False
        # Weighted engines reject writes, so a weighted shard never has a
        # delta tier and the weights never change here.
        self._install(
            np.concatenate((self._lefts[live], delta.lefts)),
            np.concatenate((self._rights[live], delta.rights)),
            self._weights,
            np.concatenate((self._global_ids[live], delta.gids)),
        )
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Shard(id={self.shard_id}, size={self.size}, version={self._version}, "
            f"pending={len(self._pending)})"
        )
