"""One shard of a :class:`~repro.service.engine.ShardedEngine`.

A shard owns a disjoint subset of the engine's intervals.  Internally it
keeps three layers of state:

* the **live columns** — ``lefts``, ``rights`` and (weighted engines only)
  ``weights`` of exactly the shard's active intervals, addressed by *local*
  ids ``0..m-1`` (a local id is a row position);
* an **id map** ``global_ids[local]`` from local to engine-global ids, so
  query results can be reported in the engine's id space;
* a **delta log** of buffered writes plus a **versioned snapshot** — the
  :class:`~repro.core.flat.FlatAIT` the batch queries execute on, always a
  fresh :meth:`FlatAIT.from_arrays` build over the live columns.

Writes never touch the snapshot directly: the engine appends them to the
delta log (:meth:`Shard.buffer_insert_many` / :meth:`Shard.buffer_delete_many`)
and :meth:`Shard.refresh` — which the engine calls at *batch boundaries only*, so
a snapshot is never replaced mid-batch — folds the whole log into the
columns and rebuilds the snapshot treelessly.  No replay order is needed:
inserted global ids are always fresh and the engine only buffers deletes of
live ids, so appending every insert and then dropping every deleted id
yields the same live set as replaying the log op by op.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..core.flat import FlatAIT

__all__ = ["Shard", "DeltaOp"]

#: One buffered write batch: ``("insert_many", global_ids, lefts, rights)``
#: or ``("delete_many", global_ids)`` carrying whole arrays (scalar engine
#: writes buffer as one-element batches).
DeltaOp = Union[
    tuple[str, np.ndarray, np.ndarray, np.ndarray],
    tuple[str, np.ndarray],
]


class Shard:
    """A partition of the engine's dataset: live columns, id map, snapshot and delta log."""

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
        """Hold the live columns (row ``i`` is local id ``i``) and their id map.

        ``snapshot`` is a :class:`FlatAIT` already built over exactly these
        columns — e.g. the mmap-backed one :func:`repro.persist.durable.open_engine`
        loads — or None to build it here with :meth:`FlatAIT.from_arrays`.
        The delta log starts empty.
        """
        self.shard_id = int(shard_id)
        #: Optional write-ahead log (:class:`repro.persist.DeltaLog`); when
        #: set, every buffered batch is journaled durably *before* joining
        #: the in-memory delta log.
        self.wal = None
        self._kernels = kernel_backend
        self._pending: list[DeltaOp] = []
        self._version = int(version)
        self._install(lefts, rights, weights, np.asarray(global_ids, dtype=np.int64), snapshot)

    def _install(
        self,
        lefts: np.ndarray,
        rights: np.ndarray,
        weights: Optional[np.ndarray],
        global_ids: np.ndarray,
        snapshot: Optional[FlatAIT] = None,
    ) -> None:
        """Adopt new live columns and their snapshot (built here when None)."""
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

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Number of intervals currently active in this shard (snapshot view)."""
        return int(self._global_ids.shape[0])

    @property
    def version(self) -> int:
        """Snapshot version; advances whenever :meth:`refresh` changed visible state."""
        return self._version

    @property
    def pending_ops(self) -> int:
        """Number of buffered writes not yet applied to the snapshot."""
        return sum(int(op[1].shape[0]) for op in self._pending)

    @property
    def snapshot(self) -> FlatAIT:
        """The flat engine the current batch executes on (apply deltas via :meth:`refresh`)."""
        return self._snapshot

    @property
    def global_map(self) -> np.ndarray:
        """Local→global id map aligned with the current snapshot.

        Replaced only by :meth:`refresh`, together with the snapshot —
        buffered writes do not move it — so it is safe to publish to
        executor workers alongside the snapshot arrays
        (:mod:`repro.service.shm`).
        """
        return self._global_ids

    @property
    def columns(self) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """The live ``(lefts, rights, weights)`` columns, row ``i`` = local id ``i``."""
        return self._lefts, self._rights, self._weights

    def nbytes(self) -> int:
        """Approximate memory footprint: live columns, id map and flat snapshot."""
        arrays = (self._lefts, self._rights, self._weights, self._global_ids)
        return sum(int(a.nbytes) for a in arrays if a is not None) + int(self._snapshot.nbytes())

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
            gids = np.asarray(global_ids, dtype=np.int64)
            lefts_arr = np.asarray(lefts, dtype=np.float64)
            rights_arr = np.asarray(rights, dtype=np.float64)
            if self.wal is not None:
                self.wal.append_insert(gids, lefts_arr, rights_arr)
            self._pending.append(("insert_many", gids, lefts_arr, rights_arr))

    def buffer_delete_many(self, global_ids: np.ndarray) -> None:
        """Append a whole deletion batch to the delta log as one bulk op."""
        if global_ids.shape[0]:
            gids = np.asarray(global_ids, dtype=np.int64)
            if self.wal is not None:
                self.wal.append_delete(gids)
            self._pending.append(("delete_many", gids))

    def refresh(self) -> bool:
        """Fold the delta log into the live columns and rebuild the snapshot.

        Returns True when a new snapshot version was produced.  The engine
        calls this at the start of every batch — never while a batch is
        executing — so within one scatter-gather round every shard serves one
        consistent snapshot.  Every buffered insert is appended, every
        buffered delete drops its row, and the snapshot is rebuilt with
        :meth:`FlatAIT.from_arrays`.  The delta log is cleared only once the
        new snapshot exists, so a failed refresh can be retried.
        """
        if not self._pending:
            return False
        inserts = [op for op in self._pending if op[0] == "insert_many"]
        deletes = [op[1] for op in self._pending if op[0] == "delete_many"]
        lefts, rights, gids = self._lefts, self._rights, self._global_ids
        if inserts:
            gids = np.concatenate([gids] + [op[1] for op in inserts])
            lefts = np.concatenate([lefts] + [op[2] for op in inserts])
            rights = np.concatenate([rights] + [op[3] for op in inserts])
        if deletes:
            keep = ~np.isin(gids, np.concatenate(deletes))
            lefts, rights, gids = lefts[keep], rights[keep], gids[keep]
        # Weighted engines reject writes, so the weights never change here.
        self._install(lefts, rights, self._weights, gids)
        self._pending = []
        self._version += 1
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Shard(id={self.shard_id}, size={self.size}, version={self._version}, "
            f"pending={len(self._pending)})"
        )
