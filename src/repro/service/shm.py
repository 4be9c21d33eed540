"""Shared-memory shard views and the process-executor worker protocol.

The engine's scatter-gather step runs one *op* per shard per batch.  For the
in-process executors the op closes over the live :class:`~repro.service.shard.Shard`;
for :class:`~repro.service.executor.ProcessExecutor` the shard must be visible
from another process without pickling an engine.  This module provides both
sides of that bridge:

* :class:`ShardView` — the minimal read surface an op needs: shard id, the
  base :class:`~repro.core.flat.FlatAIT` snapshot, and the local→global id
  map.  A shard's delta tier (:class:`~repro.service.shard.ShardDelta`) is
  not part of the view: it rides in the op payload's ``deltas`` list.
  Every executor runs the *same* module-level op functions over views, so
  results are bit-identical by construction; only where the view's arrays
  live differs.
* :func:`publish_shard` / :func:`attach_segment` — one
  ``multiprocessing.shared_memory`` segment per (shard, base version): the
  snapshot's arrays (:meth:`FlatAIT.to_buffers`, derived rank keys included
  so workers never recompute) plus the global id map, copied once behind a
  JSON-able manifest of (name, dtype, shape, offset) entries.  Workers
  rebuild zero-copy views with :meth:`FlatAIT.from_buffers`.
* :func:`worker_main` — the long-lived worker loop: attach segments on
  ``publish`` messages (replacing any prior version of the same shard), run
  op batches on ``op`` messages, exit on ``stop``.  Workers never mutate
  anything: writes, delta folds and compactions stay on the owner process,
  and only a compaction (a base version bump) republishes a shard's segment.

The op payloads are compact per-batch task descriptors — query endpoint
arrays, per-shard draw allocations, per-shard RNG *seeds* (plain ints, see
:func:`repro.sampling.rng.spawn_seeds`) and, while any shard has writes
since its last compaction, every shard's few-KB delta tier — never engines
or closures.

Query-parallel tiles.  An ``op`` message addresses work as *specs*: either a
bare segment key (the whole query batch — the data-parallel scatter) or a
``(key, start, stop)`` tile (a contiguous query block — the query-parallel
scatter, see ``ProcessExecutor(scatter=...)``).  :func:`slice_payload` cuts a
tile's payload out of the batch payload, and :func:`merge_block_results`
reassembles per-tile results into the exact value the whole-batch op would
have returned.  :func:`_op_sample` collects node records once per shard (or
per tile) and then makes one exact draw per canonical :data:`SEED_BLOCK`-query
block, from a generator derived from the shard seed
(``SeedSequence(seed, spawn_key=(block,))``).  A query's records do not
depend on the other queries of the descent, so a block's draws depend only
on that block's queries, and sampling stays bit-identical under any tiling
whose cuts land on :data:`SEED_BLOCK` boundaries.
"""

from __future__ import annotations

import sys
import traceback
from multiprocessing import resource_tracker, shared_memory
from typing import Optional

import numpy as np

from ..core.flat import FlatAIT, _ranges_to_indices

__all__ = [
    "ShardView",
    "run_shard_op",
    "slice_payload",
    "merge_block_results",
    "publish_shard",
    "attach_segment",
    "worker_main",
    "SHARD_OPS",
    "SEED_BLOCK",
]

_ID = np.int64
_F8 = np.float64

#: Canonical sampling seed-block width, in queries.  ``_op_sample`` derives
#: one child generator per (shard, block of SEED_BLOCK consecutive batch
#: positions) instead of one stream per shard, so the draws for a block are a
#: pure function of that block's queries.  Any query tiling whose cuts land
#: on multiples of SEED_BLOCK therefore reproduces the whole-batch draws bit
#: for bit.  Changing this value changes which i.i.d. sample a given seed
#: yields (still exactly i.i.d. — just a different, equally valid draw).
SEED_BLOCK = 16

#: Payload entries holding one row per query (sliced by :func:`slice_payload`).
_ROW_KEYS = frozenset(("ql", "qr", "alloc", "fresh", "dead"))

#: Segment alignment for array starts — one cache line, and a multiple of
#: every dtype itemsize in the schema.
_ALIGN = 64


class ShardView:
    """The read-only face of one shard: snapshot + id map, nothing else.

    Built either from a live :class:`~repro.service.shard.Shard` (in-process
    executors; the arrays are the shard's own) or from a shared-memory
    segment (:func:`attach_segment`; the arrays are zero-copy views into the
    segment, and ``segment`` pins the mapping alive).
    """

    __slots__ = ("shard_id", "snapshot", "global_map", "segment")

    def __init__(
        self,
        shard_id: int,
        snapshot: FlatAIT,
        global_map: np.ndarray,
        segment: Optional[shared_memory.SharedMemory] = None,
    ) -> None:
        self.shard_id = int(shard_id)
        self.snapshot = snapshot
        self.global_map = global_map
        self.segment = segment

    @classmethod
    def of_shard(cls, shard) -> "ShardView":
        """View a live shard directly (serial / threaded execution)."""
        return cls(shard.shard_id, shard.snapshot, shard.global_map)

    def to_global(self, local_ids: np.ndarray) -> np.ndarray:
        """Map shard-local interval ids to engine-global ids."""
        if local_ids.shape[0] == 0:
            return local_ids
        return self.global_map[local_ids]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        where = "shm" if self.segment is not None else "local"
        return f"ShardView(shard_id={self.shard_id}, backing={where!r})"


# ---------------------------------------------------------------------- #
# per-shard ops (the one implementation every executor runs)
# ---------------------------------------------------------------------- #
def _op_count(view: ShardView, payload: dict) -> np.ndarray:
    return view.snapshot._count_many(payload["ql"], payload["qr"])


def _op_total_weight(view: ShardView, payload: dict) -> np.ndarray:
    return view.snapshot._total_weight_many(payload["ql"], payload["qr"])


def _delta_of(view: ShardView, payload: dict):
    """The shard's :class:`~repro.service.shard.ShardDelta`, or None when empty.

    The engine ships every shard's delta tier in the payload's ``deltas``
    list only while some delta is non-empty; the base lives in the view.
    """
    deltas = payload.get("deltas")
    return None if deltas is None else deltas[view.shard_id]


def _tombstones(view: ShardView, delta) -> np.ndarray:
    """Dead flag per base local id (one gather per lookup beats a search)."""
    dead = np.zeros(view.global_map.shape[0], dtype=bool)
    dead[delta.tombs] = True
    return dead


def _delta_overlaps(delta, ql: np.ndarray, qr: np.ndarray) -> np.ndarray:
    """``(queries, delta inserts)`` overlap mask — the delta tier is small."""
    return (delta.lefts[None, :] <= qr[:, None]) & (ql[:, None] <= delta.rights[None, :])


def _op_report(view: ShardView, payload: dict) -> list[np.ndarray]:
    ql, qr = payload["ql"], payload["qr"]
    chunks = view.snapshot._report_many(ql, qr)
    delta = _delta_of(view, payload)
    if delta is None:
        return [view.to_global(chunk) for chunk in chunks]
    # Base overlaps minus tombstones, then the delta overlaps.
    dead = _tombstones(view, delta)
    overlaps = _delta_overlaps(delta, ql, qr)
    return [
        np.concatenate((view.to_global(chunk[~dead[chunk]]), delta.gids[row]))
        for chunk, row in zip(chunks, overlaps)
    ]


def _block_rng(seed, block_id: int) -> np.random.Generator:
    """The canonical generator for one (shard seed, seed-block) pair.

    ``SeedSequence(seed, spawn_key=(block,))`` is exactly the stream the
    ``block``-th spawned child of ``SeedSequence(seed)`` would get — derived
    directly so block ``b`` costs O(1) instead of spawning ``b`` children.
    """
    return np.random.default_rng(
        np.random.SeedSequence(int(seed), spawn_key=(int(block_id),))
    )


def _op_sample(view: ShardView, payload: dict) -> np.ndarray:
    """Stage 2 of the engine's two-stage sampler, for one shard.

    ``payload`` carries the *live* query endpoints, the stage-1 multinomial
    allocation matrix ``alloc`` (queries x shards), one integer RNG seed per
    shard, and optionally ``offset`` — the batch-global position of this
    payload's first query (0 for a whole batch; the tile start under the
    query-parallel scatter).  This shard reads its own column and seed.

    One record collection (a single ``descend_many``) covers every query the
    shard has draws for.  The draws themselves are *seed-blocked*: queries
    are grouped by their canonical :data:`SEED_BLOCK`-wide batch-position
    block, and each block makes one exact draw from its own generator
    (:func:`_block_rng`) — query ``q`` gets exactly ``alloc[q, shard]`` ids,
    nothing is over-drawn or discarded.  Returns one flat array of global
    ids, grouped by selected query in batch order and, within a query, by
    record; the engine's final per-row shuffle makes positions exchangeable.
    A shard with a non-empty delta tier draws through
    :func:`_sample_with_delta` instead.
    """
    counts = payload["alloc"][:, view.shard_id]
    selected = np.flatnonzero(counts > 0)
    if selected.shape[0] == 0:
        return np.empty(0, dtype=_ID)
    snapshot = view.snapshot
    records = snapshot.collect_records_batch(payload["ql"][selected], payload["qr"][selected])
    seed = payload["seeds"][view.shard_id]
    blocks = (int(payload.get("offset", 0)) + selected) // SEED_BLOCK
    cuts = np.flatnonzero(np.diff(blocks)) + 1
    blocked = [
        (members, _block_rng(seed, blocks[members[0]]))
        for members in np.split(np.arange(selected.shape[0]), cuts)
    ]
    layout = records.layout(selected.shape[0])
    delta = _delta_of(view, payload)
    if delta is not None:
        return _sample_with_delta(view, payload, delta, selected, records, layout, blocked)
    groups = [(members, counts[selected[members]], rng) for members, rng in blocked]
    positions = snapshot._draw_positions(records, layout, groups)
    return view.to_global(snapshot._all_ids[positions])


def _sample_with_delta(view, payload, delta, selected, records, layout, blocked) -> np.ndarray:
    """:func:`_op_sample` for a shard with a non-empty delta tier.

    The payload's ``fresh`` / ``dead`` matrices hold, per (query, shard),
    the number of delta inserts and of tombstoned base intervals that
    overlap the query; the records give its ``B`` base overlaps.  Every draw
    takes one uniform from its seed block's generator and picks one of the
    query's ``B + fresh`` candidate slots: the base overlaps (read off the
    records by inverse CDF over their sizes) followed by the delta overlaps.
    A draw that lands on a tombstone is rejected and redrawn, so each
    accepted draw is uniform over the live base overlaps plus the delta
    overlaps — the live overlaps of the shard — and base and delta share
    the allocation in proportion to their live sizes.  A query whose base
    overlaps are more than half dead instead picks from its reported,
    tombstone-filtered base overlaps, which keeps every query's acceptance
    rate above one half.

    Returns the same query-grouped global-id layout as the base-only path.
    """
    snapshot = view.snapshot
    k = view.shard_id
    ql, qr = payload["ql"][selected], payload["qr"][selected]
    alloc = payload["alloc"][selected, k]
    fresh = payload["fresh"][selected, k]
    dead = payload["dead"][selected, k]
    rec_start, rec_count, total = layout
    base = total.astype(_ID)  # unweighted records: total weight = overlap count
    tombstoned = _tombstones(view, delta)
    glo, sizes = records.glo, records.counts
    record_end = np.cumsum(sizes)
    base_start = np.cumsum(base) - base  # the query's first slot in record order

    # Report-and-filter the queries whose base overlaps are mostly dead.
    mostly_dead = 2 * dead > base
    pool = np.where(mostly_dead, base - dead, base)
    survivors = np.empty(0, dtype=_ID)
    survivor_start = np.zeros(selected.shape[0], dtype=_ID)
    filtered = np.flatnonzero(mostly_dead)
    if filtered.shape[0]:
        parts = []
        for q in filtered:
            first, stop = int(rec_start[q]), int(rec_start[q] + rec_count[q])
            local = snapshot._all_ids[
                _ranges_to_indices(glo[first:stop], sizes[first:stop])
            ]
            parts.append(local[~tombstoned[local]])
        survivors = np.concatenate(parts)
        survivor_start[filtered] = np.cumsum(pool[filtered]) - pool[filtered]

    # The delta overlaps of every query, as runs of delta-insert indexes.
    with_fresh = np.flatnonzero(fresh > 0)
    rows, delta_cols = np.nonzero(_delta_overlaps(delta, ql[with_fresh], qr[with_fresh]))
    delta_start = np.zeros(selected.shape[0], dtype=_ID)
    per_row = np.bincount(rows, minlength=with_fresh.shape[0])
    delta_start[with_fresh] = np.cumsum(per_row) - per_row

    owners: list[np.ndarray] = []
    gids: list[np.ndarray] = []
    todo = alloc
    while todo.any():
        # A block with nothing left to draw leaves its generator untouched,
        # so each block's stream depends on that block's queries only.
        wanted = [(int(todo[members].sum()), rng) for members, rng in blocked]
        uniforms = np.concatenate([rng.random(n) for n, rng in wanted if n])
        slot = np.repeat(np.arange(selected.shape[0]), todo)
        width = pool[slot] + fresh[slot]
        pick = (uniforms * width).astype(_ID)
        np.minimum(pick, width - 1, out=pick)
        out = np.empty(slot.shape[0], dtype=_ID)
        in_base = pick < pool[slot]

        from_delta = ~in_base
        run = delta_start[slot[from_delta]] + pick[from_delta] - pool[slot[from_delta]]
        out[from_delta] = delta.gids[delta_cols[run]]

        from_filtered = in_base & mostly_dead[slot]
        local = survivors[survivor_start[slot[from_filtered]] + pick[from_filtered]]
        out[from_filtered] = view.to_global(local)

        from_records = in_base & ~from_filtered
        target = base_start[slot[from_records]] + pick[from_records]
        record = np.searchsorted(record_end, target, side="right")
        local = snapshot._all_ids[glo[record] + target - (record_end[record] - sizes[record])]
        hit = tombstoned[local]
        out[from_records] = view.to_global(local)

        keep = np.ones(slot.shape[0], dtype=bool)
        keep[np.flatnonzero(from_records)[hit]] = False
        owners.append(slot[keep])
        gids.append(out[keep])
        todo = np.bincount(slot[~keep], minlength=selected.shape[0])

    if len(gids) == 1:  # nothing rejected: the draws are already grouped by query
        return gids[0]
    order = np.argsort(np.concatenate(owners), kind="stable")
    return np.concatenate(gids)[order]


#: Op name -> implementation.  Names, not functions, cross the process
#: boundary, so the dispatch table must agree between parent and workers —
#: both sides read this one dict.
SHARD_OPS = {
    "count": _op_count,
    "total_weight": _op_total_weight,
    "report": _op_report,
    "sample": _op_sample,
}


def run_shard_op(op: str, view: ShardView, payload: dict):
    """Execute one named per-shard op over a view (any executor, any process)."""
    return SHARD_OPS[op](view, payload)


# ---------------------------------------------------------------------- #
# query-parallel tiling: payload slicing + result reassembly
# ---------------------------------------------------------------------- #
def slice_payload(op: str, payload: dict, start: int, stop: int) -> dict:
    """Cut the payload for queries ``[start, stop)`` out of a batch payload.

    Per-query arrays (``ql``/``qr``, and for ``sample`` the ``alloc``,
    ``fresh`` and ``dead`` rows) are sliced; the per-shard seed list and
    delta tiers stay whole (they are shard-wide), and ``sample`` advances
    ``offset`` so :func:`_op_sample` still sees batch-global positions for
    its seed-block ids.  Slices are views, not copies — a tile ships no
    more per-query bytes than its own queries.
    """
    sliced = {
        key: value[start:stop] if key in _ROW_KEYS else value
        for key, value in payload.items()
    }
    if op == "sample":
        sliced["offset"] = int(payload.get("offset", 0)) + int(start)
    return sliced


def merge_block_results(op: str, parts: list):
    """Reassemble per-tile op results into the whole-batch result.

    ``parts`` is a non-empty list of ``(start, result)`` pairs whose tiles
    partition ``[0, nq)``, sorted by ``start``.  The merged value is exactly
    (bit for bit) what the op would have returned over the whole batch:
    report concatenates its per-query row lists, every other op its flat
    per-query (count, total_weight) or query-grouped (sample) array.
    """
    if op == "report":
        rows: list[np.ndarray] = []
        for _, part in parts:
            rows.extend(part)
        return rows
    return np.concatenate([part for _, part in parts])


# ---------------------------------------------------------------------- #
# shared-memory publication
# ---------------------------------------------------------------------- #
def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


class ShardSegment:
    """Parent-side handle for one published (shard, base version) segment.

    Owns the :class:`SharedMemory` block — the parent must keep the handle
    alive while any worker might (re)attach by name, and calls
    :meth:`unlink` exactly once when the segment is superseded by a newer
    version or the executor shuts down.
    """

    __slots__ = ("shm", "manifest")

    def __init__(self, shm: shared_memory.SharedMemory, manifest: dict) -> None:
        self.shm = shm
        self.manifest = manifest

    def unlink(self) -> None:
        """Release the parent mapping and remove the segment's name.

        Workers still holding the old mapping keep reading it safely (POSIX
        shm lives until the last close); no new attach can find it.
        """
        try:
            self.shm.close()
            self.shm.unlink()
        except (OSError, BufferError):  # already gone / still exported
            pass


def publish_shard(shard) -> ShardSegment:
    """Copy one shard's snapshot + id map into a fresh shared-memory segment.

    The segment packs every array of :meth:`FlatAIT.to_buffers` (core arrays
    *and* the derived rank-key pools — attaching must not recompute them)
    plus the shard's ``global_map``, each aligned to ``_ALIGN`` bytes, behind
    a picklable manifest.  One segment per (shard, base version): the caller
    republishes when a compaction bumps the base version and unlinks the
    superseded segment.
    """
    arrays = dict(shard.snapshot.to_buffers())
    arrays["global_map"] = shard.global_map

    entries: list[dict] = []
    sized: list[tuple[dict, np.ndarray]] = []
    offset = 0
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        offset = _aligned(offset)
        entry = {
            "name": name,
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "offset": offset,
        }
        entries.append(entry)
        sized.append((entry, array))
        offset += int(array.nbytes)

    shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
    for entry, array in sized:
        if array.nbytes == 0:
            continue
        dst = np.ndarray(
            array.shape, dtype=array.dtype, buffer=shm.buf, offset=entry["offset"]
        )
        dst[...] = array
        del dst  # drop the buffer export before any later close()

    manifest = {
        "shm": shm.name,
        "shard_id": int(shard.shard_id),
        "version": int(shard.base_version),
        "weighted": bool(shard.snapshot.is_weighted),
        "kernel": shard.snapshot.kernel_backend,
        "arrays": entries,
    }
    return ShardSegment(shm, manifest)


def _attach_shm(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without adopting cleanup responsibility.

    Python < 3.13 registers *every* attach with the resource tracker, whose
    exit handler would unlink the segment out from under its owner (and,
    when parent and children share one tracker process, an attach-side
    register/unregister pair corrupts the owner's bookkeeping).  Suppress
    the registration during the attach instead; 3.13+ has ``track=False``
    for exactly this.  Worker processes handle one message at a time, so the
    temporary monkeypatch cannot race.
    """
    if sys.version_info >= (3, 13):
        return shared_memory.SharedMemory(name=name, track=False)
    original = resource_tracker.register

    def _skip_shared_memory(rname, rtype):  # pragma: no cover - trivial shim
        if rtype != "shared_memory":
            original(rname, rtype)

    resource_tracker.register = _skip_shared_memory
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def attach_segment(manifest: dict) -> ShardView:
    """Rebuild a zero-copy :class:`ShardView` from a published manifest.

    Every array is an ``np.ndarray`` view straight into the mapped segment
    (read-only — snapshot state is immutable by construction), assembled
    into a :class:`FlatAIT` via :meth:`FlatAIT.from_buffers` so the saved
    rank-key pools are adopted, not recomputed.  The returned view holds the
    ``SharedMemory`` object so the mapping outlives the attach scope.
    """
    shm = _attach_shm(manifest["shm"])
    arrays: dict[str, np.ndarray] = {}
    for entry in manifest["arrays"]:
        dtype = np.dtype(entry["dtype"])
        shape = tuple(entry["shape"])
        if int(np.prod(shape)) == 0:
            array = np.empty(shape, dtype=dtype)
        else:
            array = np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=entry["offset"])
        array.setflags(write=False)
        arrays[entry["name"]] = array
    global_map = arrays.pop("global_map")
    snapshot = FlatAIT.from_buffers(
        arrays, bool(manifest["weighted"]), kernel_backend=manifest.get("kernel")
    )
    return ShardView(manifest["shard_id"], snapshot, global_map, segment=shm)


def _release_view(view: ShardView) -> None:
    """Drop a view's arrays and close its segment mapping (best effort)."""
    shm = view.segment
    view.segment = None
    view.snapshot = None
    view.global_map = None
    if shm is not None:
        try:
            shm.close()
        except BufferError:  # a stray export keeps the mapping until exit
            pass


# ---------------------------------------------------------------------- #
# worker process
# ---------------------------------------------------------------------- #
def worker_main(tasks, results) -> None:
    """Long-lived worker loop for :class:`ProcessExecutor`.

    Messages (FIFO per worker; the parent awaits one reply per request, so
    replies never interleave):

    * ``("publish", key, manifest)`` — attach the segment and serve ``key``
      from it, replacing (and closing) any previous version; reply
      ``("ok", None)``.
    * ``("op", op, payload, specs)`` — run the named op for every spec in
      order; reply ``("ok", [result, ...])``.  A spec is either a bare
      segment ``key`` (whole batch) or a ``(key, start, stop)`` query tile
      executed over :func:`slice_payload`.
    * ``("stop",)`` — release every mapping and exit (no reply).

    Any exception is caught and reported as ``("error", traceback_text)`` —
    the worker survives and keeps serving.
    """
    views: dict[str, ShardView] = {}
    try:
        while True:
            message = tasks.get()
            kind = message[0]
            if kind == "stop":
                break
            try:
                if kind == "publish":
                    _, key, manifest = message
                    old = views.pop(key, None)
                    views[key] = attach_segment(manifest)
                    if old is not None:
                        _release_view(old)
                    results.put(("ok", None))
                elif kind == "op":
                    _, op, payload, specs = message
                    out = []
                    for spec in specs:
                        if isinstance(spec, str):
                            out.append(run_shard_op(op, views[spec], payload))
                        else:
                            key, start, stop = spec
                            out.append(
                                run_shard_op(
                                    op, views[key], slice_payload(op, payload, start, stop)
                                )
                            )
                    results.put(("ok", out))
                else:
                    results.put(("error", f"unknown worker message kind {kind!r}"))
            except BaseException as exc:
                results.put(
                    ("error", "".join(traceback.format_exception(exc)).strip())
                )
    finally:
        for view in views.values():
            _release_view(view)
