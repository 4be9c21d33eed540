"""ShardedEngine — scatter-gather query serving on top of FlatAIT snapshots.

This is the serving layer the reproduction grows toward: it partitions an
:class:`~repro.core.dataset.IntervalDataset` across ``K`` shards, keeps one
immutable base :class:`~repro.core.flat.FlatAIT` per shard plus a small
delta tier of recent writes, and answers the full batch API
(``count_many`` / ``report_many`` / ``sample_many`` / ``total_weight_many``)
by fanning each batch out over the shards and merging the partial results:

* **counting** and **weighted counting** merge by summation — each interval
  lives in exactly one shard, so per-shard results partition ``q ∩ X``.
  The delta tiers add one engine-wide correction from the two-search
  identity ``#{left <= q.r} - #{right < q.l}`` over a signed endpoint set
  (+1 per delta insert, -1 per tombstoned base interval);
* **reporting** merges by concatenation, with shard-local ids mapped back to
  engine-global ids;
* **sampling** stays *exactly* i.i.d.: for each query the engine first draws
  how many of its ``s`` samples fall into each shard from a multinomial over
  the per-shard overlap counts (overlap *weights* for weighted engines), then
  every shard makes exactly that many uniform draws in
  :func:`repro.service.shm._op_sample` (one record collection per shard,
  one exact draw per seed block; base draws that hit a tombstone are
  redrawn), and the engine shuffles the merged row.  Conditioning on shard
  membership, a uniform (weight-proportional) draw within the shard is
  uniform (weight-proportional) over all of ``q ∩ X`` — the same two-stage
  argument that makes the paper's record-level alias sampling exact
  (Theorem 3 / Corollary 5), lifted one level up.  See
  ``docs/ARCHITECTURE.md`` for the full derivation.

Writes (:meth:`ShardedEngine.insert` / :meth:`ShardedEngine.delete`) are
routed to the owning shard's buffered delta log and folded into its delta
tier at the next batch boundary — never mid-batch, so one scatter-gather
round always observes one consistent version per shard.  A shard rebuilds
its base (a *compaction*) only once its delta tier outgrows
:data:`repro.service.shard.COMPACT_FRACTION` of the base, and in
:meth:`ShardedEngine.save_snapshot`.

The scatter-gather step executes through a pluggable executor
(:mod:`repro.service.executor`): a serial loop by default, a thread pool
(``executor="threads"``) when shards are large enough for the GIL-releasing
NumPy kernels to run in parallel, or long-lived worker processes
(``executor="process"``) that attach each shard's base arrays through
``multiprocessing.shared_memory`` and execute the whole per-shard code path
off the owner's GIL.  Whatever the executor, every per-shard op runs the same
module-level implementation over a :class:`~repro.service.shm.ShardView`
(:meth:`ShardedEngine._scatter`), so results are bit-identical across
execution tiers; writes, delta folds and compactions always stay on the
owner process, the delta tiers travel with the op payload, and only a
compaction triggers re-publication of a shard's shared segment.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.dataset import IntervalDataset
from ..core.errors import EmptyResultError, InvalidIntervalError, StructureStateError
from ..core.flat import FlatAIT
from ..core.interval import Interval, validate_endpoints
from ..core.query import QueryLike, integral_value, validate_sample_size
from ..kernels import resolve_backend
from ..sampling.rng import RandomState, resolve_rng, spawn_seeds
from .executor import resolve_executor
from .shard import Shard
from .shm import ShardView, run_shard_op

__all__ = ["ShardedEngine"]

_ID = np.int64
_F8 = np.float64


class _DeltaIndex:
    """Overlap counts of every shard's delta tier, for a whole query batch.

    One signed endpoint set over all shards: column ``k`` counts shard
    ``k``'s delta inserts, column ``K + k`` its tombstoned base intervals.
    ``lefts`` / ``rights`` are the set's sorted endpoint values and
    ``left_prefix[i]`` / ``right_prefix[i]`` the per-column counts of the
    ``i`` smallest, so two ``searchsorted`` calls answer every query with
    the counting identity ``#{left <= q.r} - #{right < q.l}``.
    """

    __slots__ = (
        "num_shards",
        "lefts",
        "rights",
        "left_prefix",
        "right_prefix",
        "left_net",
        "right_net",
    )

    def __init__(self, shards: list[Shard]) -> None:
        k = self.num_shards = len(shards)
        parts = [shard.delta_endpoints() for shard in shards]
        # Inserts of shard i count in column i, its tombstones in column k + i.
        columns = np.concatenate(
            [np.full(p[0].shape[0], i, dtype=_ID) for i, p in enumerate(parts)]
            + [np.full(p[2].shape[0], k + i, dtype=_ID) for i, p in enumerate(parts)]
        )
        self.lefts, self.left_prefix = self._prefix(
            [p[0] for p in parts] + [p[2] for p in parts], columns
        )
        self.rights, self.right_prefix = self._prefix(
            [p[1] for p in parts] + [p[3] for p in parts], columns
        )
        self.left_net = self.left_prefix[:, :k].sum(axis=1) - self.left_prefix[:, k:].sum(axis=1)
        self.right_net = self.right_prefix[:, :k].sum(axis=1) - self.right_prefix[:, k:].sum(axis=1)

    def _prefix(self, endpoints: list[np.ndarray], columns: np.ndarray):
        """Sorted endpoint values and, per column, the counts of each sorted prefix."""
        values = np.concatenate(endpoints)
        order = np.argsort(values, kind="stable")
        counts = np.zeros((values.shape[0] + 1, 2 * self.num_shards), dtype=_ID)
        counts[np.arange(1, values.shape[0] + 1), columns[order]] = 1
        return values[order], np.cumsum(counts, axis=0)

    @classmethod
    def of(cls, shards: list[Shard]) -> Optional["_DeltaIndex"]:
        """The index over ``shards``' delta tiers, or None when every tier is empty."""
        if all(shard.delta is None for shard in shards):
            return None
        return cls(shards)

    def _ranks(self, ql: np.ndarray, qr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.searchsorted(self.lefts, qr, side="right"),
            np.searchsorted(self.rights, ql, side="left"),
        )

    def net_counts(self, ql: np.ndarray, qr: np.ndarray) -> np.ndarray:
        """Per query: overlapping delta inserts minus overlapping tombstones, all shards."""
        below_r, below_l = self._ranks(ql, qr)
        return self.left_net[below_r] - self.right_net[below_l]

    def per_shard(self, ql: np.ndarray, qr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(fresh, dead)``: overlapping delta inserts and tombstones, each ``(nq, K)``."""
        below_r, below_l = self._ranks(ql, qr)
        both = self.left_prefix[below_r] - self.right_prefix[below_l]
        return both[:, : self.num_shards], both[:, self.num_shards :]


class ShardedEngine:
    """Sharded, update-aware, batch-first query service over interval data.

    Parameters
    ----------
    dataset:
        The intervals to serve.  Must contain at least ``num_shards``
        intervals so every shard starts non-empty.
    num_shards:
        Number of partitions (``K``).  ``K = 1`` degenerates to a thin
        wrapper around a single :class:`~repro.core.flat.FlatAIT`.
    policy:
        How intervals map to shards — ``"round_robin"`` (default; balances
        cardinality) or ``"range"`` (contiguous midpoint ranges; narrow
        queries touch few shards).  See
        :meth:`IntervalDataset.partition_indices`.
    weighted:
        Build :class:`~repro.core.awit.AWIT` shards (weight-proportional
        sampling).  Defaults to ``dataset.is_weighted``.  Weighted engines
        reject updates, mirroring the paper's static AWIT (Section IV-A).
    executor:
        ``None`` / ``"serial"``, ``"threads"``, ``"process"`` (long-lived
        worker processes reading shard snapshots from shared memory — true
        multi-core scatter, see :class:`~repro.service.executor.ProcessExecutor`),
        or any object with an order-preserving ``map(fn, items)``.
    scatter:
        Scatter strategy for ``executor="process"``: ``"data"`` (one worker
        per shard), ``"query"`` (query-block tiles over all workers — the
        mode that parallelises counting) or ``"auto"`` (per-batch choice,
        the process default).  Only valid together with
        ``executor="process"``; pre-built executor objects configure scatter
        at construction instead.
    kernel_backend:
        Forwarded to every shard's snapshot: which kernel implementation the
        shard snapshots run their hot loops on (``"numpy"`` default,
        ``"numba"``, ``"python"``; see :mod:`repro.kernels`).  Process
        executor workers inherit the choice through the shared-memory
        publish descriptor, so all execution tiers run the same kernels.
    parallel_refresh:
        When True, shard construction, refreshes and compactions fan out
        over the engine's executor (one task per shard; shards are disjoint,
        so this is race-free).  Only construction and compaction — full
        ``from_arrays`` builds, dominated by GIL-releasing NumPy kernels —
        carry enough work to gain from it; folding writes into a delta tier
        is cheap.  Defaults to False (serial).

    Examples
    --------
    >>> from repro import IntervalDataset
    >>> from repro.service import ShardedEngine
    >>> data = IntervalDataset.from_pairs([(0, 10), (5, 15), (20, 30), (25, 40)])
    >>> engine = ShardedEngine(data, num_shards=2)
    >>> engine.count_many([(4, 12), (18, 26)]).tolist()
    [2, 2]
    >>> new_id = engine.insert((8, 22))
    >>> engine.count((4, 12))
    3
    >>> engine.delete(new_id)
    True
    >>> engine.count((4, 12))
    2
    """

    def __init__(
        self,
        dataset: IntervalDataset,
        num_shards: int = 4,
        policy: str = "round_robin",
        weighted: Optional[bool] = None,
        executor=None,
        parallel_refresh: bool = False,
        kernel_backend=None,
        scatter: Optional[str] = None,
    ) -> None:
        self._weighted = dataset.is_weighted if weighted is None else bool(weighted)
        parts = dataset.partition_indices(num_shards, policy)
        self._policy = policy
        # Resolved once so a bad name fails here and every shard shares one
        # backend instance (kernels are stateless — see repro.kernels).
        self._kernel_backend = resolve_backend(kernel_backend)
        self._parallel_refresh = bool(parallel_refresh)
        self._executor, self._owns_executor = resolve_executor(executor, scatter=scatter)
        # Durability attachment (populated by save_snapshot / open).
        self._persist_dir: Optional[str] = None
        self._persist_epoch = 0
        self._wal_fsync: Optional[str] = None

        def build_shard(item: tuple[int, np.ndarray]) -> Shard:
            index, ids = item
            weights = dataset.weights[ids] if self._weighted else None
            return Shard(
                index,
                dataset.lefts[ids],
                dataset.rights[ids],
                weights,
                ids,
                kernel_backend=self._kernel_backend,
            )

        try:
            if self._parallel_refresh and len(parts) > 1:
                # list(): the executor contract only promises an order-preserving
                # map; a lazy iterator (e.g. a raw ThreadPoolExecutor) must be
                # drained here, not stored.
                self._shards = list(self._executor.map(build_shard, list(enumerate(parts))))
            else:
                self._shards = [build_shard(item) for item in enumerate(parts)]
        except BaseException:
            # The executor is created before the shards; don't leak an
            # engine-owned thread pool when a shard build fails.
            if self._owns_executor:
                self._executor.shutdown()
            raise

        owner = np.empty(len(dataset), dtype=_ID)
        for i, ids in enumerate(parts):
            owner[ids] = i
        # Global-id -> shard map and deleted flags as bare arrays (amortised
        # growth on insert, see _reserve_ids): at the scale this layer
        # targets a boxed-int container would cost an order of magnitude
        # more memory.
        self._owner = owner
        self._dead = np.zeros(len(dataset), dtype=bool)
        self._owner_count = len(dataset)
        self._next_global = len(dataset)
        self._active = len(dataset)
        self._delta_index: Optional[_DeltaIndex] = None
        self._rr_cursor = len(dataset) % len(self._shards)
        if policy == "range":
            # Upper midpoint of each shard but the last: the routing fence for
            # future inserts (searchsorted keeps new intervals with their
            # nearest midpoint neighbours).
            midpoints = (dataset.lefts + dataset.rights) / 2.0
            self._range_bounds = np.array(
                [float(midpoints[ids].max()) for ids in parts[:-1]], dtype=_F8
            )
        else:
            self._range_bounds = None

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def num_shards(self) -> int:
        """Number of shards (``K``)."""
        return len(self._shards)

    @property
    def is_weighted(self) -> bool:
        """True when shards are AWITs and sampling is weight-proportional."""
        return self._weighted

    @property
    def policy(self) -> str:
        """The partitioning policy this engine was built with."""
        return self._policy

    @property
    def kernel_backend(self) -> str:
        """Registry name of the kernel backend the shard snapshots run on."""
        return self._kernel_backend.name

    @property
    def parallel_refresh(self) -> bool:
        """True when shard construction / refreshes fan out over the executor."""
        return self._parallel_refresh

    @property
    def executor_kind(self) -> str:
        """Short name of the executor serving this engine's scatter step.

        ``"serial"`` / ``"threads"`` / ``"process"`` for the built-in
        executors, the class name for a caller-supplied map object.  Exposed
        through :meth:`RequestGateway.stats` so deployments can tell which
        execution tier is live.
        """
        return getattr(self._executor, "kind", type(self._executor).__name__)

    @property
    def scatter(self) -> Optional[str]:
        """The executor's scatter strategy, or ``None`` when it has none.

        ``"data"`` / ``"query"`` / ``"auto"`` for a
        :class:`~repro.service.executor.ProcessExecutor`; ``None`` for the
        in-process executors (the notion does not apply — they always run
        one task per shard).  Exposed through :meth:`RequestGateway.stats`.
        """
        return getattr(self._executor, "scatter", None)

    @property
    def size(self) -> int:
        """Number of active intervals, including writes still in delta logs."""
        return self._active

    def __len__(self) -> int:
        return self._active

    @property
    def shards(self) -> tuple[Shard, ...]:
        """The shard objects, in partition order (read-only view)."""
        return tuple(self._shards)

    def shard_sizes(self) -> list[int]:
        """Interval count per shard visible to reads (buffered writes excluded)."""
        return [shard.size for shard in self._shards]

    def versions(self) -> list[int]:
        """Current visible-state version of every shard."""
        return [shard.version for shard in self._shards]

    def pending_ops(self) -> int:
        """Total buffered writes not yet folded into the shards' delta tiers."""
        return sum(shard.pending_ops for shard in self._shards)

    def shard_of(self, global_id: int) -> int:
        """Index of the shard owning ``global_id`` (deleted ids keep their owner)."""
        g = int(global_id)
        if g < 0 or g >= self._owner_count or self._owner[g] < 0:
            # Negative entries mark id-space gaps left by crash recovery
            # (ids lost to a torn WAL tail below a surviving shard's ids).
            raise KeyError(f"interval id {global_id} was never assigned")
        return int(self._owner[g])

    def _reserve_ids(self, need: int) -> None:
        """Grow the id-indexed columns (owner, deleted flag) to hold ``need`` ids.

        Amortised: capacity grows by at least half, so a stream of inserts
        costs O(1) copies per id.
        """
        if need > self._owner.shape[0]:
            grow = max(16, need - self._owner.shape[0], self._owner.shape[0] // 2)
            # -1 fill: entries beyond _owner_count are unreachable from the
            # insert path, but the recovery path can surface id gaps (see
            # shard_of), so the whole array keeps the invariant
            # "unassigned slot == -1".
            self._owner = np.concatenate((self._owner, np.full(grow, -1, dtype=_ID)))
            self._dead = np.concatenate((self._dead, np.zeros(grow, dtype=bool)))

    def _append_owners(self, owners: np.ndarray) -> None:
        """Record the owning shard of freshly assigned global ids."""
        need = self._owner_count + int(owners.shape[0])
        self._reserve_ids(need)
        self._owner[self._owner_count : need] = owners
        self._owner_count = need

    def nbytes(self) -> int:
        """Approximate memory footprint across all shards (columns, snapshots, delta tiers)."""
        return sum(shard.nbytes() for shard in self._shards)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "weighted " if self._weighted else ""
        return (
            f"ShardedEngine({self._active} {kind}intervals, "
            f"shards={self.num_shards}, policy={self._policy!r})"
        )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def refresh(self, parallel: Optional[bool] = None) -> list[int]:
        """Apply every buffered write and return the new per-shard versions.

        Called automatically at the start of every batch; exposed so callers
        can pay the refresh cost at a moment of their choosing (e.g. off the
        request path).  Each shard with pending writes folds them into its
        delta tier, and compacts when the tier has outgrown
        :data:`repro.service.shard.COMPACT_FRACTION` of its base.
        ``parallel`` overrides the engine's ``parallel_refresh`` setting for
        this call: when on, the shards refresh on the executor concurrently
        (shards are disjoint, so per-shard refresh is race-free).
        """
        pending = [shard for shard in self._shards if shard.pending_ops]
        if pending:
            self._sweep(pending, Shard.refresh, parallel)
        return self.versions()

    def compact(self, parallel: Optional[bool] = None) -> list[int]:
        """Fold every buffered write, then rebuild every shard that has a delta tier.

        Afterwards every shard serves a fresh ``from_arrays`` base over its
        live rows and an empty delta tier — the state a checkpoint holds
        (:meth:`save_snapshot` calls this).  ``parallel`` works as in
        :meth:`refresh`.  Returns the per-shard versions.
        """
        self.refresh(parallel)
        layered = [shard for shard in self._shards if shard.delta is not None]
        if layered:
            self._sweep(layered, Shard.compact, parallel)
        return self.versions()

    def _sweep(self, shards: list[Shard], step, parallel: Optional[bool]) -> None:
        """Run ``step(shard)`` on every shard, then re-index the delta tiers.

        ``step`` must be a no-op on a shard it already ran on
        (:meth:`Shard.refresh` without pending writes, :meth:`Shard.compact`
        without a delta tier), so a failed fan-out can finish serially.
        """
        use_parallel = self._parallel_refresh if parallel is None else bool(parallel)
        try:
            if use_parallel and len(shards) > 1:
                self._fan_out(shards, step)
            else:
                for shard in shards:
                    step(shard)
        finally:
            self._delta_index = _DeltaIndex.of(self._shards)

    def _fan_out(self, shards: list[Shard], step) -> None:
        """``step`` over the executor; raise only once every shard has settled."""

        def guarded(shard: Shard) -> Optional[Exception]:
            try:
                step(shard)
                return None
            except Exception as exc:  # surfaced below, once every shard settled
                return exc

        try:
            # list(): force a lazy executor map to complete before
            # versions() reads the refreshed state.
            results = list(self._executor.map(guarded, shards))
        except Exception:
            # The executor itself failed mid-fan-out (not a shard task).
            # Finish the sweep serially so no shard is left behind with
            # buffered writes, then surface the executor error: callers
            # see an exception, never a half-refreshed engine.
            for shard in shards:
                step(shard)
            raise
        for error in results:
            if error is not None:
                # Every other shard has settled; the failing shard kept its
                # delta log (a refresh clears it only after a full fold), so
                # per-shard versions are consistent and the failure is
                # retryable.
                raise error

    def close(self) -> None:
        """Flush and close any write-ahead logs; shut down an owned executor.

        Graceful shutdown fsyncs each shard's WAL, so every buffered write —
        acknowledged or not — survives into the next :meth:`open`.
        Idempotent.
        """
        for shard in self._shards:
            if shard.wal is not None:
                shard.wal.close()
        if self._owns_executor:
            self._executor.shutdown()

    # ------------------------------------------------------------------ #
    # durability
    # ------------------------------------------------------------------ #
    @property
    def snapshot_dir(self) -> Optional[str]:
        """Directory this engine checkpoints to, or None when not attached."""
        return self._persist_dir

    @property
    def snapshot_epoch(self) -> int:
        """Epoch of the newest snapshot/WAL generation this engine is on."""
        return self._persist_epoch

    def save_snapshot(self, directory=None, fsync: bool = True, retain: int = 2) -> int:
        """Checkpoint the whole engine to ``directory``; return the new epoch.

        Folds every buffered write and compacts every shard (:meth:`compact`)
        so the per-shard snapshot files hold plain bases, writes the engine
        state, rotates the write-ahead logs, and commits the epoch with an
        atomic manifest rename (see
        :mod:`repro.persist.durable`).  ``directory`` defaults to the
        directory the engine is already attached to.  ``retain`` older
        epochs are kept as fallbacks; the rest are garbage-collected.

        Like every engine method this is **not thread-safe**: when the
        engine is served through a running
        :class:`~repro.service.gateway.RequestGateway`, use
        :meth:`RequestGateway.checkpoint` instead, which executes the
        checkpoint on the dispatcher thread, serialised with the write path
        (a concurrent write could otherwise land in the outgoing epoch's WAL
        but miss the new snapshot, and be dropped by recovery).
        """
        from ..persist.durable import save_engine_snapshot

        return save_engine_snapshot(self, directory, fsync=fsync, retain=retain)

    @classmethod
    def open(
        cls,
        directory,
        mmap: bool = True,
        verify: bool = True,
        fsync: str = "batch",
        executor=None,
        parallel_refresh: bool = False,
        kernel_backend=None,
    ) -> "ShardedEngine":
        """Restore an engine from its newest valid snapshot epoch + WAL chain.

        ``mmap=True`` (default) maps the snapshot arrays read-only with lazy
        page-in — opening a million-interval engine costs a header parse,
        not a rebuild.  ``verify=True`` checks every array checksum.
        ``fsync`` is the durability policy for the write-ahead logs this
        engine will append to.  Recovered-but-unapplied WAL writes sit in
        the shards' delta logs and fold into their delta tiers at the first
        batch boundary, like any other buffered write.
        """
        from ..persist.durable import open_engine

        return open_engine(
            cls,
            directory,
            mmap=mmap,
            verify=verify,
            fsync=fsync,
            executor=executor,
            parallel_refresh=parallel_refresh,
            kernel_backend=kernel_backend,
        )

    def sync_wal(self) -> None:
        """fsync every shard's write-ahead log (no-op without WALs).

        Under the ``"batch"`` fsync policy this is the acknowledgement
        barrier: the gateway calls it once per micro-batch, after the write
        dispatch and before completing the write futures.
        """
        for shard in self._shards:
            if shard.wal is not None:
                shard.wal.sync()

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _scatter(self, op: str, payload: dict) -> list:
        """Run one named per-shard query op on every shard, in shard order.

        Every executor runs the same module-level op implementations
        (:data:`repro.service.shm.SHARD_OPS`) over :class:`ShardView`\\ s, so
        results are bit-identical regardless of where the work executes.  An
        executor exposing ``run_shard_op`` (the :class:`ProcessExecutor`)
        receives the live shards and handles view placement itself —
        republishing any shard whose base version changed since its last
        publication; plain ``map`` executors get in-process views.
        """
        runner = getattr(self._executor, "run_shard_op", None)
        if runner is not None:
            return runner(self._shards, op, payload)
        views = [ShardView.of_shard(shard) for shard in self._shards]
        # list(): the executor contract only promises an order-preserving
        # map; a lazy iterator (e.g. a raw ThreadPoolExecutor) must be
        # drained before the merge steps index or reduce the rows.
        return list(self._executor.map(lambda view: run_shard_op(op, view, payload), views))

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #
    def insert(self, interval: Interval | tuple[float, float]) -> int:
        """Buffer the insertion of a new interval; return its global id.

        The write lands in the owning shard's delta log and becomes visible
        to the first batch that starts after it (the next refresh).
        Round-robin engines rotate ownership; range engines route by
        midpoint so the shard keyspace stays contiguous.  Thin wrapper over
        :meth:`insert_many`.
        """
        if isinstance(interval, Interval):
            left, right = interval.left, interval.right
        else:
            try:
                left, right = interval
                left, right = float(left), float(right)
            except (TypeError, ValueError) as exc:
                raise InvalidIntervalError(
                    f"insert expects an Interval or a (left, right) pair, got {interval!r}"
                ) from exc
        validate_endpoints(left, right)
        return int(self.insert_many([left], [right])[0])

    def insert_many(self, lefts, rights) -> np.ndarray:
        """Buffer a whole insertion batch; return the assigned global ids.

        Validation, shard routing and delta-log buffering are all
        vectorised: range engines bucket the batch by midpoint with one
        ``searchsorted``, round-robin engines deal the batch out cyclically,
        and each owning shard receives a single bulk delta-log entry that
        :meth:`Shard.refresh` later folds into its delta tier.

        Examples
        --------
        >>> from repro import IntervalDataset
        >>> from repro.service import ShardedEngine
        >>> data = IntervalDataset.from_pairs([(0, 10), (5, 15), (20, 30), (25, 40)])
        >>> engine = ShardedEngine(data, num_shards=2)
        >>> ids = engine.insert_many([8.0, 9.0], [22.0, 23.0])
        >>> ids.tolist()
        [4, 5]
        >>> engine.count((21, 21))
        3
        """
        if self._weighted:
            raise StructureStateError(
                "weighted engines are static: the AWIT does not support updates (Section IV-A)"
            )
        lefts_arr = np.ascontiguousarray(lefts, dtype=np.float64).reshape(-1)
        rights_arr = np.ascontiguousarray(rights, dtype=np.float64).reshape(-1)
        if lefts_arr.shape != rights_arr.shape:
            raise InvalidIntervalError(
                f"insert_many expects equally long columns, got {lefts_arr.shape[0]} "
                f"lefts and {rights_arr.shape[0]} rights"
            )
        count = int(lefts_arr.shape[0])
        bad = ~(np.isfinite(lefts_arr) & np.isfinite(rights_arr)) | (lefts_arr > rights_arr)
        if bad.any():
            first = int(np.flatnonzero(bad)[0])
            raise InvalidIntervalError(
                f"invalid interval [{lefts_arr[first]}, {rights_arr[first]}] "
                f"at position {first}"
            )
        if count == 0:
            return np.empty(0, dtype=_ID)

        if self._range_bounds is not None:
            midpoints = (lefts_arr + rights_arr) / 2.0
            owners = np.searchsorted(self._range_bounds, midpoints, side="left").astype(_ID)
        else:
            owners = (self._rr_cursor + np.arange(count, dtype=_ID)) % len(self._shards)
            self._rr_cursor = int((self._rr_cursor + count) % len(self._shards))
        global_ids = np.arange(self._next_global, self._next_global + count, dtype=_ID)
        self._next_global += count
        self._append_owners(owners)
        for shard_idx in np.unique(owners):
            members = owners == shard_idx
            self._shards[int(shard_idx)].buffer_insert_many(
                global_ids[members], lefts_arr[members], rights_arr[members]
            )
        self._active += count
        return global_ids

    def delete(self, global_id: int) -> bool:
        """Buffer the deletion of ``global_id``; return True when it was active.

        Like :meth:`insert`, the write is applied at the next refresh;
        double deletes and unknown ids return False immediately.
        Thin wrapper over :meth:`delete_many`.
        """
        return bool(self.delete_many([global_id])[0])

    def delete_many(self, global_ids) -> np.ndarray:
        """Buffer a whole deletion batch; return per-id success flags.

        Unknown ids, already-deleted ids, duplicates within the batch (after
        the first occurrence) and anything that is not an integral number
        (``1.9``, ``True``, ``"3"``) report False; accepted ids are grouped
        by owning shard and buffered as one bulk delta-log entry each.

        Examples
        --------
        >>> from repro import IntervalDataset
        >>> from repro.service import ShardedEngine
        >>> data = IntervalDataset.from_pairs([(0, 10), (5, 15), (20, 30), (25, 40)])
        >>> engine = ShardedEngine(data, num_shards=2)
        >>> engine.delete_many([3, 3, 99]).tolist()
        [True, False, False]
        >>> engine.size
        3
        """
        if self._weighted:
            raise StructureStateError(
                "weighted engines are static: the AWIT does not support updates (Section IV-A)"
            )
        try:
            requested = list(global_ids)
        except TypeError:
            requested = [global_ids]
        results = np.zeros(len(requested), dtype=bool)
        accepted: list[int] = []
        for position, raw in enumerate(requested):
            g = integral_value(raw)
            if g is None or g < 0 or g >= self._owner_count or self._dead[g]:
                continue
            if self._owner[g] < 0:
                continue  # recovery id gap (torn WAL tail): id never existed here
            self._dead[g] = True
            accepted.append(g)
            results[position] = True
        if accepted:
            accepted_arr = np.asarray(accepted, dtype=_ID)
            owners = self._owner[accepted_arr]
            for shard_idx in np.unique(owners):
                self._shards[int(shard_idx)].buffer_delete_many(
                    accepted_arr[owners == shard_idx]
                )
            self._active -= len(accepted)
        return results

    # ------------------------------------------------------------------ #
    # batch queries (scatter-gather)
    # ------------------------------------------------------------------ #
    def count_many(self, queries) -> np.ndarray:
        """``|q ∩ X|`` per query: per-shard base counts, merged by summation.

        While any shard has a delta tier, one engine-wide correction (delta
        overlaps minus tombstoned overlaps, see :class:`_DeltaIndex`) is
        added to the merged base counts.
        """
        ql, qr = FlatAIT.coerce_queries(queries)
        self.refresh()
        rows = self._scatter("count", {"ql": ql, "qr": qr})
        counts = np.sum(rows, axis=0, dtype=_ID) if rows else np.zeros(ql.shape[0], dtype=_ID)
        if self._delta_index is not None:
            counts += self._delta_index.net_counts(ql, qr)
        return counts

    def total_weight_many(self, queries) -> np.ndarray:
        """Total weight of ``q ∩ X`` per query (counts for unweighted engines)."""
        ql, qr = FlatAIT.coerce_queries(queries)
        self.refresh()
        rows = self._scatter("total_weight", {"ql": ql, "qr": qr})
        totals = np.sum(rows, axis=0, dtype=_F8) if rows else np.zeros(ql.shape[0], dtype=_F8)
        if self._delta_index is not None:  # unweighted: a weight is a count
            totals += self._delta_index.net_counts(ql, qr)
        return totals

    def _with_deltas(self, payload: dict) -> dict:
        """Attach every shard's delta tier to an op payload while any is non-empty."""
        if self._delta_index is not None:
            payload["deltas"] = [shard.delta for shard in self._shards]
        return payload

    def report_many(self, queries) -> list[np.ndarray]:
        """Overlapping global ids per query, shard-major (base overlaps, then delta inserts)."""
        ql, qr = FlatAIT.coerce_queries(queries)
        self.refresh()
        per_shard = self._scatter("report", self._with_deltas({"ql": ql, "qr": qr}))
        nq = int(ql.shape[0])
        if nq == 0:
            return []
        return [
            np.concatenate([chunks[i] for chunks in per_shard]) for i in range(nq)
        ]

    def sample_many(
        self,
        queries,
        sample_size: int,
        random_state: RandomState = None,
        on_empty: str = "empty",
    ) -> list[np.ndarray]:
        """Draw ``sample_size`` i.i.d. samples per query across all shards.

        Stage 1 allocates each query's draws over the shards with one
        batched multinomial over per-shard live overlap counts (weights for
        weighted engines); stage 2 has every shard make one vectorised,
        exact draw for each query's allocation (one record collection per
        shard, tombstoned base draws redrawn, delta inserts drawn beside the
        base — see :func:`repro.service.shm._op_sample`); stage 3 merges and
        shuffles each query's row so the output carries no shard- or
        record-grouping information.  The composite per-draw law is exactly
        ``1/|q ∩ X|`` (``w(x)/W`` when weighted) — see ``docs/ARCHITECTURE.md``.
        """
        if on_empty not in ("empty", "raise"):
            raise ValueError(f"on_empty must be 'empty' or 'raise', got {on_empty!r}")
        sample_size = validate_sample_size(sample_size)
        ql, qr = FlatAIT.coerce_queries(queries)
        self.refresh()
        rng = resolve_rng(random_state)
        nq = int(ql.shape[0])
        num_shards = len(self._shards)

        index = self._delta_index
        if self._weighted:
            masses = self._scatter("total_weight", {"ql": ql, "qr": qr})
        else:
            masses = [
                row.astype(_F8) for row in self._scatter("count", {"ql": ql, "qr": qr})
            ]
        mass = np.stack(masses) if nq else np.zeros((num_shards, 0), dtype=_F8)
        if index is not None:
            # Live mass per shard: base overlaps - tombstoned + delta inserts.
            fresh, dead = index.per_shard(ql, qr)
            mass += (fresh - dead).T
        totals = mass.sum(axis=0)
        answerable = totals > 0
        if on_empty == "raise" and not answerable.all():
            bad = int(np.flatnonzero(~answerable)[0])
            raise EmptyResultError(f"query [{ql[bad]}, {qr[bad]}] matched no intervals")

        empty = np.empty(0, dtype=_ID)
        if sample_size == 0 or not answerable.any():
            return [empty.copy() for _ in range(nq)]

        live = np.flatnonzero(answerable)
        n_live = live.shape[0]
        # Stage 1: one multinomial row per live query over its shard masses.
        pvals = (mass[:, live] / totals[live]).T  # (n_live, K)
        alloc = rng.multinomial(sample_size, pvals)  # (n_live, K)

        # Independent per-shard seeds, derived *before* dispatch, make the
        # result deterministic under any executor (no shared-stream races):
        # each shard task builds its own generator from its seed, and plain
        # ints cross the process boundary for free.  The per-shard draw
        # itself lives in repro.service.shm._op_sample (one record
        # collection per shard, one exact draw per seed block, global-id
        # mapping).
        seeds = spawn_seeds(rng, num_shards)
        payload = {"ql": ql[live], "qr": qr[live], "alloc": alloc, "seeds": seeds}
        if index is not None:
            payload.update(fresh=fresh[live], dead=dead[live])
        per_shard = self._scatter("sample", self._with_deltas(payload))

        # Stage 3: scatter every shard's query-grouped ids into one
        # (n_live, s) matrix — query q's draws from shard k fill the columns
        # after those of shards 0..k-1 ...
        take = alloc.T.ravel()  # shard-major, the order of the concatenated ids
        row_start = np.arange(n_live, dtype=_ID)[:, None] * sample_size
        run_start = (row_start + np.cumsum(alloc, axis=1) - alloc).T.ravel()
        drawn = np.concatenate(per_shard)
        destination = np.repeat(run_start - (np.cumsum(take) - take), take)
        destination += np.arange(drawn.shape[0], dtype=_ID)
        merged = np.empty(n_live * sample_size, dtype=_ID)
        merged[destination] = drawn
        merged = merged.reshape(n_live, sample_size)
        # ... and shuffle each row: shards return draws grouped by shard and
        # record, and a uniform per-row permutation restores the exchangeable
        # i.i.d. law (same argument as FlatAIT.sample_many's row shuffle).
        rng.permuted(merged, axis=1, out=merged)

        out: list[np.ndarray] = [empty] * nq
        for row, query_index in enumerate(live):
            out[int(query_index)] = merged[row]
        return out

    # ------------------------------------------------------------------ #
    # scalar convenience wrappers
    # ------------------------------------------------------------------ #
    def count(self, query: QueryLike) -> int:
        """``|q ∩ X|`` for a single query."""
        return int(self.count_many([query])[0])

    def total_weight(self, query: QueryLike) -> float:
        """Total weight of ``q ∩ X`` for a single query."""
        return float(self.total_weight_many([query])[0])

    def report(self, query: QueryLike) -> np.ndarray:
        """Global ids of the intervals overlapping a single query."""
        return self.report_many([query])[0]

    def sample(
        self,
        query: QueryLike,
        sample_size: int,
        random_state: RandomState = None,
        on_empty: str = "empty",
    ) -> np.ndarray:
        """Draw ``sample_size`` i.i.d. samples from a single query's result set."""
        return self.sample_many([query], sample_size, random_state, on_empty)[0]
