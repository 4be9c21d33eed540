#!/usr/bin/env python
"""Measure the write path end-to-end and emit BENCH_updates.json.

Usage::

    PYTHONPATH=src python scripts/bench_updates.py [--out BENCH_updates.json]

Three measurements per dataset size:

* **bulk_insert** — ``AIT.insert_many`` of n intervals into an empty tree vs
  a loop of scalar pooled inserts (the paper's Section III-D amortised path,
  one Python round-trip per interval).  The speedup column is the headline
  number of the write-path overhaul;
* **refresh** — apply ``--ops`` balanced writes (bulk insert + bulk delete)
  to an n-interval core ``AIT`` and re-snapshot it, checking via the tree's
  snapshot counters that ``AIT.flat()`` ran through the *incremental*
  dirty-node splice rather than a full ``FlatAIT.from_tree`` re-flatten (the
  script errors if a full rebuild was triggered while the delta is small
  relative to the tree).  The full-rebuild time is measured next to it for
  scale.  Engine shards do not use this path: they fold writes into a
  delta tier of inserts and tombstones and rebuild treelessly only when
  they compact;
* **mixed** — the ``update_throughput`` experiment's mixed read/write rounds
  (write ratio x shard count), reusing the same measurement helper.

The emitted payload is shape-validated before it is written, so a CI smoke
invocation at tiny sizes doubles as a schema regression test:

    {"config": {...}, "results": {"bulk_insert": [...], "refresh": [...],
      "mixed": [...]}}
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import AIT, IntervalDataset, ShardedEngine, __version__  # noqa: E402
from repro.core.flat import FlatAIT  # noqa: E402
from repro.datasets import generate_paper_dataset, generate_queries  # noqa: E402
from repro.experiments.exp_update_throughput import (  # noqa: E402
    WRITE_RATIOS,
    measure_mixed_round,
)


def _empty_tree() -> AIT:
    """An AIT with zero active intervals (built from a one-row seed)."""
    tree = AIT(IntervalDataset.from_pairs([(0.0, 1.0)]))
    tree.delete(0)
    return tree


def bench_bulk_insert(n: int, repeats: int) -> dict:
    """insert_many of n intervals into an empty AIT vs a scalar pooled loop."""
    rng = np.random.default_rng(7)
    lefts = rng.uniform(0.0, 1000.0, n)
    rights = lefts + rng.exponential(20.0, n)

    bulk_best = float("inf")
    for _ in range(max(1, repeats)):
        tree = _empty_tree()
        start = time.perf_counter()
        tree.insert_many(lefts, rights)
        bulk_best = min(bulk_best, time.perf_counter() - start)
        assert tree.size == n

    pairs = list(zip(lefts.tolist(), rights.tolist()))
    scalar_best = float("inf")
    for _ in range(max(1, repeats)):
        tree = _empty_tree()
        start = time.perf_counter()
        for pair in pairs:
            tree.insert(pair)
        tree.flush_pool()
        scalar_best = min(scalar_best, time.perf_counter() - start)
        assert tree.size == n

    speedup = scalar_best / bulk_best if bulk_best > 0 else float("inf")
    print(
        f"n={n:>7} bulk_insert   insert_many {bulk_best * 1e3:9.1f} ms   "
        f"scalar loop {scalar_best * 1e3:9.1f} ms   {speedup:6.1f}x"
    )
    return {
        "n": n,
        "bulk_seconds": round(bulk_best, 4),
        "scalar_seconds": round(scalar_best, 4),
        "speedup": round(speedup, 2),
    }


def bench_refresh(n: int, ops: int) -> dict:
    """Apply an ops-long delta to an n-interval core AIT; verify no full rebuild."""
    dataset = generate_paper_dataset("btc", n=n, random_state=1)
    tree = AIT(dataset)
    tree.flat()
    full_before = tree.snapshot_full_builds
    incremental_before = tree.snapshot_incremental_refreshes

    rng = np.random.default_rng(11)
    half = max(1, ops // 2)
    lo, hi = dataset.domain()
    lefts = rng.uniform(lo, hi, half)
    rights = lefts + rng.exponential((hi - lo) * 0.02, half)
    start = time.perf_counter()
    tree.insert_many(lefts, rights)
    tree.delete_many(rng.choice(n, size=half, replace=False))
    tree.flush_pool()
    tree.flat()
    refresh_seconds = time.perf_counter() - start

    full_delta = tree.snapshot_full_builds - full_before
    incremental_delta = tree.snapshot_incremental_refreshes - incremental_before
    # A delta this small relative to the tree must NOT trigger a full
    # re-flatten — the rebuild counter is the acceptance check.
    if n >= 20 * ops and full_delta != 0:
        raise AssertionError(
            f"refresh of a {ops}-op delta on a {n}-interval tree triggered "
            f"{full_delta} full FlatAIT rebuild(s); expected the incremental path"
        )

    start = time.perf_counter()
    FlatAIT.from_tree(tree)
    full_rebuild_seconds = time.perf_counter() - start
    print(
        f"n={n:>7} refresh       {ops} ops replayed in {refresh_seconds * 1e3:9.1f} ms   "
        f"(full re-flatten alone: {full_rebuild_seconds * 1e3:.1f} ms, "
        f"full_builds_delta={full_delta})"
    )
    return {
        "n": n,
        "ops": ops,
        "full_builds_delta": int(full_delta),
        "incremental_refreshes_delta": int(incremental_delta),
        "refresh_seconds": round(refresh_seconds, 4),
        "full_rebuild_seconds": round(full_rebuild_seconds, 4),
    }


def bench_mixed(n: int, query_count: int, shard_counts: list[int], rounds: int) -> list[dict]:
    """Mixed read/write rounds per (shards, write_ratio), like update_throughput."""
    dataset = generate_paper_dataset("btc", n=n, random_state=1)
    workload = generate_queries(dataset, count=query_count, extent_fraction=0.08, random_state=2)
    query_array = np.asarray(list(workload), dtype=np.float64)
    domain = dataset.domain()
    rows = []
    for shards in shard_counts:
        engine = ShardedEngine(dataset, num_shards=shards)
        engine.refresh()
        rng = np.random.default_rng(13 + shards)
        for write_ratio in WRITE_RATIOS:
            write_count = int(round(write_ratio * query_count))
            elapsed = 0.0
            writes = 0
            for _ in range(max(1, rounds)):
                round_elapsed, round_writes = measure_mixed_round(
                    engine, query_array, write_count, rng, domain
                )
                elapsed += round_elapsed
                writes += round_writes
            reads = max(1, rounds) * query_count
            row = {
                "n": n,
                "shards": shards,
                "write_ratio": write_ratio,
                "reads_per_sec": round(reads / elapsed, 1) if elapsed > 0 else 0.0,
                "writes_per_sec": round(writes / elapsed, 1) if elapsed > 0 and writes else 0.0,
                "ops_per_sec": round((reads + writes) / elapsed, 1) if elapsed > 0 else 0.0,
            }
            rows.append(row)
            print(
                f"n={n:>7} mixed         K={shards} ratio={write_ratio:<5}"
                f"  {row['reads_per_sec']:>10.0f} reads/s  {row['writes_per_sec']:>10.0f} writes/s"
            )
        engine.close()
    return rows


def validate_payload(payload: dict) -> None:
    """Assert the emitted JSON has the committed schema; raise on drift."""
    assert set(payload) == {"config", "results"}, "payload must have config + results"
    results = payload["results"]
    assert set(results) == {"bulk_insert", "refresh", "mixed"}, "unexpected result sections"
    for row in results["bulk_insert"]:
        assert {"n", "bulk_seconds", "scalar_seconds", "speedup"} <= set(row)
    for row in results["refresh"]:
        assert {
            "n",
            "ops",
            "full_builds_delta",
            "incremental_refreshes_delta",
            "refresh_seconds",
            "full_rebuild_seconds",
        } <= set(row)
    for row in results["mixed"]:
        assert {"n", "shards", "write_ratio", "reads_per_sec", "ops_per_sec"} <= set(row)
    assert results["bulk_insert"] and results["refresh"] and results["mixed"], (
        "every section must carry at least one row"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_updates.json",
        help="output JSON path (default: repo-root BENCH_updates.json)",
    )
    parser.add_argument("--sizes", type=int, nargs="+", default=[100_000], help="dataset sizes")
    parser.add_argument("--ops", type=int, default=1_000, help="delta-log length for refresh")
    parser.add_argument("--queries", type=int, default=1_000, help="queries per mixed round")
    parser.add_argument(
        "--shards", type=int, nargs="+", default=[1, 2, 4], help="shard counts for mixed rounds"
    )
    parser.add_argument("--rounds", type=int, default=3, help="mixed rounds per point")
    parser.add_argument("--repeats", type=int, default=2, help="best-of-N for bulk_insert")
    args = parser.parse_args(argv)

    bulk_rows = []
    refresh_rows = []
    mixed_rows = []
    for n in args.sizes:
        bulk_rows.append(bench_bulk_insert(n, args.repeats))
        refresh_rows.append(bench_refresh(n, args.ops))
        mixed_rows.extend(bench_mixed(n, args.queries, args.shards, args.rounds))

    payload = {
        "config": {
            "dataset": "btc (synthetic analogue)",
            "sizes": args.sizes,
            "ops": args.ops,
            "query_count": args.queries,
            "shard_counts": args.shards,
            "rounds": args.rounds,
            "repeats": args.repeats,
            "write_ratios": list(WRITE_RATIOS),
            "repro_version": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "results": {
            "bulk_insert": bulk_rows,
            "refresh": refresh_rows,
            "mixed": mixed_rows,
        },
    }
    validate_payload(payload)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
