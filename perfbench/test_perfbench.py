"""Self-tests for the benchmark's own checkers and command.

Run from the repository root with ``python3 -m pytest perfbench -q``.  They
show that the checks catch a corrupted count, an out-of-range or
non-overlapping sample id and a dropped acknowledged write, that a tiny
invocation of every workload completes, and that ``BENCHMARK.json`` lists
exactly the metrics the command prints.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.checks import LiveModel, check_counts, check_sample_batch, overlap_counts  # noqa: E402
from perfbench.workloads import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402
from repro import IntervalDataset  # noqa: E402
from repro.service import ShardedEngine  # noqa: E402


@pytest.fixture
def small():
    rng = np.random.default_rng(7)
    lefts = rng.uniform(0, 1000, 400)
    rights = lefts + rng.exponential(30, 400)
    ql = rng.uniform(0, 950, 50)
    qr = ql + 50
    return lefts, rights, ql, qr


def test_counts_checker_catches_a_corrupted_count(small):
    lefts, rights, ql, qr = small
    data = IntervalDataset.from_pairs(list(zip(lefts, rights)))
    with ShardedEngine(data) as engine:
        counts = engine.count_many(np.column_stack((ql, qr)))
    expected = overlap_counts(lefts, rights, np.column_stack((ql, qr)))
    assert check_counts(counts, expected, "count") == []
    counts[3] += 1
    assert check_counts(counts, expected, "count")


def test_sample_checker_catches_bad_ids(small):
    lefts, rights, ql, qr = small
    data = IntervalDataset.from_pairs(list(zip(lefts, rights)))
    with ShardedEngine(data) as engine:
        rows = engine.sample_many(np.column_stack((ql, qr)), 20, random_state=1)
    expected = overlap_counts(lefts, rights, np.column_stack((ql, qr)))
    args = (ql, qr, expected, 20, lefts, rights)
    assert check_sample_batch(rows, *args) == []
    live = int(np.flatnonzero(expected)[0])

    out_of_range = [row.copy() for row in rows]
    out_of_range[live][0] = lefts.shape[0]
    assert "out of range" in check_sample_batch(out_of_range, *args)[0]

    far = int(np.argmax(lefts))
    elsewhere = [row.copy() for row in rows]
    elsewhere[live][0] = far if lefts[far] > qr[live] else int(np.argmin(rights))
    assert "does not overlap" in check_sample_batch(elsewhere, *args)[0]

    short = [row.copy() for row in rows]
    short[live] = short[live][:-1]
    assert check_sample_batch(short, *args)


def test_live_model_tracks_writes(small):
    lefts, rights, ql, qr = small
    model = LiveModel(lefts, rights, ql, qr)
    rng = np.random.default_rng(3)
    for new_id in range(lefts.shape[0], lefts.shape[0] + 900):
        left = rng.uniform(0, 1000)
        model.insert(new_id, left, left + 10)
        model.delete(model.pick_live(rng))
    assert model.active == lefts.shape[0]
    np.testing.assert_array_equal(model.recount(), model.counts)


def test_a_dropped_acknowledged_write_is_caught(small, tmp_path):
    lefts, rights, _, _ = small
    ql, qr = np.array([-1.0, 400.0]), np.array([2000.0, 600.0])
    data = IntervalDataset.from_pairs(list(zip(lefts, rights)))
    model = LiveModel(lefts, rights, ql, qr)
    engine = ShardedEngine(data)
    engine.save_snapshot(tmp_path)
    wal_sizes = {}
    for left in (100.0, 450.0, 500.0):
        wal_sizes = {path: os.path.getsize(path) for path in glob.glob(str(tmp_path / "wal-*.log"))}
        new_id = int(engine.insert_many([left], [left + 5.0])[0])
        engine.sync_wal()  # the acknowledgement barrier
        model.insert(new_id, left, left + 5.0)
    engine.close()

    reopened = ShardedEngine.open(tmp_path)
    assert check_counts(reopened.count_many(np.column_stack((ql, qr))), model.counts, "reopen") == []
    reopened.close()

    # Drop the last acknowledged write from its WAL, as a lossy store would.
    for path, size in wal_sizes.items():
        if os.path.getsize(path) > size:
            os.truncate(path, size)
    lossy = ShardedEngine.open(tmp_path)
    assert check_counts(lossy.count_many(np.column_stack((ql, qr))), model.counts, "reopen")
    lossy.close()


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_invocation_completes(workload, trace):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "3000"])
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] == expected
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_matches_the_command():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    details = json.loads((ROOT / "perfbench" / "spec.json").read_text())
    assert set(details["workloads"]) == set(WORKLOADS)
    assert {p["layer_metric"] for p in details["predictions"]} <= {name for name, _ in PER_LAYER}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "batch_read", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
