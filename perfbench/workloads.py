"""The benchmark's three workloads: ``batch_read``, ``serve_read``, ``write_mix``.

Each workload builds its inputs from the seed, sets the system up on its
library defaults, runs a closed loop for the requested time and checks every
output.  Untraced runs report the end-to-end metrics; traced runs alternate untraced
and traced rounds (or one-second slices when serving over HTTP) and report
per-layer metrics plus the tracing overhead (see ``perfbench/spec.json`` for what each metric
means and which metric each layer should move).
"""

from __future__ import annotations

import asyncio
import gc
import glob
import itertools
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from perfbench.checks import LiveModel, check_counts, check_sample_batch, overlap_counts
from perfbench.tracing import Tracer, install_layer_spans, summarize

SIZES = {"batch_read": 1_000_000, "serve_read": 100_000, "write_mix": 100_000}
POOL_SIZE = 1000
EXTENT_FRACTION = 0.08
SETUP_REPEATS = 3
BATCH_SAMPLE_SIZE = 1000
SERVE_SAMPLE_SIZE = 100
SERVE_SAMPLE_SHARE = 0.8
SERVE_CONNECTIONS = 2
MIX_SAMPLE_SIZE = 100
MIX_WRITES_PER_ROUND = 25
#: Bytes a caller hands over per write batch: one inserted interval's two
#: float64 endpoints plus one deleted int64 id.
MIX_USER_BYTES_PER_WRITE = 24
HTTP_TIMEOUT_S = 10.0
#: Length of one untraced or traced slice of a traced ``serve_read`` run.
HTTP_SLICE_S = 1.0

#: (name, unit) of every end-to-end metric, reported by every workload.
END_TO_END = [
    ("setup_s", "s"),
    ("read_qps", "1/s"),
    ("sample_p50_ms", "ms"),
    ("count_p50_ms", "ms"),
    ("index_mb", "MB"),
    ("peak_rss_mb", "MB"),
    ("ok_rate", "ratio"),
]

#: (name, unit) of every per-layer metric, reported by every traced run.
#: Times and counts are per workload operation of the traced rounds.
PER_LAYER = [
    ("server.self_ms", "ms"),
    ("gateway.wait_ms", "ms"),
    ("gateway.batch_size", "count"),
    ("engine.self_ms", "ms"),
    ("executor.scatter_ms", "ms"),
    ("executor.self_ms", "ms"),
    ("kernels.descend_many_ms", "ms"),
    ("kernels.descend_many_calls", "count"),
    ("kernels.rank_search_ms", "ms"),
    ("kernels.rank_search_calls", "count"),
    ("kernels.count_node_ms", "ms"),
    ("kernels.count_node_calls", "count"),
    ("kernels.multinomial_draw_ms", "ms"),
    ("kernels.multinomial_draw_calls", "count"),
    ("kernels.draw_efficiency", "ratio"),
    ("shard.refresh_ms", "ms"),
    ("shard.rebuilds", "count"),
    ("core.replay_ms", "ms"),
    ("core.flat_ms", "ms"),
    ("setup.core_flat_s", "s"),
    ("persist.wal_append_ms", "ms"),
    ("persist.wal_sync_ms", "ms"),
    ("persist.wal_syncs", "count"),
    ("persist.wal_bytes_per_user_byte", "ratio"),
    ("persist.open_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.layer_sum_gap_pct", "%"),
]


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    size: int
    root: Path
    out_dir: Path


@dataclass
class Inputs:
    dataset: object
    lefts: np.ndarray
    rights: np.ndarray
    ql: np.ndarray
    qr: np.ndarray
    expected: np.ndarray
    dataset_seed: int
    loop_seed: int

    @property
    def queries(self) -> np.ndarray:
        return np.column_stack((self.ql, self.qr))


def make_inputs(size: int, seed: int) -> Inputs:
    """The seeded ``btc`` analogue, its 1,000-query pool and the exact counts."""
    from repro.datasets import generate_paper_dataset, generate_queries

    dataset_seed, query_seed, loop_seed = (
        int(x) for x in np.random.SeedSequence(seed).generate_state(3)
    )
    dataset = generate_paper_dataset("btc", n=size, random_state=dataset_seed)
    pool = np.asarray(
        generate_queries(
            dataset, count=POOL_SIZE, extent_fraction=EXTENT_FRACTION, random_state=query_seed
        ).queries,
        dtype=np.float64,
    )
    lefts, rights = dataset.lefts, dataset.rights
    ql, qr = pool[:, 0].copy(), pool[:, 1].copy()
    return Inputs(dataset, lefts, rights, ql, qr, overlap_counts(lefts, rights, pool), dataset_seed, loop_seed)


@dataclass
class Outcome:
    """Everything one run measured, checked and counted."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    #: Workload-specific numbers printed by name (value, unit), not gated.
    extra: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    spans: Optional[dict] = None

    def fail(self, exc: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{type(exc).__name__}: {exc}")

    @property
    def ok_rate(self) -> float:
        return 1.0 - self.failed / self.attempted if self.attempted else 0.0


class LoopStats:
    """Per-kind call times of one loop phase, and the time of each loop round."""

    def __init__(self) -> None:
        self.times: dict[str, list] = defaultdict(list)
        self.rounds: list[float] = []
        self.queries = 0
        self.busy = 0.0
        self._round = 0.0

    def add(self, kind: str, seconds: float, queries: int = 0) -> None:
        self.times[kind].append(seconds)
        self.busy += seconds
        self.queries += queries
        self._round += seconds

    def end_round(self) -> None:
        self.rounds.append(self._round)
        self._round = 0.0

    def round_qps(self, queries_per_round: int) -> float:
        """Read queries per second of a median round (its writes included)."""
        return queries_per_round / float(np.median(self.rounds))

    @property
    def ops(self) -> int:
        return sum(len(v) for v in self.times.values())

    def p50_ms(self, kind: str) -> float:
        return float(np.median(self.times[kind])) * 1e3

    def busy_at(self, other: "LoopStats") -> float:
        """Seconds this phase's calls would take at ``other``'s mean time per kind."""
        return sum(len(times) * float(np.mean(other.times[kind])) for kind, times in self.times.items())


def http_slices(ctx: Context) -> list[str]:
    """``serve_read`` loop slices of ``HTTP_SLICE_S`` each: all untraced, or alternating."""
    count = max(2, round(ctx.seconds / HTTP_SLICE_S)) if ctx.trace else 1
    return ["traced" if ctx.trace and k % 2 else "plain" for k in range(count)]


def build_repeatedly(ctx: Context, tracer: Optional[Tracer], build, close):
    """Set up ``SETUP_REPEATS`` times (once, traced, when tracing); keep the last."""
    times = []
    current = None
    for _ in range(1 if ctx.trace else SETUP_REPEATS):
        if current is not None:
            close(current)
            current = None
            gc.collect()
        patches = install_layer_spans(tracer) if tracer is not None else None
        try:
            started = time.perf_counter()
            current = build()
            times.append(time.perf_counter() - started)
        finally:
            if patches is not None:
                patches.undo()
    return current, float(np.median(times))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def timed(outcome: Outcome, fn, *args, **kwargs):
    """Call ``fn`` once as one attempted operation; return (result or None, seconds)."""
    outcome.attempted += 1
    started = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # counted as a failed operation, the loop goes on
        outcome.fail(exc)
        return None, time.perf_counter() - started
    return result, time.perf_counter() - started


def run_loop(ctx: Context, tracer: Optional[Tracer], step, on_traced=None) -> dict[str, LoopStats]:
    """Run ``step(stats, i)`` rounds for ``ctx.seconds``.

    Untraced runs put every round in ``"plain"``.  Traced runs alternate an
    untraced and a traced round, so both kinds see the same machine; the
    traced ones run with the layer wrappers installed, between
    ``on_traced("start")`` and ``on_traced("end")``.
    """
    phases = {"plain": LoopStats()}
    if ctx.trace:
        phases["traced"] = LoopStats()
        tracer.set_phase("loop")
    deadline = time.perf_counter() + ctx.seconds
    for i in itertools.count():
        if i >= len(phases) and time.perf_counter() >= deadline:
            return phases
        traced = ctx.trace and i % 2 == 1
        patches = None
        if traced:
            patches = install_layer_spans(tracer)
            if on_traced is not None:
                on_traced("start")
        try:
            step(phases["traced" if traced else "plain"], i)
        finally:
            if patches is not None:
                patches.undo()
                if on_traced is not None:
                    on_traced("end")


def layer_metrics(export: dict, plain: LoopStats, traced: LoopStats, layer_sum_s: float) -> dict:
    """The per-layer metrics shared by every workload (the rest default to 0).

    Tracing overhead compares the traced rounds' call time with what the same
    calls cost untraced (the untraced rounds' mean per kind); the layer-sum
    gap compares the traced layers' summed self times with that baseline.
    """
    ops = traced.ops
    baseline_s = traced.busy_at(plain)
    loop = summarize(export, "loop")
    counters = export["counters"].get("loop", {})
    metrics = {name: 0.0 for name, _ in PER_LAYER}

    def per_op(name: str, key: str = "self_s", scale: float = 1e3) -> float:
        return loop.get(name, {}).get(key, 0.0) * scale / ops

    metrics["engine.self_ms"] = per_op("engine.read")
    metrics["executor.scatter_ms"] = per_op("executor.scatter", "total_s")
    metrics["executor.self_ms"] = per_op("executor.scatter")
    for kernel in ("descend_many", "rank_search", "count_node", "multinomial_draw"):
        metrics[f"kernels.{kernel}_ms"] = per_op(f"kernels.{kernel}")
        metrics[f"kernels.{kernel}_calls"] = per_op(f"kernels.{kernel}", "calls", 1.0)
    drawn = counters.get("kernels.samples_drawn", 0.0)
    if drawn:
        metrics["kernels.draw_efficiency"] = counters.get("engine.samples_returned", 0.0) / drawn
    metrics["shard.refresh_ms"] = per_op("shard.refresh")
    metrics["shard.rebuilds"] = counters.get("shard.rebuilds", 0.0) / ops
    metrics["core.replay_ms"] = per_op("core.replay")
    metrics["core.flat_ms"] = per_op("core.flat")
    metrics["setup.core_flat_s"] = summarize(export, "setup").get("core.flat", {}).get("total_s", 0.0)
    metrics["persist.wal_append_ms"] = per_op("persist.wal_append")
    metrics["persist.wal_sync_ms"] = per_op("persist.wal_sync")
    metrics["persist.wal_syncs"] = counters.get("persist.wal_syncs", 0.0) / ops
    metrics["trace.overhead_pct"] = (traced.busy / baseline_s - 1.0) * 100.0
    metrics["trace.layer_sum_gap_pct"] = (layer_sum_s / baseline_s - 1.0) * 100.0
    return metrics


def _self_time_sum(export: dict) -> float:
    """Sum of all self times in the traced loop (seconds)."""
    return sum(entry["self_s"] for entry in summarize(export, "loop").values())


# ---------------------------------------------------------------------- #
# batch_read
# ---------------------------------------------------------------------- #
def batch_read(ctx: Context, out: Outcome) -> None:
    from repro.service import ShardedEngine

    inputs = make_inputs(ctx.size, ctx.seed)
    queries = inputs.queries
    tracer = Tracer() if ctx.trace else None
    engine, setup_s = build_repeatedly(
        ctx, tracer, lambda: ShardedEngine(inputs.dataset), lambda engine: engine.close()
    )
    out.info.update(kernel_backend=engine.kernel_backend, executor=engine.executor_kind)
    rng = np.random.default_rng(inputs.loop_seed)

    def step(stats: LoopStats, i: int) -> None:
        """One round: a sample batch, then a count batch, over the query pool."""
        rows, seconds = timed(out, engine.sample_many, queries, BATCH_SAMPLE_SIZE, random_state=rng)
        if rows is not None:
            stats.add("sample", seconds, POOL_SIZE)
            out.problems += check_sample_batch(
                rows, inputs.ql, inputs.qr, inputs.expected, BATCH_SAMPLE_SIZE,
                inputs.lefts, inputs.rights, label="sample_many",
            )
        counts, seconds = timed(out, engine.count_many, queries)
        if counts is not None:
            stats.add("count", seconds, POOL_SIZE)
            out.problems += check_counts(counts, inputs.expected, "count_many")
        stats.end_round()

    try:
        index_mb = engine.nbytes() / 1e6
        phases = run_loop(ctx, tracer, step)
    finally:
        engine.close()
    plain = phases["plain"]
    out.info["op_times_ms"] = {kind: [t * 1e3 for t in times] for kind, times in plain.times.items()}
    out.metrics.update(
        setup_s=setup_s,
        read_qps=plain.round_qps(2 * POOL_SIZE),
        sample_p50_ms=plain.p50_ms("sample"),
        count_p50_ms=plain.p50_ms("count"),
        index_mb=index_mb,
        peak_rss_mb=peak_rss_mb(),
    )
    out.extra.update(
        sample_qps=(POOL_SIZE * len(plain.times["sample"]) / sum(plain.times["sample"]), "1/s"),
        count_qps=(POOL_SIZE * len(plain.times["count"]) / sum(plain.times["count"]), "1/s"),
    )
    if ctx.trace:
        traced = phases["traced"]
        out.spans = tracer.export()
        out.layers = layer_metrics(out.spans, plain, traced, _self_time_sum(out.spans))


# ---------------------------------------------------------------------- #
# serve_read
# ---------------------------------------------------------------------- #
class ServerProcess:
    """The ``serve_read`` server child and its stdin/stdout control channel."""

    def __init__(self, ctx: Context, dataset_seed: int) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ctx.root / "src"), str(ctx.root)])
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "perfbench.server_child",
                "--size", str(ctx.size), "--seed", str(dataset_seed), "--trace", str(int(ctx.trace)),
            ],
            cwd=ctx.root,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            self.hello = self._read()
        except BaseException:
            self.kill()
            raise
        self.port = int(self.hello["port"])

    def _read(self) -> dict:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"server child exited with code {self.process.wait(timeout=30)}")
        return json.loads(line)

    def command(self, text: str) -> dict:
        self.process.stdin.write(text + "\n")
        self.process.stdin.flush()
        reply = self._read()
        if not reply.get("ok"):
            raise RuntimeError(f"server child refused {text!r}: {reply}")
        return reply

    def wait_ready(self, timeout: float = 60.0) -> None:
        from repro.service.server import http_request

        deadline = time.perf_counter() + timeout
        while True:
            try:
                status, _, _ = http_request("127.0.0.1", self.port, "GET", "/readyz", timeout=5.0)
            except OSError:
                status = 0
            if status == 200:
                return
            if time.perf_counter() > deadline:
                raise RuntimeError("server child never became ready")
            time.sleep(0.002)

    def stop(self) -> dict:
        self.process.stdin.write("stop\n")
        self.process.stdin.flush()
        summary = self._read()
        self.process.stdin.close()
        self.process.wait(timeout=60)
        self.process.stdout.close()
        return summary

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait(timeout=60)
        for stream in (self.process.stdin, self.process.stdout):
            if stream is not None and not stream.closed:
                stream.close()


async def _read_response(reader: asyncio.StreamReader) -> tuple[int, bytes]:
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        key, _, value = line.decode("latin-1").partition(":")
        if key.strip().lower() == "content-length":
            length = int(value)
    return status, await reader.readexactly(length)


async def _http_load(port: int, inputs: Inputs, seconds: float, seed: int, rids) -> tuple[list, float]:
    """Closed loop over ``SERVE_CONNECTIONS`` keep-alive connections.

    Returns one ``(request id, kind, query index, status, seconds, body)``
    record per request and the phase's wall time.
    """
    records: list = []
    started = time.perf_counter()
    deadline = started + seconds

    async def connection(k: int) -> None:
        rng = np.random.default_rng([seed, k])
        reader = writer = None
        try:
            while time.perf_counter() < deadline:
                if writer is None:
                    reader, writer = await asyncio.open_connection("127.0.0.1", port)
                kind = "sample" if rng.random() < SERVE_SAMPLE_SHARE else "count"
                qi = int(rng.integers(POOL_SIZE))
                body = {"query": [float(inputs.ql[qi]), float(inputs.qr[qi])]}
                if kind == "sample":
                    body["sample_size"] = SERVE_SAMPLE_SIZE
                payload = json.dumps(body).encode()
                rid = next(rids)
                head = (
                    f"POST /{kind} HTTP/1.1\r\nHost: bench\r\nContent-Length: {len(payload)}\r\n"
                    f"X-Request-Id: {rid}\r\n\r\n"
                ).encode()
                t0 = time.perf_counter()
                try:
                    writer.write(head + payload)
                    await writer.drain()
                    status, answer = await asyncio.wait_for(_read_response(reader), HTTP_TIMEOUT_S)
                except (OSError, asyncio.IncompleteReadError, asyncio.TimeoutError, ValueError, IndexError) as exc:
                    records.append((rid, kind, qi, 0, time.perf_counter() - t0, repr(exc).encode()))
                    writer.close()
                    reader = writer = None
                    continue
                records.append((rid, kind, qi, status, time.perf_counter() - t0, answer))
        finally:
            if writer is not None:
                writer.close()
                try:
                    await writer.wait_closed()
                except OSError:
                    pass

    await asyncio.gather(*(connection(k) for k in range(SERVE_CONNECTIONS)))
    return records, time.perf_counter() - started


def serve_read(ctx: Context, out: Outcome) -> None:
    inputs = make_inputs(ctx.size, ctx.seed)
    servers: list[ServerProcess] = []
    try:
        times = []
        for _ in range(1 if ctx.trace else SETUP_REPEATS):
            if servers:
                servers[-1].stop()
            started = time.perf_counter()
            servers.append(ServerProcess(ctx, inputs.dataset_seed))
            servers[-1].wait_ready()
            times.append(time.perf_counter() - started - servers[-1].hello["gen_s"])
        setup_s = float(np.median(times))
        server = servers[-1]
        out.info.update(kernel_backend=server.hello["kernel_backend"], executor=server.hello["executor"])
        rids = itertools.count()
        slices = http_slices(ctx)
        phases = {label: ([], 0.0) for label in slices}
        for k, label in enumerate(slices):
            if ctx.trace:
                server.command("trace on" if label == "traced" else "trace off")
            seconds = HTTP_SLICE_S if ctx.trace else ctx.seconds
            records, wall = asyncio.run(_http_load(server.port, inputs, seconds, [inputs.loop_seed, k], rids))
            phases[label] = (phases[label][0] + records, phases[label][1] + wall)
        summary = server.stop()
    finally:
        for each in servers:
            each.kill()

    for records, _ in phases.values():
        _check_http(records, inputs, out)
    records, wall = phases["plain"]
    plain = _http_stats(records)
    latencies = np.asarray([r[4] for r in records if r[3] == 200]) * 1e3
    out.metrics.update(
        setup_s=setup_s,
        read_qps=len(latencies) / wall,
        sample_p50_ms=plain.p50_ms("sample"),
        count_p50_ms=plain.p50_ms("count"),
        index_mb=server.hello["index_bytes"] / 1e6,
        peak_rss_mb=summary["peak_rss_kb"] * 1024 / 1e6,
    )
    out.extra.update(
        http_rps=(len(latencies) / wall, "1/s"),
        http_p50_ms=(float(np.percentile(latencies, 50)), "ms"),
        http_p99_ms=(float(np.percentile(latencies, 99)), "ms"),
        http_requests=(len(records), "count"),
    )
    out.info["gateway_batches"] = summary["gateway"]["batches"]
    if ctx.trace:
        _serve_layers(out, plain, phases["traced"][0], summary)


def _http_stats(records: list) -> LoopStats:
    stats = LoopStats()
    for _, kind, _, status, seconds, _ in records:
        if status == 200:
            stats.add(kind, seconds, 1)
    return stats


def _check_http(records: list, inputs: Inputs, out: Outcome) -> None:
    for rid, kind, qi, status, _, body in records:
        out.attempted += 1
        if status != 200:
            out.failed += 1
            if len(out.errors) < 5:
                out.errors.append(f"request {rid} /{kind}: status {status} {body[:200]!r}")
            continue
        result = json.loads(body)["result"]
        label = f"request {rid} /{kind} query {qi}"
        if kind == "count":
            if result != int(inputs.expected[qi]):
                out.problems.append(f"{label}: counted {result}, expected {int(inputs.expected[qi])}")
        else:
            out.problems += check_sample_batch(
                [result], inputs.ql[qi : qi + 1], inputs.qr[qi : qi + 1], inputs.expected[qi : qi + 1],
                SERVE_SAMPLE_SIZE, inputs.lefts, inputs.rights, label=label,
            )


def _serve_layers(out: Outcome, plain: LoopStats, traced_records: list, summary: dict) -> None:
    """Per-layer metrics of the traced slices of a ``serve_read`` run.

    A request's gateway span runs from ``submit`` until its future is done
    and holds its queue wait and its batch's engine call (engine, executor,
    kernels); the server's self time is the client latency minus that span.
    """
    out.spans = summary["spans"]
    gateway = {int(rec[0]): rec for rec in summary["requests"]}
    server_self, waits, attributed = [], [], 0.0
    for rid, _, _, status, seconds, _ in traced_records:
        rec = gateway.get(rid)
        if status != 200 or rec is None or not np.isfinite(rec[3]):
            continue
        span = rec[3] - rec[1]
        server_self.append(seconds - span)
        if np.isfinite(rec[2]):
            waits.append(rec[2] - rec[1])
        attributed += server_self[-1] + span
    out.layers = layer_metrics(out.spans, plain, _http_stats(traced_records), attributed)
    out.layers["server.self_ms"] = float(np.median(server_self)) * 1e3 if server_self else 0.0
    out.layers["gateway.wait_ms"] = float(np.median(waits)) * 1e3 if waits else 0.0
    out.layers["gateway.batch_size"] = float(summary["gateway"]["batches"]["mean_size"])


# ---------------------------------------------------------------------- #
# write_mix
# ---------------------------------------------------------------------- #
def _wal_bytes(directory: str) -> int:
    return sum(os.path.getsize(path) for path in glob.glob(os.path.join(directory, "wal-*.log")))


def write_mix(ctx: Context, out: Outcome) -> None:
    from repro.service import ShardedEngine

    inputs = make_inputs(ctx.size, ctx.seed)
    queries = inputs.queries
    base_model = LiveModel(inputs.lefts, inputs.rights, inputs.ql, inputs.qr)
    lengths = inputs.rights - inputs.lefts
    domain_lo, domain_hi = float(inputs.lefts.min()), float(inputs.rights.max())
    rng = np.random.default_rng(inputs.loop_seed)
    tracer = Tracer() if ctx.trace else None
    ctx.out_dir.mkdir(parents=True, exist_ok=True)

    def write_batch(engine, model: LiveModel, stats: LoopStats) -> bool:
        """One acknowledged write batch: insert + delete of a live id + WAL sync."""
        victim = model.pick_live(rng)
        left = float(rng.uniform(domain_lo, domain_hi))
        right = left + float(lengths[rng.integers(lengths.shape[0])])

        def ack():
            new_ids = engine.insert_many([left], [right])
            deleted = engine.delete_many([victim])
            engine.sync_wal()
            return new_ids, deleted

        result, seconds = timed(out, ack)
        if result is None:
            return False
        stats.add("write", seconds)
        new_ids, deleted = result
        model.insert(int(new_ids[0]), left, right)
        if deleted[0]:
            model.delete(victim)
        else:
            out.problems.append(f"delete of live id {victim} was refused")
        return True

    def read_round(engine, model: LiveModel, stats: LoopStats, label: str) -> None:
        rows, seconds = timed(out, engine.sample_many, queries, MIX_SAMPLE_SIZE, random_state=rng)
        if rows is not None:
            stats.add("sample", seconds, POOL_SIZE)
            out.problems += check_sample_batch(
                rows, inputs.ql, inputs.qr, model.counts, MIX_SAMPLE_SIZE,
                model.lefts[: model.size], model.rights[: model.size], model.live[: model.size],
                label=f"{label} sample_many",
            )
        counts, seconds = timed(out, engine.count_many, queries)
        if counts is not None:
            stats.add("count", seconds, POOL_SIZE)
            out.problems += check_counts(counts, model.counts, f"{label} count_many")

    def round_(engine, model: LiveModel, stats: LoopStats, label: str) -> None:
        for _ in range(MIX_WRITES_PER_ROUND):
            if not write_batch(engine, model, stats):
                break
        read_round(engine, model, stats, label)
        stats.end_round()

    def build():
        directory = tempfile.mkdtemp(prefix="write_mix-", dir=ctx.out_dir)
        model = base_model.copy()
        engine = ShardedEngine(inputs.dataset)
        engine.save_snapshot(directory)
        round_(engine, model, LoopStats(), "warm-up")
        return engine, model, directory

    def close(state) -> None:
        engine, _, directory = state
        engine.close()
        shutil.rmtree(directory, ignore_errors=True)

    (engine, model, directory), setup_s = build_repeatedly(ctx, tracer, build, close)
    try:
        out.info.update(
            kernel_backend=engine.kernel_backend,
            executor=engine.executor_kind,
            wal_fsync=engine.shards[0].wal.fsync_policy,
        )
        index_mb = engine.nbytes() / 1e6
        wal_growth = {"start": 0, "bytes": 0}

        def mark(event: str) -> None:
            size = _wal_bytes(directory)
            if event == "end":
                wal_growth["bytes"] += size - wal_growth["start"]
            wal_growth["start"] = size

        phases = run_loop(ctx, tracer, lambda stats, i: round_(engine, model, stats, "loop"), on_traced=mark)
        engine.close()

        # Recovery: reopen from the checkpoint + WAL chain, first read answered.
        patches = None
        if tracer is not None:
            tracer.set_phase("recover")
            patches = install_layer_spans(tracer)
        recovered = None
        try:
            out.attempted += 1
            started = time.perf_counter()
            if tracer is not None:
                span = tracer.start("persist.open")
            try:
                recovered = ShardedEngine.open(directory)
            finally:
                if tracer is not None:
                    tracer.end(span)
            counts = recovered.count_many(queries)
            recover_s = time.perf_counter() - started
        except Exception as exc:
            out.fail(exc)
            recover_s = float("nan")
            counts = None
        finally:
            if patches is not None:
                patches.undo()
        if counts is not None:
            out.problems += check_counts(counts, model.counts, "after reopen count_many")
            if recovered.size != model.active:
                out.problems.append(f"after reopen: {recovered.size} live intervals, model has {model.active}")
            read_round(recovered, model, LoopStats(), "after reopen")
        out.problems += check_counts(model.recount(), model.counts, "live-set model recount")
        if recovered is not None:
            recovered.close()
    finally:
        engine.close()
        shutil.rmtree(directory, ignore_errors=True)

    plain = phases["plain"]
    out.info["op_times_ms"] = {kind: [t * 1e3 for t in times] for kind, times in plain.times.items()}
    out.metrics.update(
        setup_s=setup_s,
        read_qps=plain.round_qps(2 * POOL_SIZE),
        sample_p50_ms=plain.p50_ms("sample"),
        count_p50_ms=plain.p50_ms("count"),
        index_mb=index_mb,
        peak_rss_mb=peak_rss_mb(),
    )
    out.extra.update(
        mix_read_qps=(plain.queries / plain.busy, "1/s"),
        write_ack_p50_ms=(plain.p50_ms("write"), "ms"),
        write_batches=(len(plain.times["write"]), "count"),
        recover_s=(recover_s, "s"),
    )
    if ctx.trace:
        traced = phases["traced"]
        out.spans = tracer.export()
        out.layers = layer_metrics(out.spans, plain, traced, _self_time_sum(out.spans))
        writes = len(traced.times["write"])
        if writes:
            out.layers["persist.wal_bytes_per_user_byte"] = (
                wal_growth["bytes"] / (writes * MIX_USER_BYTES_PER_WRITE)
            )
        out.layers["persist.open_s"] = summarize(out.spans, "recover").get("persist.open", {}).get("total_s", 0.0)


WORKLOADS = {"batch_read": batch_read, "serve_read": serve_read, "write_mix": write_mix}
