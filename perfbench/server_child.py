"""The serving process of the ``serve_read`` workload.

Builds ``HttpFrontend -> RequestGateway -> ShardedEngine`` on library
defaults over the same seeded dataset the load generator checks against,
then talks to its parent over stdin/stdout, one JSON object per line:

* on start it prints ``{"port", "gen_s", "index_bytes", ...}`` once the
  front end is bound (``gen_s`` is the input generation time, which the
  parent subtracts from set-up);
* ``trace on`` / ``trace off`` on stdin install / remove the span wrappers
  (answered with ``{"ok": true}``);
* ``stop`` (or end of input) drains the front end, closes the engine and
  prints the summary: peak RSS, gateway stats and, when traced, the spans
  plus one ``[request id, submit, engine start, done]`` record per request.

Run as ``python3 -m perfbench.server_child --size N --seed S --trace 0|1``
from the repository root with ``src`` importable.
"""

from __future__ import annotations

import argparse
import contextvars
import json
import math
import resource
import sys
import threading
import time

from perfbench.tracing import Patches, Tracer, install_layer_spans

_request_id: contextvars.ContextVar[int] = contextvars.ContextVar("request_id", default=-1)


class GatewaySpans:
    """Per-request gateway timing: submit, engine call start, completion."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.records: dict = {}  # future -> [request id, submit, engine start, done]
        self._batch = threading.local()

    def engine_started(self, args) -> None:
        now = time.perf_counter()
        requests = getattr(self._batch, "requests", ())
        for request in requests:
            record = self.records.get(request.future)
            if record is not None and math.isnan(record[2]):
                record[2] = now
        if requests:
            record = self.records.get(requests[0].future)
            self.tracer.request_id = record[0] if record is not None else -1

    def install(self, patches: Patches) -> None:
        from repro.service.gateway import RequestGateway
        from repro.service.server import HttpFrontend

        records = self.records
        batch = self._batch

        original_submit = RequestGateway.submit

        def submit(gateway, op, *args, **kwargs):
            submitted = time.perf_counter()
            future = original_submit(gateway, op, *args, **kwargs)
            record = [_request_id.get(), submitted, math.nan, math.nan]
            records[future] = record

            def done(_future, record=record) -> None:
                record[3] = time.perf_counter()

            future.add_done_callback(done)
            return future

        def batch_hook(original):
            def dispatch(gateway, requests, *args):
                batch.requests = requests
                try:
                    return original(gateway, requests, *args)
                finally:
                    batch.requests = ()

            return dispatch

        original_handle = HttpFrontend._handle_request

        async def handle(frontend, request, writer):
            try:
                token = _request_id.set(int(request["headers"].get("x-request-id", -1)))
            except ValueError:
                token = _request_id.set(-1)
            try:
                return await original_handle(frontend, request, writer)
            finally:
                _request_id.reset(token)

        patches.replace(RequestGateway, "submit", submit)
        for attr in ("_dispatch_reads", "_dispatch_samples"):
            patches.replace(RequestGateway, attr, batch_hook(getattr(RequestGateway, attr)))
        patches.replace(HttpFrontend, "_handle_request", handle)


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--size", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from repro.datasets import generate_paper_dataset
    from repro.service import HttpFrontend, RequestGateway, ShardedEngine

    started = time.perf_counter()
    dataset = generate_paper_dataset("btc", n=args.size, random_state=args.seed)
    gen_s = time.perf_counter() - started

    tracer = Tracer()
    gateway_spans = GatewaySpans(tracer)
    patches = None
    if args.trace:
        patches = install_layer_spans(tracer)
    engine = ShardedEngine(dataset)
    gateway = RequestGateway(engine)
    frontend = HttpFrontend(gateway)
    _host, port = frontend.start_in_thread()
    if patches is not None:
        patches.undo()
        patches = None
    _emit(
        {
            "port": port,
            "gen_s": gen_s,
            "index_bytes": engine.nbytes(),
            "kernel_backend": engine.kernel_backend,
            "executor": engine.executor_kind,
        }
    )

    for line in sys.stdin:
        command = line.strip()
        if command == "trace on" and args.trace:
            if patches is None:
                tracer.set_phase("loop")
                patches = install_layer_spans(tracer, engine_before=gateway_spans.engine_started)
                gateway_spans.install(patches)
            _emit({"ok": True})
        elif command == "trace off":
            if patches is not None:
                patches.undo()
                patches = None
            _emit({"ok": True})
        elif command == "stop":
            break
        else:
            _emit({"ok": False, "error": f"unexpected command {command!r}"})
    if patches is not None:
        patches.undo()
    frontend.close(timeout=30)
    engine.close()
    summary = {
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "gateway": gateway.stats(),
        "frontend": frontend.stats()["frontend"],
    }
    if args.trace:
        summary["spans"] = tracer.export()
        summary["requests"] = list(gateway_spans.records.values())
    _emit(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
