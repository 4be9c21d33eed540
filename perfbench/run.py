"""Run one workload of the repository benchmark and print its result.

Usage, from the repository root::

    python3 perfbench/run.py --workload batch_read --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics.  Every output is checked for correctness.  The human
readable lines come first; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  A fuller record
(environment fingerprint, workload-specific metrics, problems, spans) is
written under ``.perfbench-out/``.  Exit code 0 means the outputs were
correct, 1 that a check failed, 2 that the benchmark could not run.
"""

from __future__ import annotations

import argparse
import gzip
import importlib.util
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _bootstrap() -> None:
    """Import ``repro`` from this checkout's ``src`` (and nowhere else)."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(info: dict) -> dict:
    import numpy
    import repro

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "repro": repro.__version__,
        "git_commit": _git_commit(),
        "kernel_backend": info.get("kernel_backend"),
        "executor": info.get("executor"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("batch_read", "serve_read", "write_mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int, default=None, help="override the workload's interval count (smoke runs)")
    args = parser.parse_args(argv)

    _bootstrap()
    from perfbench.workloads import END_TO_END, PER_LAYER, SIZES, WORKLOADS, Context, Outcome

    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    ctx = Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        size=args.size or SIZES[args.workload],
        root=ROOT,
        out_dir=out_dir,
    )
    outcome = Outcome()
    WORKLOADS[args.workload](ctx, outcome)
    outcome.metrics["ok_rate"] = outcome.ok_rate
    env = fingerprint(outcome.info)
    correct = not outcome.problems

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace} size {ctx.size}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, unit in END_TO_END:
        print(f"e2e {name} = {outcome.metrics[name]:.6g} {unit}")
    for name, (value, unit) in outcome.extra.items():
        print(f"e2e {name} = {value:.6g} {unit}")
    print(f"e2e error_rate = {outcome.failed / outcome.attempted:.6g} ratio ({outcome.failed} of {outcome.attempted})")
    if args.trace:
        for name, unit in PER_LAYER:
            print(f"layer {name} = {outcome.layers[name]:.6g} {unit}")
        gap = outcome.layers["trace.layer_sum_gap_pct"]
        print(f"check layer self times add up within 10% of end-to-end per op: {'PASS' if abs(gap) <= 10 else 'FAIL'} ({gap:+.2f}%)")
    for error in outcome.errors:
        print(f"error {error}")
    for problem in outcome.problems[:20]:
        print(f"MISMATCH {problem}")
    print(f"correctness checks: {'PASS' if correct else f'FAIL ({len(outcome.problems)} problems)'}")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": ctx.size,
        "env": env,
        "metrics": outcome.metrics,
        "extra": {name: value for name, (value, _) in outcome.extra.items()},
        "layers": outcome.layers,
        "info": outcome.info,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "errors": outcome.errors,
        "problems": outcome.problems[:100],
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if outcome.spans is not None:
        with gzip.open(out_dir / f"{stem}-spans.json.gz", "wt", compresslevel=1) as handle:
            json.dump(outcome.spans, handle)

    reported = PER_LAYER if args.trace else END_TO_END
    values = outcome.layers if args.trace else outcome.metrics
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in reported},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
