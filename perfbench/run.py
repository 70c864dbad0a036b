"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload decode_b1 --seed 1 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs an untraced reference phase, then a traced
phase with spans around each layer's public entry points, prints the
per-layer metrics and writes the spans to
``perfbench/out/<workload>-seed<seed>.trace.json``.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``;
per-request check failures go to standard error.
"""

import os

# Pin BLAS/OpenMP to one thread before NumPy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"

END_TO_END = {
    "setup_s": "s",
    "tok_s": "tok/s",
    "ttft_ms_p50": "ms",
    "tpot_ms_p50": "ms",
    "itl_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def end_to_end_metrics(phase, setup_seconds) -> dict:
    from metrics import (itl_gaps_ms, percentile, tpot_ms, ttft_ms,
                         windowed_p90)

    done = [s for s in phase.served if len(s.stamps) >= 2]
    return {
        "setup_s": statistics.median(setup_seconds),
        "tok_s": phase.tok_s,
        "ttft_ms_p50": percentile([ttft_ms(s.origin, s.stamps) for s in done], 50),
        "tpot_ms_p50": percentile([tpot_ms(s.stamps) for s in done], 50),
        "itl_ms_p90": windowed_p90(
            [g for s in done for g in itl_gaps_ms(s.stamps)]),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0),
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    from layers import PER_LAYER, instrument, layer_metrics
    from spans import SpanRecorder
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name](seed)
    setup_seconds = []

    def timed_setup():
        t0 = time.perf_counter()
        engine = workload.setup()
        setup_seconds.append(time.perf_counter() - t0)
        return engine

    engine = timed_setup()

    if trace:
        reference = workload.measure(engine, seconds / 2)
        (engine.sparse if hasattr(engine, "sparse") else engine.mlp).reset_stats()
        recorder = SpanRecorder()
        gauges = instrument(recorder, engine)
        workload.recorder = recorder
        try:
            phase = workload.measure(engine, seconds)
        finally:
            recorder.restore()
            workload.recorder = None
        overhead_pct = 100.0 * (
            (phase.wall_seconds / phase.tokens)
            / (reference.wall_seconds / reference.tokens) - 1.0)
        values = layer_metrics(recorder, engine, phase, gauges, overhead_pct)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        OUT_DIR.mkdir(exist_ok=True)
        recorder.write_chrome_trace(
            OUT_DIR / f"{workload_name}-seed{seed}.trace.json")
        phases = [reference, phase]
    else:
        # One more set-up after every round, so the set-up median samples
        # the whole run, as the per-round tok_s median does.
        phase = workload.measure(engine, seconds, between_rounds=timed_setup)
        phases = [phase]

    failed, errors = {}, []
    for checked in phases:
        bad, run_errors = workload.check(engine, checked)
        failed.update(bad)
        errors.extend(run_errors)
    for rid, reason in sorted(failed.items()):
        print(f"request {rid} failed: {reason}", file=sys.stderr)
    for reason in errors:
        print(f"run check failed: {reason}", file=sys.stderr)

    if not trace:
        values = end_to_end_metrics(phase, setup_seconds)
        units = END_TO_END
    return {
        "correct": not errors,
        "attempted": sum(len(p.served) for p in phases),
        "failed": len(failed),
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("decode_b1", "serve_batch", "serve_prefix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources ({SRC}) are missing; run from "
              "a full checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
