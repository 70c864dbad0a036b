"""Reference figures for the README; not part of the benchmark runs.

    python3 perfbench/reference.py --requests 30

Run from the repository root.  Prints, as a markdown table, batch-1
decode tok/s of ``dense_engine`` against ``build_engine`` (sparse) on
the decode_b1 inputs for both benchmark models, and plain against
speculative serving (``SpecConfig()`` defaults) on the decode_b1 model
at batch 1.  Requests are served alternately by each engine, so slow
spells of a shared machine hit both sides alike.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from repro.core import build_batched_engine, build_engine, dense_engine  # noqa: E402
from repro.serving import ContinuousBatchingScheduler, Request, SpecConfig  # noqa: E402

import models  # noqa: E402
from workloads import DecodeB1  # noqa: E402


def decode_tok_s(records) -> float:
    """Decode-phase tokens per second: tokens after the first / their time."""
    tokens = sum(len(r.stamps) - 1 for r in records)
    seconds = sum(r.stamps[-1] - r.stamps[0] for r in records)
    return tokens / seconds


def engine_pair(workload, weights, specs) -> tuple:
    engines = {"dense": dense_engine(weights), "sparse": build_engine(weights)}
    served = {name: [] for name in engines}
    for spec in specs:
        for name, engine in engines.items():
            served[name].append(workload.serve(engine, spec))
    skip = engines["sparse"].mlp.stats.gate_skip_fraction
    same = sum(a.tokens == b.tokens
               for a, b in zip(served["dense"], served["sparse"]))
    return (decode_tok_s(served["dense"]), decode_tok_s(served["sparse"]),
            skip, same)


def serve_b1(engine, specs, speculation) -> tuple:
    sched = ContinuousBatchingScheduler(engine, speculation=speculation)
    t0 = time.perf_counter()
    for spec in specs:
        sched.submit(Request(spec.rid, spec.prompt, spec.max_new))
    while not sched.idle:
        sched.step()
    wall = time.perf_counter() - t0
    return sched.report.tokens_generated / wall, sched.report.acceptance_rate


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--requests", type=int, default=30)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    workload = DecodeB1(args.seed)
    specs = [workload.spec(i) for i in range(args.requests)]

    print("| model | dense tok/s | sparse tok/s | sparse / dense "
          "| predicted gate skip | requests with dense == sparse tokens |")
    print("| --- | --- | --- | --- | --- | --- |")
    for label, weights in (("decode_b1 (ProSparse-like)", workload.weights),
                           ("random ReLU", models.random_relu_weights())):
        dense, sparse, skip, same = engine_pair(workload, weights, specs)
        print(f"| {label} | {dense:.1f} | {sparse:.1f} | {sparse / dense:.2f}x "
              f"| {skip:.3f} | {same}/{len(specs)} |")

    print()
    print("| decode_b1 model, batch 1 | tok/s | acceptance |")
    print("| --- | --- | --- |")
    for label, spec_cfg in (("plain", None), ("speculative", SpecConfig())):
        engine = build_batched_engine(workload.weights, max_batch_size=1,
                                      max_seq_len=128, paged=True)
        tok_s, acceptance = serve_b1(engine, specs, spec_cfg)
        shown = f"{acceptance:.2f}" if spec_cfg is not None else "-"
        print(f"| {label} | {tok_s:.1f} | {shown} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
