"""Steadiness of the benchmark: repeat each workload in fresh processes.

    python3 perfbench/steady.py --runs 10 --first-seed 1
    python3 perfbench/steady.py --runs 5 --workloads serve_prefix

Run from the repository root.  Round ``r`` runs every workload once
with seed ``first_seed + r``, alternating the workload order from round
to round, one process at a time.  For every end-to-end metric it prints
the median, the quartiles (``statistics.quantiles(n=4)``), the
quartile spread ``(q3 - q1) / median`` next to the metric's bound in
``BENCHMARK.json``, and the max/min spread.  Raw results go to
``perfbench/out/steady-<first_seed>-<runs>.json``.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import quartile_spread  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads", default=",".join(names))
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = {w: [] for w in workloads}
    for r in range(args.runs):
        order = workloads if r % 2 == 0 else workloads[::-1]
        for workload in order:
            seed = args.first_seed + r
            out = run_once(workload, seed, args.seconds)
            results[workload].append(out)
            print(f"round {r} {workload} seed {seed}: attempted "
                  f"{out['attempted']} failed {out['failed']} "
                  f"correct {out['correct']}", flush=True)

    (HERE / "out").mkdir(exist_ok=True)
    raw = HERE / "out" / f"steady-{args.first_seed}-{args.runs}.json"
    raw.write_text(json.dumps(results, indent=1))
    print(f"\nraw results: {raw.relative_to(ROOT)}")
    print(f"{'workload':<12} {'metric':<28} {'median':>11} {'q1':>11} "
          f"{'q3':>11} {'iqr/med':>8} {'bound':>6} {'max/min':>8}")
    worst = 0.0
    for workload, outs in results.items():
        fails = {o["failed"] / o["attempted"] for o in outs}
        for name in outs[0]["metrics"]:
            values = [o["metrics"][name]["value"] for o in outs]
            med, q1, q3, spread = quartile_spread(values)
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                worst = max(worst, spread / bound)
                flag = " OVER" if spread > bound else (
                    " >1/3" if spread > bound / 3 else "")
            lo = min(values)
            ratio = max(values) / lo if lo else float("inf")
            print(f"{workload:<12} {name:<28} {med:>11.4f} {q1:>11.4f} "
                  f"{q3:>11.4f} {spread:>8.3f} "
                  f"{'' if bound is None else bound:>6} {ratio:>8.3f}{flag}")
        print(f"{workload:<12} failed share per run: {sorted(fails)}")
    print(f"\nlargest spread / bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
