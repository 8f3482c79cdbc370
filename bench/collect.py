"""Run the benchmark over several seeds and summarize the run-to-run spread.

    python3 bench/collect.py --workloads sweep,paper --seeds 1-10 --seconds 25 [--out FILE]

For every metric of every workload it prints the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median over the
seeds, and checks that each seed's runs all passed their checks.  With
--out it writes the per-seed results (named metrics, exact counts, output
digests, environment) and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seeds_arg(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"line": line, "detail": detail}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="deep-search,sweep,field-queries,paper")
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    document = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    all_correct = True
    for workload in args.workloads.split(","):
        runs = {}
        for seed in args.seeds:
            run = run_once(workload, seed, args.seconds, args.trace)
            runs[seed] = run
            line = run["line"]
            all_correct &= line["correct"] and line["failed"] == 0
            shown = {k: round(v["value"], 4) for k, v in line["metrics"].items()} if not args.trace else ""
            print(f"{workload} seed {seed}: correct={line['correct']} "
                  f"failed={line['failed']}/{line['attempted']} {shown}", flush=True)
        detail_metrics = "layers" if args.trace else "metrics"
        names = list(next(iter(runs.values()))["detail"][detail_metrics])
        summary = {}
        for name in names:
            values = [r["detail"][detail_metrics][name] for r in runs.values()]
            values = [v["value"] if isinstance(v, dict) else v for v in values]
            if len(values) >= 2 and all(v == v for v in values):  # skip NaN
                summary[name] = summarize(values)
                s = summary[name]
                spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
                print(f"  {name:<46} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                      f"q3 {s['q3']:.6g}  spread {spread}")
        document["workloads"][workload] = {
            "summary": summary,
            "seeds": {seed: {"correct": r["line"]["correct"], "attempted": r["line"]["attempted"],
                             "failed": r["line"]["failed"], "env": r["detail"]["env"],
                             detail_metrics: r["detail"][detail_metrics],
                             "counts": r["detail"]["counts"], "digest": r["detail"].get("digest")}
                      for seed, r in runs.items()}}
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
