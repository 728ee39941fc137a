"""Run the benchmark over several seeds and summarise the run-to-run spread.

Usage (from the repository root):

    python3 benchmarks/sweep.py --seeds 0-9 [--workloads adaptive_3x3,ed_3x3]
                                [--label baseline]

Runs benchmarks/run.py once per workload and seed, one invocation at a time,
with the run length from BENCHMARK.json.  For every end-to-end metric it
prints the median, the quartiles from ``statistics.quantiles(values, n=4)``
and their distance as a share of the median, next to the metric's bound.
With ``--label`` it also makes one traced run per workload (seed 0) and writes
benchmarks/BENCH_<label>.json: every run's result line, the summaries, the
per-layer metrics and the provenance, for later changes to quote deltas
against.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def invoke(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv[1:])} failed ({done.returncode}):\n{done.stderr}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    results = ROOT / ".bench_work" / f"BENCH_{workload}_seed{seed}_trace{trace}.json"
    return {"seed": seed, "line": line, "results": json.loads(results.read_text())}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 0,3,5-7")
    parser.add_argument("--workloads", help="comma-separated; default: all")
    parser.add_argument("--label", help="write benchmarks/BENCH_<label>.json")
    args = parser.parse_args()

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in contract["workloads"]])
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    report = {"label": args.label, "run_seconds": contract["run_seconds"], "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            runs.append(invoke(workload, seed, contract["run_seconds"], 0))
            print(f"{workload} seed {seed}: "
                  + ", ".join(f"{k}={v['value']:.4g}"
                              for k, v in runs[-1]["line"]["metrics"].items()),
                  flush=True)
        summary = {name: spread([run["line"]["metrics"][name]["value"] for run in runs])
                   for name in bounds}
        for name, stats in summary.items():
            flag = "ok" if stats["spread"] < bounds[name] / 3 else "WIDE"
            print(f"  {name}: median {stats['median']:.4g}, quartiles {stats['q1']:.4g}"
                  f"..{stats['q3']:.4g}, spread {stats['spread']:.3f} "
                  f"(bound {bounds[name]}, {flag})", flush=True)
        entry = {"summary": summary,
                 "runs": [{"seed": r["seed"], "u": r["results"]["u"], **r["line"],
                           "failed_frac": r["results"]["failed_frac"],
                           **{k: r["results"][k] for k in ("energy_error", "fidelity")
                              if k in r["results"]}}
                          for r in runs]}
        if args.label:
            traced = invoke(workload, 0, contract["run_seconds"], 1)
            entry["per_layer"] = {"seed": 0, **traced["line"],
                                  "missing_hooks": traced["results"]["missing_hooks"]}
            report["provenance"] = traced["results"]["provenance"]
        report["workloads"][workload] = entry
    if args.label:
        path = BENCH / f"BENCH_{args.label}.json"
        path.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
