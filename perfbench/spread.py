"""Run the benchmark over several seeds and report run-to-run spread.

    python3 perfbench/spread.py --workloads sweep coverage --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --trace-seed 1 --write-baseline

For every workload and end-to-end metric this prints the median of the
runs' values, the first and third quartiles (``statistics.quantiles`` with
n=4) and their distance as a share of the median, next to the metric's
bound from BENCHMARK.json.  A spread under a third of the bound counts as
steady.  Runs go one at a time.  ``--write-baseline`` records the medians,
the traced per-layer metrics, the layer shares of job time, the exact
counts and the layer map in ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        sys.stdout.write("".join(line + "\n" for line in lines if line.startswith(("FAILED", "DETERMINISM"))))
        sys.stdout.write(f"{workload} seed {seed} trace {trace}: exit code {proc.returncode}\n")
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout[-3000:] + proc.stderr[-3000:])
        raise SystemExit(f"{workload} seed {seed} trace {trace}: no result line")
    return json.loads(lines[-1]), wall


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "n": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace-seed", type=int, help="also make one traced run per workload")
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {}
    steady = True
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        unscaled = {name: [] for name in bounds}
        walls = []
        failed_runs = 0
        for seed in seeds:
            result, wall = run_once(workload, seed, args.seconds, 0)
            walls.append(wall)
            failed_runs += result["failed"] > 0
            detail = json.loads((HERE / "results" / f"{workload}-seed{seed}-trace0.json").read_text())
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
                unscaled[name].append(detail["unscaled_metrics"][name]["value"])
            print(f"{workload} seed={seed} wall={wall:.1f}s " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        entry = {"seeds": seeds, "runs_with_failed_jobs": failed_runs, "wall_s": summarize(walls),
                 "end_to_end": {}}
        for name, vals in values.items():
            s = summarize(vals)
            s["values"] = vals
            entry["end_to_end"][name] = s
            s["unscaled"] = summarize(unscaled[name])
            ok = s["spread"] < bounds[name] / 3
            steady &= ok
            print(f"  {workload:<9} {name:<12} median={s['median']:.6g} q1={s['q1']:.6g} q3={s['q3']:.6g} "
                  f"spread={s['spread']:.4f} (unscaled {s['unscaled']['spread']:.4f}) bound={bounds[name]} "
                  f"{'steady' if ok else 'WIDE'}", flush=True)
        print(f"  {workload:<9} wall per run: median {entry['wall_s']['median']:.1f} s; "
              f"runs with failed jobs: {failed_runs} of {len(seeds)}", flush=True)
        if args.trace_seed is not None:
            result, wall = run_once(workload, args.trace_seed, args.seconds, 1)
            detail = json.loads((HERE / "results" / f"{workload}-seed{args.trace_seed}-trace1.json")
                                .read_text(encoding="utf-8"))
            entry["traced"] = {
                "seed": args.trace_seed,
                "wall_s": wall,
                "per_layer": {k: v["value"] for k, v in result["metrics"].items()},
                "layer_shares": detail["layer_shares"],
                "exact_counts": detail["exact_counts"],
                "jobs": detail["traced_jobs"],
            }
            print(f"  {workload:<9} traced: " + " ".join(
                f"{k}={v:.4g}" for k, v in entry["traced"]["per_layer"].items() if v), flush=True)
        report[workload] = entry

    if args.write_baseline:
        sys.path.insert(0, str(HERE))
        from spans import LAYER_MAP

        machine = json.loads(next((HERE / "results").glob("*-trace0.json")).read_text())["machine"]
        baseline = {
            "about": "First measured baseline of the platekit benchmark; see perfbench/run.py.",
            "command": bench["command"],
            "run_seconds": args.seconds,
            "seed_argument": "--seed N: every input of a run is drawn from N; the same N gives "
                             "the same job list",
            "machine": machine,
            "layer_map": [
                {"metric": m["name"], "unit": m["unit"], "better": m["better"], "layer": layer,
                 "should_move": move, "workload": wl}
                for m in bench["per_layer"]
                for layer, move, wl in [LAYER_MAP[m["name"]]]
            ],
            "workloads": report,
            "exact_counts_note": f"traced.exact_counts: totals over the first block of jobs for seed "
                                 f"{args.trace_seed}; they repeat exactly for that seed",
        }
        (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
        print("wrote perfbench/baseline.json")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
