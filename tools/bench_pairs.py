"""Alternating benchmark runs of two platekit source trees, paired by seed.

Usage, from the root of a source checkout:

    python3 tools/bench_pairs.py SRC_A SRC_B --workload W --seeds A-B [--seconds S] [--write PATH]

SRC_A is the parent's ``src`` directory and SRC_B the change's.  Each tree
gets its own temporary root: a copy of its ``src`` next to a copy of this
checkout's ``perfbench/`` and ``BENCHMARK.json`` (copies, as ``run.py`` finds
its sources by resolved path), so both run the same jobs and metrics.  Each
seed is one pair: ``perfbench/run.py --workload W --seed N --seconds S
--trace 0`` once per tree, each run in its own process, one after the other.
A runs first on odd pairs and B on even ones.  ``--seconds`` defaults to
``BENCHMARK.json``'s ``run_seconds``.

For each end-to-end metric it prints both medians and quartiles, the change
B - A of the medians, the pairs B won (ties count for neither side) and A's
IQR, the distance between its quartiles.  Two verdicts follow from them:

- *gain*: ``yes`` where B won at least 9 of every 10 pairs and its median
  is better than A's by more than A's IQR, else ``no``;
- *bound*: ``within`` where B's median is worse than A's by no more than
  the metric's ``BENCHMARK.json`` ``bound`` (a fraction of A's median),
  else ``beyond``; ``unresolved`` where A's IQR is wider than the bound and
  not every B run beats every A run, so the pairs cannot tell.

``--write PATH`` keeps every pair's metrics and the summary as JSON.  It is
evidence, not a gate: it exits 0 when every run of both trees completed, and
2 when one failed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    try:
        lo, hi = int(first), int(last)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A-B, got {text!r}") from None
    if not 0 <= lo <= hi:
        raise argparse.ArgumentTypeError(f"expected 0 <= A <= B, got {text!r}")
    return list(range(lo, hi + 1))


def _layout(src: Path, root: Path) -> Path:
    """A benchmark root under ``root``: copies of ``src`` and of this checkout's harness."""
    shutil.copytree(src, root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "perfbench", root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results", "work"))
    shutil.copy2(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    return root


def _run(root: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """One run's ``{metric: value}``, or None if it failed (its output goes to stderr)."""
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    lines = run.stdout.splitlines()
    if run.returncode or not lines:
        sys.stderr.write(run.stdout + run.stderr)
        return None
    return {name: m["value"] for name, m in json.loads(lines[-1])["metrics"].items()}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _summarize(pairs: list[dict], metrics: list[dict]) -> list[dict]:
    """Per end-to-end metric: each side's quartiles, B's wins, A's IQR and the two verdicts."""
    rows = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        a = [p["a"][name] for p in pairs]
        b = [p["b"][name] for p in pairs]
        qa, qb = _quartiles(a), _quartiles(b)
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        a_iqr = qa[2] - qa[0]
        better_by = qa[1] - qb[1] if lower else qb[1] - qa[1]  # B's median over A's, in the better direction
        bound = metric["bound"] * abs(qa[1])
        always_better = max(b) < min(a) if lower else min(b) > max(a)
        if a_iqr > bound and not always_better:
            verdict = "unresolved"
        else:
            verdict = "within" if -better_by <= bound else "beyond"
        rows.append({
            "metric": name, "unit": metric["unit"], "better": metric["better"],
            "a_quartiles": qa, "b_quartiles": qb,
            "change_frac": (qb[1] - qa[1]) / qa[1] if qa[1] else None,
            "b_wins": wins, "pairs": len(pairs), "a_iqr": a_iqr,
            "gain": "yes" if 10 * wins >= 9 * len(pairs) and better_by > a_iqr else "no", "bound": verdict,
        })
    return rows


def _table(rows: list[dict]) -> str:
    def g(x):
        return f"{x:.4g}"

    head = "| metric | A median (q1-q3) | B median (q1-q3) | B - A | B wins | A IQR | gain | bound |"
    lines = [head, "|---|---|---|---|---|---|---|---|"]
    for r in rows:
        (a1, a2, a3), (b1, b2, b3) = r["a_quartiles"], r["b_quartiles"]
        change = "n/a" if r["change_frac"] is None else f"{100 * r['change_frac']:+.1f}%"
        lines.append(f"| `{r['metric']}` ({r['unit']}, {r['better']} is better) | {g(a2)} ({g(a1)}-{g(a3)}) "
                     f"| {g(b2)} ({g(b1)}-{g(b3)}) | {change} | {r['b_wins']}/{r['pairs']} | {g(r['a_iqr'])} "
                     f"| {r['gain']} | {r['bound']} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a", type=Path, help="the parent's src directory")
    parser.add_argument("src_b", type=Path, help="the change's src directory")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", required=True, type=_seeds, help="one pair per seed, A to B inclusive")
    parser.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    parser.add_argument("--write", type=Path, help="JSON file for every pair and the summary")
    args = parser.parse_args(argv)
    sources = [src.resolve() for src in (args.src_a, args.src_b)]
    for src in sources:
        if not (src / "platekit" / "cli.py").is_file():
            parser.error(f"no platekit sources under {src}")

    pairs = []
    with tempfile.TemporaryDirectory() as tmp:
        roots = [_layout(src, Path(tmp) / side) for src, side in zip(sources, "ab")]
        for index, seed in enumerate(args.seeds):
            order = (0, 1) if index % 2 == 0 else (1, 0)
            pair = {"seed": seed, "first": "ab"[order[0]]}
            for side in order:
                label = "ab"[side]
                metrics = _run(roots[side], args.workload, seed, args.seconds)
                if metrics is None:
                    print(f"error: run of {sources[side]} at seed {seed} failed", file=sys.stderr)
                    return 2
                pair[label] = metrics
            print(f"pair {index + 1}/{len(args.seeds)} seed {seed} ({pair['first'].upper()} first): "
                  + " ".join(f"{name} {pair['a'][name]:.4g} -> {pair['b'][name]:.4g}" for name in pair["a"]),
                  file=sys.stderr)
            pairs.append(pair)

    rows = _summarize(pairs, bench["end_to_end"])
    print(f"workload {args.workload}, {len(pairs)} pairs of {args.seconds:g} s runs, seeds "
          f"{args.seeds[0]}-{args.seeds[-1]}; A = {sources[0]}, B = {sources[1]}")
    print(_table(rows))
    if args.write is not None:
        args.write.write_text(json.dumps({
            "workload": args.workload, "seconds": args.seconds, "seeds": args.seeds,
            "a": str(sources[0]), "b": str(sources[1]), "pairs": pairs, "summary": rows,
        }, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
