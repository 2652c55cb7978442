"""platekit benchmark: seeded closed-loop streams of real CLI jobs.

Usage, from the root of a source checkout (platekit is imported from
``src/``; nothing needs installing):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

One process, one client, no threads of its own: each job is one
``platekit.cli.main(argv)`` call, the next starts when the previous one has
finished and its output has been checked.  Jobs come in whole blocks (see
``workloads.py``) and a run ends at the first block boundary after both
``--seconds`` have passed and ``MIN_JOBS`` jobs have run, so the tail
percentile always has ten samples beyond it.  A run that reaches
``DEADLINE_S`` first stops there, prints ``TRUNCATED`` and is marked
``"truncated": true`` in its results file.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every job
twice in a row, untraced and with spans around every call into a platekit
layer (``spans.py``), the order alternating from job to job, prints the
per-layer metrics and writes the spans to ``perfbench/results/``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every job exited 0 and passed its output check and every determinism check
held.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Jobs per run before the run may end (four blocks of nine, or twenty of
# five); the tail percentile is the highest one that leaves ten samples
# beyond it at this count (p72.2, or p90).
MIN_JOBS = {"sweep": 36, "coverage": 36, "optimize": 36, "validate": 100}
TAIL_SAMPLES = 10
# A traced run replays at least this many jobs.
MIN_TRACED_JOBS = 10
# Fresh interpreters started per run to time CLI set-up, one before the
# first job and the rest spread evenly over the run's jobs; the median counts.
SETUP_REPEATS = 9
SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import platekit.cli as c; c.build_parser()"
# Reference start, timed just before each set-up sample: a fresh interpreter
# importing the modules platekit imports (stdlib and numpy), but no platekit.
# setup_s is SETUP_REF_S times the median ratio of sample to reference, i.e.
# seconds on a machine where the reference takes SETUP_REF_S.  Over a few
# minutes of back-to-back samples the ratio's block medians spread 0.02-0.05
# where the raw ones spread 0.08-0.12; the in-process CPU probe does not
# track interpreter start-up, and scaling by it widened the spread.
SETUP_REF_CODE = "import argparse, dataclasses, json, math, os, warnings, numpy"
SETUP_REF_S = 0.25
# CPU probe.  On the shared 2-vCPU x86-64 VM the baseline was measured on,
# the speed of fixed code drifts by up to 2x over tens of seconds (a fixed
# pure-Python loop and a bare interpreter start both swing that much), far
# beyond any regression bound.  Every job is preceded by a probe of
# PROBE_LOOPS iterations, and each job's time is scaled by PROBE_REF_S over
# the median of the probes of the PROBE_WINDOW jobs around it: seconds at a
# fixed reference speed of that loop.  A local window tracks the drift
# within a run; over ten seeds it narrowed the spreads of sweep, coverage
# and validate more than one median probe per run did.  The unscaled values
# are printed and stored beside them.
PROBE_LOOPS = 30000
PROBE_REF_S = 2.0e-3
PROBE_WINDOW = 5
# Stop starting jobs after this long, whatever the counts, to end in time.
DEADLINE_S = 150.0


def _import_platekit():
    if not (SRC / "platekit" / "cli.py").is_file():
        raise SystemExit(f"error: no platekit sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import platekit.cli

    if Path(platekit.cli.__file__).resolve().parent != SRC / "platekit":
        raise SystemExit(f"error: imported platekit from {platekit.cli.__file__}, not {SRC}")
    return platekit.cli


def machine_record() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = None
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                threads = int(fn())
                break
    try:
        llc = subprocess.run(
            ["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        llc = ""
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "llc_bytes": int(llc) if llc.isdigit() else None,
        "machine": platform.machine(),
        "harness_threads": threading.active_count(),
    }


def cpu_probe() -> float:
    """Fastest of three runs of a fixed pure-Python loop, in seconds."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += i * i
        best = min(best, time.perf_counter() - t0)
    return best


def _interpreter_s(*args: str) -> float:
    t0 = time.perf_counter()
    # No timeout: with one, the wait polls in steps of up to 50 ms.
    subprocess.run(
        [sys.executable, *args], cwd=ROOT, check=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return time.perf_counter() - t0


def setup_sample() -> tuple[float, float]:
    """Wall times of a fresh interpreter importing the CLI and building its
    parser, and of the reference start just before it."""
    reference = _interpreter_s("-c", SETUP_REF_CODE)
    return _interpreter_s("-c", SETUP_CODE, str(SRC)), reference


class Runner:
    """Runs jobs of one stream, optionally under a tracer, and checks them."""

    def __init__(self, cli, stream, check):
        self.cli = cli
        self.stream = stream
        self.check = check
        self.truncated = False

    def run(self, job, tracer=None, tracer_job: int = -1) -> dict:
        """Run one job, under ``tracer`` if given, and check its output."""
        for path, text in job.files.items():
            Path(path).write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, None
        gc.collect()
        probe = cpu_probe()
        if tracer is not None:
            tracer.install()
            span = tracer.begin_job(tracer_job)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(job.argv)
        except Exception as exc:  # a job that raises is a failed job, not a crash
            error = f"raised {exc!r}"
        finally:
            seconds = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_job(span, raised=error is not None)
                tracer.uninstall()
        counts = {}
        if error is None:
            try:
                error, counts = self.check(job, rc, out.getvalue())
            except (OSError, ValueError, KeyError, IndexError) as exc:
                error = f"output check raised {exc!r}"
            if error is not None and err.getvalue():
                error += f"; stderr: {err.getvalue().strip()[-300:]}"
        for path in list(job.files) + job.outputs:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        return {
            "index": job.index,
            "kind": job.kind,
            "items": job.items,
            "seconds": seconds,
            "probe_s": probe,
            "error": error,
            "counts": counts,
        }

    def jobs(self, min_seconds: float, min_jobs: int, started: float):
        """Jobs 0, 1, ... until both minimums are met, at a block boundary,
        or until DEADLINE_S, which sets ``truncated``."""
        t0 = time.perf_counter()
        n = 0
        while True:
            yield self.stream.job(n)
            n += 1
            now = time.perf_counter()
            if now - started > DEADLINE_S:
                self.truncated = n < min_jobs or n % self.stream.block_size != 0
                return
            if n % self.stream.block_size == 0 and n >= min_jobs and now - t0 >= min_seconds:
                return


def tail_percentile(min_jobs: int) -> float:
    return 100.0 * (1.0 - TAIL_SAMPLES / min_jobs)


def local_speed(probes: list[float]) -> list[float]:
    """PROBE_REF_S over the median probe of the PROBE_WINDOW jobs centred on each job."""
    half = PROBE_WINDOW // 2
    return [PROBE_REF_S / statistics.median(probes[max(0, i - half):i + half + 1])
            for i in range(len(probes))]


def end_to_end(workload: str, records: list[dict], setup: list[tuple[float, float]],
               item_unit: str) -> tuple[dict, dict, list[str]]:
    """End-to-end metrics as (value, unit), the same unscaled, and printable lines.

    Job times are scaled by the CPU speed around each job (``local_speed``),
    i.e. expressed at a fixed reference speed of the probe loop; see
    PROBE_REF_S.  setup_s is scaled by its reference start; see SETUP_REF_S.
    """
    import numpy as np

    raw_times = [r["seconds"] for r in records]
    speeds = local_speed([r["probe_s"] for r in records])
    p_tail = tail_percentile(MIN_JOBS[workload])
    items = sum(r["items"] for r in records)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def metrics_of(times, setup_s):
        return {
            "setup_s": (setup_s, "s"),
            "job_s_p50": (statistics.median(times), "s"),
            "job_s_tail": (float(np.percentile(times, p_tail)), "s"),
            "items_per_s": (items / sum(times), "1/s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }

    raw = metrics_of(raw_times, statistics.median(s for s, _ in setup))
    metrics = metrics_of([t * v for t, v in zip(raw_times, speeds)],
                         SETUP_REF_S * statistics.median(s / r for s, r in setup))
    beyond = sum(1 for t in raw_times if t > raw["job_s_tail"][0])
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters: import platekit.cli + build_parser()",
        "job_s_p50": f"n={len(raw_times)} jobs after 1 warm-up",
        "job_s_tail": f"p{p_tail:g}, n={len(raw_times)}, {beyond} samples beyond",
        "items_per_s": f"{items} {item_unit} in {sum(raw_times):.3f} s of job time, n={len(raw_times)}",
        "peak_rss_mb": "ru_maxrss of this process, n=1",
    }
    lines = [
        f"{name:<14} {value:>14.6g} {unit:<4} (unscaled {raw[name][0]:.6g}; {notes[name]})"
        for name, (value, unit) in metrics.items()
    ]
    lines.append(f"setup_s scaled by reference start: median {statistics.median(r for _, r in setup):.4g} s "
                 f"(reference {SETUP_REF_S:g} s)")
    lines.append(f"job times scaled by {min(speeds):.4g}..{max(speeds):.4g} (reference probe "
                 f"{PROBE_REF_S * 1e3:g} ms, median of {PROBE_WINDOW} around each job)")
    return metrics, raw, lines


def exact_counts(records: list[dict], block_size: int, span_counts: dict[int, dict] | None = None) -> dict:
    """Totals over the first block of jobs, which every run completes, so
    they repeat exactly for a seed whatever the machine's speed."""
    records = records[:block_size]
    totals = {"rows": 0, "cells": 0, "planner.evaluations": 0}
    for r in records:
        totals["rows"] += r["counts"].get("rows", 0)
        totals["cells"] += r["counts"].get("cells", 0)
        totals["planner.evaluations"] += r["counts"].get("evaluations", 0)
    if span_counts is not None:
        first = [span_counts[j + 1] for j in range(len(records))]
        totals["rcs.calls"] = sum(c["rcs.calls"] for c in first)
        totals["po_oracle.nodes"] = sum(c["po_oracle.nodes"] for c in first)
    return totals


def traced(runner, seconds: float, started: float):
    """Each job untraced and again traced; returns per-layer metrics.

    ``trace.overhead_frac`` is the median over jobs of traced / untraced
    time, minus 1: pairing the two runs of a job keeps drift in machine
    speed and the mix of job sizes out of it, and alternating which of the
    two goes first (the untraced one on even jobs) cancels the advantage of
    running second.
    """
    from spans import LAYERS, SpanTable, Tracer, layer_metrics

    tracer = Tracer()
    first = runner.stream.job(0)
    warm = [runner.run(first), runner.run(first, tracer, 0)]
    plain, spanned = [], []
    for n, job in enumerate(runner.jobs(seconds, MIN_TRACED_JOBS, started)):
        if n % 2:
            spanned.append(runner.run(job, tracer, n + 1))
            plain.append(runner.run(job))
        else:
            plain.append(runner.run(job))
            spanned.append(runner.run(job, tracer, n + 1))
    table = SpanTable(tracer)
    jobs = list(range(1, len(spanned) + 1))
    # CSV rows the command wrote: sweep rows and coverage cells.
    written = {"sweep": "rows", "coverage": "cells"}
    rows = {i + 1: r["counts"].get(written.get(r["kind"]), 0) for i, r in enumerate(spanned)}
    metrics, shares = layer_metrics(table, jobs, rows)
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = tracer.errors[layer]
    p50_plain = statistics.median(r["seconds"] for r in plain)
    p50_traced = statistics.median(r["seconds"] for r in spanned)
    metrics["trace.overhead_frac"] = statistics.median(
        b["seconds"] / a["seconds"] for a, b in zip(plain, spanned)) - 1.0

    # Determinism: the repeated first job gives identical counts, and both
    # passes give identical output counts job by job.
    mismatches = []
    span_counts = {j: table.job_counts(j) for j in jobs}
    warm_counts = {**warm[1]["counts"], **table.job_counts(0)}
    first_counts = {**spanned[0]["counts"], **span_counts[1]}
    if warm_counts != first_counts:
        mismatches.append(f"job 0 counts differ between repeats: {warm_counts} vs {first_counts}")
    for a, b in zip(plain, spanned):
        if a["counts"] != b["counts"]:
            mismatches.append(f"job {a['index']} counts differ untraced/traced: {a['counts']} vs {b['counts']}")

    spans_path = HERE / "results" / f"spans-{runner.stream.workload}-seed{runner.stream.seed}.csv.gz"
    tracer.write(spans_path)
    lines = [f"{name:<30} {value:>14.6g}" for name, value in metrics.items()]
    lines.append(f"untraced p50 {p50_plain:.6g} s, traced p50 {p50_traced:.6g} s over {len(spanned)} jobs")
    lines.append("layer share of job time: " + " ".join(f"{k}={v:.3f}" for k, v in shares.items()))
    lines.append(f"spans: {len(tracer.start)} written to {spans_path.relative_to(ROOT)}")
    detail = {
        "untraced_p50_s": p50_plain,
        "traced_p50_s": p50_traced,
        "layer_shares": shares,
        "traced_jobs": len(spanned),
        "exact_counts": exact_counts(spanned, runner.stream.block_size, span_counts),
    }
    return metrics, lines, warm + plain + spanned, mismatches, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    cli = _import_platekit()
    sys.path.insert(0, str(HERE))
    import workloads

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    if args.workload not in workloads.WORKLOADS or args.seed < 0 or args.seconds <= 0:
        parser.error(f"--workload must be one of {workloads.WORKLOADS}, --seed >= 0, --seconds > 0")

    machine = machine_record()
    workroot = HERE / "work"
    workroot.mkdir(exist_ok=True)
    (HERE / "results").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=workroot))
    try:
        stream = workloads.JobStream(args.workload, args.seed, workdir)
        runner = Runner(cli, stream, workloads.check)
        job_list = [stream.job(i).digest(workdir) for i in range(stream.block_size)]
        detail = {}
        mismatches = []
        if args.trace:
            values, lines, records, mismatches, detail = traced(runner, args.seconds, started)
            metrics = {name: (value, declared.get(name)) for name, value in values.items()}
        else:
            setup = [setup_sample()]
            warm = runner.run(stream.job(0))
            timed = []
            t0 = time.perf_counter()
            for job in runner.jobs(args.seconds, MIN_JOBS[args.workload], started):
                timed.append(runner.run(job))
                due = len(setup) * args.seconds / SETUP_REPEATS
                if len(setup) < SETUP_REPEATS and time.perf_counter() - t0 >= due:
                    setup.append(setup_sample())
            setup += [setup_sample() for _ in range(SETUP_REPEATS - len(setup))]
            records = [warm] + timed
            metrics, raw, lines = end_to_end(
                args.workload, timed, setup, workloads.ITEM_UNITS[args.workload]
            )
            detail = {
                "unscaled_metrics": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
                "setup_s_samples": [s for s, _ in setup],
                "setup_ref_s_samples": [r for _, r in setup],
                "exact_counts": exact_counts(timed, stream.block_size),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(metrics) != set(declared) or any(metrics[k][1] != declared[k] for k in declared):
        raise SystemExit("error: computed metrics do not match BENCHMARK.json")

    failed = [r for r in records if r["error"] is not None]
    correct = not failed and not mismatches
    first_block = hashlib.sha256("".join(job_list).encode()).hexdigest()
    print(" ".join(f"{k}={v}" for k, v in machine.items()))
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} jobs={len(records)} "
          f"first_block_sha256={first_block}")
    print("exact counts (first block): " + " ".join(f"{k}={v}" for k, v in detail["exact_counts"].items()))
    for line in lines:
        print(line)
    print(f"failed_frac={len(failed) / len(records):.6g} ({len(failed)} of {len(records)} jobs)")
    for r in failed[:10]:
        print(f"FAILED job {r['index']} ({r['kind']}): {r['error']}")
    for m in mismatches[:10]:
        print(f"DETERMINISM: {m}")
    if runner.truncated:
        print(f"TRUNCATED: stopped at {DEADLINE_S:g} s after {len(records)} jobs, before the minimum "
              f"job count at a block boundary; metrics are not comparable with other runs")

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "first_block_sha256": first_block,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **detail,
        "truncated": runner.truncated,
        "failed": len(failed),
        "mismatches": mismatches,
        "jobs": records,
    }
    out = HERE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": result["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
