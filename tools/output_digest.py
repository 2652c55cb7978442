"""One digest of platekit's output over the benchmark's job streams.

Runs the first two blocks of each perfbench workload (sweep, coverage,
optimize, validate) at seeds 1, 3 and 11, 192 jobs in all, through
``platekit.cli.main`` in a temporary directory.  Each job's exit code, stdout
and stderr (with the directory's path taken out) and every file it writes are
hashed.  Prints one digest per workload and their total: two source trees with
the same total wrote the same bytes on every job.

Usage, from the root of a source checkout:

    python3 tools/output_digest.py [SRC]
    python3 tools/output_digest.py SRC_A SRC_B

SRC is the ``src`` directory whose platekit runs (default: this checkout's).
Given two, each tree runs in its own Python process; the two totals are
printed and the exit code is 1 if they differ (2 if a tree's run fails).  The jobs always come from this
checkout's ``perfbench/workloads.py``, so the totals of two trees compare on
the same jobs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 3, 11)
BLOCKS = 2


def _job_digest(cli, job, workdir: Path) -> bytes:
    """Hash of one job's exit code, stdout, stderr and output files; removes its files."""
    for path, text in job.files.items():
        Path(path).write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(job.argv)
    h = hashlib.sha256()
    for text in (str(code), out.getvalue(), err.getvalue()):
        h.update(text.replace(str(workdir), "").encode("utf-8") + b"\0")
    for path in sorted(workdir.iterdir()):
        if str(path) not in job.files:
            h.update(path.name.encode("utf-8") + b"\0" + path.read_bytes() + b"\0")
        path.unlink()
    return h.digest()


def _digest(src: Path) -> None:
    """Print the per-workload digests and the total of platekit from ``src``."""
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import platekit.cli
    import workloads

    if Path(platekit.cli.__file__).resolve().parent != src / "platekit":
        raise SystemExit(f"error: imported platekit from {platekit.cli.__file__}, not {src}")
    total = hashlib.sha256()
    for workload in workloads.WORKLOADS:
        h = hashlib.sha256()
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as tmp:
                workdir = Path(tmp)
                stream = workloads.JobStream(workload, seed, workdir)
                for index in range(BLOCKS * stream.block_size):
                    h.update(_job_digest(platekit.cli, stream.job(index), workdir))
        print(f"{workload} {h.hexdigest()}")
        total.update(h.digest())
    print(f"total {total.hexdigest()}")


def _compare(sources: list) -> int:
    """Digest each tree in its own process; 0 if the totals agree, 1 if not, 2 if a run fails."""
    totals = []
    for src in sources:
        run = subprocess.run([sys.executable, __file__, str(src)], capture_output=True, text=True)
        sys.stderr.write(run.stderr)
        if run.returncode:
            print(f"error: digest of {src} exited {run.returncode}", file=sys.stderr)
            return 2
        for line in run.stdout.splitlines():
            print(f"{src}: {line}")
        totals.append(run.stdout.splitlines()[-1])
    same = totals[0] == totals[1]
    print("same output" if same else "outputs differ")
    return 0 if same else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="*", default=[str(ROOT / "src")],
                        help="src directory to run platekit from; two compare their totals")
    sources = [Path(src).resolve() for src in parser.parse_args(argv).src]
    if len(sources) > 2:
        parser.error("at most two src directories")
    if len(sources) == 2:
        return _compare(sources)
    _digest(sources[0])
    return 0


if __name__ == "__main__":
    sys.exit(main())
