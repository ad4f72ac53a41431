#!/usr/bin/env python3
"""Record the golden corpus the benchmark compares outputs against.

For each workload and each seed 0 .. SEEDS-1 it runs one pass of the
request list, each request in a forked child exactly as a benchmark run
does, and stores one short digest of exit code plus stdout per request in
``bench/golden.txt``.  A request that fails its invariant checks stops
the recording: the corpus holds only outputs that passed them.

Run from the repository root, at the commit whose outputs are the
reference:

    python3 bench/record_golden.py
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import forkrun  # noqa: E402
import outputs  # noqa: E402
import workloads  # noqa: E402
from curvecount import cli  # noqa: E402

SEEDS = 20


def record(workload: str, seed: int, run_dir: Path) -> str:
    run_dir.mkdir(parents=True)
    reqs = workloads.build(workload, seed, run_dir)
    here = os.getcwd()
    os.chdir(run_dir)
    try:
        result = forkrun.run_pass(cli.main, reqs, False, None)
    finally:
        os.chdir(here)
    if result["problems"]:
        i, problem = next(iter(result["problems"].items()))
        raise SystemExit(f"{workload} seed {seed}: `{' '.join(reqs[i]['argv'])}` failed: {problem}")
    return f"{workload} {seed} {outputs.request_digest(reqs, run_dir)} {''.join(result['digests'])}"


def main() -> int:
    work = BENCH_DIR / "_work" / f"record-{os.getpid()}"
    lines = []
    try:
        for workload in workloads.WORKLOADS:
            for seed in range(SEEDS):
                lines.append(record(workload, seed, work / f"{workload}-{seed}"))
                print(f"recorded {workload} seed {seed}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    outputs.GOLDEN_FILE.write_text("\n".join(lines) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
