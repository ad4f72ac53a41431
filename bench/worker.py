"""Benchmark worker process.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  It imports ``curvecount.cli`` first and prints ``ready``: the
time from spawning it to that line is the set-up time every CLI call
pays.  Then it reads one job file path from stdin (end of input means
exit), runs the job's passes, each request in its own forked child, and
prints ``done`` once the result file is written.
"""

import os
import sys


def main() -> int:
    from curvecount import cli

    src = os.path.realpath(sys.argv[1])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"error: imported curvecount from {cli.__file__}, not from {src}", flush=True)
        return 3
    print("ready", flush=True)
    line = sys.stdin.readline()
    if not line:
        return 0

    import json
    import time

    import forkrun
    import layertrace

    with open(line.strip(), encoding="utf-8") as fh:
        job = json.load(fh)
    os.chdir(job["run_dir"])
    with open(job["requests"], encoding="utf-8") as fh:
        reqs = json.load(fh)
    start = time.perf_counter()
    passes = []
    while True:
        traced = job["trace"] and len(passes) % 2 == 1
        passes.append(forkrun.run_pass(cli.main, reqs, traced, job["golden"]))
        kinds = {p["traced"] for p in passes}
        if time.perf_counter() - start >= job["seconds"] and len(kinds) == 1 + job["trace"]:
            break
    probes = []
    for argv in job["probes"]:
        res = forkrun.run_forked(cli.main, argv)
        probes.append({"argv": argv, "code": res["code"], "stderr": res["stderr"].strip()})
    traced = [p for p in passes if p["traced"]]
    if traced:
        with open(job["spans_out"], "w", encoding="utf-8") as fh:
            for p_index, p in enumerate(traced):
                for s in p["spans"]:
                    fh.write(json.dumps({"pass": p_index, **s}) + "\n")
        for p in traced:
            p["layer"] = layertrace.pass_metrics(p["spans"], p["stdout_bytes"])
    for p in passes:
        del p["spans"]
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump({"passes": passes, "probes": probes}, fh)
    print("done", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
