"""Run each benchmark request in a child forked from the worker.

The worker has imported ``curvecount.cli`` and done nothing else, so every
child starts from the state a fresh ``curvecount`` process reaches after
its imports: nothing one request computes or caches in memory is seen by
the next.  The child's stdout is a file in the working directory, as with
``curvecount ... > file``.  The child times the call and the final flush,
reports its exit code and peak RSS, and only then reads the file back to
digest and check it (``outputs.check_request``), so the worker never holds
a large listing and the checks stay out of the timings.
"""

from __future__ import annotations

import functools
import gc
import io
import json
import os
import resource
import sys
import time
import traceback

import layertrace
import outputs
from workloads import CACHE_FILE

CRASHED = -1
STDOUT_FILE = "request-stdout.txt"


def run_forked(entry, argv: list[str], traced: bool = False, check=None) -> dict:
    """Call ``entry(argv)`` in a forked child, stdout to ``STDOUT_FILE`` and stderr captured.

    Returns the exit code, ``main_s`` (the call alone, timed in the child),
    ``rss_kb`` (the child's peak resident set when the call returned),
    ``stdout_bytes``, the tail of stderr, the child's spans when ``traced``,
    and whatever ``check(code, stdout)`` returned in the child.
    """
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(r)
            _child(entry, argv, traced, check, w)
        finally:
            os._exit(0)
    os.close(w)
    with os.fdopen(r, "rb") as pipe:
        head = pipe.readline()
        rest = pipe.readline()
    os.waitpid(pid, 0)
    if not (head and rest):
        return {"code": CRASHED, "main_s": 0.0, "rss_kb": 0, "stdout_bytes": 0, "spans": [],
                "stderr": "request child died", "problem": "request child died"}
    result = json.loads(head)
    result.update(json.loads(rest))
    return result


def _child(entry, argv, traced, check, w) -> None:
    # A fresh process owns its heap, but a forked child shares the worker's
    # copy-on-write and would take a page fault on the first write to each
    # shared page.  Asking for the referents of every tracked object writes
    # their reference counts, so most of these faults fall here, before the
    # timed call, and not inside it.
    for obj in gc.get_objects():
        gc.get_referents(obj)
    fd = os.open(STDOUT_FILE, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    os.dup2(fd, 1)
    os.close(fd)
    out = sys.stdout = io.TextIOWrapper(open(1, "wb", closefd=False), encoding="utf-8")
    err = sys.stderr = io.StringIO()
    tracer = layertrace.install() if traced else None
    call = tracer.span("cli.main", entry) if traced else entry
    t0 = time.perf_counter()
    try:
        code = call(argv)
        out.flush()
    except BaseException:  # a crash is reported as a failed request
        traceback.print_exc(file=err)
        code = CRASHED
    main_s = time.perf_counter() - t0
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with os.fdopen(w, "wb") as pipe:
        pipe.write(json.dumps({"code": code, "main_s": main_s, "rss_kb": rss_kb}).encode() + b"\n")
        pipe.flush()
        with open(STDOUT_FILE, "rb") as fh:
            body = fh.read()
        os.unlink(STDOUT_FILE)
        rest = {
            "stdout_bytes": len(body),
            "stderr": err.getvalue()[-2000:],
            "spans": tracer.spans if traced else [],
        }
        if check is not None:
            rest.update(check(code, body))
        pipe.write(json.dumps(rest).encode() + b"\n")


def run_pass(entry, reqs: list[dict], traced: bool, golden: list[str] | None) -> dict:
    """One pass over the request list, starting without a cache file."""
    if os.path.exists(CACHE_FILE):
        os.remove(CACHE_FILE)
    main_s, problems, summaries, digests, spans = [], {}, [], [], []
    rss_kb = stdout_bytes = 0
    for i, req in enumerate(reqs):
        res = run_forked(entry, req["argv"], traced, functools.partial(outputs.check_request, req))
        main_s.append(res["main_s"])
        rss_kb = max(rss_kb, res["rss_kb"])
        stdout_bytes += res["stdout_bytes"]
        summaries.append(res.get("summary"))
        digests.append(res.get("digest"))
        problem = res.get("problem")
        if problem is None and golden is not None and res["digest"] != golden[i]:
            problem = "exit code or stdout differs from the golden corpus"
        if problem is not None:
            problems[i] = f"{problem}; stderr: {res['stderr'].strip()[-300:]}"
        for s in res["spans"]:
            s["req"] = i
        spans.extend(res["spans"])
    for i, problem in outputs.cross_check(reqs, summaries).items():
        problems.setdefault(i, problem)
    return {
        "traced": traced,
        "main_s": main_s,
        "rss_kb": rss_kb,
        "stdout_bytes": stdout_bytes,
        "problems": problems,
        "digests": digests,
        "spans": spans,
    }
