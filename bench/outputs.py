"""Output checks for benchmark requests.

Every request's exit code and stdout are checked two ways:

- against the golden corpus (``golden.txt``): per-request digests of the
  exit code and stdout, recorded from the reference commit for a set of
  committed seeds, so any changed byte fails;
- against invariants that hold on every seed and need no golden file:
  ``E_generic = 3*E_0 = 2*E_1728 = ZT``; the single-tail family equals
  ``2^(3d-1)``; the collapsed marked total equals the full-mode class count
  for the same ``(d, max_extra, circuits)``; a net built to satisfy the
  root-sum relation reports the criterion; and on a net with no base point
  at infinity the criterion holds exactly when ``a1 >= 2``.

``check_request`` runs in the request's own child process, after the timed call,
so the benchmark never holds a multi-megabyte listing in the worker.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from pathlib import Path

from workloads import NET_DIR

GOLDEN_FILE = Path(__file__).resolve().parent / "golden.txt"
DIGEST_CHARS = 8
_AUT = {"generic": 1, "0": 3, "1728": 2}
_N_HEAD = (1, 1, 12, 620)


class OutputError(Exception):
    """The output of one request breaks a check; the message says which."""


def digest(code: int, stdout: bytes) -> str:
    return hashlib.sha256(b"%d\n" % code + stdout).hexdigest()[:DIGEST_CHARS]


def check_request(req: dict, code: int, stdout: bytes) -> dict:
    """Digest plus the checks that need only this request's output.

    Returns ``{"digest", "problem", "summary"}``; ``problem`` is None when
    every check passed, and ``summary`` carries what the cross-request
    check needs.
    """
    summary = None
    try:
        if code != req["expect"]:
            raise OutputError(f"exit {code}, expected {req['expect']}")
        text = stdout.decode("utf-8")
        summary = _CHECKS[req["check"]](req, text)
        problem = None
    except OutputError as exc:
        problem = str(exc)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        problem = f"unparseable output ({type(exc).__name__}: {exc})"
    return {"digest": digest(code, stdout), "problem": problem, "summary": summary}


def cross_check(reqs: list[dict], summaries: list) -> dict[int, str]:
    """Collapsed marked total against full-mode class count, per pair.

    Returns a problem per failing full-mode request index.
    """
    marked, classes = {}, {}
    for i, (req, summary) in enumerate(zip(reqs, summaries)):
        if req.get("pair") and summary is not None:
            if req["full"]:
                classes[req["pair"]] = (i, summary["classes"])
            else:
                marked[req["pair"]] = summary["marked_total"]
    problems = {}
    for pair, (i, n_classes) in classes.items():
        if pair in marked and marked[pair] != n_classes:
            problems[i] = f"full-mode classes {n_classes} != collapsed marked total {marked[pair]}"
    return problems


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise OutputError(message)


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _check_nd(req: dict, text: str) -> None:
    fmt = req["fmt"]
    if fmt == "json":
        doc = json.loads(text)
        rows = [(v["d"], int(v["N"])) for v in doc["values"]]
    elif fmt == "csv":
        rows = [(int(d), int(n)) for d, n in _csv_rows(text)[1:]]
    else:
        rows = [tuple(int(x) for x in line.split()) for line in text.splitlines()]
    _require([d for d, _ in rows] == list(range(1, req["max"] + 1)), "degrees are not 1..max")
    _require(all(n > 0 for _, n in rows), "a count is not positive")
    head = [n for _, n in rows[: len(_N_HEAD)]]
    _require(head == list(_N_HEAD[: len(head)]), f"N_1.. reads {head}")


def _check_ed(req: dict, text: str) -> None:
    fmt, zt = req["fmt"], None
    if fmt == "json":
        doc = json.loads(text)
        d = doc["d"]
        if isinstance(doc["E"], dict):
            values, zt = {j: int(v) for j, v in doc["E"].items()}, int(doc["ZT"])
        else:
            values = {doc["j"]: int(doc["E"])}
    elif fmt == "csv":
        rows = _csv_rows(text)[1:]
        d = int(rows[0][0])
        values = {j: int(e) for _, j, e, _ in rows}
        zt = int(rows[0][3])
        _require(all(int(r[3]) == zt for r in rows), "ZT differs between rows")
    else:
        lines = text.splitlines()
        d = int(lines[0].removeprefix("d = "))
        values = {}
        for line in lines[1:-1]:
            m = re.fullmatch(r"E\[(\w+)\] = (\d+)", line)
            values[m.group(1)] = int(m.group(2))
        zt = int(lines[-1].removeprefix("ZT = "))
    _require(d == req["d"], f"degree {d}, expected {req['d']}")
    expected_js = list(_AUT) if req["j"] == "all" else [req["j"]]
    _require(sorted(values) == sorted(expected_js), f"j-classes {sorted(values)}")
    _require(all(v > 0 for v in values.values()), "a count is not positive")
    if zt is not None:
        for j, v in values.items():
            _require(_AUT[j] * v == zt, f"{_AUT[j]}*E[{j}] != ZT")


def _check_strata(req: dict, text: str) -> dict:
    fmt, single = req["fmt"], None
    if fmt == "json":
        s = json.loads(text)["summary"]
        classes, listed, marked = s["classes"], s["listed"], int(s["marked_total"])
        if s["single_tail_family"] is not None:
            single = int(s["single_tail_family"])
    elif fmt == "csv":
        rows = _csv_rows(text)[1:]
        listed = len(rows)
        if req["survivors"]:
            _require(all(r[6] == "true" for r in rows), "a listed shape is not a survivor")
            return None
        classes, marked = listed, sum(int(r[8]) for r in rows)
        if req["k"] >= 1:
            single = sum(int(r[8]) for r in rows if r[0] == "tree" and r[2] == "0" and r[3] == "1")
    else:
        tail = text[text.rfind("classes: "):]
        m = re.match(r"classes: (\d+) \(listed: (\d+)\)\nmarked total: (\d+)\n", tail)
        classes, listed, marked = (int(g) for g in m.groups())
        st = re.search(r"^single-tail family: (\d+) ", tail, re.M)
        if st:
            single = int(st.group(1))
    _require(listed <= classes, f"listed {listed} > classes {classes}")
    if req["k"] >= 1:
        _require(single == 2 ** (3 * req["d"] - 1), f"single-tail family {single} != 2^{3 * req['d'] - 1}")
    return {"classes": classes, "marked_total": marked}


def _check_series(req: dict, text: str) -> None:
    fmt = req["fmt"]
    if fmt == "json":
        doc = json.loads(text)
        point, orders, criterion = doc["point"], tuple(doc["orders"]), doc["criterion"]
    elif fmt == "csv":
        row = _csv_rows(text)[1]
        point, orders, criterion = row[1], tuple(int(x) for x in row[2:5]), row[7] == "true"
    else:
        fields = dict(line.split(" = ", 1) for line in text.splitlines())
        point = fields["point"]
        orders = tuple(int(x) for x in fields["orders"].strip("()").split(", "))
        criterion = fields["criterion"] == "true"
    _require(point == req["point"], f"point {point!r}, expected {req['point']!r}")
    _require(len(orders) == 3 and 0 <= orders[0] < orders[1] < orders[2], f"orders {orders}")
    if req["constrained"]:
        _require(criterion, "net built with the root-sum relation reports no criterion")
    if point == "infinity" and orders[0] == 0:
        _require(criterion == (orders[1] >= 2), f"criterion {criterion} with orders {orders}")


def _check_guard(req: dict, text: str) -> None:
    _require(text == "", "refused request printed to stdout")


_CHECKS = {
    "nd": _check_nd,
    "ed": _check_ed,
    "strata": _check_strata,
    "series": _check_series,
    "guard": _check_guard,
}


def request_digest(reqs: list[dict], run_dir: Path) -> str:
    """Digest of the request list and every input file it reads."""
    h = hashlib.sha256(json.dumps([r["argv"] for r in reqs]).encode())
    for path in sorted(Path(run_dir, NET_DIR).glob("*.json")):
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def golden_digests(workload: str, seed: int, req_digest: str) -> list[str] | None:
    """Recorded digests for this request list, or None for an unrecorded seed.

    A recorded seed whose request list no longer matches raises, since
    comparing against it would fail every request for the wrong reason.
    """
    if not GOLDEN_FILE.is_file():
        return None
    for line in GOLDEN_FILE.read_text(encoding="ascii").splitlines():
        name, s, rd, blob = line.split(" ")
        if name == workload and int(s) == seed:
            if rd != req_digest:
                raise ValueError(
                    f"golden corpus entry for {workload} seed {seed} was recorded "
                    "for a different request list; re-record it"
                )
            return [blob[i : i + DIGEST_CHARS] for i in range(0, len(blob), DIGEST_CHARS)]
    return None
