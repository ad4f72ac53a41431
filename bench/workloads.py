"""Seeded request lists for the three benchmark workloads.

``build(workload, seed, run_dir)`` returns the list of requests one pass
of the workload makes, and writes the input files those requests read
(series nets) under ``run_dir``.  The same seed always gives the same
requests and the same files.  A request is a plain dict:

    argv    the CLI arguments, relative to ``run_dir``
    expect  the exit code a correct program returns
    check   which output check applies: nd, ed, strata, series or guard
    fmt     the output format the argv selects

plus the facts its check needs (degrees, j-class, strata parameters,
evaluation point, whether a net was built to satisfy the root-sum
relation, and the collapsed/full cross-check pair it belongs to).

The seed varies degrees within narrow bands, j-classes, formats, flags,
nets, points and request order, but every pass of a workload holds the
same kinds of request in the same numbers, so the cost of a pass moves
little from seed to seed.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("recursion", "strata", "desk-mix")
FORMATS = ("plain", "json", "csv")
CACHE_FILE = "cache.txt"
NET_DIR = "nets"

# The collapsed/full pairs whose marked total and class count must agree:
# (d, max_extra, include_circuits).
STRATA_PAIRS = ((3, 2, False), (5, 1, False), (4, 1, False), (3, 1, True))
# Collapsed requests that only the strata workload makes.  With the pairs
# a pass has an odd number of requests, and its middle one (5, 2, True)
# is clear of its neighbours in cost, so the median request is stable.
STRATA_HEAVY = ((5, 3, False), (4, 3, True), (4, 3, False), (3, 3, True), (5, 2, True), (4, 2, True), (5, 2, False))
# Fixed formats, by (d, max_extra, include_circuits, full), for the three
# costliest listings and the middle one, whose times the p99 and the
# median read; the other requests take seeded formats.  Heavy listings
# that may be asked for survivors only:
STRATA_FORMATS = {(5, 1, False, True): "plain", (3, 2, False, True): "json", (5, 3, False, False): "csv", (5, 2, True, False): "plain"}
STRATA_SURVIVORS = ((4, 3, False), (3, 3, True), (4, 2, True), (5, 2, False))
# Small collapsed requests of the desk mix, each a few milliseconds.
DESK_STRATA = ((3, 1, False), (3, 1, True), (4, 1, False), (4, 1, True), (5, 1, False), (5, 1, True))
DESK_SIZES = {"series": 850, "nd": 40, "ed": 60, "strata": 30, "guard": 20}
SERIES_DEGREES = range(3, 13)
J_SELECTORS = ("all", "generic", "0", "1728")


def build(workload: str, seed: int, run_dir: str | Path) -> list[dict]:
    """The request list of one pass of ``workload`` for ``seed``."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, Path(run_dir))


def _formats(rng: random.Random, n: int) -> list[str]:
    """n formats, as evenly spread over the three as n allows, in seeded order."""
    out = [FORMATS[i % len(FORMATS)] for i in range(n)]
    rng.shuffle(out)
    return out


def _spread(rng: random.Random, lo: int, hi: int, n: int) -> list[int]:
    """n integers in [lo, hi), one drawn from each of n equal slices."""
    width = hi - lo
    return [lo + rng.randrange(i * width // n, max(i * width // n + 1, (i + 1) * width // n)) for i in range(n)]


def _with_format(argv: list[str], fmt: str) -> list[str]:
    return argv if fmt == "plain" else argv + ["--format", fmt]


def _nd(max_d: int, fmt: str, cache: bool = False) -> dict:
    argv = ["nd", "--max", str(max_d)] + (["--cache", CACHE_FILE] if cache else [])
    return {"argv": _with_format(argv, fmt), "expect": 0, "check": "nd", "fmt": fmt, "max": max_d}


def _ed(d: int, j: str, fmt: str, cache: bool = False) -> dict:
    argv = ["ed", "--d", str(d)]
    if j != "all":
        argv += ["--j", j]
    if cache:
        argv += ["--cache", CACHE_FILE]
    return {"argv": _with_format(argv, fmt), "expect": 0, "check": "ed", "fmt": fmt, "d": d, "j": j}


def _strata(d, k, circuits, full, survivors, fmt, pair=None) -> dict:
    argv = ["strata", "--d", str(d), "--max-extra", str(k)]
    argv += ["--full"] * full + ["--include-circuits"] * circuits + ["--survivors-only"] * survivors
    return {
        "argv": _with_format(argv, fmt),
        "expect": 0,
        "check": "strata",
        "fmt": fmt,
        "d": d,
        "k": k,
        "circuits": circuits,
        "full": full,
        "survivors": survivors,
        "pair": pair,
    }


def _merge(rng: random.Random, a: list, b: list) -> list:
    """Interleave two lists in seeded order, keeping each list's own order."""
    out, i, j = [], 0, 0
    while i < len(a) or j < len(b):
        take_a = j == len(b) or (i < len(a) and rng.random() < (len(a) - i) / (len(a) - i + len(b) - j))
        if take_a:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    return out


def _recursion(rng: random.Random, run_dir: Path) -> list[dict]:
    """Eight cold requests interleaved with a cache fill and five cached ones.

    The two degree-450 fills dominate the pass; the other degrees move
    within narrow bands, so the pass cost hardly depends on the seed.  Four
    cold requests near degree 300 sit in the middle of the cost order, so
    the median request is a compute-bound one rather than a cached one,
    whose time is mostly waiting on the disk.
    """
    cold_fmt, cached_fmt = _formats(rng, 8), _formats(rng, 6)
    cold_d = [450, 400 + rng.randint(-5, 5), 350 + rng.randint(-5, 5)] + [300 + rng.randint(-2, 2) for _ in range(4)]
    cold = [_ed(d, rng.choice(J_SELECTORS), f) for d, f in zip(cold_d, cold_fmt)]
    cold.append(_nd(200, cold_fmt[7]))
    cached = [_ed(rng.randint(300, 450), rng.choice(J_SELECTORS), f, cache=True) for f in cached_fmt[1:4]]
    cached += [_nd(rng.randint(100, 200), f, cache=True) for f in cached_fmt[4:]]
    rng.shuffle(cold)
    rng.shuffle(cached)
    fill = _ed(450, "all", cached_fmt[0], cache=True)
    return _merge(rng, cold, [fill] + cached)


def _strata_workload(rng: random.Random, run_dir: Path) -> list[dict]:
    """Full/collapsed cross-check pairs plus the heavy collapsed listings.

    The costliest listings and the median one have fixed formats, and
    only cheaper listings may be survivors-only, so the pass cost and the
    request-time quantiles do not hinge on the seed.
    """
    specs = []
    for d, k, circuits in STRATA_PAIRS:
        pair = f"{d}:{k}:{int(circuits)}"
        specs += [(d, k, circuits, True, pair), (d, k, circuits, False, pair)]
    specs += [(d, k, circuits, False, None) for d, k, circuits in STRATA_HEAVY]
    fmts = {i: STRATA_FORMATS[spec[:4]] for i, spec in enumerate(specs) if spec[:4] in STRATA_FORMATS}
    rest = [i for i in range(len(specs)) if i not in fmts]
    fmts.update(zip(rest, _formats(rng, len(rest))))
    survivors = rng.sample(STRATA_SURVIVORS, 2)
    reqs = [
        _strata(d, k, circuits, full, (d, k, circuits) in survivors, fmts[i], pair)
        for i, (d, k, circuits, full, pair) in enumerate(specs)
    ]
    rng.shuffle(reqs)
    return reqs


def _coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.randrange(-9, 10), rng.randrange(1, 8))


def _rank(rows: list[list[Fraction]]) -> int:
    mat = [list(r) for r in rows]
    rank = 0
    for col in range(len(mat[0])):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for r in range(rank + 1, len(mat)):
            factor = mat[r][col] / mat[rank][col]
            mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def _random_net(rng: random.Random, degree: int, constrained: bool) -> list[list[Fraction]]:
    """A rank-3 net with no base point at infinity (row 0 has full degree).

    When ``constrained``, every row satisfies b_{d-1} = -K * b_d for one
    seeded K, so the root-sum relation holds by construction.
    """
    while True:
        rows = [[_coeff(rng) for _ in range(degree + 1)] for _ in range(3)]
        rows[0][degree] = Fraction(rng.randrange(1, 10), rng.randrange(1, 8))
        if constrained:
            k = _coeff(rng)
            for row in rows:
                row[degree - 1] = -k * row[degree]
        if _rank(rows) == 3:
            return rows


def _series(rng: random.Random, run_dir: Path, index: int, degree: int, fmt: str) -> dict:
    constrained = rng.random() < 0.4
    rows = _random_net(rng, degree, constrained)
    name = f"{NET_DIR}/{index:04d}.json"
    doc = {"degree": degree, "basis": [[str(x) for x in row] for row in rows]}
    (run_dir / name).write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")
    argv = ["series", name]
    where = rng.choice(("default", "flag", "point", "point"))
    point = "infinity"
    if where == "flag":
        argv.append("--at-infinity")
    elif where == "point":
        p = _coeff(rng)
        point = str(p)
        # "--at -2/5" is read as an option and exits 2 (a known defect);
        # negative points use the "--at=-2/5" spelling, which works.
        argv += [f"--at={p}"] if p < 0 else ["--at", str(p)]
    return {
        "argv": _with_format(argv, fmt),
        "expect": 0,
        "check": "series",
        "fmt": fmt,
        "point": point,
        "constrained": constrained,
    }


def _desk_mix(rng: random.Random, run_dir: Path) -> list[dict]:
    """About a thousand small requests, 85% of them series nets.

    Degrees and strata parameters are spread evenly, not drawn
    independently, so the mix of request costs is the same on every seed.
    """
    (run_dir / NET_DIR).mkdir(parents=True, exist_ok=True)
    n_series = DESK_SIZES["series"]
    degrees = [SERIES_DEGREES[i % len(SERIES_DEGREES)] for i in range(n_series)]
    rng.shuffle(degrees)
    fmts = _formats(rng, n_series)
    reqs = [_series(rng, run_dir, i, deg, f) for i, (deg, f) in enumerate(zip(degrees, fmts))]
    n = DESK_SIZES["nd"]
    reqs += [_nd(m, f) for m, f in zip(_spread(rng, 1, 80, n), _formats(rng, n))]
    n = DESK_SIZES["ed"]
    reqs += [
        _ed(d, rng.choice(J_SELECTORS), f)
        for d, f in zip(_spread(rng, 3, 80, n), _formats(rng, n))
    ]
    n = DESK_SIZES["strata"]
    reqs += [
        _strata(*DESK_STRATA[i % len(DESK_STRATA)], False, rng.random() < 0.3, f)
        for i, f in enumerate(_formats(rng, n))
    ]
    for f in _formats(rng, DESK_SIZES["guard"]):
        req = _strata(4, 2, False, True, False, f)
        req.update(expect=4, check="guard")
        reqs.append(req)
    rng.shuffle(reqs)
    return reqs


_BUILDERS = {"recursion": _recursion, "strata": _strata_workload, "desk-mix": _desk_mix}
