"""An oracle for N_d that shares nothing with the Kontsevich recursion.

N_d is counted by labelled floor diagrams (Brugallé–Mikhalkin, "Enumeration
of curves via floor diagrams", C. R. Acad. Sci. Paris 2007; Fomin–Mikhalkin,
"Labeled floor diagrams for plane curves", J. Eur. Math. Soc. 2010).  A
genus-0 diagram of degree d is a tree on the floors 1..d, each edge i -> j
directed up (i < j) and weighted w >= 1, with divergence
div(v) = (weights out) - (weights in) <= 1 at every floor; floor v carries
1 - div(v) legs above it.  Its markings are the linear orders of its floors,
legs and edge midpoints (3d - 1 points) that keep every edge's midpoint
between its floors, every leg above its floor and the floors in label order,
taken up to permuting the legs of one floor.  N_d sums the markings times
the product of w^2.

Nothing here is imported from ``curvecount``: the agreement test reads the
package's counts from the command line's output.
"""

import itertools
import math
import os
import subprocess
import sys
from collections import Counter
from functools import lru_cache
from pathlib import Path

KNOWN = {2: 1, 3: 12, 4: 620, 5: 87304, 6: 26312976}


def _trees(d):
    """Every tree on the floors 1..d, once, as its edges (i, j) with i < j:
    the Prüfer codes decoded."""
    if d == 1:
        yield []
        return
    for code in itertools.product(range(1, d + 1), repeat=d - 2):
        degree = [1] * (d + 1)
        for v in code:
            degree[v] += 1
        edges = []
        for v in code:
            leaf = next(u for u in range(1, d + 1) if degree[u] == 1)
            edges.append((min(leaf, v), max(leaf, v)))
            degree[leaf] -= 1
            degree[v] -= 1
        edges.append(tuple(u for u in range(1, d + 1) if degree[u] == 1))
        yield edges


def _lower_side(edges, edge):
    """The floors still joined to the edge's lower floor once it is cut."""
    seen, stack = {edge[0]}, [edge[0]]
    while stack:
        v = stack.pop()
        for a, b in edges:
            if (a, b) != edge and v in (a, b):
                u = b if v == a else a
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
    return seen


def _leg_placements(d, sides):
    """Yield (legs, weights): d legs on the floors 1..d, and the edge weights
    they force.  An edge's weight is the divergence summed over its lower
    side A, |A| - legs(A), and must be at least 1."""

    def extend(v, room, legs):
        if v > d:
            if sum(legs) == d:
                yield legs, [r + 1 for r in room]
            return
        for count in range(d - sum(legs) + 1):
            after = [r - count if v in side else r for r, side in zip(room, sides)]
            if any(r < 0 for r in after):
                break
            yield from extend(v + 1, after, legs + (count,))

    yield from extend(1, [len(side) - 1 for side in sides], ())


def _markings(d, spans):
    """Linear orders of the floors 1..d, in that order, and one more point
    per (lo, hi) in ``spans``, placed above floor lo and below floor hi
    (hi = d + 1 for no floor above).  Points are placed gap by gap."""
    kinds = Counter(spans)
    keys = sorted(kinds)

    @lru_cache(maxsize=None)
    def fill(gap, left):
        # left[i] points of kind keys[i] still go in the gaps above floor ``gap``.
        if gap == d:
            return math.factorial(sum(left))
        options = [
            (0,) if lo > gap else (r,) if hi == gap + 1 else range(r + 1)
            for (lo, hi), r in zip(keys, left)
        ]
        total = 0
        for pick in itertools.product(*options):
            here = math.factorial(sum(pick)) * math.prod(map(math.comb, left, pick))
            total += here * fill(gap + 1, tuple(r - k for r, k in zip(left, pick)))
        return total

    return fill(1, tuple(kinds[k] for k in keys))


def floor_diagram_count(d):
    """N_d as the weighted count of marked floor diagrams of degree d."""
    total = 0
    for edges in _trees(d):
        sides = [_lower_side(edges, edge) for edge in edges]
        for legs, weights in _leg_placements(d, sides):
            spans = edges + [(v, d + 1) for v in range(1, d + 1) for _ in range(legs[v - 1])]
            count, rem = divmod(
                _markings(d, spans) * math.prod(w * w for w in weights),
                math.prod(map(math.factorial, legs)),
            )
            assert rem == 0, (edges, legs)
            total += count
    return total


def test_floor_diagrams_count_n2_to_n6():
    assert {d: floor_diagram_count(d) for d in KNOWN} == KNOWN


def test_degree_two_has_one_diagram_with_one_marking():
    # Floors 1 -> 2 by a weight-1 edge; floor 2 has divergence -1 and two
    # legs, which may come in either order: 2 orders over 2! = 1.
    assert list(_trees(2)) == [[(1, 2)]]
    assert list(_leg_placements(2, [{1}])) == [((0, 2), [1])]
    assert _markings(2, [(1, 2), (2, 3), (2, 3)]) == 2


def test_agrees_with_rational_count():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-m", "curvecount", "nd", "--max", "6", "--format", "csv"],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    ).stdout
    counts = dict(map(int, line.split(",")) for line in out.splitlines()[1:])
    assert {d: floor_diagram_count(d) for d in range(1, 7)} == counts
