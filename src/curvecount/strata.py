"""Stratum combinatorics for degree-d maps with 3d-1 markings.

A stratum is indexed by a stable weighted marked graph: a distinguished
tree or a one-circuit graph whose weights sum to d and whose 3d-1 legs
are distributed over the vertices.  This module provides the stability
test, the dimension formulas, the post-deformation dimension bounds,
exhaustive enumeration of isomorphism classes at desk scale, and the
survivor classification (which strata can still meet 3d-1 general point
conditions).

Dimension conventions, with e the weight of the graph's core (the
distinguished vertex of a tree, the circuit of a circuit graph) and k one
less than the vertex count: the stratum is empty iff e = 1; dim = 6d-2-k
when e >= 2; and dim = 6d-k when e = 0.  The deformation bound subtracts 2
exactly when e = 0 and a vertex off the core carries the full weight d;
otherwise it equals the dimension.  Which vertices form the core and which
are exempt from stability is stated by each graph class, so nothing here
branches on the species.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

from .graphs import CircuitGraph, DistinguishedTree

__all__ = [
    "DEFAULT_CLASS_CEILING",
    "MAX_EXTRA_VERTICES",
    "POSITIVE_PARTITION_NOTE",
    "ResourceGuardError",
    "ShapeClass",
    "ClassifiedStratum",
    "is_stable",
    "dimension",
    "deformation_bound",
    "enumerate_shapes",
    "survivor_threshold",
    "classify",
    "classify_survivors",
]

DEFAULT_CLASS_CEILING = 500_000
MAX_EXTRA_VERTICES = 4
POSITIVE_PARTITION_NOTE = "positive partition, geometrically avoided"

Shape = DistinguishedTree | CircuitGraph


class ResourceGuardError(Exception):
    """An enumeration request exceeds the desk-scale guards."""

    def __init__(self, message: str, projected: int | None = None):
        super().__init__(message)
        self.projected = projected


def _min_legs(g: Shape) -> tuple[int, ...]:
    """Legs each vertex lacks for stability: valence (edges plus legs) >= 3
    at every weight-0 vertex outside ``g.distinguished``."""
    free = g.distinguished
    return tuple(
        0 if g.weights[v] or v in free else max(0, 3 - g.valence(v))
        for v in range(g.n_vertices)
    )


def is_stable(g: Shape) -> bool:
    """True iff no vertex lacks legs for stability (see ``_min_legs``)."""
    return not any(_min_legs(g))


def dimension(g: Shape, d: int) -> int | None:
    """Stratum dimension, or None for the empty stratum (e = 1)."""
    if not is_stable(g):
        raise ValueError(f"unstable graph has no stratum: {g.canonical_key}")
    if g.total_weight != d:
        raise ValueError(f"graph weights sum to {g.total_weight}, not d={d}")
    e = g.e
    if e == 1:
        return None
    k = g.k
    return 6 * d - 2 - k if e >= 2 else 6 * d - k


def deformation_bound(g: Shape, d: int) -> int | None:
    """Dimension bound after deforming the weight-d component, if any.

    When e = 0 and some vertex off the core carries the whole degree d, the stratum's image under deformation
    loses 2 dimensions; every other case keeps the plain dimension.
    """
    return _bound_from(g, d, dimension(g, d))


def _bound_from(g: Shape, d: int, dim: int | None) -> int | None:
    if dim is None or g.e != 0:
        return dim
    core = g.core
    return dim - 2 if any(w == d for v, w in enumerate(g.weights) if v not in core) else dim


@dataclass(frozen=True, slots=True)
class ShapeClass:
    """One isomorphism class of shapes plus how many marked classes it covers.

    In collapsed mode the shape carries leg counts and multiplicity is the
    number of full marked classes with that leg profile (up to symmetry);
    in full mode the shape carries leg labels and multiplicity is 1.
    """

    shape: Shape
    multiplicity: int

    @property
    def kind(self) -> str:
        return self.shape.kind

    @property
    def e(self) -> int:
        return self.shape.e

    @property
    def k(self) -> int:
        return self.shape.k


@dataclass(frozen=True, slots=True)
class ClassifiedStratum:
    """A shape class with its dimension data and survivor verdict."""

    shape_class: ShapeClass
    dim: int | None
    bound: int | None
    survivor: bool
    note: str | None


def _compositions(total: int, parts: int):
    """All tuples of `parts` non-negative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _multinomial(total: int, parts) -> int:
    out = 1
    rest = total
    for p in parts:
        out *= math.comb(rest, p)
        rest -= p
    return out


def _pruefer_decode(seq, n: int) -> tuple[tuple[int, int], ...]:
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    heap = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(heap)
    edges = []
    for x in seq:
        leaf = heapq.heappop(heap)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(heap, x)
    edges.append((heapq.heappop(heap), heapq.heappop(heap)))
    return tuple(edges)


def _labeled_trees(n: int):
    if n == 1:
        yield ()
    else:
        for seq in itertools.product(range(n), repeat=n - 2):
            yield _pruefer_decode(seq, n)


def _circuit_edge_sets(n: int):
    """Edge multisets on n vertices that form a one-circuit graph."""
    pairs = list(itertools.combinations(range(n), 2))
    for combo in itertools.combinations_with_replacement(pairs, n):
        try:
            CircuitGraph((0,) * n, combo, (0,) * n)
        except ValueError:
            continue
        yield combo


def _weighted_skeletons(cls, edge_sets, d: int, n: int) -> list[Shape]:
    """Nonempty (e != 1) weighted skeletons of ``cls`` on n vertices, one per class."""
    seen: dict[str, Shape] = {}
    for edges in edge_sets:
        for w in _compositions(d, n):
            skel = cls(w, edges, (0,) * n)
            if skel.e != 1:
                seen.setdefault(skel.canonical_key, skel)
    return [seen[key] for key in sorted(seen)]


def _apply(perm, profile) -> tuple[int, ...]:
    out = [0] * len(profile)
    for i, value in enumerate(profile):
        out[perm[i]] = value
    return tuple(out)


def _profile_orbits(skel: Shape, legs_total: int):
    """Yield (profile, multiplicity) per orbit of valid leg-count profiles.

    The multiplicity counts full marked classes: multinomial(legs; p)
    times |pointwise stabilizer of p's support| over |stabilizer of p|,
    which is exact because every orbit of assignments with profile p under
    the profile stabilizer has that same uniform size.
    """
    req = _min_legs(skel)
    free = legs_total - sum(req)
    if free < 0:
        return
    n = skel.n_vertices
    autos = skel.skeleton_automorphisms()
    seen: set[tuple[int, ...]] = set()
    for comp in _compositions(free, n):
        p = tuple(comp[i] + req[i] for i in range(n))
        canon = min(_apply(sigma, p) for sigma in autos)
        if canon in seen:
            continue
        seen.add(canon)
        stab = [sigma for sigma in autos if _apply(sigma, canon) == canon]
        support = [v for v in range(n) if canon[v] > 0]
        pointwise = [sigma for sigma in stab if all(sigma[v] == v for v in support)]
        mult, rem = divmod(_multinomial(legs_total, canon) * len(pointwise), len(stab))
        if rem:
            raise AssertionError("orbit count came out fractional; formula misapplied")
        yield canon, mult


def _with_legs(skel: Shape, counts, labels=None) -> Shape:
    return type(skel)(skel.weights, skel.edges, counts, labels)


def _skeletons(d: int, max_extra_vertices: int, include_circuits: bool) -> list[Shape]:
    species = [(DistinguishedTree, _labeled_trees, 1)]
    if include_circuits:
        species.append((CircuitGraph, _circuit_edge_sets, 2))
    return [
        skel
        for cls, edge_sets, min_vertices in species
        for n in range(min_vertices, max_extra_vertices + 2)
        for skel in _weighted_skeletons(cls, edge_sets(n), d, n)
    ]


def _check_guards(d: int, max_extra_vertices: int, ceiling: int) -> None:
    if d < 3:
        raise ValueError(f"strata are defined for d >= 3, got {d}")
    if max_extra_vertices < 0:
        raise ValueError(f"max_extra_vertices must be >= 0, got {max_extra_vertices}")
    if ceiling < 1:
        raise ValueError(f"class ceiling must be positive, got {ceiling}")
    if max_extra_vertices > MAX_EXTRA_VERTICES:
        raise ResourceGuardError(
            f"max_extra_vertices {max_extra_vertices} exceeds the desk-scale "
            f"guard {MAX_EXTRA_VERTICES}"
        )


def enumerate_shapes(
    d: int,
    max_extra_vertices: int,
    collapsed: bool = True,
    include_circuits: bool = False,
    ceiling: int = DEFAULT_CLASS_CEILING,
) -> list[ShapeClass]:
    """All stable nonempty shape classes with at most the given extra vertices.

    Collapsed mode returns leg-count profiles with multiplicities; full
    mode materializes labelled leg assignments, one class per entry.  The
    projected output size is computed first and a ResourceGuardError is
    raised when it exceeds the ceiling.
    """
    _check_guards(d, max_extra_vertices, ceiling)
    legs_total = 3 * d - 1
    skels = _skeletons(d, max_extra_vertices, include_circuits)
    if collapsed:
        projected = sum(
            math.comb(legs_total + s.n_vertices - 1, s.n_vertices - 1) for s in skels
        )
    else:
        projected = sum(
            mult for s in skels for _, mult in _profile_orbits(s, legs_total)
        )
    if projected > ceiling:
        raise ResourceGuardError(
            f"projected class count {projected} exceeds the ceiling {ceiling}",
            projected,
        )
    out: list[ShapeClass] = []
    for skel in skels:
        if collapsed:
            for profile, mult in _profile_orbits(skel, legs_total):
                out.append(ShapeClass(_with_legs(skel, profile), mult))
        else:
            req = _min_legs(skel)
            n = skel.n_vertices
            classes: dict[str, Shape] = {}
            for assignment in itertools.product(range(n), repeat=legs_total):
                counts = [0] * n
                for v in assignment:
                    counts[v] += 1
                if any(counts[v] < req[v] for v in range(n)):
                    continue
                labels: list[list[int]] = [[] for _ in range(n)]
                for leg, v in enumerate(assignment, start=1):
                    labels[v].append(leg)
                g = _with_legs(skel, tuple(counts), tuple(tuple(l) for l in labels))
                classes.setdefault(g.canonical_key, g)
            out.extend(ShapeClass(classes[key], 1) for key in sorted(classes))
    out.sort(key=lambda sc: (sc.kind, sc.shape.canonical_key))
    return out


def survivor_threshold(d: int) -> int:
    """The least deformation bound a surviving stratum has: 6d-2, the
    codimension of 3d-1 point conditions."""
    return 6 * d - 2


def classify(shape_class: ShapeClass, d: int) -> ClassifiedStratum:
    """Dimension data and survivor verdict of one shape class.

    A stratum survives iff it is nonempty and its deformation bound is at
    least ``survivor_threshold(d)``.  Trees with e = 0, k = 2 and both
    weights positive survive the count but are flagged: such unions of two
    positive-degree curves are avoided geometrically.
    """
    shape = shape_class.shape
    dim = dimension(shape, d)
    bound = _bound_from(shape, d, dim)
    note = None
    if (
        shape.kind == "tree"
        and shape.e == 0
        and shape.k == 2
        and all(w > 0 for w in shape.weights[1:])
    ):
        note = POSITIVE_PARTITION_NOTE
    survivor = bound is not None and bound >= survivor_threshold(d)
    return ClassifiedStratum(shape_class, dim, bound, survivor, note)


def classify_survivors(
    d: int,
    max_extra_vertices: int,
    include_circuits: bool = True,
    ceiling: int = DEFAULT_CLASS_CEILING,
) -> list[ClassifiedStratum]:
    """Classify every collapsed shape class (see ``classify``)."""
    shapes = enumerate_shapes(
        d,
        max_extra_vertices,
        collapsed=True,
        include_circuits=include_circuits,
        ceiling=ceiling,
    )
    return [classify(sc, d) for sc in shapes]
