"""Stratum combinatorics for degree-d maps with 3d-1 markings.

A stratum is indexed by a stable weighted marked graph: a distinguished
tree or a one-circuit graph whose weights sum to d and whose 3d-1 legs
are distributed over the vertices.  This module provides the stability
test, the dimension formulas, the post-deformation dimension bounds,
exhaustive enumeration of isomorphism classes at desk scale, and the
survivor classification (which strata can still meet 3d-1 general point
conditions).

Enumeration goes by skeleton, the weighted graph before legs are placed:
each is validated once, its exact class count feeds the guard, its verdict
is found once, and each listed shape is built from it without re-validation,
its canonical key built with it (``_MarkedGraph._with_legs``).
Every listed class is one ``ShapeClass`` record carrying its shape, its
multiplicity and that verdict, which is all a row of the listing needs.

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
    return _dimension(g, d)


def _dimension(g: Shape, d: int) -> int | None:
    """``dimension`` of a skeleton, whose listed leg profiles are all stable."""
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
    """One isomorphism class of shapes, how many marked classes it covers,
    and its stratum's verdict.

    In collapsed mode the shape carries leg counts and multiplicity is the
    number of full marked classes with that leg profile (up to symmetry);
    in full mode the shape carries leg labels and multiplicity is 1.
    ``dim``, ``bound``, ``survivor`` and ``note`` are the stratum dimension,
    the bound after deformation, whether that bound reaches
    ``survivor_threshold(d)``, and the positive-partition note or None
    (see ``classify``).
    """

    shape: Shape
    multiplicity: int
    dim: int | None
    bound: int | None
    survivor: bool
    note: str | None

    @property
    def kind(self) -> str:
        return self.shape.kind

    @property
    def e(self) -> int:
        return self.shape.e

    @property
    def k(self) -> int:
        return self.shape.k


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


def _weighted_skeletons(cls, edge_sets, d: int, n: int):
    """Yield the nonempty (e != 1) weighted skeletons of ``cls`` on n vertices,
    one per class, each as soon as its class is first seen."""
    seen: set[str] = set()
    for edges in edge_sets:
        for w in _compositions(d, n):
            skel = cls(w, edges, (0,) * n)
            if skel.e != 1 and skel.canonical_key not in seen:
                seen.add(skel.canonical_key)
                yield skel


def _apply(perm, profile) -> tuple[int, ...]:
    out = [0] * len(profile)
    for i, value in enumerate(profile):
        out[perm[i]] = value
    return tuple(out)


def _cycle_lengths(perm) -> list[int]:
    lengths, seen = [], set()
    for v in perm:
        length = 0
        while v not in seen:
            seen.add(v)
            v, length = perm[v], length + 1
        if length:
            lengths.append(length)
    return lengths


def _profile_count(autos, req, legs_total: int) -> int:
    """Leg-count profile orbits of a skeleton, by Burnside's lemma.

    sigma fixes a profile exactly when the free legs (those beyond the
    sigma-invariant minimums ``req``) are constant on sigma's cycles, so its
    fixed profiles are the ways to make the free total out of its cycle
    lengths, each cycle used any number of times.
    """
    free = legs_total - sum(req)
    if free < 0:
        return 0
    fixed = 0
    for sigma in autos:
        ways = [1] + [0] * free
        for length in _cycle_lengths(sigma):
            for m in range(length, free + 1):
                ways[m] += ways[m - length]
        fixed += ways[free]
    return fixed // len(autos)


def _marked_count(autos, req, legs_total: int) -> int:
    """Labelled leg assignments of a skeleton up to symmetry, by Burnside's lemma.

    sigma fixes an assignment exactly when every leg sits on a sigma-fixed
    vertex: it fixes none if a vertex it moves needs legs, and otherwise
    legs! [x^legs] of the product, over its fixed vertices v, of e^x less its
    terms x^j/j! for j < req[v].  Independent of ``_profile_orbits``.
    """
    fixed = 0
    for sigma in autos:
        if any(req[v] for v in range(len(sigma)) if sigma[v] != v):
            continue
        # Each fixed vertex takes e^x (None) or one of its subtracted terms j.
        options = [[None, *range(req[v])] for v in range(len(sigma)) if sigma[v] == v]
        for pick in itertools.product(*options):
            short = [j for j in pick if j is not None]
            rest = legs_total - sum(short)
            if rest >= 0:
                ways = math.factorial(legs_total) // math.factorial(rest)
                ways //= math.prod(map(math.factorial, short))
                fixed += (-1) ** len(short) * ways * (len(pick) - len(short)) ** rest
    return fixed // len(autos)


def _orbit_multiplicity(autos, profile, legs_total: int) -> int:
    """Full marked classes with leg-count profile p: multinomial(legs; p)
    times |pointwise stabilizer of p's support| over |stabilizer of p|,
    which is exact because every orbit of assignments with profile p under
    the profile stabilizer has that same uniform size."""
    stab = [sigma for sigma in autos if _apply(sigma, profile) == profile]
    support = [v for v, count in enumerate(profile) if count]
    pointwise = [sigma for sigma in stab if all(sigma[v] == v for v in support)]
    mult, rem = divmod(_multinomial(legs_total, profile) * len(pointwise), len(stab))
    if rem:
        raise AssertionError("orbit count came out fractional; formula misapplied")
    return mult


def _profile_orbits(skel: Shape, autos, req, legs_total: int):
    """Yield (profile, multiplicity) per orbit of valid leg-count profiles,
    the multiplicity from ``_orbit_multiplicity``.  On a rigid skeleton every
    profile is its own orbit, with the multinomial as multiplicity.
    """
    free = legs_total - sum(req)
    if free < 0:
        return
    n = skel.n_vertices
    seen: set[tuple[int, ...]] = set()
    for comp in _compositions(free, n):
        p = tuple(comp[i] + req[i] for i in range(n))
        if len(autos) == 1:
            yield p, _multinomial(legs_total, p)
            continue
        canon = min(_apply(sigma, p) for sigma in autos)
        if canon in seen:
            continue
        seen.add(canon)
        yield canon, _orbit_multiplicity(autos, canon, legs_total)


def _label_sets(legs: tuple[int, ...], profile):
    """Every way to give each vertex v profile[v] of ``legs``, labels ascending."""
    if len(profile) == 1:
        yield (legs,)
        return
    for first in itertools.combinations(legs, profile[0]):
        rest = tuple(sorted(set(legs).difference(first)))
        yield from ((first,) + tail for tail in _label_sets(rest, profile[1:]))


def _labelled_classes(skel: Shape, autos, req, legs_total: int) -> list[Shape]:
    """One shape per class of labelled leg assignments: every class has one whose
    profile is an orbit representative, so only those are tried and deduplicated."""
    legs = tuple(range(1, legs_total + 1))
    classes: dict[str, Shape] = {}
    for profile, _ in _profile_orbits(skel, autos, req, legs_total):
        for labels in _label_sets(legs, profile):
            g = skel._with_legs(profile, labels)
            classes.setdefault(g.canonical_key, g)
    return list(classes.values())


def _skeletons(d: int, max_extra_vertices: int, include_circuits: bool):
    """Yield every weighted skeleton once, by species and then vertex count."""
    species = [(DistinguishedTree, _labeled_trees, 1)]
    if include_circuits:
        species.append((CircuitGraph, _circuit_edge_sets, 2))
    for cls, edge_sets, min_vertices in species:
        for n in range(min_vertices, max_extra_vertices + 2):
            yield from _weighted_skeletons(cls, edge_sets(n), d, n)


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
    mode materializes labelled leg assignments, one class per entry.
    The exact output size is counted first, by Burnside's lemma per
    skeleton; a ResourceGuardError is raised as soon as one skeleton takes
    the running count past the ceiling, before the rest are built.
    """
    _check_guards(d, max_extra_vertices, ceiling)
    legs_total = 3 * d - 1
    count = _profile_count if collapsed else _marked_count
    plans = []
    projected = 0
    for skel in _skeletons(d, max_extra_vertices, include_circuits):
        autos, req = skel.skeleton_automorphisms(), _min_legs(skel)
        projected += count(autos, req, legs_total)
        if projected > ceiling:
            raise ResourceGuardError(
                f"projected class count {projected} exceeds the ceiling {ceiling}",
                projected,
            )
        plans.append((skel, autos, req))
    out: list[ShapeClass] = []
    for skel, autos, req in plans:
        verdict = _verdict(skel, d, _dimension(skel, d))
        if collapsed:
            out.extend(
                ShapeClass(skel._with_legs(profile), mult, *verdict)
                for profile, mult in _profile_orbits(skel, autos, req, legs_total)
            )
        else:
            out.extend(
                ShapeClass(g, 1, *verdict) for g in _labelled_classes(skel, autos, req, legs_total)
            )
    # Ordered by (kind, key) in two stable sorts, so the sort keys are
    # references to strings the classes hold, not a new tuple per class.
    out.sort(key=lambda sc: sc.shape.canonical_key)
    out.sort(key=lambda sc: sc.shape.kind)
    return out


def survivor_threshold(d: int) -> int:
    """The least deformation bound a surviving stratum has: 6d-2, the
    codimension of 3d-1 point conditions."""
    return 6 * d - 2


def _verdict(g: Shape, d: int, dim: int | None) -> tuple:
    """(dim, bound, survivor, note) from the dimension; depends only on g's skeleton."""
    bound = _bound_from(g, d, dim)
    note = None
    if g.kind == "tree" and g.e == 0 and g.k == 2 and all(w > 0 for w in g.weights[1:]):
        note = POSITIVE_PARTITION_NOTE
    return dim, bound, bound is not None and bound >= survivor_threshold(d), note


def classify(shape: Shape, d: int) -> ShapeClass:
    """The ``ShapeClass`` of one stable shape of total weight d.

    A stratum survives iff it is nonempty and its deformation bound is at
    least ``survivor_threshold(d)``.  Trees with e = 0, k = 2 and both
    weights positive survive the count but are flagged: such unions of two
    positive-degree curves are avoided geometrically.  A shape with leg
    labels covers one marked class; one with leg counts covers its profile's
    orbit multiplicity, found from the skeleton automorphisms.
    Raises ValueError for an unstable shape or a wrong d.
    """
    verdict = _verdict(shape, d, dimension(shape, d))
    mult = 1
    if shape.leg_labels is None:
        autos = shape.skeleton_automorphisms()
        mult = _orbit_multiplicity(autos, shape.leg_counts, shape.marking_count)
    return ShapeClass(shape, mult, *verdict)


def classify_survivors(
    d: int,
    max_extra_vertices: int,
    include_circuits: bool = True,
    ceiling: int = DEFAULT_CLASS_CEILING,
) -> list[ShapeClass]:
    """Every collapsed shape class with its verdict (see ``classify``)."""
    return enumerate_shapes(
        d,
        max_extra_vertices,
        collapsed=True,
        include_circuits=include_circuits,
        ceiling=ceiling,
    )
