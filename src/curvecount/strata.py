"""Stratum combinatorics for degree-d maps with 3d-1 markings.

A stratum is indexed by a stable weighted marked graph: a distinguished
tree or a one-circuit graph whose weights sum to d and whose 3d-1 legs
are distributed over the vertices.  This module provides the stability
test, the dimension formulas, the post-deformation dimension bounds,
exhaustive enumeration of isomorphism classes at desk scale, and the
survivor classification (which strata can still meet 3d-1 general point
conditions).

Dimension conventions, with e the distinguished-vertex weight (trees) or
the circuit weight sum (circuit graphs) and k one less than the vertex
count: the stratum is empty iff e = 1; dim = 6d-2-k when e >= 2; and
dim = 6d-k when e = 0.  The deformation bound subtracts 2 exactly when
e = 0 and a vertex off the distinguished/circuit part carries the full
weight d; otherwise it equals the dimension.
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


def is_stable(g: Shape) -> bool:
    """True iff every constrained weight-0 vertex has valence >= 3.

    Valence counts incident edges plus legs.  For trees the distinguished
    vertex is unconstrained; for circuit graphs every vertex is.
    """
    first = 1 if isinstance(g, DistinguishedTree) else 0
    return all(
        g.weights[v] != 0 or g.valence(v) >= 3 for v in range(first, g.n_vertices)
    )


def _weight_part(g: Shape) -> int:
    return g.distinguished_weight if isinstance(g, DistinguishedTree) else g.circuit_weight


def dimension(g: Shape, d: int) -> int | None:
    """Stratum dimension, or None for the empty stratum (e = 1)."""
    if not is_stable(g):
        raise ValueError(f"unstable graph has no stratum: {g.canonical_key}")
    if g.total_weight != d:
        raise ValueError(f"graph weights sum to {g.total_weight}, not d={d}")
    e = _weight_part(g)
    if e == 1:
        return None
    k = g.k
    return 6 * d - 2 - k if e >= 2 else 6 * d - k


def deformation_bound(g: Shape, d: int) -> int | None:
    """Dimension bound after deforming the weight-d component, if any.

    When e = 0 and some vertex outside the distinguished/circuit part
    carries the whole degree d, the stratum's image under deformation
    loses 2 dimensions; every other case keeps the plain dimension.
    """
    dim = dimension(g, d)
    if dim is None:
        return None
    if _weight_part(g) != 0:
        return dim
    if isinstance(g, DistinguishedTree):
        heavy = any(w == d for w in g.weights[1:])
    else:
        on_circuit = set(g.circuit)
        heavy = any(
            g.weights[v] == d for v in range(g.n_vertices) if v not in on_circuit
        )
    return dim - 2 if heavy else dim


@dataclass(frozen=True)
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
        return "tree" if isinstance(self.shape, DistinguishedTree) else "circuit"

    @property
    def e(self) -> int:
        return _weight_part(self.shape)

    @property
    def k(self) -> int:
        return self.shape.k


@dataclass(frozen=True, slots=True)
class ClassifiedStratum:
    """A shape class with its dimension data and survivor verdict."""

    shape_class: ShapeClass
    dim: int
    bound: int
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
    elif n == 2:
        yield ((0, 1),)
    else:
        for seq in itertools.product(range(n), repeat=n - 2):
            yield _pruefer_decode(seq, n)


def _tree_skeletons(d: int, k: int) -> list[DistinguishedTree]:
    """Nonempty weighted tree skeletons with k extra vertices, one per class."""
    n = k + 1
    seen: dict[str, DistinguishedTree] = {}
    for edges in _labeled_trees(n):
        for w in _compositions(d, n):
            if w[0] == 1:
                continue
            skel = DistinguishedTree(w, edges, (0,) * n)
            seen.setdefault(skel.canonical_key, skel)
    return [seen[key] for key in sorted(seen)]


def _circuit_skeletons(d: int, k: int) -> list[CircuitGraph]:
    """Nonempty weighted one-circuit skeletons on k+1 vertices, one per class."""
    n = k + 1
    pairs = list(itertools.combinations(range(n), 2))
    shapes: list[tuple[tuple[int, int], ...]] = []
    for combo in itertools.combinations_with_replacement(pairs, n):
        if any(combo.count(p) > 2 for p in combo):
            continue
        try:
            CircuitGraph((0,) * n, combo, (0,) * n)
        except ValueError:
            continue
        shapes.append(combo)
    seen: dict[str, CircuitGraph] = {}
    for edges in shapes:
        for w in _compositions(d, n):
            skel = CircuitGraph(w, edges, (0,) * n)
            if skel.circuit_weight == 1:
                continue
            seen.setdefault(skel.canonical_key, skel)
    return [seen[key] for key in sorted(seen)]


def _min_legs(skel: Shape) -> tuple[int, ...]:
    """Per-vertex leg minimums forced by stability on the bare skeleton."""
    first = 1 if isinstance(skel, DistinguishedTree) else 0
    req = [0] * skel.n_vertices
    for v in range(first, skel.n_vertices):
        if skel.weights[v] == 0:
            req[v] = max(0, 3 - skel.valence(v))
    return tuple(req)


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


def _with_profile(skel: Shape, profile) -> Shape:
    cls = type(skel)
    return cls(skel.weights, skel.edges, profile)


def _with_labels(skel: Shape, labels) -> Shape:
    cls = type(skel)
    counts = tuple(len(l) for l in labels)
    return cls(skel.weights, skel.edges, counts, labels)


def _skeletons(d: int, max_extra_vertices: int, include_circuits: bool) -> list[Shape]:
    skels: list[Shape] = []
    for k in range(0, max_extra_vertices + 1):
        skels.extend(_tree_skeletons(d, k))
    if include_circuits:
        for k in range(1, max_extra_vertices + 1):
            skels.extend(_circuit_skeletons(d, k))
    return skels


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
                out.append(ShapeClass(_with_profile(skel, profile), mult))
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
                g = _with_labels(skel, tuple(tuple(l) for l in labels))
                classes.setdefault(g.canonical_key, g)
            out.extend(ShapeClass(classes[key], 1) for key in sorted(classes))
    out.sort(key=lambda sc: (sc.kind, sc.shape.canonical_key))
    return out


def classify(shape_class: ShapeClass, d: int) -> ClassifiedStratum:
    """Dimension data and survivor verdict of one shape class.

    A stratum survives iff its deformation bound is at least 6d-2 (the
    codimension of 3d-1 point conditions).  Trees with e = 0, k = 2 and
    both weights positive survive the count but are flagged: such unions
    of two positive-degree curves are avoided geometrically.
    """
    shape = shape_class.shape
    bound = deformation_bound(shape, d)
    note = None
    if (
        isinstance(shape, DistinguishedTree)
        and shape_class.e == 0
        and shape_class.k == 2
        and all(w > 0 for w in shape.weights[1:])
    ):
        note = POSITIVE_PARTITION_NOTE
    return ClassifiedStratum(
        shape_class, dimension(shape, d), bound, bound >= 6 * d - 2, note
    )


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
