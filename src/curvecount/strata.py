"""Stratum combinatorics for degree-d maps with 3d-1 markings.

A stratum is indexed by a stable weighted marked graph: a distinguished
tree or a one-circuit graph whose weights sum to d and whose 3d-1 legs
are distributed over the vertices.  This module provides the stability
test, the dimension formulas, the post-deformation dimension bounds,
exhaustive enumeration of isomorphism classes at desk scale, and the
survivor classification (which strata can still meet 3d-1 general point
conditions).

Enumeration goes by skeleton, the weighted graph before legs are placed.
Each unweighted shape is built, and its group searched, once per isomorphism
class.  One pass over a group, ``_stabilizer_if_least``, picks the
weightings, leg profiles and leg labellings that are listed (those least in
their orbit) and gives a kept weighting's or profile's stabilizer, which is
the group one level down.  Full mode walks a profile's labellings by flat
``combinations`` picks, each last vertex taking the complement of the picks,
which runs in reverse lexicographic order.  A profile with a one-element
stabilizer needs no pass at all: its keys are spelled straight from the label
strings, each vertex's labels joined once per pick.  Each skeleton is
validated once, its exact class count feeds the guard after a floor on it
(one binomial, or in full mode a capped power), so a large d is refused
before any count that grows with d, and its ``Verdict`` is found once.  A
listed class is a lean ``ShapeClass``: its canonical key, built by the
skeleton from the class's leg cells with no graph of its own, its
multiplicity and its skeleton's verdict, all a row of the listing needs.
``ShapeClass.shape`` parses the key back into a graph on request.

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

import itertools
import math
from dataclasses import dataclass
from functools import partial
from operator import add, attrgetter
from typing import NamedTuple

from .graphs import CircuitGraph, DistinguishedTree, _apply, from_key

__all__ = [
    "DEFAULT_CLASS_CEILING",
    "MAX_EXTRA_VERTICES",
    "POSITIVE_PARTITION_NOTE",
    "ResourceGuardError",
    "ShapeClass",
    "Verdict",
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


def _stable(g: Shape) -> Shape:
    """g itself; ValueError if it is unstable and so has no stratum."""
    if not is_stable(g):
        raise ValueError(f"unstable graph has no stratum: {g.canonical_key}")
    return g


def dimension(g: Shape, d: int) -> int | None:
    """Stratum dimension, or None for the empty stratum (e = 1)."""
    return _verdict(_stable(g), d).dim


def deformation_bound(g: Shape, d: int) -> int | None:
    """Dimension bound after deforming the weight-d component, if any.

    When e = 0 and a vertex off the core carries the whole degree d, the stratum's
    image under deformation loses 2 dimensions; otherwise the bound is the dimension.
    """
    return _verdict(_stable(g), d).bound


class Verdict(NamedTuple):
    """What a stratum's skeleton decides at degree d: its species, core
    weight e and vertex count less one k, then the stratum dimension, the
    bound after deformation, whether that bound reaches
    ``survivor_threshold(d)``, and the positive-partition note or None
    (see ``classify``).  Every class of one skeleton shares it."""

    kind: str
    e: int
    k: int
    dim: int | None
    bound: int | None
    survivor: bool
    note: str | None


@dataclass(frozen=True, slots=True)
class ShapeClass:
    """One isomorphism class of shapes: its canonical key, how many marked
    classes it covers, and its stratum's verdict.

    In collapsed mode the key carries leg counts and multiplicity is the
    number of full marked classes with that leg profile (up to symmetry);
    in full mode the key carries leg labels and multiplicity is 1.  The
    verdict's fields read as attributes of the class; ``shape`` parses the
    key back into its graph (``graphs.from_key``), a new one on each read.
    """

    key: str
    multiplicity: int
    verdict: Verdict

    @property
    def shape(self) -> Shape:
        return from_key(self.key)

    kind = property(attrgetter("verdict.kind"))
    e = property(attrgetter("verdict.e"))
    k = property(attrgetter("verdict.k"))
    dim = property(attrgetter("verdict.dim"))
    bound = property(attrgetter("verdict.bound"))
    survivor = property(attrgetter("verdict.survivor"))
    note = property(attrgetter("verdict.note"))


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


def _shapes(cls, n: int, extra_edges: int) -> list[Shape]:
    """The unweighted graphs of ``cls`` on n vertices, one per isomorphism
    class.  Every tree has a labelling in which each vertex v > 0 hangs from
    an earlier one, so the trees are the parent arrays; a one-circuit graph is
    such a tree plus ``extra_edges`` = 1 more pair, which may double an edge."""
    zeros = (0,) * n
    pairs = list(itertools.combinations(range(n), 2))
    shapes: dict[str, Shape] = {}
    for parents in itertools.product(*map(range, range(1, n))):
        tree = tuple(enumerate(parents, start=1))
        for extra in itertools.combinations(pairs, extra_edges):
            g = cls(zeros, tree + extra, zeros)
            shapes.setdefault(g.canonical_key, g)
    return list(shapes.values())


def _stabilizer_if_least(autos, vector) -> tuple | None:
    """The elements of the group ``autos`` that fix ``vector``, in their
    order, or None if ``vector`` is not the least of its orbit under
    ``autos``; one pass, each element applied once.  A one-element group is
    the identity alone, which fixes every vector and leaves it least, so it
    is returned without a pass."""
    if len(autos) == 1:
        return autos
    stab = []
    for sigma in autos:
        image = _apply(sigma, vector)
        if image < vector:
            return None
        if image == vector:
            stab.append(sigma)
    return tuple(stab)


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


def _profile_floor(autos, req, legs_total: int) -> int:
    """A lower bound on ``_profile_count`` from one binomial: the identity's
    fixed profiles over the group order, since no Burnside term is negative.
    It is the count itself for a one-element group, a one-vertex skeleton's
    among them."""
    free = legs_total - sum(req)
    if free < 0:
        return 0
    return math.comb(free + len(req) - 1, len(req) - 1) // len(autos)


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
                ways = math.perm(legs_total, legs_total - rest)
                ways //= math.prod(map(math.factorial, short))
                fixed += (-1) ** len(short) * ways * (len(pick) - len(short)) ** rest
    return fixed // len(autos)


def _marked_floor(autos, req, legs_total: int, ceiling: int) -> int:
    """A lower bound on ``_marked_count``: n**free, the identity's fixed
    assignments that place the required legs one way, over the group order,
    the power stopped once past ceiling times that order (so few digits)."""
    cap = (ceiling + 1) * len(autos)
    return len(req) ** min(legs_total - sum(req), cap.bit_length()) // len(autos)


def _orbit_multiplicity(stab, profile, legs_total: int) -> int:
    """Full marked classes with leg-count profile p, given p's stabilizer
    ``stab``: multinomial(legs; p) times |pointwise stabilizer of p's support|
    over |stab|, which is exact because every orbit of assignments with
    profile p under ``stab`` has that same uniform size."""
    mult = _multinomial(legs_total, profile)
    if len(stab) == 1:
        return mult
    support = [v for v, count in enumerate(profile) if count]
    pointwise = [sigma for sigma in stab if all(sigma[v] == v for v in support)]
    mult, rem = divmod(mult * len(pointwise), len(stab))
    if rem:
        raise AssertionError("orbit count came out fractional; formula misapplied")
    return mult


def _profile_orbits(autos, req, legs_total: int):
    """Yield (profile, stabilizer) per orbit of valid leg-count profiles: the
    orbit's least profile and its stabilizer in ``autos``."""
    free = legs_total - sum(req)
    if free < 0:
        return
    for comp in _compositions(free, len(req)):
        p = tuple(map(add, comp, req))
        stab = _stabilizer_if_least(autos, p)
        if stab is not None:
            yield p, stab


def _splits(labels, size: int, spell):
    """``spell`` of each pick of ``size`` of ``labels`` and, in step, of the
    rest, both in the order ``labels`` has them.  Complements of equal-size
    picks come in reverse lexicographic order, so each rest is the pick's
    partner in the reversed list of picks of the complementary size: no set
    difference and no sort.  Each pick is spelled as it is drawn, so where
    ``spell`` keeps no tuple, ``combinations`` reuses its one tuple and the
    list holds only the spellings."""
    picks = map(spell, itertools.combinations(labels, size))
    return picks, reversed(list(map(spell, itertools.combinations(labels, len(labels) - size))))


def _label_sets(labels, profile):
    """Every way to give each vertex v profile[v] of ``labels``, each vertex's
    in the order ``labels`` has them: a ``_splits`` pick for each vertex but
    the last, which takes the rest; only profiles of three or more vertices
    recurse."""
    if len(profile) == 1:
        yield (labels,)
        return
    picks, rests = _splits(labels, profile[0], tuple)
    if len(profile) == 2:
        yield from zip(picks, rests)
    else:
        for first, rest in zip(picks, rests):
            yield from ((first, *tail) for tail in _label_sets(rest, profile[1:]))


def _spelled_keys(key, names, profile):
    """``key`` of the joined label strings of each vertex, for every labelling
    in ``_label_sets(names, profile)``: each vertex's labels but the last are
    joined once per pick, and bound into ``key`` for every split of the rest."""
    join = ",".join
    if len(profile) == 1:
        yield key(join(names))
    elif len(profile) == 2:
        yield from map(key, *_splits(names, profile[0], join))
    else:
        for first, rest in _label_sets(names, (profile[0], len(names) - profile[0])):
            yield from _spelled_keys(partial(key, join(first)), rest, profile[1:])


def _labelled_keys(skel: Shape, autos, req, names):
    """Yield the key of each class of labelled leg assignments.  Each class
    has labellings whose profile is the least of its orbit; those form one
    orbit under that profile's stabilizer, whose least labelling, by ints (as
    strings "{10}" < "{2}"), is keyed, spelled from names[x], label x's string.
    Under a one-element stabilizer every labelling is least, so it is spelled
    straight from the strings ``names[1:]``."""
    legs = tuple(range(1, len(names)))
    template = skel._template
    if template is not None:
        # Its only braces are the placeholders: "{v}" becomes "{{{v}}}", which
        # fills in vertex v's labels inside the cell's own braces.
        key = template.replace("{", "{{{").replace("}", "}}}").format
    else:

        def key(*labels):
            return skel._walk(["{" + own + "}" for own in labels])

    for profile, stab in _profile_orbits(autos, req, len(legs)):
        if len(stab) == 1:
            yield from _spelled_keys(key, names[1:], profile)
            continue
        for labels in _label_sets(legs, profile):
            if _stabilizer_if_least(stab, labels) is not None:
                yield key(*[",".join([names[x] for x in own]) for own in labels])


def _skeletons(d: int, max_extra_vertices: int, include_circuits: bool):
    """Yield (skeleton, group) for every nonempty (e != 1) weighted skeleton
    once, by species and then vertex count: each shape with each weighting
    least in its orbit under the shape's group, and that weighting's stabilizer."""
    species = [(DistinguishedTree, 1, 0)]
    if include_circuits:
        species.append((CircuitGraph, 2, 1))
    for cls, min_vertices, extra_edges in species:
        for n in range(min_vertices, max_extra_vertices + 2):
            for shape in _shapes(cls, n, extra_edges):
                autos = shape.skeleton_automorphisms()
                for w in _compositions(d, n):
                    stab = _stabilizer_if_least(autos, w)
                    if stab is not None:
                        skel = cls(w, shape.edges, shape.leg_counts)
                        if skel.e != 1:
                            yield skel, stab


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


def _check_projection(projected: int, ceiling: int) -> None:
    if projected > ceiling:
        raise ResourceGuardError(
            f"projected class count {projected} exceeds the ceiling {ceiling}", projected
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
    the running count past the ceiling, before the rest are built.  A
    skeleton's floor (``_profile_floor``, one binomial, or ``_marked_floor``,
    a capped power) is checked before its Burnside sum, whose cost grows
    with d, so a refusal at large d is cheap; the total it reports then
    counts that skeleton by its floor, at most its exact count.
    """
    _check_guards(d, max_extra_vertices, ceiling)
    legs_total = 3 * d - 1
    plans = []
    projected = 0
    for skel, autos in _skeletons(d, max_extra_vertices, include_circuits):
        req = _min_legs(skel)
        if collapsed:
            floor, count = _profile_floor(autos, req, legs_total), _profile_count
        else:
            floor, count = _marked_floor(autos, req, legs_total, ceiling), _marked_count
        _check_projection(projected + floor, ceiling)
        # Under the identity alone a floor is the count, in full mode if no vertex requires legs.
        exact = len(autos) == 1 and (collapsed or not any(req))
        projected += floor if exact else count(autos, req, legs_total)
        _check_projection(projected, ceiling)
        plans.append((skel, autos, req))
    names = None if collapsed else tuple(map(str, range(legs_total + 1)))  # label x's string
    out: list[ShapeClass] = []
    for skel, autos, req in plans:
        verdict = _verdict(skel, d)
        if collapsed:
            out.extend(
                ShapeClass(skel._key(p), _orbit_multiplicity(stab, p, legs_total), verdict)
                for p, stab in _profile_orbits(autos, req, legs_total)
            )
        else:
            out.extend(
                ShapeClass(key, 1, verdict) for key in _labelled_keys(skel, autos, req, names)
            )
    # Ordered by (kind, key) in two stable sorts, so the sort keys are
    # references to strings the classes hold, not a new tuple per class.
    out.sort(key=lambda sc: sc.key)
    out.sort(key=lambda sc: sc.verdict.kind)
    return out


def survivor_threshold(d: int) -> int:
    """The least deformation bound a surviving stratum has: 6d-2, the
    codimension of 3d-1 point conditions."""
    return 6 * d - 2


def _verdict(g: Shape, d: int) -> Verdict:
    """The ``Verdict`` of g at degree d, by the module docstring's conventions;
    it depends only on g's skeleton, so its leg profiles share it."""
    if g.total_weight != d:
        raise ValueError(f"graph weights sum to {g.total_weight}, not d={d}")
    kind, e, k = g.kind, g.e, g.k
    if e == 1:
        return Verdict(kind, e, k, None, None, False, None)
    dim = bound = 6 * d - 2 - k if e >= 2 else 6 * d - k
    if e == 0 and any(w == d for v, w in enumerate(g.weights) if v not in g.core):
        bound -= 2
    positive = kind == "tree" and e == 0 and k == 2 and all(w > 0 for w in g.weights[1:])
    note = POSITIVE_PARTITION_NOTE if positive else None
    return Verdict(kind, e, k, dim, bound, bound >= survivor_threshold(d), note)


def classify(shape: Shape, d: int) -> ShapeClass:
    """The ``ShapeClass`` of one stable shape of total weight d.

    A stratum survives iff it is nonempty and its deformation bound is at
    least ``survivor_threshold(d)``.  Trees with e = 0, k = 2 and both
    weights positive survive the count but are flagged: such unions of two
    positive-degree curves are avoided geometrically.  A shape with leg
    labels covers one marked class; one with leg counts covers its profile's
    orbit multiplicity, found from the stabilizer of its orbit's least profile
    in the skeleton automorphisms.  Raises ValueError for an unstable shape or
    a wrong d.
    """
    verdict = _verdict(_stable(shape), d)
    mult = 1
    if shape.leg_labels is None:
        autos = shape.skeleton_automorphisms()
        least = min(_apply(sigma, shape.leg_counts) for sigma in autos)
        mult = _orbit_multiplicity(_stabilizer_if_least(autos, least), least, shape.marking_count)
    return ShapeClass(shape.canonical_key, mult, verdict)


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
