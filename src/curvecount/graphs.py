"""Weighted marked graphs indexing boundary strata.

Two species appear.  ``DistinguishedTree`` is a tree whose vertex 0 is
distinguished (it is fixed by every symmetry considered here) and whose
vertices carry non-negative integer weights.  ``CircuitGraph`` is a
connected multigraph with first Betti number exactly 1 and no self-loops,
so it contains a unique circuit, possibly of length 2 (a double edge).

Markings attach to vertices either as labelled legs or, in collapsed form,
as per-vertex leg counts.  Both species serialize to a canonical string:
trees use the classic sorted-subtree encoding rooted at the distinguished
vertex, and circuit graphs serialize the cycle of hanging rooted trees in
its lexicographically minimal rotation or reflection.  Equal canonical
strings mean isomorphic objects (isomorphisms fix vertex 0 for trees), so
deduplication is a set membership test.  A key is built from a skeleton
(its weights and edges) and one legs cell per vertex.  ``_walk`` builds it
term by term, sorting each vertex's child terms and choosing the least
rotation/reflection of a circuit; the ``canonical_key`` cached property
walks a graph's own legs, since a graph is keyed once.  Stratum listings key
many leg placements on one skeleton through ``_key``, which fills in the
skeleton's ``_template``: its walked key with placeholder legs cells, kept
when no legs can change the key's order (sibling vertices of distinct
weights, and a circuit whose every other rotation/reflection first differs
from the least one at a vertex of another weight).  A skeleton that fails
either test has no template and ``_key`` walks.  A listed class needs no
graph of its own.

The grammar is read both ways: ``from_key`` parses a canonical string back
into the graph, through the validating constructor, and refuses any string
that is not that graph's canonical key.

Grammar of the canonical strings (stable; also used by the CLI):

    tree    := term                      rooted at the distinguished vertex
    term    := "(" weight ";" legs ";" "[" children "]" ")"
    children:= "" | term ("," term)*     child terms sorted as strings
    legs    := count | "{" label ("," label)* "}"   labels ascending
    circuit := "C[" term ("|" term)* "]" one term per circuit vertex, in the
                                         minimal rotation/reflection; each
                                         term's children are its hanging trees
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

__all__ = ["DistinguishedTree", "CircuitGraph", "from_key"]


def _normalized_edges(edges) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((min(a, b), max(a, b)) for a, b in edges))


def _adjacency(n: int, edges) -> list[list[int]]:
    """Neighbour lists, repeating a neighbour once per parallel edge."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def _key_plan(adj, roots) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(vertex, children) over the trees at ``roots``, every vertex after its children."""
    plan = []
    stack = [(root, -1) for root in roots]
    while stack:
        v, parent = stack.pop()
        kids = tuple(u for u in adj[v] if u != parent)
        plan.append((v, kids))
        stack.extend((u, v) for u in kids)
    return tuple(reversed(plan))


def _is_connected(n: int, edges) -> bool:
    adj = _adjacency(n, edges)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == n


def _validate_common(weights, edges, leg_counts, leg_labels) -> None:
    n = len(weights)
    if n < 1:
        raise ValueError("graph needs at least one vertex")
    if any(w < 0 for w in weights):
        raise ValueError(f"negative vertex weight in {weights}")
    for a, b in edges:
        if a == b:
            raise ValueError(f"self-loop at vertex {a}")
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"edge ({a},{b}) out of range for {n} vertices")
    if len(leg_counts) != n:
        raise ValueError("leg_counts length must match vertex count")
    if any(c < 0 for c in leg_counts):
        raise ValueError(f"negative leg count in {leg_counts}")
    if leg_labels is not None:
        if len(leg_labels) != n:
            raise ValueError("leg_labels length must match vertex count")
        seen: set[int] = set()
        for v, labels in enumerate(leg_labels):
            if len(labels) != leg_counts[v]:
                raise ValueError(f"vertex {v}: {len(labels)} labels vs count {leg_counts[v]}")
            for lab in labels:
                if lab in seen:
                    raise ValueError(f"leg label {lab} used twice")
                seen.add(lab)


def _apply(perm, vector) -> tuple:
    """The per-vertex ``vector`` after vertex i is renamed perm[i]."""
    out = [0] * len(vector)
    for i, value in enumerate(vector):
        out[perm[i]] = value
    return tuple(out)


def _skeleton_automorphisms(g) -> tuple[tuple[int, ...], ...]:
    """The permutations fixing g's distinguished vertices that preserve its
    weights and edge multiset, in increasing order.

    Vertices are mapped one at a time, each only inside its (weight, edge
    degree) class, and a partial map is dropped as soon as the edge
    multiplicity between two mapped vertices changes, so a rigid shape costs
    little however many vertices it has, where trying every permutation
    costs (n - |distinguished|)!.  A shape whose group is itself
    factorial-sized (a star of equal-weight leaves) still lists that whole
    group.
    """
    n = g.n_vertices
    mult = [[0] * n for _ in range(n)]
    for a, b in g.edges:
        mult[a][b] += 1
        mult[b][a] += 1
    sig = [(g.weights[v], sum(mult[v])) for v in range(n)]
    perm = list(g.distinguished)
    classes = [[v for v in range(len(perm), n) if sig[v] == sig[i]] for i in range(n)]
    found = []

    def extend(i: int) -> None:
        if i == n:
            found.append(tuple(perm))
            return
        row = mult[i]
        for v in classes[i]:
            if v not in perm and all(row[j] == mult[v][perm[j]] for j in range(i)):
                perm.append(v)
                extend(i + 1)
                perm.pop()

    extend(len(perm))
    return tuple(found)


@dataclass(frozen=True)
class _MarkedGraph:
    """Fields, validation and term grammar shared by both species.

    Each species sets ``kind`` ("tree" or "circuit"), ``distinguished``
    (the vertices every symmetry fixes and stability leaves free, always
    the first ones) and ``core`` (the genus-one part, of total weight e),
    and for its key ``_orders`` (the sequences of root vertices a key may
    list, the least spelling being the key) and ``_frame`` (the text around
    them).
    """

    weights: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    leg_counts: tuple[int, ...]
    leg_labels: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(self.weights))
        object.__setattr__(self, "edges", _normalized_edges(self.edges))
        object.__setattr__(self, "leg_counts", tuple(self.leg_counts))
        if self.leg_labels is not None:
            object.__setattr__(
                self, "leg_labels", tuple(tuple(sorted(l)) for l in self.leg_labels)
            )
        _validate_common(self.weights, self.edges, self.leg_counts, self.leg_labels)

    @property
    def n_vertices(self) -> int:
        return len(self.weights)

    @property
    def k(self) -> int:
        """Vertex count minus one: for trees, the non-distinguished vertices."""
        return len(self.weights) - 1

    @property
    def total_weight(self) -> int:
        return sum(self.weights)

    @property
    def marking_count(self) -> int:
        return sum(self.leg_counts)

    @cached_property
    def e(self) -> int:
        """Total weight of the core (e in the dimension formulas)."""
        return sum(self.weights[v] for v in self.core)

    def valence(self, v: int) -> int:
        """Incident edges, with multiplicity, plus legs at v (no self-loops exist)."""
        deg = sum(1 for a, b in self.edges if a == v or b == v)
        return deg + self.leg_counts[v]

    def _terms(self, legs) -> list[str]:
        """The grammar's ``term`` of each vertex in ``_key_plan``, over its
        subtree, with ``legs[v]`` as vertex v's legs cell."""
        weights = self.weights
        terms = [""] * len(weights)
        for v, kids in self._key_plan:
            subtrees = ",".join(sorted([terms[u] for u in kids])) if kids else ""
            terms[v] = f"({weights[v]};{legs[v]};[{subtrees}])"
        return terms

    def _walk(self, legs) -> str:
        """The key of this skeleton with ``legs[v]`` as vertex v's legs cell,
        built term by term: the least of its ``_orders``' term sequences,
        joined by "|" inside the species' ``_frame``."""
        terms = self._terms(legs)
        return self._frame.format("|".join(min([terms[v] for v in order] for order in self._orders)))

    @cached_property
    def _template(self) -> str | None:
        """The walked key with vertex v's legs cell spelled "{v}", so that
        ``_template.format(*legs)`` is ``_walk(legs)`` for any legs; None
        where some legs could change the key's order.

        Sibling terms of distinct weights differ at their weights, before
        their legs cells, so they sort the same whatever the legs.  Another
        of ``_orders`` first differs from the least one at a position holding
        another vertex; if that vertex's weight differs too, the order loses
        there whatever the legs.  A skeleton passing both tests has a template.
        """
        weights = self.weights
        if any(len({weights[u] for u in kids}) < len(kids) for _, kids in self._key_plan):
            return None
        cells = [f"{{{v}}}" for v in range(len(weights))]
        terms = self._terms(cells)
        least = min(self._orders, key=lambda order: [terms[v] for v in order])
        for order in self._orders:
            first = next((i for i, v in enumerate(order) if v != least[i]), None)
            if first is not None and weights[order[first]] == weights[least[first]]:
                return None
        return self._walk(cells)

    def _key(self, legs) -> str:
        """The key of this skeleton with ``legs[v]`` as vertex v's legs cell:
        its ``_template`` filled in where it has one, else ``_walk(legs)``."""
        template = self._template
        return self._walk(legs) if template is None else template.format(*legs)

    def _own_key(self) -> str:
        """This graph's key, walked from its own legs cells: a graph keyed
        once has no use for a template."""
        if self.leg_labels is None:
            return self._walk(self.leg_counts)
        return self._walk(["{" + ",".join(map(str, own)) + "}" for own in self.leg_labels])

    def relabeled(self, perm):
        """The same graph with vertex i renamed perm[i]; perm must be a
        permutation of the vertices that fixes the distinguished ones."""
        if len(perm) != self.n_vertices or set(perm) != set(range(self.n_vertices)):
            raise ValueError(f"relabeling {perm} is not a permutation of this {self.kind}'s vertices")
        if any(perm[v] != v for v in self.distinguished):
            raise ValueError(f"relabeling {perm} moves a distinguished vertex of this {self.kind}")
        labels = None if self.leg_labels is None else _apply(perm, self.leg_labels)
        edges = [(perm[a], perm[b]) for a, b in self.edges]
        return type(self)(_apply(perm, self.weights), edges, _apply(perm, self.leg_counts), labels)


@dataclass(frozen=True)
class DistinguishedTree(_MarkedGraph):
    """Weighted tree with distinguished vertex 0 and marking legs.

    ``weights[0]`` is the distinguished vertex's weight (called e in the
    dimension formulas); the other vertices are the k "extra" vertices.
    ``leg_labels`` is optional: when absent the object only records how
    many legs sit on each vertex.
    """

    kind = "tree"
    distinguished = (0,)
    core = (0,)
    _orders = ((0,),)
    _frame = "{}"

    def __post_init__(self):
        super().__post_init__()
        n = self.n_vertices
        if len(self.edges) != n - 1 or not _is_connected(n, self.edges):
            raise ValueError("edge set is not a tree on the given vertices")

    @cached_property
    def _key_plan(self):
        return _key_plan(_adjacency(self.n_vertices, self.edges), (0,))

    @cached_property
    def canonical_key(self) -> str:
        """Root-fixed canonical serialization; equal keys mean isomorphic."""
        return self._own_key()

    def skeleton_automorphisms(self) -> tuple[tuple[int, ...], ...]:
        """All vertex permutations fixing 0 that preserve weights and edges.

        Legs are ignored: these are the symmetries acting on leg-count
        profiles.
        """
        return _skeleton_automorphisms(self)


@dataclass(frozen=True)
class CircuitGraph(_MarkedGraph):
    """Connected weighted multigraph with exactly one independent cycle.

    Edges form a multiset (a pair listed twice is a double edge, the
    length-2 circuit); self-loops are rejected.  Connectedness plus
    edge count == vertex count pins the first Betti number to 1.
    """

    kind = "circuit"
    distinguished = ()
    _frame = "C[{}]"

    def __post_init__(self):
        super().__post_init__()
        n = self.n_vertices
        if n < 2:
            raise ValueError("a circuit needs at least 2 vertices")
        if len(self.edges) != n:
            raise ValueError(
                f"{len(self.edges)} edges on {n} vertices: first Betti number is not 1"
            )
        if not _is_connected(n, self.edges):
            raise ValueError("graph is not connected")

    @cached_property
    def circuit(self) -> tuple[int, ...]:
        """The unique cycle's vertices, in traversal order from the smallest.

        Found by stripping valence-1 vertices (edge valence, with
        multiplicity) until only the cycle remains, then walking it
        towards the smaller neighbour first.
        """
        adj = _adjacency(self.n_vertices, self.edges)
        deg = [len(nbrs) for nbrs in adj]
        leaves = [v for v, k in enumerate(deg) if k == 1]
        for v in leaves:
            deg[v] = 0
            for u in adj[v]:
                if deg[u]:
                    deg[u] -= 1
                    if deg[u] == 1:
                        leaves.append(u)
        cycle = [v for v, k in enumerate(deg) if k]
        order = [cycle[0]]
        while len(order) < len(cycle):
            order.append(min(u for u in adj[order[-1]] if deg[u] and u not in order))
        return tuple(order)

    @property
    def core(self) -> tuple[int, ...]:
        return self.circuit

    @cached_property
    def _key_plan(self):
        """The trees hanging from the circuit: every edge off it."""
        on_circuit = set(self.circuit)
        hanging = [(a, b) for a, b in self.edges if not (a in on_circuit and b in on_circuit)]
        return _key_plan(_adjacency(self.n_vertices, hanging), self.circuit)

    @cached_property
    def _orders(self) -> tuple[tuple[int, ...], ...]:
        """Every rotation and reflection of the circuit, as vertex sequences."""
        cycle = self.circuit
        return tuple(seq[r:] + seq[:r] for seq in (cycle, cycle[::-1]) for r in range(len(cycle)))

    @cached_property
    def canonical_key(self) -> str:
        """Canonical serialization; equal keys mean isomorphic."""
        return self._own_key()

    def skeleton_automorphisms(self) -> tuple[tuple[int, ...], ...]:
        """All weight- and edge-multiset-preserving vertex permutations."""
        return _skeleton_automorphisms(self)


# One token of a term sequence: a term's head up to its children (weight and
# legs cell captured), the end of a term, or a separator.
_TOKEN = re.compile(r"\(([0-9]+);([0-9]+|\{[0-9,]*\});\[|\]\)|[,|]")


def _parse(key: str) -> DistinguishedTree | CircuitGraph:
    """The graph ``key`` spells under the grammar, vertices numbered in reading
    order; ValueError where the grammar cannot be read."""
    circuit = key.startswith("C[") and key.endswith("]")
    body = key[2:-1] if circuit else key
    weights, cells, edges, ring, open_terms = [], [], [], [], []
    pos = 0
    while pos < len(body):
        token = _TOKEN.match(body, pos)
        if token is None:
            raise ValueError(f"unreadable at offset {pos + 2 * circuit}")
        pos = token.end()
        if token[1] is not None:
            v = len(weights)
            weights.append(int(token[1]))
            cells.append(token[2])
            if open_terms:
                edges.append((open_terms[-1], v))
            else:
                ring.append(v)
            open_terms.append(v)
        elif token[0] == "])":
            if not open_terms:
                raise ValueError("a term closes that was never opened")
            open_terms.pop()
    if open_terms:
        raise ValueError("a term is never closed")
    if circuit:
        edges += [(ring[i - 1], ring[i]) for i in range(len(ring))]  # a double edge for two
    labelled = [cell.startswith("{") for cell in cells]
    if any(labelled) and not all(labelled):
        raise ValueError("leg counts and leg labels are mixed")
    labels = None
    if any(labelled):
        labels = [tuple(map(int, cell[1:-1].split(","))) if cell != "{}" else () for cell in cells]
    counts = list(map(int, cells)) if labels is None else [len(own) for own in labels]
    return (CircuitGraph if circuit else DistinguishedTree)(weights, edges, counts, labels)


def from_key(key: str) -> DistinguishedTree | CircuitGraph:
    """The graph whose ``canonical_key`` is ``key``: the grammar read backwards,
    built by the validating constructor.  Any other string, including one that
    spells a graph in a non-canonical way (children unsorted, a circuit not in
    its minimal rotation), is refused with a ValueError naming it."""
    try:
        g = _parse(key)
    except ValueError as exc:
        raise ValueError(f"not a canonical key: {key!r} ({exc})") from None
    if g.canonical_key != key:
        raise ValueError(f"not a canonical key: {key!r} (its graph's key is {g.canonical_key!r})")
    return g
