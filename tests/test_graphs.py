import itertools
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvecount.graphs import CircuitGraph, DistinguishedTree, _normalized_edges, from_key
from curvecount.strata import _skeletons


def _random_tree(rng, n):
    """Random distinguished tree on n vertices with random weights and legs."""
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    weights = tuple(rng.randrange(4) for _ in range(n))
    legs = tuple(rng.randrange(3) for _ in range(n))
    return DistinguishedTree(weights, tuple(edges), legs)


def _random_perm_fixing_zero(rng, n):
    rest = list(range(1, n))
    rng.shuffle(rest)
    return (0, *rest)


class TestTreeValidation:
    def test_rejects_wrong_edge_count(self):
        with pytest.raises(ValueError):
            DistinguishedTree((1, 1, 1), ((0, 1),), (0, 0, 0))

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError):
            DistinguishedTree((1, 1, 1, 1), ((0, 1), (2, 3), (2, 3)), (0, 0, 0, 0))

    def test_rejects_parallel_edge(self):
        with pytest.raises(ValueError, match="not a tree"):
            DistinguishedTree((1, 1), ((0, 1), (0, 1)), (0, 0))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            DistinguishedTree((1, 1), ((1, 1),), (0, 0))

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            DistinguishedTree((1, -1), ((0, 1),), (0, 0))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            DistinguishedTree((1, 1), ((0, 1),), (0,))

    def test_rejects_duplicate_leg_labels(self):
        with pytest.raises(ValueError):
            DistinguishedTree(
                (1, 1), ((0, 1),), (1, 1), leg_labels=((2,), (2,))
            )

    def test_rejects_label_count_mismatch(self):
        with pytest.raises(ValueError):
            DistinguishedTree((1, 1), ((0, 1),), (2, 0), leg_labels=((1,), ()))


class TestTreeBasics:
    def test_edge_normalization(self):
        a = DistinguishedTree((2, 1), ((1, 0),), (3, 0))
        b = DistinguishedTree((2, 1), ((0, 1),), (3, 0))
        assert a.edges == b.edges
        assert a == b

    def test_counts_and_valence(self):
        t = DistinguishedTree((1, 2, 0), ((0, 1), (1, 2)), (1, 0, 3))
        assert t.n_vertices == 3
        assert t.k == 2
        assert t.e == 1
        assert t.total_weight == 3
        assert t.marking_count == 4
        assert t.valence(0) == 2
        assert t.valence(1) == 2
        assert t.valence(2) == 4


class TestTreeCanonicalForm:
    def test_relabel_invariance_example(self):
        t = DistinguishedTree((0, 1, 2), ((0, 1), (0, 2)), (2, 1, 0))
        u = t.relabeled((0, 2, 1))
        assert u.weights == (0, 2, 1)
        assert t.canonical_key == u.canonical_key

    def test_distinct_profiles_distinct_keys(self):
        a = DistinguishedTree((0, 1, 2), ((0, 1), (0, 2)), (2, 1, 0))
        b = DistinguishedTree((0, 1, 2), ((0, 1), (0, 2)), (2, 0, 1))
        assert a.canonical_key != b.canonical_key

    def test_key_mentions_labels_when_present(self):
        t = DistinguishedTree((3,), (), (2,), leg_labels=((4, 1),))
        assert "{1,4}" in t.canonical_key

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 7))
    def test_relabel_invariance_random(self, seed, n):
        rng = random.Random(seed)
        t = _random_tree(rng, n)
        perm = _random_perm_fixing_zero(rng, n)
        assert t.relabeled(perm).canonical_key == t.canonical_key

    def test_relabel_must_fix_distinguished_vertex(self):
        t = DistinguishedTree((1, 2), ((0, 1),), (0, 0))
        with pytest.raises(ValueError, match="moves a distinguished vertex"):
            t.relabeled((1, 0))

    @pytest.mark.parametrize("perm", [(0, 1), (0, 1, 3), (0, 2, 1, 7), (0, 2, 2)])
    def test_relabel_refuses_a_non_permutation(self, perm):
        t = DistinguishedTree((0, 1, 2), ((0, 1), (0, 2)), (2, 1, 0))
        with pytest.raises(ValueError, match=re.escape(f"relabeling {perm} is not a permutation")):
            t.relabeled(perm)

    def test_equal_keys_imply_isomorphism(self):
        # Exhaustive check on a small family: every pair of 3-vertex trees
        # with weights from {0,1} and legs from {0,1} compares consistently
        # with brute-force isomorphism testing.
        shapes = []
        for edges in (((0, 1), (0, 2)), ((0, 1), (1, 2))):
            for w in itertools.product((0, 1), repeat=3):
                for legs in itertools.product((0, 1), repeat=3):
                    shapes.append(DistinguishedTree(w, edges, legs))
        for a, b in itertools.combinations(shapes, 2):
            same_key = a.canonical_key == b.canonical_key
            iso = any(
                a.relabeled((0, *rest)) == b
                for rest in itertools.permutations((1, 2))
            )
            assert same_key == iso


class TestTreeAutomorphisms:
    def test_symmetric_star_has_one_swap(self):
        t = DistinguishedTree((0, 1, 1), ((0, 1), (0, 2)), (0, 0, 0))
        perms = t.skeleton_automorphisms()
        assert sorted(perms) == [(0, 1, 2), (0, 2, 1)]

    def test_asymmetric_star_is_rigid(self):
        t = DistinguishedTree((0, 1, 2), ((0, 1), (0, 2)), (0, 0, 0))
        assert list(t.skeleton_automorphisms()) == [(0, 1, 2)]

    def test_legs_do_not_break_skeleton_symmetry(self):
        t = DistinguishedTree((0, 1, 1), ((0, 1), (0, 2)), (0, 2, 0))
        assert len(t.skeleton_automorphisms()) == 2


class TestCircuitValidation:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            CircuitGraph((0, 1), ((0, 0), (0, 1)), (0, 0))

    def test_rejects_tree_edge_count(self):
        with pytest.raises(ValueError):
            CircuitGraph((0, 1), ((0, 1),), (0, 0))

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError):
            CircuitGraph(
                (0, 0, 1, 1), ((0, 1), (0, 1), (2, 3), (2, 3)), (0, 0, 0, 0)
            )

    def test_rejects_triple_edge(self):
        with pytest.raises(ValueError):
            CircuitGraph((1, 1), ((0, 1), (0, 1), (0, 1)), (0, 0))

    def test_rejects_single_vertex(self):
        with pytest.raises(ValueError):
            CircuitGraph((1,), (), (0,))


class TestCircuitStructure:
    def test_double_edge_circuit(self):
        g = CircuitGraph((1, 1), ((0, 1), (0, 1)), (0, 0))
        assert sorted(g.circuit) == [0, 1]
        assert g.e == 2

    def test_triangle_circuit(self):
        g = CircuitGraph((1, 1, 0), ((0, 1), (1, 2), (0, 2)), (0, 0, 1))
        assert sorted(g.circuit) == [0, 1, 2]

    def test_hanging_vertex_excluded_from_circuit(self):
        g = CircuitGraph((1, 1, 2), ((0, 1), (0, 1), (1, 2)), (0, 0, 0))
        assert sorted(g.circuit) == [0, 1]
        assert g.e == 2

    def test_circuit_weight_sums_circuit_vertices_only(self):
        g = CircuitGraph((2, 1, 3), ((0, 1), (0, 1), (1, 2)), (0, 0, 0))
        assert g.e == 3


class TestCircuitCanonicalForm:
    def test_rotation_invariance(self):
        g = CircuitGraph((1, 2, 3), ((0, 1), (1, 2), (0, 2)), (0, 0, 0))
        h = g.relabeled((1, 2, 0))
        assert g.canonical_key == h.canonical_key

    def test_reflection_invariance(self):
        g = CircuitGraph((1, 2, 3), ((0, 1), (1, 2), (0, 2)), (1, 0, 0))
        h = g.relabeled((0, 2, 1))
        assert g.canonical_key == h.canonical_key

    def test_key_distinguishes_leg_placement(self):
        a = CircuitGraph((1, 2), ((0, 1), (0, 1)), (1, 0))
        b = CircuitGraph((1, 2), ((0, 1), (0, 1)), (0, 1))
        assert a.canonical_key != b.canonical_key

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_relabel_invariance_random(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(3, 6)
        cycle_len = rng.randrange(2, n + 1)
        edges = []
        if cycle_len == 2:
            edges += [(0, 1), (0, 1)]
        else:
            edges += [(i, (i + 1) % cycle_len) for i in range(cycle_len)]
        for v in range(cycle_len, n):
            edges.append((rng.randrange(v), v))
        weights = tuple(rng.randrange(4) for _ in range(n))
        legs = tuple(rng.randrange(3) for _ in range(n))
        g = CircuitGraph(weights, tuple(edges), legs)
        perm = list(range(n))
        rng.shuffle(perm)
        assert g.relabeled(tuple(perm)).canonical_key == g.canonical_key


class TestCircuitAutomorphisms:
    def test_uniform_triangle(self):
        g = CircuitGraph((1, 1, 1), ((0, 1), (1, 2), (0, 2)), (0, 0, 0))
        assert len(g.skeleton_automorphisms()) == 6

    def test_double_edge_pair_swap(self):
        g = CircuitGraph((1, 1), ((0, 1), (0, 1)), (0, 0))
        assert len(g.skeleton_automorphisms()) == 2

    def test_weights_break_symmetry(self):
        g = CircuitGraph((1, 2, 3), ((0, 1), (1, 2), (0, 2)), (0, 0, 0))
        assert len(g.skeleton_automorphisms()) == 1


def _brute_force_automorphisms(g):
    """Every permutation fixing the distinguished vertices, kept when it
    preserves the weights and the edge multiset."""
    n, fixed = g.n_vertices, g.distinguished
    return tuple(
        perm
        for perm in (fixed + tail for tail in itertools.permutations(range(len(fixed), n)))
        if all(g.weights[perm[i]] == g.weights[i] for i in range(n))
        and _normalized_edges((perm[a], perm[b]) for a, b in g.edges) == g.edges
    )


class TestAutomorphismSearch:
    def test_matches_brute_force_on_every_small_skeleton(self):
        # Each skeleton's group, a stabilizer in its shape's, is also what the
        # search and brute force find on the skeleton itself.
        skeletons = list(_skeletons(4, 3, True))
        assert {g.kind for g, _ in skeletons} == {"tree", "circuit"}
        for g, autos in skeletons:
            assert autos == g.skeleton_automorphisms() == _brute_force_automorphisms(g)

    def test_ten_vertex_tree_with_distinct_weights_is_rigid(self):
        # A star and a path hanging off the root: trying all 9! permutations
        # of the non-root vertices took seconds.
        edges = [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (5, 6), (6, 7), (7, 8), (8, 9)]
        t = DistinguishedTree((0, *range(1, 10)), edges, (0,) * 10)
        start = time.perf_counter()
        assert t.skeleton_automorphisms() == (tuple(range(10)),)
        assert time.perf_counter() - start < 0.1

    def test_equal_weight_star_keeps_its_whole_group(self):
        t = DistinguishedTree((0, 1, 1, 1, 1), [(0, 1), (0, 2), (0, 3), (0, 4)], (0,) * 5)
        perms = t.skeleton_automorphisms()
        assert perms == tuple((0, *p) for p in itertools.permutations((1, 2, 3, 4)))


class TestFromKey:
    """``from_key`` reads the key grammar backwards and accepts exactly the
    strings that are their graph's canonical key."""

    @pytest.mark.parametrize(
        "key",
        [
            "(0;1;[(2;4;[]),(1;3;[])])",  # children not sorted
            "C[(3;0;[])|(0;1;[])]",  # not the minimal rotation
            "C[(1;0;[])|(1;0;[])|(1;0;[(0;3;[]),(0;2;[])])]",  # hanging children not sorted
            "(3;8;[])x",  # trailing text
            "(3;8;[]) ",
            "",
            "(3;8;[]",  # unbalanced brackets
            "(3;8;[])])",
            "C[(0;1;[])|(3;0;[])",
            "(a;8;[])",  # weight not an integer
            "(1.5;8;[])",
            "(-1;8;[])",
            "(03;8;[])",  # leading zero: not the key's spelling
            "(0;{1};[(3;{3,2};[])])",  # labels not ascending
            "(0;1;[(3;{2,3};[])])",  # counts and labels mixed
            "C[(3;0;[])]",  # a one-vertex circuit is a self-loop
        ],
    )
    def test_refuses_non_canonical_strings(self, key):
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            from_key(key)

    def test_relabelled_graphs_read_back(self):
        rng = random.Random(5)
        for n in range(1, 7):
            t = _random_tree(rng, n)
            u = t.relabeled(_random_perm_fixing_zero(rng, n))
            assert from_key(u.canonical_key).canonical_key == t.canonical_key
        g = CircuitGraph((1, 0, 2, 0), ((0, 1), (1, 2), (2, 0), (2, 3)), (0, 1, 0, 2), ((), (4,), (), (1, 2)))
        h = from_key(g.canonical_key)
        assert (h.kind, h.weights, h.leg_labels) == ("circuit", (0, 1, 2, 0), ((4,), (), (), (1, 2)))


class TestKeyTemplate:
    """A skeleton's ``_template`` is its walked key with placeholder legs
    cells, kept only where no legs can change the key's order."""

    def test_equal_weight_siblings_have_no_template(self):
        t = DistinguishedTree((1, 0, 0, 2), [(0, 1), (0, 2), (2, 3)], (0,) * 4)
        assert t._template is None
        # The weight-0 siblings sort by their legs cells, one way or the other.
        assert t._key((0, 5, 3, 0)) == "(1;0;[(0;3;[(2;0;[])]),(0;5;[])])"
        assert t._key((0, 2, 3, 0)) == "(1;0;[(0;2;[]),(0;3;[(2;0;[])])])"

    def test_weight_symmetric_circuit_has_no_template(self):
        # Vertices 0 and 1 share a weight, so which of them leads the key
        # is up to their legs cells.
        g = CircuitGraph((1, 1, 2), [(0, 1), (1, 2), (2, 0)], (0,) * 3)
        assert g._template is None
        assert g._key((3, 1, 0)) == "C[(1;1;[])|(1;3;[])|(2;0;[])]"
        assert g._key((1, 3, 0)) == "C[(1;1;[])|(1;3;[])|(2;0;[])]"

    @pytest.mark.parametrize(
        "g, template",
        [
            (
                DistinguishedTree((0, 12, 1, 0), [(0, 1), (0, 2), (2, 3)], (0,) * 4),
                "(0;{0};[(12;{1};[]),(1;{2};[(0;{3};[])])])",
            ),
            (
                CircuitGraph((0, 2, 1, 5), [(0, 1), (1, 2), (2, 0), (1, 3)], (0,) * 4),
                "C[(0;{0};[])|(1;{2};[])|(2;{1};[(5;{3};[])])]",
            ),
        ],
    )
    def test_rigid_skeleton_template_fills_in_to_its_walked_key(self, g, template):
        assert g._template == template
        for legs in itertools.product(range(3), repeat=4):
            assert g._key(legs) == g._walk(legs)
        cells = ["{1,4}", "{}", "{2}", "{3,5}"]
        assert g._key(cells) == g._walk(cells)

