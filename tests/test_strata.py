import pytest

from curvecount.graphs import CircuitGraph, DistinguishedTree
from curvecount.strata import (
    DEFAULT_CLASS_CEILING,
    POSITIVE_PARTITION_NOTE,
    ResourceGuardError,
    ShapeClass,
    classify,
    classify_survivors,
    deformation_bound,
    dimension,
    enumerate_shapes,
    is_stable,
    survivor_threshold,
)


def _tree(weights, edges, legs):
    return DistinguishedTree(tuple(weights), tuple(edges), tuple(legs))


def _circuit(weights, edges, legs):
    return CircuitGraph(tuple(weights), tuple(edges), tuple(legs))


TRIVIAL_D3 = _tree([3], [], [8])


class TestStability:
    def test_trivial_shape_is_stable(self):
        assert is_stable(TRIVIAL_D3)

    def test_weightless_leaf_with_legs_stable(self):
        # Tail vertex of weight 0 with two legs has valence 3.
        t = _tree([3, 0], [(0, 1)], [6, 2])
        assert is_stable(t)

    def test_weightless_leaf_without_legs_unstable(self):
        t = _tree([3, 0], [(0, 1)], [8, 0])
        assert not is_stable(t)

    def test_weightless_middle_vertex_needs_a_leg(self):
        bare = _tree([2, 0, 1], [(0, 1), (1, 2)], [4, 0, 4])
        dressed = _tree([2, 0, 1], [(0, 1), (1, 2)], [4, 1, 3])
        assert not is_stable(bare)
        assert is_stable(dressed)

    def test_tree_distinguished_vertex_exempt(self):
        # Vertex 0 carries weight e, so weight 0 there is never a
        # stability constraint for trees.
        t = _tree([0, 3], [(0, 1)], [0, 8])
        assert is_stable(t)

    def test_circuit_all_weightless_vertices_constrained(self):
        bare = _circuit([0, 3], [(0, 1), (0, 1)], [0, 0])
        dressed = _circuit([0, 3], [(0, 1), (0, 1)], [1, 0])
        assert not is_stable(bare)
        assert is_stable(dressed)


class TestDimension:
    def test_positive_weight_cases(self):
        # Trivial shape: e = d, no extra vertices.
        assert dimension(_tree([3], [], [2]), 3) == 16
        # One extra vertex, positive distinguished weight.
        assert dimension(_tree([3, 0], [(0, 1)], [0, 2]), 3) == 15

    def test_weightless_distinguished_vertex(self):
        t = _tree([0, 3], [(0, 1)], [1, 1])
        assert dimension(t, 3) == 17

    def test_weight_one_marker(self):
        t = _tree([1, 2], [(0, 1)], [1, 1])
        assert dimension(t, 3) is None

    def test_circuit_case(self):
        # Weightless 2-circuit with one hanging vertex of weight d.
        g = _circuit([0, 0, 3], [(0, 1), (0, 1), (1, 2)], [1, 0, 0])
        assert dimension(g, 3) == 16

    def test_rejects_unstable_shape(self):
        t = _tree([3, 0], [(0, 1)], [8, 0])
        with pytest.raises(ValueError):
            dimension(t, 3)

    def test_rejects_weight_sum_mismatch(self):
        with pytest.raises(ValueError):
            dimension(TRIVIAL_D3, 4)


class TestDeformationBound:
    def test_no_reduction_when_weight_positive(self):
        t = _tree([3], [], [1])
        assert deformation_bound(t, 3) == dimension(t, 3) == 16

    def test_reduction_for_weightless_root_full_tail(self):
        t = _tree([0, 3], [(0, 1)], [1, 1])
        assert dimension(t, 3) == 17
        assert deformation_bound(t, 3) == 15

    def test_two_tail_reduction(self):
        t = _tree([0, 0, 3], [(0, 1), (1, 2)], [1, 2, 0])
        assert dimension(t, 3) == 16
        assert deformation_bound(t, 3) == 14

    def test_circuit_reduction(self):
        g = _circuit([0, 0, 3], [(0, 1), (0, 1), (1, 2)], [1, 0, 0])
        assert dimension(g, 3) == 16
        assert deformation_bound(g, 3) == 14

    def test_no_reduction_when_weight_split(self):
        t = _tree([0, 1, 2], [(0, 1), (0, 2)], [1, 1, 1])
        assert deformation_bound(t, 3) == dimension(t, 3)

    def test_weight_on_circuit_means_no_reduction(self):
        # Full weight d sits on a circuit vertex, so the circuit weight
        # is nonzero and the reduction clause does not apply.
        g = _circuit([3, 0], [(0, 1), (0, 1)], [0, 1])
        assert dimension(g, 3) == 15
        assert deformation_bound(g, 3) == 15


class TestEnumerateTrees:
    def test_trivial_class_only_at_zero_extra(self):
        classes = enumerate_shapes(3, 0)
        assert len(classes) == 1
        sc = classes[0]
        assert sc.shape == TRIVIAL_D3
        assert sc.multiplicity == 1

    def test_single_tail_family_full(self):
        classes = enumerate_shapes(3, 1, collapsed=False)
        family = [c for c in classes if c.e == 0 and c.k == 1]
        assert len(family) == 256
        assert all(c.multiplicity == 1 for c in family)

    def test_full_one_extra_totals(self):
        classes = enumerate_shapes(3, 1, collapsed=False)
        assert len(classes) == 760
        by_e = {}
        for c in classes:
            by_e[c.e] = by_e.get(c.e, 0) + 1
        assert by_e == {0: 256, 2: 256, 3: 248}

    def test_collapsed_one_extra_classes(self):
        classes = enumerate_shapes(3, 1)
        assert len(classes) == 26
        assert sum(c.multiplicity for c in classes) == 760

    def test_weight_one_marker_never_appears(self):
        # Vertex weights of 1 away from the marker position are fine;
        # only e = 1 marks an empty stratum.
        for c in enumerate_shapes(3, 2, include_circuits=True):
            assert c.e != 1

    def test_collapsed_two_extra_tree_classes(self):
        classes = [
            c for c in enumerate_shapes(3, 2) if c.k == 2
        ]
        assert len(classes) == 349
        assert sum(c.multiplicity for c in classes) == 60488

    def test_collapsed_matches_full_marked_total(self):
        collapsed = enumerate_shapes(3, 2, include_circuits=True)
        full = enumerate_shapes(3, 2, collapsed=False, include_circuits=True)
        assert sum(c.multiplicity for c in collapsed) == len(full) == 118792
        assert all(c.multiplicity == 1 for c in full)

    def test_all_enumerated_shapes_stable(self):
        for c in enumerate_shapes(3, 2, include_circuits=True):
            assert is_stable(c.shape)

    def test_classes_sorted_and_unique(self):
        classes = enumerate_shapes(3, 2, include_circuits=True)
        keys = [(c.kind, c.shape.canonical_key) for c in classes]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


class TestEnumerateCircuits:
    def test_one_extra_vertex(self):
        classes = [
            c for c in enumerate_shapes(3, 1, include_circuits=True)
            if c.kind == "circuit"
        ]
        assert len(classes) == 17
        assert sum(c.multiplicity for c in classes) == 511

    def test_two_extra_vertices(self):
        classes = [
            c for c in enumerate_shapes(3, 2, include_circuits=True)
            if c.kind == "circuit" and c.shape.n_vertices == 3
        ]
        assert len(classes) == 329
        assert sum(c.multiplicity for c in classes) == 57033

    def test_triangle_with_unit_weights_full(self):
        def is_unit_triangle(c):
            return (
                c.kind == "circuit"
                and c.shape.weights == (1, 1, 1)
                and len(c.shape.circuit) == 3
            )

        full = [
            c for c in enumerate_shapes(3, 2, collapsed=False, include_circuits=True)
            if is_unit_triangle(c)
        ]
        assert len(full) == 1094
        collapsed = [
            c for c in enumerate_shapes(3, 2, include_circuits=True)
            if is_unit_triangle(c)
        ]
        assert sum(c.multiplicity for c in collapsed) == 1094

    def test_circuit_weight_one_never_appears(self):
        for c in enumerate_shapes(4, 2, include_circuits=True):
            if c.kind == "circuit":
                assert c.shape.circuit_weight != 1


class TestGuards:
    def test_rejects_low_degree(self):
        with pytest.raises(ValueError):
            enumerate_shapes(2, 1)

    def test_rejects_negative_extra(self):
        with pytest.raises(ValueError):
            enumerate_shapes(3, -1)

    def test_rejects_extra_beyond_desk_scale(self):
        with pytest.raises(ResourceGuardError):
            enumerate_shapes(3, 5)

    def test_ceiling_trip_reports_projection(self):
        with pytest.raises(ResourceGuardError) as err:
            enumerate_shapes(3, 2, ceiling=500)
        assert err.value.projected == 523
        assert "523" in str(err.value)

    def test_projection_bounds_actual_class_count(self):
        assert len(enumerate_shapes(3, 2)) <= 523

    def test_full_mode_ceiling_uses_marked_projection(self):
        with pytest.raises(ResourceGuardError) as err:
            enumerate_shapes(3, 2, collapsed=False, ceiling=60_000)
        assert err.value.projected == 61248

    def test_default_ceiling_allows_degree_three_scan(self):
        classes = enumerate_shapes(3, 2, include_circuits=True)
        assert 0 < len(classes) < DEFAULT_CLASS_CEILING


class TestDimensionInvariants:
    def test_bound_at_most_dimension(self):
        for c in enumerate_shapes(3, 2, include_circuits=True):
            dim = dimension(c.shape, 3)
            bound = deformation_bound(c.shape, 3)
            assert bound <= dim
            if c.e != 0:
                assert bound == dim


class TestSurvivors:
    def test_threshold_is_point_condition_codimension(self):
        assert [survivor_threshold(d) for d in (3, 4, 5)] == [16, 22, 28]

    def test_empty_stratum_classified_without_bound(self):
        # e = 1: the stratum is empty, so it has no dimension, no bound
        # and cannot survive.
        for shape in (
            _tree([1, 2], [(0, 1)], [4, 4]),
            _circuit([1, 0, 2], [(0, 1), (0, 1), (1, 2)], [4, 1, 3]),
        ):
            c = classify(ShapeClass(shape, 1), 3)
            assert (c.dim, c.bound, c.survivor, c.note) == (None, None, False, None)
    def test_degree_three_catalogue(self):
        strata = classify_survivors(3, 3)
        survivors = [s for s in strata if s.survivor]
        assert len(survivors) == 136
        trivial = [s for s in survivors if s.shape_class.k == 0]
        assert len(trivial) == 1
        assert trivial[0].note is None
        flagged = [s for s in survivors if s.note == POSITIVE_PARTITION_NOTE]
        assert len(flagged) == 135
        for s in flagged:
            assert s.shape_class.e == 0
            assert s.shape_class.k == 2
            assert all(w > 0 for w in s.shape_class.shape.weights[1:])

    def test_flagged_survivor_skeletons(self):
        strata = classify_survivors(3, 3)
        classes_by_skel = {}
        marked_by_skel = {}
        for s in strata:
            if s.note == POSITIVE_PARTITION_NOTE:
                shape = s.shape_class.shape
                bare = DistinguishedTree(
                    shape.weights, shape.edges, (0,) * shape.n_vertices
                )
                key = bare.canonical_key
                classes_by_skel[key] = classes_by_skel.get(key, 0) + 1
                marked_by_skel[key] = (
                    marked_by_skel.get(key, 0) + s.shape_class.multiplicity
                )
        # Three skeleton families: star with tails {1,2} and the two
        # orderings of the path through weight 1 and weight 2.  Each is
        # rigid, so it carries C(8+2,2) = 45 leg profiles covering
        # 3^8 = 6561 marked classes.
        assert sorted(classes_by_skel.values()) == [45, 45, 45]
        assert sorted(marked_by_skel.values()) == [6561, 6561, 6561]

    def test_single_tail_shapes_never_survive(self):
        # e = 0 with one extra vertex forces that vertex to carry the
        # full weight d, so the bound always drops to 6d - 3.
        strata = classify_survivors(3, 3)
        seen = 0
        for s in strata:
            sc = s.shape_class
            if sc.kind == "tree" and sc.e == 0 and sc.k == 1:
                seen += 1
                assert s.dim == 17
                assert s.bound == 15
                assert not s.survivor
        assert seen > 0

    def test_degree_four_scan_clean(self):
        strata = classify_survivors(4, 3)
        threshold = 6 * 4 - 2
        for s in strata:
            if s.survivor:
                ok_trivial = s.shape_class.k == 0
                ok_flagged = s.note == POSITIVE_PARTITION_NOTE
                assert ok_trivial or ok_flagged
            elif s.dim is not None:
                assert s.bound < threshold
