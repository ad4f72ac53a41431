import itertools
import math
import time

import pytest

from curvecount.graphs import CircuitGraph, DistinguishedTree, _apply, _MarkedGraph, from_key
from curvecount.strata import (
    DEFAULT_CLASS_CEILING,
    POSITIVE_PARTITION_NOTE,
    ResourceGuardError,
    ShapeClass,
    _compositions,
    _labelled_keys,
    _marked_count,
    _min_legs,
    _label_sets,
    _spelled_keys,
    _orbit_multiplicity,
    _profile_count,
    _profile_orbits,
    _shapes,
    _skeletons,
    _verdict,
    classify,
    classify_survivors,
    deformation_bound,
    dimension,
    enumerate_shapes,
    is_stable,
    survivor_threshold,
)


def _cell(labels):
    """The grammar's ``legs`` cell of one vertex's ascending leg labels."""
    return "{" + ",".join(map(str, labels)) + "}"


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

    def test_classify_rejects_unstable_shape(self):
        for shape in (
            _tree([3, 0], [(0, 1)], [8, 0]),
            _circuit([2, 0, 1], [(0, 1), (0, 2), (1, 2)], [7, 0, 1]),
        ):
            assert not is_stable(shape)
            with pytest.raises(ValueError):
                classify(shape, 3)

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
            if c.kind != "circuit":
                return False
            g = c.shape
            return g.weights == (1, 1, 1) and len(g.circuit) == 3

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
                assert c.shape.e != 1


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
            enumerate_shapes(3, 2, ceiling=374)
        assert err.value.projected == 375
        assert "375" in str(err.value)

    def test_projection_bounds_actual_class_count(self):
        assert len(enumerate_shapes(3, 2)) <= 523

    def test_exact_projection_admits_degree_four_with_circuits(self):
        # The exact count, 380,027, is under the default ceiling.  The last
        # group of skeletons crosses this one, so the reported total is the full one.
        start = time.perf_counter()
        with pytest.raises(ResourceGuardError) as err:
            enumerate_shapes(4, 4, include_circuits=True, ceiling=380_026)
        assert time.perf_counter() - start < 0.3
        assert err.value.projected == 380_027

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
            c = classify(shape, 3)
            assert (c.dim, c.bound, c.survivor, c.note) == (None, None, False, None)
    def test_degree_three_catalogue(self):
        strata = classify_survivors(3, 3)
        survivors = [s for s in strata if s.survivor]
        assert len(survivors) == 136
        trivial = [s for s in survivors if s.k == 0]
        assert len(trivial) == 1
        assert trivial[0].note is None
        flagged = [s for s in survivors if s.note == POSITIVE_PARTITION_NOTE]
        assert len(flagged) == 135
        for s in flagged:
            assert s.e == 0
            assert s.k == 2
            assert all(w > 0 for w in s.shape.weights[1:])

    def test_flagged_survivor_skeletons(self):
        strata = classify_survivors(3, 3)
        classes_by_skel = {}
        marked_by_skel = {}
        for s in strata:
            if s.note == POSITIVE_PARTITION_NOTE:
                shape = s.shape
                bare = DistinguishedTree(
                    shape.weights, shape.edges, (0,) * shape.n_vertices
                )
                key = bare.canonical_key
                classes_by_skel[key] = classes_by_skel.get(key, 0) + 1
                marked_by_skel[key] = (
                    marked_by_skel.get(key, 0) + s.multiplicity
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
            if s.kind == "tree" and s.e == 0 and s.k == 1:
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
                ok_trivial = s.k == 0
                ok_flagged = s.note == POSITIVE_PARTITION_NOTE
                assert ok_trivial or ok_flagged
            elif s.dim is not None:
                assert s.bound < threshold


class TestBurnside:
    """Burnside counts, orbit multiplicities and listings check each other."""

    CASES = [(3, 2, False), (4, 2, True), (5, 1, True), (3, 3, True)]

    @pytest.mark.parametrize("d, k, circuits", CASES)
    def test_counts_agree(self, d, k, circuits):
        legs = 3 * d - 1
        marked = profiles = orbit_mult = orbits = 0
        for skel, autos in _skeletons(d, k, circuits):
            req = _min_legs(skel)
            marked += _marked_count(autos, req, legs)
            profiles += _profile_count(autos, req, legs)
            found = list(_profile_orbits(autos, req, legs))
            orbit_mult += sum(_orbit_multiplicity(stab, p, legs) for p, stab in found)
            orbits += len(found)
        listed = enumerate_shapes(d, k, include_circuits=circuits)
        assert marked == orbit_mult == sum(c.multiplicity for c in listed)
        assert profiles == orbits == len(listed)
        # The guard projects exactly the class count of either mode.
        with pytest.raises(ResourceGuardError) as err:
            enumerate_shapes(d, k, include_circuits=circuits, ceiling=len(listed) - 1)
        assert err.value.projected == len(listed)
        with pytest.raises(ResourceGuardError) as err:
            enumerate_shapes(d, k, collapsed=False, include_circuits=circuits, ceiling=marked - 1)
        assert err.value.projected == marked
        # Full mode keeps one labelling per orbit under each profile's
        # stabilizer: no class dropped, none listed twice.
        if marked <= DEFAULT_CLASS_CEILING:
            full = enumerate_shapes(d, k, collapsed=False, include_circuits=circuits)
            assert len({c.key for c in full}) == len(full) == marked

    def test_full_listing_matches_marked_count(self, full_3_2):
        legs = 8
        marked = sum(
            _marked_count(autos, _min_legs(skel), legs)
            for skel, autos in _skeletons(3, 2, False)
        )
        assert len(full_3_2) == marked == 61248

    def test_marked_count_forms_no_factorial_of_the_leg_count(self, monkeypatch):
        # legs!/rest! is one falling product, so no factorial of about 3d is
        # formed; the counts stay the same.
        factorial = math.factorial

        def small_factorial(n):
            if n > 2:
                raise AssertionError(f"factorial({n}) formed")
            return factorial(n)

        monkeypatch.setattr(math, "factorial", small_factorial)
        skeletons = list(_skeletons(3, 2, False))
        assert sum(_marked_count(a, _min_legs(s), 8) for s, a in skeletons) == 61248
        assert _marked_count(((0,),), (0,), 3 * 300_000 - 1) == 1

    @pytest.mark.parametrize("d, k, circuits", [(3, 1, True), (4, 1, False)])
    def test_full_listing_matches_product_and_dedup(self, d, k, circuits):
        # Oracle: every labelled assignment of every skeleton, each built by
        # the validating constructor, deduplicated by canonical key.
        legs = 3 * d - 1
        keys = set()
        for skel, _ in _skeletons(d, k, circuits):
            n, req = skel.n_vertices, _min_legs(skel)
            for assignment in itertools.product(range(n), repeat=legs):
                labels = [[] for _ in range(n)]
                for leg, v in enumerate(assignment, start=1):
                    labels[v].append(leg)
                counts = tuple(len(l) for l in labels)
                if all(counts[v] >= req[v] for v in range(n)):
                    keys.add(type(skel)(skel.weights, skel.edges, counts, labels).canonical_key)
        listed = enumerate_shapes(d, k, collapsed=False, include_circuits=circuits)
        assert sorted(c.shape.canonical_key for c in listed) == sorted(keys)


class TestKeyTemplate:
    """Every listed class's key, built from its skeleton's template where it
    has one, is the key walked term by term."""

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_every_listed_profile(self, d):
        legs = 3 * d - 1
        for skel, autos in _skeletons(d, 3, True):
            for profile, _ in _profile_orbits(autos, _min_legs(skel), legs):
                assert skel._key(profile) == skel._walk(profile)

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_every_labelling_the_default_ceiling_admits(self, d):
        # The largest k <= 3 whose full listing with circuits is under the
        # ceiling; every labelling of each listed profile, least or not.
        legs = 3 * d - 1
        k = max(
            k
            for k in range(4)
            if sum(_marked_count(a, _min_legs(s), legs) for s, a in _skeletons(d, k, True))
            <= DEFAULT_CLASS_CEILING
        )
        for skel, autos in _skeletons(d, k, True):
            for profile, _ in _profile_orbits(autos, _min_legs(skel), legs):
                for labels in _label_sets(tuple(range(1, legs + 1)), profile):
                    cells = list(map(_cell, labels))
                    assert skel._key(cells) == skel._walk(cells)


def _recursive_label_sets(legs, profile):
    """Reference: one recursion level per vertex, each picking its labels
    from those the earlier vertices left."""
    if len(profile) == 1:
        yield (legs,)
        return
    for first in itertools.combinations(legs, profile[0]):
        rest = tuple(sorted(set(legs).difference(first)))
        yield from ((first,) + tail for tail in _recursive_label_sets(rest, profile[1:]))


class TestLabelSets:
    """The flat walk of labellings against the recursion it replaced, and
    the listed labellings against a brute-force least labelling."""

    # Every profile of up to 3 parts over up to 10 legs, and of 4 parts over
    # up to 8: the 4^10 assignments of 10 legs took the walk and the
    # reference 8 s on a 2-vCPU Xeon VM.
    @pytest.mark.parametrize("parts, max_legs", [(1, 10), (2, 10), (3, 10), (4, 8)])
    def test_same_assignments_as_the_recursion(self, parts, max_legs):
        for n_legs in range(max_legs + 1):
            legs = tuple(range(1, n_legs + 1))
            for profile in _compositions(n_legs, parts):
                got = list(_label_sets(legs, profile))
                assert sorted(got) == sorted(_recursive_label_sets(legs, profile))
                for labels in got:
                    assert tuple(map(len, labels)) == profile
                    assert all(list(own) == sorted(own) for own in labels)

    @pytest.mark.parametrize("parts, max_legs", [(1, 10), (2, 10), (3, 10), (4, 8)])
    def test_label_strings_in_the_recursion_order(self, parts, max_legs):
        # Label strings out of their own order ("10" < "2"): each labelling
        # is the recursion's, in its order, with each label x spelled
        # names[x], and the spelled keys join each vertex's strings.
        names = tuple(map(str, range(max_legs + 1)))
        for n_legs in range(max_legs + 1):
            legs = tuple(range(1, n_legs + 1))
            for profile in _compositions(n_legs, parts):
                want = [
                    tuple(tuple(names[x] for x in own) for own in labels)
                    for labels in _recursive_label_sets(legs, profile)
                ]
                assert list(_label_sets(names[1 : n_legs + 1], profile)) == want
                spelled = _spelled_keys(lambda *cells: cells, names[1 : n_legs + 1], profile)
                assert list(spelled) == [tuple(map(",".join, labels)) for labels in want]

    @pytest.mark.parametrize("d, k", [(3, 2), (4, 1)])
    def test_keys_are_the_least_labellings(self, d, k):
        # Each class's key is its least labelling under the stabilizer of its
        # orbit-least profile, both found here by trying every group element,
        # spelled by the term walk; symmetric skeletons, circuits included,
        # with groups of order 2 and 6.  Degree 3 with one extra vertex has no
        # symmetric skeleton; degree 4 with two has six, of order 2 only, and
        # took 13 s on a 2-vCPU Xeon VM.
        legs_total = 3 * d - 1
        legs = tuple(range(1, legs_total + 1))
        names = tuple(map(str, range(legs_total + 1)))
        symmetric = rigid_profiles = 0
        for skel, autos in _skeletons(d, k, True):
            if len(autos) == 1:
                continue
            symmetric += 1
            req = _min_legs(skel)
            want = []
            for free in _compositions(legs_total - sum(req), len(req)):
                profile = tuple(f + r for f, r in zip(free, req))
                if any(_apply(sigma, profile) < profile for sigma in autos):
                    continue
                stab = [sigma for sigma in autos if _apply(sigma, profile) == profile]
                rigid_profiles += len(stab) == 1
                least = {min(_apply(s, lab) for s in stab) for lab in _label_sets(legs, profile)}
                want += [skel._walk(list(map(_cell, labels))) for labels in least]
            assert sorted(_labelled_keys(skel, autos, req, names)) == sorted(want)
        assert symmetric and rigid_profiles


def _trial_skeletons(d, n, cls):
    """Reference generator: every multiset of n - 1 (trees) or n (circuits)
    vertex pairs through the validating constructor, invalid ones caught,
    then every weight composition of the valid ones, one graph kept per
    canonical key and e = 1 dropped."""
    zeros = (0,) * n
    pairs = list(itertools.combinations(range(n), 2))
    found = {}
    for edges in itertools.combinations_with_replacement(pairs, n - (cls is DistinguishedTree)):
        try:
            cls(zeros, edges, zeros)
        except ValueError:
            continue
        for w in itertools.product(range(d + 1), repeat=n):
            if sum(w) == d:
                g = cls(w, edges, zeros)
                if g.e != 1:
                    found.setdefault(g.canonical_key, g)
    return found


class TestSkeletons:
    """Skeletons are generated as orbit representatives of weightings of
    unweighted shapes; trial construction with key-based dedup is the oracle."""

    @pytest.mark.parametrize("d, max_k", [(3, 4), (4, 4), (5, 3), (6, 3)])
    def test_skeletons_match_trial_construction(self, d, max_k):
        trial = {}
        for n in range(1, max_k + 2):
            trial.update(_trial_skeletons(d, n, DistinguishedTree))
            if n >= 2:
                trial.update(_trial_skeletons(d, n, CircuitGraph))
        for k in range(max_k + 1):
            keys = [s.canonical_key for s, _ in _skeletons(d, k, True)]
            expected = {key for key, g in trial.items() if g.n_vertices <= k + 1}
            assert len(keys) == len(set(keys))
            assert set(keys) == expected

    def test_tree_shapes_are_rooted_trees(self):
        # OEIS A000081.
        counts = [len(_shapes(DistinguishedTree, n, 0)) for n in range(1, 7)]
        assert counts == [1, 1, 2, 4, 9, 20]

    def test_circuit_shapes(self):
        # Simple unicyclic graphs (OEIS A001429: 0, 0, 1, 2, 5, 13) plus the
        # unordered pairs of rooted trees hanging on a double edge.
        counts = [len(_shapes(CircuitGraph, n, 1)) for n in range(2, 7)]
        assert counts == [1, 2, 5, 11, 29]


class TestGroupChain:
    """A listing searches each unweighted shape's group once; every skeleton's
    and profile's group is a stabilizer in it, with no search of its own."""

    @pytest.mark.parametrize("d, k, collapsed", [(4, 2, True), (3, 1, False)])
    def test_one_search_per_shape(self, monkeypatch, d, k, collapsed):
        searched = []
        for cls in (DistinguishedTree, CircuitGraph):

            def counted(g, search=cls.skeleton_automorphisms):
                searched.append(g)
                return search(g)

            monkeypatch.setattr(cls, "skeleton_automorphisms", counted)
        enumerate_shapes(d, k, collapsed=collapsed, include_circuits=True)
        shapes = [g for n in range(1, k + 2) for g in _shapes(DistinguishedTree, n, 0)]
        shapes += [g for n in range(2, k + 2) for g in _shapes(CircuitGraph, n, 1)]
        assert sorted(g.canonical_key for g in searched) == sorted(g.canonical_key for g in shapes)


@pytest.fixture(scope="module")
def full_3_2():
    return enumerate_shapes(3, 2, collapsed=False)


class TestRebuild:
    """A listed class read back as a graph is the one the validating
    constructor builds from the same fields, and ``classify`` gives that
    graph the listed record."""

    def _check(self, classes, d):
        for sc in classes:
            g = sc.shape
            rebuilt = type(g)(g.weights, g.edges, g.leg_counts, g.leg_labels)
            assert g == rebuilt
            assert g.canonical_key == rebuilt.canonical_key
            assert (g.e, g.k, g.kind) == (rebuilt.e, rebuilt.k, rebuilt.kind)
            # The whole record: shape, multiplicity, dim, bound, survivor, note.
            assert classify(rebuilt, d) == sc

    def test_full_trees(self, full_3_2):
        self._check(full_3_2, 3)

    def test_collapsed_with_circuits(self):
        classes = enumerate_shapes(4, 2, include_circuits=True)
        assert any(c.kind == "circuit" for c in classes)
        self._check(classes, 4)

    def test_listed_class_with_wrong_degree_still_refused(self):
        sc = enumerate_shapes(3, 0)[0]
        with pytest.raises(ValueError):
            classify(sc.shape, 4)


class TestClassRecord:
    """A listed class is its canonical key, its multiplicity and a reference to
    its skeleton's verdict; ``shape`` reads the key back through ``from_key``.
    Full mode at d = 4 stops at one extra vertex: two exceed the default class
    ceiling."""

    @pytest.mark.parametrize(
        "d, k, collapsed", [(3, 2, True), (3, 2, False), (4, 2, True), (4, 1, False)]
    )
    def test_key_round_trip(self, d, k, collapsed):
        listed = enumerate_shapes(d, k, collapsed=collapsed, include_circuits=True)
        assert {c.kind for c in listed} == {"tree", "circuit"}
        assert listed[-1].shape == from_key(listed[-1].key)
        for sc in listed:
            g = sc.shape
            assert g.canonical_key == sc.key
            assert classify(g, d) == sc

    @pytest.mark.parametrize("d, k, collapsed", [(4, 2, True), (3, 1, False)])
    def test_classes_hold_no_graph_and_share_verdicts(self, d, k, collapsed):
        listed = enumerate_shapes(d, k, collapsed=collapsed, include_circuits=True)
        by_skeleton = {}
        for sc in listed:
            assert not hasattr(sc, "__dict__")
            held = [getattr(sc, name) for name in ShapeClass.__slots__]
            assert not any(isinstance(x, _MarkedGraph) for x in [*held, *sc.verdict])
            g = sc.shape
            bare = type(g)(g.weights, g.edges, (0,) * g.n_vertices).canonical_key
            by_skeleton.setdefault(bare, []).append(sc.verdict)
        for verdicts in by_skeleton.values():
            assert all(v is verdicts[0] for v in verdicts)
        assert len({id(v[0]) for v in by_skeleton.values()}) == len(by_skeleton)


def _in_survivor_family(g):
    """The one-vertex tree, or an e = 0, k = 2 tree with both extra weights positive."""
    if g.kind != "tree":
        return False
    return g.k == 0 or (g.e == 0 and g.k == 2 and all(w > 0 for w in g.weights[1:]))


class TestSurvivorFamilies:
    @pytest.mark.parametrize("d, survivors", [(3, 136), (4, 355), (5, 721)])
    def test_listed_survivors_are_the_two_families(self, d, survivors):
        strata = classify_survivors(d, 3, include_circuits=True)
        assert sum(s.survivor for s in strata) == survivors
        for s in strata:
            assert s.survivor == _in_survivor_family(s.shape)

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_skeleton_verdicts_are_the_two_families(self, d):
        legs = 3 * d - 1
        for skel, _ in _skeletons(d, 3, True):
            if sum(_min_legs(skel)) > legs:
                continue  # no stable leg profile: the skeleton lists nothing
            assert _verdict(skel, d).survivor == _in_survivor_family(skel)
