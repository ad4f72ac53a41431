import json
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvecount.series import (
    PolySeries,
    RankDeficientError,
    RootSumRelation,
    SeriesFormatError,
    VanishingSequence,
    root_sum,
    root_sum_criterion,
    root_sum_relation,
    series_from_json,
    series_to_json,
    translate,
    vanishing_sequence,
)


def _series(degree, *rows):
    return PolySeries(degree, tuple(tuple(r) for r in rows))


# Coefficient rows are (b_0, ..., b_d), lowest power first.
MONOMIAL_NET = _series(3, [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1])
STAIRCASE_D4 = _series(4, [1, 0, 0, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1])
BASE_POINT_NET = _series(3, [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0])
TIED_TOP_NET = _series(3, [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1])
UNTIED_NET = _series(3, [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1])
SKIP_LINEAR_NET = _series(3, [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, -5, 1])
SHIFTED_CUBIC_NET = _series(3, [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -5, 1])
DEGENERATE_NET = _series(4, [1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0])


class TestConstruction:
    def test_coerces_entries_to_fractions(self):
        s = _series(1, ["1/2", 0], [0, 1], [1, 1])
        assert s.basis[0][0] == Fraction(1, 2)

    def test_rejects_wrong_row_count(self):
        with pytest.raises(ValueError):
            _series(2, [1, 0, 0], [0, 1, 0])

    def test_rejects_wrong_row_length(self):
        with pytest.raises(ValueError):
            _series(2, [1, 0], [0, 1, 0], [0, 0, 1])

    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            _series(0, [1], [2], [3])

    @pytest.mark.parametrize("degree", [True, 2.0, "2", None])
    def test_rejects_degree_that_is_not_an_int(self, degree):
        with pytest.raises(ValueError, match="ambient degree"):
            _series(degree, [1, 0, 0], [0, 1, 0], [0, 0, 1])

    def test_sequence_validates_ordering(self):
        with pytest.raises(ValueError):
            VanishingSequence((0, 0, 2))
        with pytest.raises(ValueError):
            VanishingSequence((-1, 0, 2))
        seq = VanishingSequence((0, 2, 3))
        assert (seq.a0, seq.a1, seq.a2) == (0, 2, 3)


class TestVanishingSequence:
    def test_monomial_net_at_infinity(self):
        assert vanishing_sequence(MONOMIAL_NET).orders == (0, 2, 3)

    def test_staircase_at_infinity(self):
        assert vanishing_sequence(STAIRCASE_D4).orders == (0, 1, 4)

    def test_base_point_at_infinity(self):
        assert vanishing_sequence(BASE_POINT_NET).orders == (1, 2, 3)

    def test_skip_linear_net_at_infinity(self):
        assert vanishing_sequence(SKIP_LINEAR_NET).orders == (0, 1, 3)

    def test_shifted_cubic_net_at_infinity(self):
        assert vanishing_sequence(SHIFTED_CUBIC_NET).orders == (0, 2, 3)

    def test_finite_point(self):
        # (x-1)^2, (x-1)^3, 1 all have clean orders at p = 1.
        s = _series(3, [1, -2, 1, 0], [-1, 3, -3, 1], [1, 0, 0, 0])
        seq = vanishing_sequence(s, point=1)
        assert seq.orders == (0, 2, 3)

    def test_finite_point_rational(self):
        s = _series(2, [1, 0, 0], ["1/4", -1, 1], ["-1/2", 1, 0])
        seq = vanishing_sequence(s, point=Fraction(1, 2))
        assert seq.orders == (0, 1, 2)

    def test_rejects_rank_deficient(self):
        s = _series(3, [1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0])
        with pytest.raises(RankDeficientError):
            vanishing_sequence(s)

    def test_point_alone_selects_the_finite_point(self):
        # (1, x, x^3) at 1/2: 1, x - 1/2 and x^3 - 3/4 x + 1/4 = (x - 1/2)^2 (x + 1).
        assert vanishing_sequence(MONOMIAL_NET, point="1/2").orders == (0, 1, 2)
        assert vanishing_sequence(MONOMIAL_NET, Fraction(1, 2)).orders == (0, 1, 2)

    def test_orders_bounded_by_degree(self):
        seq = vanishing_sequence(MONOMIAL_NET)
        assert all(0 <= a <= 3 for a in seq.orders)


class TestRootSumRelation:
    def test_monomial_net_has_zero_sum(self):
        rel = root_sum_relation(MONOMIAL_NET)
        assert rel is not None
        assert rel.k == 0
        assert not rel.degenerate

    def test_tied_top_coefficients(self):
        rel = root_sum_relation(TIED_TOP_NET)
        assert rel is not None
        assert rel.k == -1

    def test_untied_net_has_no_relation(self):
        assert root_sum_relation(UNTIED_NET) is None

    def test_skip_linear_net_has_no_relation(self):
        assert root_sum_relation(SKIP_LINEAR_NET) is None

    def test_shifted_cubic_net(self):
        rel = root_sum_relation(SHIFTED_CUBIC_NET)
        assert rel is not None
        assert rel.k == 5

    def test_staircase_has_no_relation(self):
        assert root_sum_relation(STAIRCASE_D4) is None

    def test_degenerate_top_rows(self):
        rel = root_sum_relation(DEGENERATE_NET)
        assert rel is not None
        assert rel.k == 0
        assert rel.degenerate

    def test_rejects_rank_deficient(self):
        s = _series(3, [1, 0, 0, 0], [2, 0, 0, 0], [0, 0, 0, 1])
        with pytest.raises(RankDeficientError):
            root_sum_relation(s)


class TestCriterion:
    def test_positive_cases(self):
        assert root_sum_criterion(MONOMIAL_NET)
        assert root_sum_criterion(TIED_TOP_NET)
        assert root_sum_criterion(SHIFTED_CUBIC_NET)

    def test_negative_cases(self):
        assert not root_sum_criterion(STAIRCASE_D4)
        assert not root_sum_criterion(SKIP_LINEAR_NET)
        assert not root_sum_criterion(UNTIED_NET)

    def test_criterion_matches_gap_in_sequence(self):
        # No base point at infinity in any of these nets, so the
        # relation exists exactly when the second order jumps to >= 2.
        for net in (MONOMIAL_NET, TIED_TOP_NET, SHIFTED_CUBIC_NET,
                    STAIRCASE_D4, SKIP_LINEAR_NET, UNTIED_NET):
            seq = vanishing_sequence(net)
            assert seq.a0 == 0
            assert root_sum_criterion(net) == (seq.a1 >= 2)


class TestRootSumHelper:
    def test_cubic(self):
        # x^3 - 6x^2 + 11x - 6 = (x-1)(x-2)(x-3), roots sum to 6.
        assert root_sum([-6, 11, -6, 1]) == 6

    def test_leading_zero_returns_none(self):
        assert root_sum([1, 2, 3, 0]) is None

    def test_witness_agreement_on_constrained_net(self):
        rel = root_sum_relation(SHIFTED_CUBIC_NET)
        for row in SHIFTED_CUBIC_NET.basis:
            if row[-1] != 0:
                assert root_sum(row) == rel.k


class TestTranslate:
    def test_root_sum_shifts_by_degree_times_c(self):
        moved = translate(SHIFTED_CUBIC_NET, Fraction(1, 2))
        rel = root_sum_relation(moved)
        assert rel is not None
        assert rel.k == Fraction(7, 2)

    def test_criterion_preserved(self):
        for net in (MONOMIAL_NET, TIED_TOP_NET, UNTIED_NET, SKIP_LINEAR_NET):
            moved = translate(net, -3)
            assert root_sum_criterion(moved) == root_sum_criterion(net)

    def test_translation_moves_finite_vanishing_point(self):
        s = _series(3, [1, -2, 1, 0], [-1, 3, -3, 1], [1, 0, 0, 0])
        moved = translate(s, 1)
        seq = vanishing_sequence(moved, point=0)
        assert seq.orders == (0, 2, 3)


class TestJson:
    def test_round_trip(self):
        text = series_to_json(SHIFTED_CUBIC_NET)
        again = series_from_json(text)
        assert again == SHIFTED_CUBIC_NET

    def test_reads_rational_strings(self):
        payload = {
            "degree": 2,
            "basis": [
                ["1/2", "0", "0"],
                ["0", "-3/4", "0"],
                ["0", "0", "5"],
            ],
        }
        s = series_from_json(json.dumps(payload))
        assert s.basis[1][1] == Fraction(-3, 4)

    def test_writer_reduces_fractions(self):
        s = _series(1, ["2/4", 0], [0, 1], [1, 1])
        assert '"1/2"' in series_to_json(s)

    def test_rejects_non_object(self):
        with pytest.raises(SeriesFormatError):
            series_from_json("[1, 2]")

    def test_rejects_missing_degree(self):
        with pytest.raises(SeriesFormatError) as err:
            series_from_json('{"basis": []}')
        assert "degree" in str(err.value)

    def test_rejects_bad_degree(self):
        with pytest.raises(SeriesFormatError):
            series_from_json('{"degree": "three", "basis": []}')

    def test_rejects_wrong_row_count(self):
        with pytest.raises(SeriesFormatError) as err:
            series_from_json('{"degree": 1, "basis": [["1", "0"]]}')
        assert "basis" in str(err.value)

    def test_rejects_wrong_row_length(self):
        payload = '{"degree": 2, "basis": [["1"], ["0", "1", "0"], ["0", "0", "1"]]}'
        with pytest.raises(SeriesFormatError) as err:
            series_from_json(payload)
        assert "basis[0]" in str(err.value)

    def test_rejects_non_string_entry(self):
        payload = '{"degree": 1, "basis": [[1, 0], ["0", "1"], ["1", "1"]]}'
        with pytest.raises(SeriesFormatError) as err:
            series_from_json(payload)
        assert "basis[0][0]" in str(err.value)

    def test_rejects_zero_denominator(self):
        payload = '{"degree": 1, "basis": [["1/0", "0"], ["0", "1"], ["1", "1"]]}'
        with pytest.raises(SeriesFormatError) as err:
            series_from_json(payload)
        assert "zero denominator" in str(err.value)
        assert "basis[0][0]" in str(err.value)

    def test_rejects_non_rational_literal(self):
        payload = '{"degree": 1, "basis": [["x", "0"], ["0", "1"], ["1", "1"]]}'
        with pytest.raises(SeriesFormatError):
            series_from_json(payload)

    @pytest.mark.parametrize("literal", ["1e2000000", "2E3", "1.5e-2"])
    def test_rejects_exponent_notation(self, literal):
        payload = json.dumps({"degree": 1, "basis": [["1", literal], ["0", "1"], ["1", "1"]]})
        with pytest.raises(SeriesFormatError) as err:
            series_from_json(payload)
        assert str(err.value) == (
            f"basis[0][1] expects an exact rational (exponent notation is not accepted), got {literal!r}"
        )

    def test_reads_integer_fraction_and_decimal_literals(self):
        payload = '{"degree": 1, "basis": [["-7", "3/4"], ["0.25", "1"], [" 1 ", "-1.5"]]}'
        s = series_from_json(payload)
        assert s.basis == (
            (Fraction(-7), Fraction(3, 4)),
            (Fraction(1, 4), Fraction(1)),
            (Fraction(1), Fraction(-3, 2)),
        )

    @pytest.mark.parametrize(
        "literal",
        [
            "1_000",  # Fraction's reader takes underscore groups: 1000
            "\u0663",  # an Arabic-Indic digit: Fraction reads 3
            "1/0_1",  # Fraction reads 1
            "\u0661/2",
            "\u00a01",  # non-ASCII whitespace
            ".",
            "1/-2",
            "1.5/2",
            "",
        ],
    )
    def test_rejects_literal_outside_the_grammar(self, literal):
        payload = json.dumps({"degree": 1, "basis": [["1", "0"], ["0", literal], ["1", "1"]]})
        with pytest.raises(SeriesFormatError) as err:
            series_from_json(payload)
        assert str(err.value) == f"basis[1][1] expects an exact rational, got {literal!r}"

    @pytest.mark.parametrize(
        "literal, value",
        [("+3", 3), (".5", Fraction(1, 2)), ("5.", 5), ("-.25", Fraction(-1, 4)),
         ("007", 7), ("-0/9", 0), ("\t-3/7\n", Fraction(-3, 7))],
    )
    def test_reads_every_spelling_of_the_grammar(self, literal, value):
        payload = json.dumps({"degree": 1, "basis": [["1", "0"], ["0", literal], ["1", "1"]]})
        assert series_from_json(payload).basis[1][1] == value

    def test_rejects_invalid_json(self):
        with pytest.raises(SeriesFormatError):
            series_from_json("{not json")


# Every library entry point that takes a rational, called with one value.
LITERAL_ENTRY_POINTS = {
    "vanishing_sequence point": lambda x: vanishing_sequence(SHIFTED_CUBIC_NET, point=x),
    "translate shift": lambda x: translate(SHIFTED_CUBIC_NET, x),
    "PolySeries coefficient": lambda x: _series(1, [x, 0], [0, 1], [1, 1]),
    "root_sum coefficient": lambda x: root_sum([x, 1]),
}


class TestLibraryLiterals:
    @pytest.mark.parametrize("entry", LITERAL_ENTRY_POINTS)
    def test_exponent_literal_refused_at_once(self, entry):
        start = time.perf_counter()
        with pytest.raises(SeriesFormatError, match="exponent notation is not accepted"):
            LITERAL_ENTRY_POINTS[entry]("1e300000")
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("entry", LITERAL_ENTRY_POINTS)
    @pytest.mark.parametrize("literal", ["1_000", "\u0663", "1/0_1", "\u00a01"])
    def test_non_ascii_or_underscore_literal_refused(self, entry, literal):
        with pytest.raises(SeriesFormatError, match="expects an exact rational, got"):
            LITERAL_ENTRY_POINTS[entry](literal)

    @pytest.mark.parametrize("entry", LITERAL_ENTRY_POINTS)
    def test_fraction_literal_still_read(self, entry):
        call = LITERAL_ENTRY_POINTS[entry]
        assert call("-3/7") == call(Fraction(-3, 7))


_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def _rank3(series):
    try:
        vanishing_sequence(series)
        return True
    except RankDeficientError:
        return False


@st.composite
def _constrained_nets(draw):
    """Nets built to satisfy the top-coefficient relation by construction."""
    d = draw(st.integers(3, 5))
    k = draw(_rationals)
    rows = []
    for _ in range(3):
        row = [draw(_rationals) for _ in range(d + 1)]
        lead = draw(_rationals)
        row[d] = lead
        row[d - 1] = -k * lead
        rows.append(tuple(row))
    series = PolySeries(d, tuple(rows))
    return series, k


@st.composite
def _generic_nets(draw):
    d = draw(st.integers(3, 5))
    rows = tuple(
        tuple(draw(_rationals) for _ in range(d + 1)) for _ in range(3)
    )
    return PolySeries(d, rows)


class TestProperties:
    @settings(max_examples=80, deadline=None)
    @given(_constrained_nets())
    def test_constructed_relation_is_found(self, pair):
        series, k = pair
        if not _rank3(series):
            return
        rel = root_sum_relation(series)
        assert rel is not None
        if not rel.degenerate:
            assert rel.k == k

    @settings(max_examples=80, deadline=None)
    @given(_generic_nets(), st.integers(0, 5))
    def test_basis_change_invariance(self, series, salt):
        if not _rank3(series):
            return
        a, b, c = series.basis
        mixed = PolySeries(
            series.degree,
            (
                tuple(x + y for x, y in zip(a, b)),
                tuple(y + (salt + 1) * z for y, z in zip(b, c)),
                c,
            ),
        )
        if not _rank3(mixed):
            return
        assert vanishing_sequence(mixed) == vanishing_sequence(series)
        assert root_sum_criterion(mixed) == root_sum_criterion(series)

    @settings(max_examples=80, deadline=None)
    @given(_generic_nets(), _rationals)
    def test_translation_covariance(self, series, c):
        if not _rank3(series):
            return
        moved = translate(series, c)
        rel = root_sum_relation(series)
        moved_rel = root_sum_relation(moved)
        assert (rel is None) == (moved_rel is None)
        if rel is not None and not rel.degenerate:
            assert moved_rel.k == rel.k - series.degree * c

    @settings(max_examples=80, deadline=None)
    @given(_generic_nets())
    def test_equivalence_with_sequence_gap(self, series):
        if not _rank3(series):
            return
        assert root_sum_criterion(series) == (1 not in vanishing_sequence(series).orders)


# ---------------------------------------------------------------------------
# Oracle for the integer path: the Fraction shift and echelon the library
# used before it cleared denominators, kept here as an independent check.


def _fraction_shifted(coeffs, c):
    """Coefficients of f(x + c) given those of f, in Fractions."""
    d = len(coeffs) - 1
    out = [Fraction(0)] * (d + 1)
    for i, a in enumerate(coeffs):
        if a == 0:
            continue
        power = Fraction(1)
        for j in range(i, -1, -1):
            out[j] += a * math.comb(i, j) * power
            power *= c
    return out


def _fraction_pivots(rows):
    """Pivot columns of the row space, by Fraction elimination."""
    mat = [list(r) for r in rows]
    pivots = []
    top = 0
    for col in range(len(mat[0])):
        pivot_row = next((r for r in range(top, len(mat)) if mat[r][col] != 0), None)
        if pivot_row is None:
            continue
        mat[top], mat[pivot_row] = mat[pivot_row], mat[top]
        for r in range(top + 1, len(mat)):
            factor = mat[r][col] / mat[top][col]
            mat[r] = [a - factor * b for a, b in zip(mat[r], mat[top])]
        pivots.append(col)
        top += 1
        if top == len(mat):
            break
    return pivots


def _reference_orders(series, point):
    if point is None:
        rows = [list(reversed(row)) for row in series.basis]
    else:
        rows = [_fraction_shifted(row, point) for row in series.basis]
    pivots = _fraction_pivots(rows)
    return tuple(pivots) if len(pivots) == 3 else RankDeficientError


def _reference_relation(series):
    """The root-sum relation by Fraction arithmetic on the rational rows."""
    if len(_fraction_pivots(series.basis)) < 3:
        return RankDeficientError
    tops = [(row[-2], row[-1]) for row in series.basis]
    if all(lead == 0 for _, lead in tops):
        return RootSumRelation(Fraction(0), degenerate=True) if all(
            sub == 0 for sub, _ in tops) else None
    sub0, lead0 = next(t for t in tops if t[1] != 0)
    k = -sub0 / lead0
    return RootSumRelation(k) if all(sub + k * lead == 0 for sub, lead in tops) else None


def _orders(series, point):
    try:
        return vanishing_sequence(series, point).orders
    except RankDeficientError:
        return RankDeficientError


_wide_rationals = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 50))


def _times_power(row, c, m):
    """Coefficients of row(x) * (x - c)^m."""
    for _ in range(m):
        row = [(row[i - 1] if i else 0) - (c * row[i] if i < len(row) else 0)
               for i in range(len(row) + 1)]
    return row


@st.composite
def _oracle_nets(draw):
    """A net of degree <= 12 and a point c: each row vanishes to a drawn
    order at c and at infinity, and the third row is sometimes a
    combination of the first two."""
    d = draw(st.integers(1, 12))
    c = draw(_wide_rationals)
    rows = []
    for _ in range(3):
        at_c = draw(st.integers(0, d))
        at_inf = draw(st.integers(0, d - at_c))
        base = [draw(_wide_rationals) for _ in range(d - at_c - at_inf + 1)]
        rows.append(_times_power(base, c, at_c) + [Fraction(0)] * at_inf)
    if draw(st.integers(0, 3)) == 0:
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[2] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return PolySeries(d, tuple(map(tuple, rows))), c


class TestIntegerPathOracle:
    @settings(max_examples=150, deadline=None)
    @given(_oracle_nets(), _wide_rationals)
    def test_orders_match_fraction_elimination(self, net, other):
        series, c = net
        for point in (None, c, other, -other):
            assert _orders(series, point) == _reference_orders(series, point)

    @settings(max_examples=100, deadline=None)
    @given(_oracle_nets())
    def test_root_sum_relation_matches_fraction_reference(self, net):
        series, _ = net
        try:
            relation = root_sum_relation(series)
        except RankDeficientError:
            relation = RankDeficientError
        assert relation == _reference_relation(series)

    @settings(max_examples=100, deadline=None)
    @given(_oracle_nets(), _wide_rationals)
    def test_translate_matches_fraction_shift(self, net, other):
        series, c = net
        for shift in (c, other, -other, 0):
            assert translate(series, shift).basis == tuple(
                tuple(_fraction_shifted(row, Fraction(shift))) for row in series.basis
            )
