"""Exact linear-series arithmetic.

A series here is a net: the span of 3 independent polynomials of ambient
degree d with rational coefficients.  The module computes the net's
vanishing sequence at any point (infinity included) by exact row
reduction, and decides the root-sum relation: whether a single constant K
satisfies beta_{d-1} + K*beta_d = 0 across the whole net, equivalently
whether all full-degree members share the same sum of roots.  The
relation is read off the vanishing sequence at infinity: it holds iff 1 is
not an order there, and K is then the root sum of any full-degree member.

Coefficients are fractions.Fraction at the edges: ``PolySeries``, the
constant K and ``translate``'s result.  Everything else works on integer
rows: a literal is read as (numerator, denominator) by one grammar, and
each row is multiplied by the lcm of its denominators.  The echelon form
takes the rows column by column and keeps, for each unpivoted row, its
integer combination of the three basis rows, so a column costs a 3x3
product and the reduction stops at the third pivot.  At infinity column j
is b_{d-j}; at a finite point p/q column i is the y^i coefficient of
q^d * f(p/q + y/q), finished by one Horner round of the integer Taylor
shift, so only the columns up to the third pivot are shifted.  Infinity
is reduced first: it settles the rank, so a rank-deficient net is never
shifted.  None of these scalings moves a pivot column.  Vanishing orders
are discrete and one rounded pivot would corrupt them, so no floats
appear anywhere.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "PolySeries",
    "VanishingSequence",
    "RootSumRelation",
    "RankDeficientError",
    "SeriesFormatError",
    "vanishing_sequence",
    "root_sum_relation",
    "root_sum_criterion",
    "root_sum",
    "translate",
    "parse_rational",
    "series_from_json",
    "series_to_json",
]


class RankDeficientError(Exception):
    """The three basis rows do not span a rank-3 series."""


class SeriesFormatError(ValueError):
    """A series document violates the interchange format; message names the field."""


@dataclass(frozen=True)
class PolySeries:
    """Rank-3 net of degree-d polynomials, rows = coefficient vectors b_0..b_d."""

    degree: int
    basis: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        d = self.degree
        if not isinstance(d, int) or isinstance(d, bool) or d < 1:
            raise ValueError(f"ambient degree must be an integer >= 1, got {d!r}")
        rows = tuple(
            tuple(
                x if type(x) is Fraction else _rational(x, f"basis[{i}][{j}]")
                for j, x in enumerate(row)
            )
            for i, row in enumerate(self.basis)
        )
        if len(rows) != 3:
            raise ValueError(f"a net has exactly 3 basis rows, got {len(rows)}")
        for i, row in enumerate(rows):
            if len(row) != self.degree + 1:
                raise ValueError(
                    f"basis row {i} has {len(row)} coefficients, expected {self.degree + 1}"
                )
        object.__setattr__(self, "basis", rows)


@dataclass(frozen=True)
class VanishingSequence:
    """The three distinct orders of vanishing, strictly increasing."""

    orders: tuple[int, int, int]

    def __post_init__(self):
        a0, a1, a2 = self.orders
        if not (0 <= a0 < a1 < a2):
            raise ValueError(f"orders must be strictly increasing and >= 0: {self.orders}")

    @property
    def a0(self) -> int:
        return self.orders[0]

    @property
    def a1(self) -> int:
        return self.orders[1]

    @property
    def a2(self) -> int:
        return self.orders[2]


@dataclass(frozen=True)
class RootSumRelation:
    """The constant K with b_{d-1} + K*b_d = 0 across the net.

    ``degenerate`` marks the case where both top coefficients vanish on the
    whole net; every K works there and 0 is reported by convention.
    """

    k: Fraction
    degenerate: bool = False


def _integer_row(pairs) -> tuple[int, list[int]]:
    """(m, m*row) for a row of (numerator, denominator) pairs, m the lcm of
    the denominators: an integer row spanning the same line."""
    nums, dens = zip(*pairs)
    m = math.lcm(*dens)
    return m, [n * (m // q) for n, q in zip(nums, dens)]


def _integer_rows(series: PolySeries) -> list[list[int]]:
    return [_integer_row(map(Fraction.as_integer_ratio, row))[1] for row in series.basis]


def _columns_at(rows, p: int, q: int):
    """The columns of the integer rows recentred at p/q, lowest order first.

    Column i holds the y^i coefficients of q^d * f(p/q + y/q) for the rows
    f.  With b_i = a_i * q^(d-i) that is the Taylor shift of b by the
    integer p, and Horner round i (b_j += p * b_{j+1} for j from d-1 down
    to i) finishes column i, so each column costs one round and columns
    nobody reads are never shifted.
    """
    d = len(rows[0]) - 1
    rows = [list(row) for row in rows]
    power = 1
    for i in range(d, -1, -1):
        for b in rows:
            b[i] *= power
        power *= q
    for i in range(d + 1):
        if p:
            for b in rows:
                for j in range(d - 1, i - 1, -1):
                    b[j] += p * b[j + 1]
        yield rows[0][i], rows[1][i], rows[2][i]


def _echelon_pivots(columns) -> list[int]:
    """Pivot columns, in increasing order, of the row space of three integer
    rows given as an iterable of their columns; stops at the third pivot.

    The reduced rows are never written out: each row not yet a pivot row is
    kept as its integer combination of the basis rows, so a column costs
    at most a 3x3 product.  Fraction-free: a row is cleared against the
    pivot row by integer cross-multiplication, and scaling a row by a
    nonzero integer leaves its pivot columns unchanged.
    """
    combos = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    pivots: list[int] = []
    for col, (x, y, z) in enumerate(columns):
        values = [a * x + b * y + c * z for a, b, c in combos]
        top = next((r for r, v in enumerate(values) if v), None)
        if top is None:
            continue
        head, lead = combos.pop(top), values.pop(top)
        for r, v in enumerate(values):
            if v:
                g = math.gcd(lead, v)
                s, t = lead // g, v // g
                combos[r] = tuple(s * u - t * w for u, w in zip(combos[r], head))
        pivots.append(col)
        if not combos:
            break
    return pivots


def _net_orders(rows: list[list[int]], point: Fraction | None):
    """(orders at infinity, orders at ``point``) of the integer rows, None
    being infinity.  Infinity is reduced first, column j being b_{d-j}: it
    settles the rank, so a rank-deficient net is never shifted to a point."""
    at_infinity = _echelon_pivots(zip(*map(reversed, rows)))
    if len(at_infinity) < 3:
        raise RankDeficientError("basis rows are linearly dependent; rank < 3")
    if point is None:
        return at_infinity, at_infinity
    return at_infinity, _echelon_pivots(_columns_at(rows, point.numerator, point.denominator))


def vanishing_sequence(
    series: PolySeries, point: Fraction | int | str | None = None
) -> VanishingSequence:
    """The orders of vanishing of the net at ``point``: the pivot columns of
    the echelon form of its integer rows recentred there.  None is infinity,
    where a polynomial vanishes to order d - deg."""
    c = None if point is None else _rational(point, "point")
    return VanishingSequence(tuple(_net_orders(_integer_rows(series), c)[1]))


def root_sum(coeffs) -> Fraction | None:
    """Sum of the roots, -b_{d-1}/b_d, or None when the top coefficient is 0."""
    lead = _rational(coeffs[-1], "coeffs[-1]")
    if lead == 0:
        return None
    return -_rational(coeffs[-2], "coeffs[-2]") / lead


def root_sum_relation(series: PolySeries) -> RootSumRelation | None:
    """The shared K with b_{d-1} + K*b_d = 0 on the net, if one exists.

    Read off the vanishing sequence at infinity, where order 0 comes from
    b_d and order 1 from b_{d-1}: the relation holds iff 1 is not an
    order.  If 0 is an order, some basis row has b_d != 0 and K is that
    row's root sum; if 0 is not an order either, both top coefficients
    vanish identically and the degenerate marker is returned.  Returns
    None when no single K works.
    """
    rows = _integer_rows(series)
    return _relation_from(rows, _net_orders(rows, None)[0])


def _relation_from(rows: list[list[int]], orders) -> RootSumRelation | None:
    """``root_sum_relation`` of the integer rows, read off ``orders``: their
    orders at infinity.  A row's lcm scaling cancels in its root sum."""
    if 1 in orders:
        return None
    if orders[0] != 0:
        return RootSumRelation(Fraction(0), degenerate=True)
    row = next(row for row in rows if row[-1])
    return RootSumRelation(Fraction(-row[-2], row[-1]))


def root_sum_criterion(series: PolySeries) -> bool:
    """Whether the net admits the root-sum constant K: exactly when 1 is
    not an order of the vanishing sequence at infinity."""
    return root_sum_relation(series) is not None


def translate(series: PolySeries, shift: Fraction | int | str) -> PolySeries:
    """The net of f(x + shift) for f in the series.

    Preserves existence of the root-sum constant; K itself moves to
    K - d*shift because every root moves by -shift.
    """
    c = _rational(shift, "shift")
    q, d = c.denominator, series.degree
    scales, rows = zip(*(_integer_row(map(Fraction.as_integer_ratio, r)) for r in series.basis))
    shifted = zip(*_columns_at(rows, c.numerator, q))
    return PolySeries(
        d,
        tuple(
            tuple(Fraction(g_j, m * q ** (d - j)) for j, g_j in enumerate(g))
            for m, g in zip(scales, shifted)
        ),
    )


# ---------------------------------------------------------------------------
# Interchange format: {"degree": d, "basis": [[...], [...], [...]]} with
# every coefficient an exact rational string like "5", "-3/7".


# ASCII only: Fraction's own reader also takes "1_000" and any Unicode digit.
_LITERAL = re.compile(
    r"\s*(?:(?P<num>[-+]?[0-9]+)(?:/(?P<den>[0-9]+))?"
    r"|(?=[-+]?\.?[0-9])(?P<whole>[-+]?[0-9]*)\.(?P<frac>[0-9]*))\s*",
    re.ASCII,
)


def _literal(text, where: str) -> tuple[int, int]:
    """(numerator, denominator > 0) of an integer, p/q or plain decimal
    literal: the one reader behind ``parse_rational`` and the series
    document, whose rules ``parse_rational`` states."""
    if not isinstance(text, str):
        raise SeriesFormatError(f"{where}: expected a rational string, got {text!r}")
    if "e" in text or "E" in text:
        raise SeriesFormatError(
            f"{where} expects an exact rational (exponent notation is not accepted), got {text!r}"
        )
    match = _LITERAL.fullmatch(text)
    if match is None:
        raise SeriesFormatError(f"{where} expects an exact rational, got {text!r}")
    num, den, whole, frac = match.groups()
    try:
        if num is not None:
            n, q = int(num), int(den or 1)
        else:
            n, q = int(whole + frac), 10 ** len(frac)
    except ValueError:
        raise SeriesFormatError(f"{where} expects an exact rational, got {text!r}") from None
    if not q:
        raise SeriesFormatError(f"{where}: zero denominator in {text!r}")
    return n, q


def parse_rational(text, where: str) -> Fraction:
    """The exact rational an integer, p/q or plain decimal literal names.

    Digits are ASCII; surrounding ASCII whitespace is ignored.  Exponent
    notation is refused: a literal such as "1e2000000" is a few bytes long
    but expands to an integer of millions of digits.  Every failure is a
    SeriesFormatError whose message starts with ``where``.
    """
    return Fraction(*_literal(text, where))


def _rational(value, where: str) -> Fraction:
    """``value`` as a Fraction; strings go through ``parse_rational``, so a
    library caller's literal obeys the same rule as the CLI and JSON."""
    if isinstance(value, str):
        return parse_rational(value, where)
    return Fraction(value)


def _read_net(text: str) -> list[list[tuple[int, int]]]:
    """The basis rows of a series document, each coefficient read as
    (numerator, denominator); the degree is a row's length less one."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SeriesFormatError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SeriesFormatError("top level: expected an object")
    if "degree" not in doc:
        raise SeriesFormatError("degree: missing")
    degree = doc["degree"]
    if not isinstance(degree, int) or isinstance(degree, bool) or degree < 1:
        raise SeriesFormatError(f"degree: expected an integer >= 1, got {degree!r}")
    basis = doc.get("basis")
    if not isinstance(basis, list) or len(basis) != 3:
        raise SeriesFormatError("basis: expected a list of exactly 3 rows")
    rows = []
    for i, row in enumerate(basis):
        if not isinstance(row, list) or len(row) != degree + 1:
            raise SeriesFormatError(
                f"basis[{i}]: expected a list of {degree + 1} rational strings"
            )
        rows.append([_literal(entry, f"basis[{i}][{j}]") for j, entry in enumerate(row)])
    return rows


def _integer_net(text: str) -> list[list[int]]:
    """The basis rows of a series document as integer rows, with no
    Fraction built: what ``series_from_json`` reads, each row scaled by
    the lcm of its denominators."""
    return [_integer_row(row)[1] for row in _read_net(text)]


def series_from_json(text: str) -> PolySeries:
    rows = _read_net(text)
    return PolySeries(
        len(rows[0]) - 1, tuple(tuple(Fraction(n, q) for n, q in row) for row in rows)
    )


def series_to_json(series: PolySeries) -> str:
    doc = {
        "degree": series.degree,
        "basis": [[str(x) for x in row] for row in series.basis],
    }
    return json.dumps(doc, separators=(",", ":"))
