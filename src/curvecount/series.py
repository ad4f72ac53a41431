"""Exact linear-series arithmetic.

A series here is a net: the span of 3 independent polynomials of ambient
degree d with rational coefficients.  The module computes the net's
vanishing sequence at any point (infinity included) by exact row
reduction, and decides the root-sum relation: whether a single constant K
satisfies beta_{d-1} + K*beta_d = 0 across the whole net, equivalently
whether all full-degree members share the same sum of roots.  The
relation is read off the vanishing sequence at infinity: it holds iff 1 is
not an order there, and K is then the root sum of any full-degree member.

Coefficients are fractions.Fraction at the edges: parsing, ``PolySeries``,
the constant K and ``translate``'s result.  Vanishing orders and the rank
check work on integer rows instead: each row is multiplied by the lcm of
its denominators, a finite point p/q is reached by one integer Taylor
shift of q^d * f(p/q + y/q), and the echelon form is fraction-free.  None
of these scalings moves a pivot column.  Vanishing orders are discrete
and one rounded pivot would corrupt them, so no floats appear anywhere.
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


def _integer_row(row) -> tuple[int, list[int]]:
    """(m, m*row) for m the lcm of the row's denominators: an integer row
    spanning the same line."""
    m = math.lcm(*[x.denominator for x in row])
    return m, [x.numerator * (m // x.denominator) for x in row]


def _shifted(coeffs: list[int], p: int, q: int) -> list[int]:
    """Coefficients of q^d * f(p/q + y/q), in y, for an integer row f of degree d.

    Coefficient j is q^(d-j) times the t^j coefficient of f(p/q + t): each
    column of the Taylor shift is scaled by a nonzero integer.  Scaling
    b_i = a_i * q^(d-i) turns the shift into an integer one by p (Horner).
    """
    b = list(coeffs)
    if q != 1:
        power = 1
        for i in range(len(b) - 1, -1, -1):
            b[i] *= power
            power *= q
    if p:
        d = len(b) - 1
        for i in range(d):
            for j in range(d - 1, i - 1, -1):
                b[j] += p * b[j + 1]
    return b


def _echelon_pivots(mat: list[list[int]]) -> list[int]:
    """Pivot columns of the integer rows' row space, in increasing order.

    Fraction-free: a row is cleared against the pivot row by integer
    cross-multiplication, and scaling a row by a nonzero integer leaves its
    pivot columns unchanged.  ``mat`` is reduced in place.
    """
    pivots: list[int] = []
    top = 0
    for col in range(len(mat[0])):
        pivot_row = next((r for r in range(top, len(mat)) if mat[r][col]), None)
        if pivot_row is None:
            continue
        mat[top], mat[pivot_row] = mat[pivot_row], mat[top]
        head = mat[top]
        lead = head[col]
        for r in range(top + 1, len(mat)):
            m = mat[r][col]
            if m:
                g = math.gcd(lead, m)
                a, b = lead // g, m // g
                mat[r] = [a * x - b * y for x, y in zip(mat[r], head)]
        pivots.append(col)
        top += 1
        if top == len(mat):
            break
    return pivots


def vanishing_sequence(
    series: PolySeries, point: Fraction | int | str | None = None
) -> VanishingSequence:
    """The orders of vanishing of the net at ``point``: the pivot columns of
    the echelon form of its integer rows recentred there.  None is infinity,
    where a polynomial vanishes to order d - deg: rows are reversed, column
    j is b_{d-j}."""
    rows = [_integer_row(row)[1] for row in series.basis]
    if point is None:
        rows = [row[::-1] for row in rows]
    else:
        c = _rational(point, "point")
        rows = [_shifted(row, c.numerator, c.denominator) for row in rows]
    pivots = _echelon_pivots(rows)
    if len(pivots) < 3:
        raise RankDeficientError("basis rows are linearly dependent; rank < 3")
    return VanishingSequence(tuple(pivots))


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
    return _relation_from(series, vanishing_sequence(series).orders)


def _relation_from(series: PolySeries, orders) -> RootSumRelation | None:
    """``root_sum_relation``, read off ``orders``: the net's orders at infinity."""
    if 1 in orders:
        return None
    if orders[0] != 0:
        return RootSumRelation(Fraction(0), degenerate=True)
    return RootSumRelation(root_sum(next(row for row in series.basis if row[-1])))


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
    rows = []
    for row in series.basis:
        m, ints = _integer_row(row)
        g = _shifted(ints, c.numerator, q)
        rows.append(tuple(Fraction(g_j, m * q ** (d - j)) for j, g_j in enumerate(g)))
    return PolySeries(d, tuple(rows))


# ---------------------------------------------------------------------------
# Interchange format: {"degree": d, "basis": [[...], [...], [...]]} with
# every coefficient an exact rational string like "5", "-3/7".


# ASCII only: Fraction's own reader also takes "1_000" and any Unicode digit.
_LITERAL = re.compile(
    r"\s*(?:(?P<num>[-+]?[0-9]+)(?:/(?P<den>[0-9]+))?"
    r"|(?=[-+]?\.?[0-9])(?P<whole>[-+]?[0-9]*)\.(?P<frac>[0-9]*))\s*",
    re.ASCII,
)


def parse_rational(text, where: str) -> Fraction:
    """The exact rational an integer, p/q or plain decimal literal names.

    Digits are ASCII; surrounding ASCII whitespace is ignored.  Exponent
    notation is refused: a literal such as "1e2000000" is a few bytes long
    but expands to an integer of millions of digits.  Every failure is a
    SeriesFormatError whose message starts with ``where``.
    """
    if not isinstance(text, str):
        raise SeriesFormatError(f"{where}: expected a rational string, got {text!r}")
    if "e" in text or "E" in text:
        raise SeriesFormatError(
            f"{where} expects an exact rational (exponent notation is not accepted), got {text!r}"
        )
    match = _LITERAL.fullmatch(text)
    if match is None:
        raise SeriesFormatError(f"{where} expects an exact rational, got {text!r}")
    try:
        if match["num"] is not None:
            return Fraction(int(match["num"]), int(match["den"] or 1))
        frac = match["frac"]
        return Fraction(int(match["whole"] + frac), 10 ** len(frac))
    except ZeroDivisionError:
        raise SeriesFormatError(f"{where}: zero denominator in {text!r}") from None
    except ValueError:
        raise SeriesFormatError(f"{where} expects an exact rational, got {text!r}") from None


def _rational(value, where: str) -> Fraction:
    """``value`` as a Fraction; strings go through ``parse_rational``, so a
    library caller's literal obeys the same rule as the CLI and JSON."""
    if isinstance(value, str):
        return parse_rational(value, where)
    return Fraction(value)


def series_from_json(text: str) -> PolySeries:
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
        rows.append(
            tuple(parse_rational(entry, f"basis[{i}][{j}]") for j, entry in enumerate(row))
        )
    return PolySeries(degree, tuple(rows))


def series_to_json(series: PolySeries) -> str:
    doc = {
        "degree": series.degree,
        "basis": [[str(x) for x in row] for row in series.basis],
    }
    return json.dumps(doc, separators=(",", ":"))
