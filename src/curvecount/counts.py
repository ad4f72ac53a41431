"""Exact curve-count arithmetic.

The base quantity is the number of irreducible, reduced, nodal rational
plane curves of degree d through 3d-1 general points.  Those numbers obey
the Kontsevich recursion

    N_1 = 1,
    N_d = sum over i+j=d, i,j>0 of
          N_i * N_j * ( i^2 j^2 * C(3d-4, 3i-2)  -  i^3 j * C(3d-4, 3i-1) ),

evaluated here with one binomial row C(3d-4, .) built per degree, and
with terms i and d-i summed into one coefficient so that each product
N_i * N_{d-i} is formed once (see ``_recursion_value``).

Everything else is an exact integer formula on top of them: the count of
elliptic plane curves of degree d with fixed j-invariant is C(d-1,2)*N_d
divided by the automorphism factor of the j-class (1 generically, 3 at
j=0, 2 at j=1728), and the top intersection number on the closure of the
irreducible-domain locus is C(d-1,2)*N_d itself.

All arithmetic is on Python ints (arbitrary precision); there is no
floating point anywhere in this module.  Division by the automorphism
factor is checked, never assumed: a non-exact division means the table
feeding it is corrupt.
"""

from __future__ import annotations

import math
import os
import re
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

__all__ = [
    "JClass",
    "RecursionTable",
    "CacheError",
    "ExactDivisionError",
    "DivisibilityRow",
    "binomial",
    "rational_count",
    "elliptic_count",
    "zt_invariant",
    "divisibility_report",
    "load_table",
    "save_table",
    "MAX_PRINTABLE_DEGREE",
]

# N_d has more than 4300 decimal digits from d = 572 on, Python's default
# limit for int-to-str conversion, so no count above this degree can be
# printed, or read back from a cache file.
MAX_PRINTABLE_DEGREE = 571


class CacheError(Exception):
    """A persistent count table failed validation.

    ``line_no`` is the 1-based offending line when the failure is tied to a
    specific line of the file.
    """

    def __init__(self, message: str, line_no: int | None = None):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no


class ExactDivisionError(ArithmeticError):
    """An elliptic-count division left a remainder.

    The quotients are integers by theorem, so a remainder can only mean the
    recursion table feeding the division is wrong.
    """


class JClass(Enum):
    """The three j-invariant classes with finite j.

    j = 0 and j = 1728 carry extra curve automorphisms (orders 3 and 2);
    every other finite j is automorphism-free.  j = infinity is deliberately
    not a class here: the nodal-curve count is exposed as ``zt_invariant``.
    """

    GENERIC = "generic"
    J_ZERO = "0"
    J_1728 = "1728"

    @property
    def aut_factor(self) -> int:
        return _AUT_FACTOR[self]


_AUT_FACTOR = {JClass.GENERIC: 1, JClass.J_ZERO: 3, JClass.J_1728: 2}


def binomial(n: int, k: int, row: list[int] | None = None) -> int:
    """C(n, k), with value 0 whenever k < 0, k > n, or n < 0.

    The out-of-range convention spares callers boundary checks.  ``row``,
    if given, is a list holding C(n, 0), C(n, 1), ... up to some point
    (``[1]`` to start): the value is read from it, by the symmetry
    C(n, k) = C(n, n-k) from its first half, after extending it in place
    one multiply-divide C(n, m) = C(n, m-1) * (n-m+1) / m per entry.  A
    caller asking for many entries of one row pays for the row once.
    """
    if n < 0 or k < 0 or k > n:
        return 0
    if row is None:
        return math.comb(n, k)
    if k + k > n:
        k = n - k
    while len(row) <= k:
        m = len(row)
        row.append(row[-1] * (n - m + 1) // m)
    return row[k]


def _recursion_value(d: int, lower) -> int:
    """Value of the degree-d recursion step given all lower counts.

    ``lower`` is any mapping holding entries for 1..d-1.  Terms i and
    j = d-i share the product N_i * N_j, so for each i <= d/2 the two
    terms' binomial coefficients are summed first and multiplied into
    N_i * N_j once; the middle term i = j (even d) is counted once.  All
    binomials are entries of the one row C(3d-4, .), built once for the
    degree; the partner's C(3d-4, 3j-2) and C(3d-4, 3j-1) are its
    entries 3i-2 and 3i-3, since 3d-4 - (3j-2) = 3i-2.  Coefficients are
    signed; only the final sum is a count.
    """
    n = 3 * d - 4
    row = [1]
    total = 0
    for i in range(1, d // 2 + 1):
        j = d - i
        ij = i * j
        coeff = ij * (ij * binomial(n, 3 * i - 2, row) - i * i * binomial(n, 3 * i - 1, row))
        if i < j:
            coeff += ij * (ij * binomial(n, 3 * j - 2, row) - j * j * binomial(n, 3 * j - 1, row))
        total += coeff * lower[i] * lower[j]
    return total


class RecursionTable:
    """Dense memo of the rational-curve counts for degrees 1..max_degree.

    Filling is single-writer; once filled to a degree the table can be read
    concurrently.  Entry 1 is pinned to 1 and every other entry is the
    recursion value over all lower entries.
    """

    def __init__(self, values: Mapping[int, int] | None = None):
        """A table holding just N_1, or a copy of ``values`` (entries 1..n,
        already validated, as ``load_table`` does)."""
        self._values: dict[int, int] = {1: 1} if values is None else dict(values)

    def __getitem__(self, d: int) -> int:
        return self._values[d]

    def __contains__(self, d: int) -> bool:
        return d in self._values

    @property
    def max_degree(self) -> int:
        return len(self._values)

    def fill_to(self, d: int) -> None:
        for n in range(self.max_degree + 1, d + 1):
            self._values[n] = _recursion_value(n, self._values)

    def items(self):
        return sorted(self._values.items())


def rational_count(d: int, table: RecursionTable | None = None) -> int:
    """Number of degree-d rational plane curves through 3d-1 general points.

    Fills ``table`` (a fresh one when omitted) densely up to d as a side
    effect.
    """
    if d <= 0:
        raise ValueError(f"rational count needs d >= 1, got {d}")
    if table is None:
        table = RecursionTable()
    table.fill_to(d)
    return table[d]


def elliptic_count(d: int, j: JClass, table: RecursionTable | None = None) -> int:
    """Number of degree-d elliptic plane curves with j-invariant in class j
    through 3d-1 general points: C(d-1,2) * N_d / aut_factor(j).

    The division is performed and verified exactly; a remainder raises
    ExactDivisionError (it would contradict the integrality of the counts).
    """
    if d < 3:
        raise ValueError(f"elliptic counts are defined for d >= 3, got {d}")
    numerator = zt_invariant(d, table)
    quot, rem = divmod(numerator, j.aut_factor)
    if rem != 0:
        raise ExactDivisionError(
            f"C({d-1},2)*N_{d} = {numerator} is not divisible by {j.aut_factor}; "
            "the recursion table is corrupt"
        )
    return quot


def zt_invariant(d: int, table: RecursionTable | None = None) -> int:
    """Top intersection number on the irreducible-domain locus: C(d-1,2)*N_d.

    Equals aut_factor(j) * elliptic_count(d, j) for every j-class, and
    counts the maps from the 1-nodal rational curve (the j = infinity
    content).
    """
    if d < 3:
        raise ValueError(f"the invariant is defined for d >= 3, got {d}")
    return binomial(d - 1, 2) * rational_count(d, table)


@dataclass(frozen=True)
class DivisibilityRow:
    d: int
    count_mod3: int
    d_mod3: int
    binom_mod3: int

    @property
    def anomaly(self) -> bool:
        """True when 3 | N_d fails to match 3 | d."""
        return (self.count_mod3 == 0) != (self.d_mod3 == 0)


def divisibility_report(d_max: int, table: RecursionTable | None = None) -> list[DivisibilityRow]:
    """Mod-3 behaviour of the rational counts for 3 <= d <= d_max.

    Each row carries N_d mod 3, d mod 3 and C(d-1,2) mod 3, and flags
    itself when divisibility of N_d by 3 disagrees with divisibility of d.
    """
    if d_max < 3:
        raise ValueError(f"report needs d_max >= 3, got {d_max}")
    if table is None:
        table = RecursionTable()
    table.fill_to(d_max)
    return [
        DivisibilityRow(d, table[d] % 3, d % 3, binomial(d - 1, 2) % 3)
        for d in range(3, d_max + 1)
    ]


# ---------------------------------------------------------------------------
# Persistent cache.  UTF-8 text, one "d<SPACE>value" line per degree, d
# running 1, 2, 3, ... with no gaps and no blank lines.


def save_table(table: RecursionTable, path: str | Path) -> None:
    """Write the table as ``d value`` lines, replacing ``path`` atomically.

    The text goes to a temporary file beside ``path`` first, so a failed
    write leaves the old cache as it was and no partial file behind.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text("".join(f"{d} {v}\n" for d, v in table.items()), encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# A count as save_table writes it: ASCII digits with no sign, "_", whitespace
# or leading zero, where int() would also take "+1", "1_2" or " ١٢".
_DECIMAL = re.compile(r"0|[1-9][0-9]*")


def _excerpt(text: str) -> str:
    """``text`` quoted for an error message, cut short if long, so that no
    message carries a whole count."""
    return repr(text) if len(text) <= 40 else repr(text[:40]) + "..."


def load_table(path: str | Path) -> RecursionTable:
    """Load a cached table, refusing anything that fails validation.

    A file of more than ``MAX_PRINTABLE_DEGREE`` lines is refused before
    any line is read as numbers, and no error message quotes a whole count.
    Beyond the syntactic checks (each line's degree and count spelled as
    ``save_table`` writes them: degrees 1, 2, 3, ..., counts in ASCII
    digits with no sign, "_", whitespace or leading zero), the base entry
    must be exactly 1 and the top entry N_n is re-derived from entries
    1..n-1.  For every n <= 600 each paired coefficient of the recursion
    for N_n (one per i <= n/2, on N_i * N_{n-i}) is non-zero, so one
    changed entry anywhere in the file always makes that check fail: it
    moves the sum by the coefficient times a positive partner, or for the
    middle entry of an even n by the coefficient times delta * (2 N_i +
    delta), which is zero only for the negative value -N_i, whose sign no
    count may carry.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if len(lines) > MAX_PRINTABLE_DEGREE:
        raise CacheError(
            f"{len(lines)} lines, but no count above degree {MAX_PRINTABLE_DEGREE} "
            "can be read back"
        )
    values: dict[int, int] = {}
    for line_no, line in enumerate(lines, start=1):
        parts = line.split(" ")
        if len(parts) != 2:
            raise CacheError(f"expected 'd value', got {_excerpt(line)}", line_no)
        degree, count = parts
        if degree != str(line_no):
            raise CacheError(f"expected degree {line_no}, got {_excerpt(degree)}", line_no)
        if _DECIMAL.fullmatch(count) is None:
            raise CacheError(f"count is not a plain decimal: {_excerpt(count)}", line_no)
        try:
            values[line_no] = int(count)
        except ValueError:  # more digits than int() reads
            raise CacheError(f"count too long to read: {_excerpt(count)}", line_no) from None
    if not values:
        raise CacheError("cache file is empty")
    if values[1] != 1:
        raise CacheError("base entry must be 1", 1)
    n = len(values)
    if n >= 2 and values[n] != _recursion_value(n, values):
        raise CacheError(
            f"re-deriving degree {n} from the lower entries does not give the stored count", n
        )
    return RecursionTable(values)
