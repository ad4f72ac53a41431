"""The fixed-j counts at d = 3, derived from a pencil of plane cubics.

The cubics through 8 general points form a pencil F_t = F_0 + t*F_1, and
the points impose every condition of the counts: a member of the pencil
is a cubic through the 8 points, and each count is a number of values of
t.  Project a member from a base point p, here the origin: the line
u*(a, b) meets F_t in p and in the roots of A_3 u^2 + A_2 u + A_1, A_k
the degree-k part of F_t.  The branch points of that double cover of the
line of directions are the roots of the binary quartic
A_2^2 - 4*A_1*A_3, whose coefficients are quadratic in t.  With its
invariants I = 12ae - 3bd + c^2 and J = 72ace + 9bcd - 27ad^2 - 27eb^2 - 2c^3
the member's j-invariant is 1728*4I^3/(4I^3 - J^2).  So, counting the
distinct roots of a polynomial in t as deg f - deg gcd(f, f'):

- I(t) has 4, the members with j = 0 (a triple zero of j each);
- J(t) has 6, the members with j = 1728 (a double zero of j - 1728 each);
- 4I^3 - J^2 has 12, the nodal members: N_3;
- 1728*4I^3 - j_0*(4I^3 - J^2) has 12 for a general j_0.

These are E_{3,j} = C(2,2)*N_3/aut(j) with aut(j) = 3, 2 and 1, derived
from geometry with no use of the automorphism factors or the recursion.
Nothing here comes from ``curvecount.counts``: the package's numbers are
read from the command line's output.
"""

import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from curvecount.cli import main

# Polynomials in t: lists of Fractions, lowest power first, no trailing zero.


def _trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _add(*fs):
    out = [Fraction(0)] * max(map(len, fs))
    for f in fs:
        for i, c in enumerate(f):
            out[i] += c
    return _trim(out)


def _mul(f, g):
    out = [Fraction(0)] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return _trim(out)


def _scale(c, f):
    return _trim([c * a for a in f])


def _rem(f, g):
    f = list(f)
    while len(f) >= len(g):
        q = f[-1] / g[-1]
        shift = len(f) - len(g)
        for i, b in enumerate(g):
            f[shift + i] -= q * b
        _trim(f)
    return f


def _gcd(f, g):
    while g:
        f, g = g, _rem(f, g)
    return f


def _distinct_roots(f):
    """deg f - deg gcd(f, f'): the number of distinct complex roots."""
    derivative = _trim([i * c for i, c in enumerate(f)][1:])
    return (len(f) - 1) - (len(_gcd(f, derivative)) - 1)


# Plane cubics: coefficient of x^i y^j for i + j <= 3.
_MONOMIALS = [(i, k - i) for k in range(4) for i in range(k, -1, -1)]


def _kernel(rows, width):
    """A basis of the null space of the Fraction matrix ``rows``."""
    mat = [list(r) for r in rows]
    pivots = []
    for col in range(width):
        r = next((r for r in range(len(pivots), len(mat)) if mat[r][col]), None)
        if r is None:
            continue
        top = len(pivots)
        mat[top], mat[r] = mat[r], mat[top]
        mat[top] = [x / mat[top][col] for x in mat[top]]
        for s in range(len(mat)):
            if s != top and mat[s][col]:
                mat[s] = [x - mat[s][col] * y for x, y in zip(mat[s], mat[top])]
        pivots.append(col)
    basis = []
    for free in (c for c in range(width) if c not in pivots):
        v = [Fraction(0)] * width
        v[free] = Fraction(1)
        for row, col in zip(mat, pivots):
            v[col] = -row[free]
        basis.append(v)
    return basis


def _pencil(seed):
    """F_0, F_1 spanning the cubics through the origin and 7 seeded points."""
    rng = random.Random(seed)
    points = [(0, 0)] + [(rng.randint(-30, 30), rng.randint(-30, 30)) for _ in range(7)]
    conditions = [[Fraction(x) ** i * Fraction(y) ** j for i, j in _MONOMIALS] for x, y in points]
    pencil = _kernel(conditions, len(_MONOMIALS))
    assert len(pencil) == 2, "the 8 points are not in general position"
    return pencil


def _quartic(pencil):
    """The coefficients (a, b, c, d, e) of A_2^2 - 4*A_1*A_3 in a^4, a^3 b, ...,
    b^4, each a polynomial in t."""
    f0, f1 = pencil
    # form[k][m]: coefficient of a^(k-m) b^m in A_k, linear in t.
    form = {k: [[] for _ in range(k + 1)] for k in range(4)}
    for (i, j), c0, c1 in zip(_MONOMIALS, f0, f1):
        form[i + j][j] = _trim([c0, c1])
    assert form[0] == [[]], "the origin is not a base point"

    def product(f, g):
        out = [[] for _ in range(len(f) + len(g) - 1)]
        for m, a in enumerate(f):
            for n, b in enumerate(g):
                out[m + n] = _add(out[m + n], _mul(a, b))
        return out

    square, cross = product(form[2], form[2]), product(form[1], form[3])
    return [_add(s, _scale(Fraction(-4), c)) for s, c in zip(square, cross)]


def _invariants(quartic):
    a, b, c, d, e = quartic
    m = _mul

    def k(n, f):
        return _scale(Fraction(n), f)

    i = _add(k(12, m(a, e)), k(-3, m(b, d)), m(c, c))
    j = _add(
        k(72, m(m(a, c), e)), k(9, m(m(b, c), d)), k(-27, m(a, m(d, d))),
        k(-27, m(e, m(b, b))), k(-2, m(c, m(c, c))),
    )
    return i, j


def _cli_json(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main([*argv, "--format", "json"]) == 0
    return json.loads(out.getvalue())


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fixed_j_counts_of_a_cubic_pencil(seed):
    i, j = _invariants(_quartic(_pencil(seed)))
    four_i_cubed = _scale(Fraction(4), _mul(i, _mul(i, i)))
    delta = _add(four_i_cubed, _scale(Fraction(-1), _mul(j, j)))
    # Full degree: no member with j = 0, j = 1728 or a node sits at t = infinity.
    assert (len(i) - 1, len(j) - 1, len(delta) - 1) == (4, 6, 12)
    # A member with j = 0 or 1728 is smooth: those zeros of j are not poles.
    assert len(_gcd(i, delta)) == len(_gcd(j, delta)) == 1
    rng = random.Random(seed)
    generic = []
    for _ in range(2):
        j0 = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 1000))
        fixed = _add(_scale(Fraction(1728), four_i_cubed), _scale(-j0, delta))
        generic.append(_distinct_roots(fixed))
    derived = {"generic": generic, "0": _distinct_roots(i), "1728": _distinct_roots(j)}
    nodal = _distinct_roots(delta)

    counts = _cli_json(["ed", "--d", "3"])["E"]
    n3 = _cli_json(["nd", "--max", "3"])["values"][2]
    assert n3 == {"d": 3, "N": str(nodal)}
    assert derived == {"generic": [int(counts["generic"])] * 2, "0": int(counts["0"]),
                       "1728": int(counts["1728"])}
    assert (nodal, derived["0"], derived["1728"]) == (12, 4, 6)
