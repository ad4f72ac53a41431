"""The Plücker formula as an independent oracle for vanishing orders.

For a net of polynomials of degree at most d (a g^2_d on P^1) with basis
f_0, f_1, f_2, the Wronskian W = det(f_i^(j)), j = 0, 1, 2, satisfies

    ord_p W = sum_i (a_i(p) - i)                at every finite point p,
    deg W   = 3(d - 2) - sum_i (a_i(inf) - i)   at infinity,

where a_0 < a_1 < a_2 is the net's vanishing sequence there.  The Wronskian
is computed here with Fraction polynomials, evaluation and division by
(x - p), sharing no code with ``curvecount.series``, whose orders come from
an integer Taylor shift and a fraction-free echelon form.
"""

import random
from fractions import Fraction

import pytest

from curvecount.series import PolySeries, RankDeficientError, vanishing_sequence

# Coefficient lists run from the constant term up.


def _trim(f):
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return f


def _add(f, g):
    n = max(len(f), len(g))
    return _trim([(f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n)])


def _mul(f, g):
    if not f or not g:
        return []
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return _trim(out)


def _derivative(f):
    return _trim([i * c for i, c in enumerate(f)][1:])


def _wronskian(rows):
    """det [f_i, f_i', f_i''] by cofactor expansion along the first column."""
    m = [[_trim(f), _derivative(f), _derivative(_derivative(f))] for f in rows]

    def minor(r, s):
        return _add(_mul(m[r][1], m[s][2]), [-c for c in _mul(m[s][1], m[r][2])])

    terms = [_mul(m[0][0], minor(1, 2)), _mul(m[1][0], minor(0, 2)), _mul(m[2][0], minor(0, 1))]
    return _add(_add(terms[0], [-c for c in terms[1]]), terms[2])


def _order_at(f, p):
    """How many times (x - p) divides the nonzero polynomial f: evaluate at
    p, and while the value is 0, divide by (x - p) synthetically."""
    order = 0
    while True:
        value, quotient = Fraction(0), []
        for c in reversed(f):
            value = value * p + c
            quotient.append(value)
        if value != 0:
            return order
        f = quotient[-2::-1]
        order += 1


def _power(p, k):
    """(x - p)**k."""
    out = [Fraction(1)]
    for _ in range(k):
        out = _mul(out, [-p, Fraction(1)])
    return out


def _coeff(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


def _random_net(rng, d, point):
    """Three polynomials of degree <= d, some of degree below d, so that
    infinity sees orders above 0 too.  With probability 1/2 member i is
    (x - point)**k_i times a cofactor that does not vanish at the point,
    for three chosen orders k_i <= d, which are then the net's orders
    there.  Returns the rows and the forced orders, or None."""
    forced = rng.random() < 0.5
    orders = sorted(rng.sample(range(d + 1), 3)) if forced else None
    rows = []
    for i in range(3):
        if forced:
            # sum_j c_j (x - point)**j, with c_0 != 0
            cofactor = [_coeff(rng) for _ in range(rng.randint(1, d - orders[i] + 1))]
            cofactor[0] = cofactor[0] or Fraction(1)
            g = []
            for j, c in enumerate(cofactor):
                g = _add(g, [c * a for a in _power(point, j)])
            f = _mul(_power(point, orders[i]), g)
        else:
            f = [_coeff(rng) for _ in range(d + 1)]
            if rng.random() < 0.3:
                f[d] = Fraction(0)
        rows.append(f + [Fraction(0)] * (d + 1 - len(f)))
    return rows, orders


POINTS = [Fraction(0), Fraction(1), Fraction(-2, 5), Fraction(7, 3)]


@pytest.mark.parametrize("seed", range(4))
def test_orders_satisfy_the_plucker_formula(seed):
    rng = random.Random(f"plucker:{seed}")
    checked = forced_checked = 0
    for _ in range(150):
        d = rng.randint(2, 7)
        point = rng.choice(POINTS)
        rows, forced = _random_net(rng, d, point)
        net = PolySeries(d, tuple(map(tuple, rows)))
        w = _wronskian(rows)
        if not w:  # the rows are dependent
            with pytest.raises(RankDeficientError):
                vanishing_sequence(net, point)
            continue
        for p in (point, rng.choice(POINTS)):
            orders = vanishing_sequence(net, p).orders
            assert _order_at(w, p) == sum(a - i for i, a in enumerate(orders)), (rows, p)
            if p == point and forced is not None:
                assert list(orders) == forced
                forced_checked += 1
        orders = vanishing_sequence(net).orders
        assert len(w) - 1 == 3 * (d - 2) - sum(a - i for i, a in enumerate(orders)), rows
        checked += 1
    assert checked > 100 and forced_checked > 50
