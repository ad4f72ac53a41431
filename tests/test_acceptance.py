"""Acceptance gate for the package.

Each test checks one release criterion and prints a single
``[ACCEPTANCE] <name>: PASS|FAIL`` line so the gate can be read off a
test log without opening tracebacks.  The numeric oracle for the
recursion lives here, not in the package: it is a straight-line,
non-memoized evaluation built on its own additive Pascal triangle, so
it shares no code with the implementation under test.
"""

import random
import time
from fractions import Fraction

from curvecount.cli import main
from curvecount.counts import (
    JClass,
    RecursionTable,
    divisibility_report,
    elliptic_count,
    rational_count,
    zt_invariant,
)
from curvecount.series import (
    PolySeries,
    RankDeficientError,
    root_sum_criterion,
    vanishing_sequence,
)
from curvecount.strata import dimension, enumerate_shapes


def _report(capsys, name, failures, elapsed=None, limit=None):
    ok = not failures
    if limit is not None:
        ok = ok and elapsed < limit
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        timing = f" [{elapsed:.2f}s < {limit:.0f}s]" if limit is not None else ""
        print(f"[ACCEPTANCE] {name}: {status}{timing}")
    assert not failures, "; ".join(str(f) for f in failures[:5])
    if limit is not None:
        assert elapsed < limit, f"{name} took {elapsed:.2f}s (limit {limit}s)"


# ---------------------------------------------------------------- oracle

def _pascal_rows(n_max):
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        row = [1]
        for k in range(1, n):
            row.append(prev[k - 1] + prev[k])
        row.append(1)
        rows.append(row)
    return rows


def _choose(rows, n, k):
    if n < 0 or k < 0 or k > n:
        return 0
    return rows[n][k]


def _oracle_count(d, rows):
    """Straight-line recursion value, recomputing every subterm."""
    if d == 1:
        return 1
    total = 0
    for i in range(1, d):
        j = d - i
        total += (
            _oracle_count(i, rows)
            * _oracle_count(j, rows)
            * (
                i * i * j * j * _choose(rows, 3 * d - 4, 3 * i - 2)
                - i ** 3 * j * _choose(rows, 3 * d - 4, 3 * i - 1)
            )
        )
    return total


class TestAcceptance:
    def test_criterion_1_recursion_small_values(self, capsys):
        start = time.perf_counter()
        failures = []
        rows = _pascal_rows(11)

        # Hand evaluations, term by term, independent of both the
        # implementation and the oracle loop above.
        hand = {
            2: [1 * 1 * (1 * _choose(rows, 2, 1) - 1 * _choose(rows, 2, 2))],
            3: [
                1 * 1 * (1 * 4 * _choose(rows, 5, 1) - 1 * 2 * _choose(rows, 5, 2)),
                1 * 1 * (4 * 1 * _choose(rows, 5, 4) - 8 * 1 * _choose(rows, 5, 5)),
            ],
            4: [
                1 * 12 * (1 * 9 * _choose(rows, 8, 1) - 1 * 3 * _choose(rows, 8, 2)),
                1 * 1 * (4 * 4 * _choose(rows, 8, 4) - 8 * 2 * _choose(rows, 8, 5)),
                12 * 1 * (9 * 1 * _choose(rows, 8, 7) - 27 * 1 * _choose(rows, 8, 8)),
            ],
        }
        if hand[3] != [0, 12] or hand[4] != [-144, 224, 540]:
            failures.append(f"hand terms drifted: {hand}")

        expected = {1: 1, 2: 1, 3: 12, 4: 620, 5: 87304}
        for d, value in expected.items():
            got = rational_count(d)
            oracle = _oracle_count(d, rows)
            if got != value or oracle != value:
                failures.append(f"d={d}: impl {got}, oracle {oracle}, want {value}")
            if d in hand and sum(hand[d]) != value:
                failures.append(f"d={d}: hand terms sum to {sum(hand[d])}")

        elapsed = time.perf_counter() - start
        _report(capsys, "recursion small values", failures, elapsed, 1.0)

    def test_criterion_2_mod_three_law(self, capsys):
        start = time.perf_counter()
        failures = []
        table = RecursionTable()
        for d in range(3, 13):
            if (rational_count(d, table) % 3 == 0) != (d % 3 == 0):
                failures.append(f"law fails at d={d}")
        failures.extend(
            f"report anomaly at d={row.d}"
            for row in divisibility_report(12)
            if row.anomaly
        )
        elapsed = time.perf_counter() - start
        _report(capsys, "mod-3 law 3..12", failures, elapsed, 1.0)

    def test_criterion_3_integrality_to_30(self, capsys):
        start = time.perf_counter()
        failures = []
        table = RecursionTable()
        for d in range(3, 31):
            try:
                elliptic_count(d, JClass.J_ZERO, table)
                elliptic_count(d, JClass.J_1728, table)
            except Exception as exc:
                failures.append(f"d={d}: {exc}")
        elapsed = time.perf_counter() - start
        _report(capsys, "integrality to d=30", failures, elapsed, 5.0)

    def test_criterion_4_degree_three_elliptic_counts(self, capsys):
        failures = []
        got = (
            elliptic_count(3, JClass.GENERIC),
            elliptic_count(3, JClass.J_ZERO),
            elliptic_count(3, JClass.J_1728),
        )
        if got != (12, 4, 6):
            failures.append(f"expected (12, 4, 6), got {got}")
        _report(capsys, "degree-3 elliptic counts", failures)

    def test_criterion_5_consistency_chain(self, capsys):
        failures = []
        table = RecursionTable()
        for d in range(3, 31):
            zt = zt_invariant(d, table)
            pairs = (d - 1) * (d - 2) // 2
            if zt != pairs * rational_count(d, table):
                failures.append(f"d={d}: invariant != C(d-1,2)*N_d")
            for j in JClass:
                if zt != j.aut_factor * elliptic_count(d, j, table):
                    failures.append(f"d={d}, j={j.value}: chain broken")
        _report(capsys, "consistency chain to d=30", failures)

    def test_criterion_6_single_tail_family_count(self, capsys):
        start = time.perf_counter()
        failures = []
        for d, expected in ((3, 256), (4, 2048)):
            classes = enumerate_shapes(d, 1, collapsed=False)
            family = [c for c in classes if c.e == 0 and c.k == 1]
            if len(family) != expected:
                failures.append(f"d={d}: {len(family)} classes, want {expected}")
        elapsed = time.perf_counter() - start
        _report(capsys, "single-tail family count", failures, elapsed, 10.0)

    def test_criterion_7_survivor_dimension_scan(self, capsys):
        start = time.perf_counter()
        failures = []
        for d in range(3, 5):
            roof = 6 * d - 3
            for c in enumerate_shapes(d, 3, include_circuits=True):
                dim = dimension(c.shape, d)
                if c.kind == "tree":
                    exempt = c.k == 0 or (c.e == 0 and c.k in (1, 2))
                else:
                    exempt = c.e == 0 and c.k == 2
                if not exempt and dim > roof:
                    failures.append(
                        f"d={d}: {c.shape.canonical_key} has dim {dim} > {roof}"
                    )
        elapsed = time.perf_counter() - start
        _report(capsys, "survivor dimension scan d=3,4", failures, elapsed, 30.0)

    def test_criterion_8_root_sum_equivalence(self, capsys):
        start = time.perf_counter()
        failures = []
        rng = random.Random(20260825)

        def coeff():
            return Fraction(rng.randrange(-9, 10), rng.randrange(1, 8))

        def lead():
            return Fraction(rng.randrange(1, 10), rng.randrange(1, 8))

        def build(d, constrained):
            while True:
                k = coeff()
                rows = []
                for i in range(3):
                    row = [coeff() for _ in range(d + 1)]
                    if i == 0:
                        row[d] = lead()
                    if constrained:
                        row[d - 1] = -k * row[d]
                    rows.append(tuple(row))
                series = PolySeries(d, tuple(rows))
                try:
                    seq = vanishing_sequence(series)
                except RankDeficientError:
                    continue
                return series, seq

        for d in range(3, 7):
            for trial in range(500):
                series, seq = build(d, constrained=trial % 2 == 0)
                if seq.a0 != 0:
                    failures.append(f"d={d} trial {trial}: base point slipped in")
                    continue
                if root_sum_criterion(series) != (seq.a1 >= 2):
                    failures.append(
                        f"d={d} trial {trial}: criterion disagrees with orders {seq.orders}"
                    )
        elapsed = time.perf_counter() - start
        _report(capsys, "root-sum equivalence 500x d=3..6", failures, elapsed, 10.0)

    def test_criterion_9_performance_floor(self, capsys):
        start = time.perf_counter()
        failures = []
        rc = main(["nd", "--max", "100"])
        elapsed = time.perf_counter() - start
        capsys.readouterr()
        if rc != 0:
            failures.append(f"exit code {rc}")
        _report(capsys, "nd --max 100 under 5s", failures, elapsed, 5.0)

    def test_criterion_10_cold_elliptic_count_at_450(self, capsys):
        start = time.perf_counter()
        failures = []
        rc = main(["ed", "--d", "450"])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        if rc != 0:
            failures.append(f"exit code {rc}")
        if not out.startswith("d = 450\n"):
            failures.append(f"unexpected output head {out[:40]!r}")
        _report(capsys, "ed --d 450 cold under 3s", failures, elapsed, 3.0)
