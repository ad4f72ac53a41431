import hashlib
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from curvecount import counts
from curvecount.counts import (
    MAX_PRINTABLE_DEGREE,
    CacheError,
    ExactDivisionError,
    JClass,
    RecursionTable,
    binomial,
    divisibility_report,
    elliptic_count,
    load_table,
    rational_count,
    save_table,
    zt_invariant,
)

# Frozen from an independent straight-line evaluation of the recursion
# (own additive Pascal triangle, no memoization).
KNOWN_COUNTS = {
    1: 1,
    2: 1,
    3: 12,
    4: 620,
    5: 87304,
    6: 26312976,
    7: 14616808192,
    8: 13525751027392,
    9: 19385778269260800,
    10: 40739017561997799680,
    11: 120278021410937387514880,
    12: 482113680618029292368686080,
    13: 2551154673732472157928033617920,
    14: 17410560213476464590484763013222400,
    15: 150246278745658335777587625061177835520,
}


# sha256 of save_table's text for N_1..N_571, recorded with the earlier
# evaluation of the recursion (two math.comb calls per unpaired term).
DIGEST_TO_571 = "bfd2cd445e0d7dbb0f472862da6925f1e6e609f276e6da9816cb936bcb13c11c"


def _pascal_rows(n_max):
    rows = [[1]]
    for _ in range(n_max):
        prev = rows[-1]
        rows.append([1] + [a + b for a, b in zip(prev, prev[1:])] + [1])
    return rows


def _oracle_counts(d_max):
    """N_1..N_d_max by the unpaired two-binomial sum, term by term, on the
    additive Pascal triangle above; memoized, and sharing no code with
    the implementation beyond the table it is compared with."""
    rows = _pascal_rows(max(3 * d_max - 4, 0))

    def choose(n, k):
        return rows[n][k] if 0 <= k <= n else 0

    counts = {1: 1}
    for d in range(2, d_max + 1):
        n = 3 * d - 4
        counts[d] = sum(
            counts[i]
            * counts[d - i]
            * (
                i * i * (d - i) ** 2 * choose(n, 3 * i - 2)
                - i**3 * (d - i) * choose(n, 3 * i - 1)
            )
            for i in range(1, d)
        )
    return counts


class TestBinomial:
    def test_small_values(self):
        assert binomial(5, 2) == 10
        assert binomial(5, 5) == 1
        assert binomial(8, 4) == 70

    def test_out_of_range_convention(self):
        assert binomial(4, 7) == 0
        assert binomial(4, -1) == 0
        assert binomial(-2, 0) == 0

    @given(st.integers(1, 60), st.integers(0, 60))
    def test_pascal_identity(self, n, k):
        assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)

    @given(st.integers(0, 80), st.lists(st.integers(-2, 82), max_size=40))
    def test_shared_row_matches_plain_call(self, n, ks):
        row = [1]
        for k in ks:
            assert binomial(n, k, row) == binomial(n, k)
        assert len(row) <= n // 2 + 1


class TestRationalCount:
    def test_known_values(self):
        table = RecursionTable()
        for d, expected in KNOWN_COUNTS.items():
            assert rational_count(d, table) == expected

    def test_twelve_has_27_digits(self):
        assert len(str(rational_count(12))) == 27

    def test_shared_table_agrees_with_fresh_tables(self):
        shared = RecursionTable()
        rational_count(15, shared)
        for d in range(1, 16):
            assert rational_count(d) == shared[d]

    def test_table_fills_densely(self):
        table = RecursionTable()
        rational_count(6, table)
        assert [d for d, _ in table.items()] == list(range(1, 7))

    def test_matches_unpaired_oracle_to_150(self):
        table = RecursionTable()
        table.fill_to(150)
        assert dict(table.items()) == _oracle_counts(150)

    def test_table_to_571_matches_pinned_digest(self, tmp_path):
        path = tmp_path / "counts.txt"
        table = RecursionTable()
        table.fill_to(571)
        save_table(table, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGEST_TO_571

    def test_rejects_nonpositive_degree(self):
        with pytest.raises(ValueError):
            rational_count(0)
        with pytest.raises(ValueError):
            rational_count(-3)


class TestEllipticCount:
    def test_degree_three_all_classes(self):
        assert elliptic_count(3, JClass.GENERIC) == 12
        assert elliptic_count(3, JClass.J_ZERO) == 4
        assert elliptic_count(3, JClass.J_1728) == 6

    def test_degree_four_generic(self):
        assert elliptic_count(4, JClass.GENERIC) == 1860

    def test_rejects_low_degree(self):
        for d in (2, 1, 0):
            with pytest.raises(ValueError, match="elliptic counts are defined for d >= 3"):
                elliptic_count(d, JClass.GENERIC)

    def test_corrupt_table_raises_exact_division_error(self):
        # C(2,2) * 13 = 13 is not divisible by the j = 0 factor 3.
        corrupt = RecursionTable({1: 1, 2: 1, 3: 13})
        with pytest.raises(ExactDivisionError, match="not divisible by 3"):
            elliptic_count(3, JClass.J_ZERO, corrupt)

    def test_aut_factors(self):
        assert JClass.GENERIC.aut_factor == 1
        assert JClass.J_ZERO.aut_factor == 3
        assert JClass.J_1728.aut_factor == 2

    def test_divisions_exact_to_30(self):
        table = RecursionTable()
        for d in range(3, 31):
            for j in JClass:
                assert elliptic_count(d, j, table) * j.aut_factor == zt_invariant(d, table)


class TestZtInvariant:
    def test_values(self):
        assert zt_invariant(3) == 12
        assert zt_invariant(4) == 1860
        assert zt_invariant(5) == 523824

    def test_rejects_low_degree(self):
        with pytest.raises(ValueError):
            zt_invariant(2)


class TestDivisibility:
    def test_rows(self):
        rows = {r.d: r for r in divisibility_report(6)}
        assert (rows[3].count_mod3, rows[3].d_mod3) == (0, 0)
        assert (rows[4].count_mod3, rows[4].d_mod3) == (2, 1)
        assert (rows[6].count_mod3, rows[6].d_mod3) == (0, 0)

    def test_mod3_law_to_12(self):
        assert all(not row.anomaly for row in divisibility_report(12))

    def test_binom_nonzero_mod3_when_d_divisible(self):
        for row in divisibility_report(30):
            if row.d_mod3 == 0:
                assert row.binom_mod3 != 0

    def test_rejects_low_bound(self):
        with pytest.raises(ValueError):
            divisibility_report(2)


class TestCacheFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "counts.txt"
        table = RecursionTable()
        rational_count(8, table)
        save_table(table, path)
        loaded = load_table(path)
        assert list(loaded.items()) == list(table.items())

    def test_format_is_plain_lines(self, tmp_path):
        path = tmp_path / "counts.txt"
        table = RecursionTable()
        rational_count(3, table)
        save_table(table, path)
        assert path.read_text() == "1 1\n2 1\n3 12\n"

    def test_rejects_bad_base_entry(self, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text("1 2\n")
        with pytest.raises(CacheError):
            load_table(path)

    def test_rejects_gap_in_degrees(self, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text("1 1\n3 12\n")
        with pytest.raises(CacheError) as err:
            load_table(path)
        assert err.value.line_no == 2

    def test_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text("1 1\n2 one\n")
        with pytest.raises(CacheError) as err:
            load_table(path)
        assert err.value.line_no == 2

    @pytest.mark.parametrize(
        "text, line_no",
        [
            ("1 1\n2 +1\n3 12\n", 2),  # a sign
            ("1 1\n2 1\n3 \u0661\u0662\n", 3),  # Arabic-Indic digits for 12
            ("1 1\n2 1\n3 1_2\n", 3),  # a digit separator
            ("1 1\n2 01\n", 2),  # a leading zero
            ("1 1\n2 1\u00a0\n", 2),  # trailing Unicode whitespace
            ("1 1\n02 1\n", 2),  # a leading zero in the degree
            ("+1 1\n", 1),  # a sign on the degree
        ],
    )
    def test_rejects_spellings_save_table_never_writes(self, tmp_path, text, line_no):
        # int() reads every field here, and each file holds the right
        # counts, but only plain ASCII decimals are read back.
        path = tmp_path / "counts.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(CacheError) as err:
            load_table(path)
        assert err.value.line_no == line_no

    def test_rejects_blank_line(self, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text("1 1\n\n2 1\n")
        with pytest.raises(CacheError):
            load_table(path)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text("")
        with pytest.raises(CacheError):
            load_table(path)

    def test_tampered_entry_caught_at_every_position(self, tmp_path):
        path = tmp_path / "counts.txt"
        table = RecursionTable()
        rational_count(30, table)
        save_table(table, path)
        lines = path.read_text().splitlines()
        for d in range(2, 31):
            tampered = list(lines)
            tampered[d - 1] = f"{d} {table[d] + 1}"
            path.write_text("".join(line + "\n" for line in tampered))
            with pytest.raises(CacheError) as err:
                load_table(path)
            assert err.value.line_no == 30, d

    def test_oversized_file_refused_before_any_rederivation(self, tmp_path, monkeypatch):
        def rederive(*_):
            raise AssertionError("_recursion_value ran")

        monkeypatch.setattr(counts, "_recursion_value", rederive)
        path = tmp_path / "counts.txt"
        for lines in (MAX_PRINTABLE_DEGREE + 1, 20000):
            path.write_text("".join(f"{d} 1\n" for d in range(1, lines + 1)))
            with pytest.raises(CacheError, match=f"^{lines} lines, "):
                load_table(path)

    @pytest.mark.parametrize(
        "text",
        [
            "1 {big}\n",  # base entry wrong
            "1 1\n2 -{big}\n",  # negative
            "1 1\n2 {big} 3\n",  # three fields
            "1 1\n2 {big}x\n",  # not an integer
            "1 1\n{big} 1\n",  # degree out of sequence
            "1 1\n2 1\n3 {big}\n",  # re-derivation fails
            "1 1\n2 1\n3 {huge}\n",  # more digits than Python reads
        ],
    )
    def test_no_message_quotes_a_whole_count(self, tmp_path, text):
        path = tmp_path / "counts.txt"
        path.write_text(text.format(big="7" * 1000, huge="7" * 5000))
        with pytest.raises(CacheError) as err:
            load_table(path)
        assert len(str(err.value)) < 120
        assert "7" * 41 not in str(err.value)

    def test_failed_write_keeps_old_cache(self, tmp_path, monkeypatch):
        path = tmp_path / "counts.txt"
        small = RecursionTable()
        rational_count(3, small)
        save_table(small, path)
        before = path.read_text()
        real_write_text = Path.write_text

        def write_half_then_fail(self, text, *args, **kwargs):
            real_write_text(self, text[: len(text) // 2], *args, **kwargs)
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", write_half_then_fail)
        big = RecursionTable()
        rational_count(10, big)
        with pytest.raises(OSError, match="disk full"):
            save_table(big, path)
        assert path.read_text() == before
        assert [p.name for p in tmp_path.iterdir()] == ["counts.txt"]
