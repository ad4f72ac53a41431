import csv
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvecount import cli, series, strata
from curvecount.cli import main
from curvecount.counts import load_table

MONOMIAL_NET_JSON = (
    '{"degree":3,"basis":[["1","0","0","0"],'
    '["0","1","0","0"],["0","0","0","1"]]}'
)


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestNd:
    def test_csv(self, capsys):
        rc, out, err = run(capsys, ["nd", "--max", "3", "--format", "csv"])
        assert rc == 0
        assert out == "d,N\n1,1\n2,1\n3,12\n"
        assert err == ""

    def test_plain_aligns_columns(self, capsys):
        rc, out, _ = run(capsys, ["nd", "--max", "3"])
        assert rc == 0
        assert out == "1  1\n2  1\n3 12\n"

    def test_json(self, capsys):
        rc, out, _ = run(capsys, ["nd", "--max", "2", "--format", "json"])
        assert rc == 0
        assert out == '{"d_max":2,"values":[{"d":1,"N":"1"},{"d":2,"N":"1"}]}\n'
        assert json.loads(out)["values"][1]["N"] == "1"

    def test_json_counts_are_strings(self, capsys):
        rc, out, _ = run(capsys, ["nd", "--max", "15", "--format", "json"])
        assert rc == 0
        values = {row["d"]: row["N"] for row in json.loads(out)["values"]}
        assert values[15] == "150246278745658335777587625061177835520"

    def test_rejects_max_zero(self, capsys):
        rc, out, err = run(capsys, ["nd", "--max", "0"])
        assert rc == 2
        assert out == ""
        assert err == "error: --max must be between 1 and 200, got 0\n"

    def test_rejects_max_beyond_ceiling(self, capsys):
        rc, _, err = run(capsys, ["nd", "--max", "201"])
        assert rc == 2
        assert "between 1 and 200" in err

    def test_determinism(self, capsys):
        first = run(capsys, ["nd", "--max", "8", "--format", "json"])
        second = run(capsys, ["nd", "--max", "8", "--format", "json"])
        assert first == second


class TestNdCache:
    def test_cache_file_written_and_reused(self, capsys, tmp_path):
        cache = tmp_path / "cache.txt"
        first = run(capsys, ["nd", "--max", "6", "--cache", str(cache)])
        assert first[0] == 0
        text = cache.read_text()
        assert text == "1 1\n2 1\n3 12\n4 620\n5 87304\n6 26312976\n"
        second = run(capsys, ["nd", "--max", "6", "--cache", str(cache)])
        assert second == first
        assert cache.read_text() == text

    def test_cache_extends_to_higher_degree(self, capsys, tmp_path):
        cache = tmp_path / "cache.txt"
        run(capsys, ["nd", "--max", "4", "--cache", str(cache)])
        rc, out, _ = run(capsys, ["nd", "--max", "6", "--cache", str(cache)])
        assert rc == 0
        assert cache.read_text().splitlines()[-1] == "6 26312976"

    def test_corrupt_base_entry(self, capsys, tmp_path):
        cache = tmp_path / "cache.txt"
        cache.write_text("1 2\n")
        rc, out, err = run(capsys, ["nd", "--max", "3", "--cache", str(cache)])
        assert rc == 3
        assert out == ""
        assert err.startswith("error: cache: line 1:")

    def test_tampered_entry_fails_probe(self, capsys, tmp_path):
        # The loader re-derives the top entry, which entry 2 feeds.
        cache = tmp_path / "cache.txt"
        run(capsys, ["nd", "--max", "6", "--cache", str(cache)])
        lines = cache.read_text().splitlines()
        lines[1] = "2 5"
        cache.write_text("".join(line + "\n" for line in lines))
        rc, out, err = run(capsys, ["nd", "--max", "6", "--cache", str(cache)])
        assert rc == 3
        assert err.startswith("error: cache: line ")

    @pytest.mark.parametrize("lines", [3000, 20000])
    def test_oversized_cache_refused_in_one_short_line(self, capsys, tmp_path, lines):
        # No valid cache is longer than 571 lines.  Re-deriving the top entry
        # of these files gives counts of thousands of digits, which no message
        # quotes; past 4300 digits Python cannot even print them.
        cache = tmp_path / "cache.txt"
        cache.write_text("".join(f"{d} 1\n" for d in range(1, lines + 1)))
        rc, out, err = run(capsys, ["nd", "--max", "3", "--cache", str(cache)])
        assert (rc, out) == (3, "")
        assert err == f"error: cache: {lines} lines, but no count above degree 571 can be read back\n"

    def test_malformed_cache_line(self, capsys, tmp_path):
        cache = tmp_path / "cache.txt"
        cache.write_text("1 1\ntwo 1\n")
        rc, _, err = run(capsys, ["nd", "--max", "3", "--cache", str(cache)])
        assert rc == 3
        assert "line 2" in err

    @pytest.mark.parametrize(
        "text", ["1 1\n2 +1\n3 \u0661\u0662\n", "1 1\n2 1\n3 1_2\n"]
    )
    @pytest.mark.parametrize("max_d", ["3", "4"])
    def test_non_canonical_cache_refused_and_kept(self, capsys, tmp_path, text, max_d):
        # int() reads each of these counts, but no cache file spells them so.
        cache = tmp_path / "cache.txt"
        cache.write_text(text, encoding="utf-8")
        rc, out, err = run(capsys, ["nd", "--max", max_d, "--cache", str(cache)])
        assert (rc, out) == (3, "")
        assert err.startswith("error: cache: line ")
        assert cache.read_text(encoding="utf-8") == text

    @pytest.mark.parametrize(
        "argv", [["nd", "--max", "6"], ["nd", "--max", "4"], ["ed", "--d", "5"], ["ed", "--d", "3"]]
    )
    def test_covered_request_leaves_cache_unwritten(self, capsys, tmp_path, monkeypatch, argv):
        cache = tmp_path / "cache.txt"
        assert run(capsys, ["nd", "--max", "6", "--cache", str(cache)])[0] == 0
        before = cache.read_bytes()

        def refuse(*_):
            raise AssertionError("save_table ran")

        monkeypatch.setattr(cli, "save_table", refuse)
        rc, _, err = run(capsys, [*argv, "--cache", str(cache)])
        assert (rc, err) == (0, "")
        assert cache.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["cache.txt"]

    def test_ed_shares_cache_flag(self, capsys, tmp_path):
        cache = tmp_path / "cache.txt"
        rc, out, _ = run(capsys, ["ed", "--d", "4", "--cache", str(cache)])
        assert rc == 0
        assert cache.read_text().splitlines()[0] == "1 1"


class TestEd:
    def test_plain_all_classes(self, capsys):
        rc, out, _ = run(capsys, ["ed", "--d", "3"])
        assert rc == 0
        assert out == "d = 3\nE[generic] = 12\nE[0] = 4\nE[1728] = 6\nZT = 12\n"

    def test_json_single_class_exact(self, capsys):
        rc, out, _ = run(capsys, ["ed", "--d", "4", "--j", "generic", "--format", "json"])
        assert rc == 0
        assert out == '{"d":4,"j":"generic","E":"1860"}\n'

    def test_csv_all_classes(self, capsys):
        rc, out, _ = run(capsys, ["ed", "--d", "3", "--format", "csv"])
        assert rc == 0
        assert out == "d,j,E,ZT\n3,generic,12,12\n3,0,4,12\n3,1728,6,12\n"

    def test_json_all_classes(self, capsys):
        rc, out, _ = run(capsys, ["ed", "--d", "3", "--format", "json"])
        assert rc == 0
        data = json.loads(out)
        assert data["E"] == {"generic": "12", "0": "4", "1728": "6"}
        assert data["ZT"] == "12"

    def test_rejects_low_degree(self, capsys):
        rc, _, err = run(capsys, ["ed", "--d", "2"])
        assert rc == 2
        assert "d >= 3" in err

    def test_rejects_unknown_class(self, capsys):
        rc, _, _ = run(capsys, ["ed", "--d", "3", "--j", "7"])
        assert rc == 2

    def test_degree_above_ceiling_refused_before_work(self, capsys):
        start = time.perf_counter()
        rc, out, err = run(capsys, ["ed", "--d", "572"])
        assert time.perf_counter() - start < 1.0
        assert rc == 4
        assert out == ""
        assert "571" in err


class TestStrata:
    def test_trivial_listing(self, capsys):
        rc, out, _ = run(capsys, ["strata", "--d", "3", "--max-extra", "0"])
        assert rc == 0
        assert out == (
            "kind  e  k  dim  bound  survivor  multiplicity  shape     note\n"
            "tree  3  0  16   16     yes       1             (3;8;[])  -\n"
            "classes: 1 (listed: 1)\n"
            "marked total: 1\n"
            "survivors: 1\n"
        )

    def test_collapsed_summary(self, capsys):
        rc, out, _ = run(capsys, ["strata", "--d", "3", "--max-extra", "1"])
        assert rc == 0
        assert out.endswith(
            "classes: 26 (listed: 26)\n"
            "marked total: 760\n"
            "single-tail family: 256 (expected 2^8 = 256)\n"
            "survivors: 1\n"
        )

    def test_full_mode_matches_marked_total(self, capsys):
        rc, out, _ = run(capsys, ["strata", "--d", "3", "--max-extra", "1", "--full"])
        assert rc == 0
        assert "classes: 760 (listed: 760)" in out
        assert "single-tail family: 256 (expected 2^8 = 256)" in out

    def test_json_summary(self, capsys):
        rc, out, _ = run(capsys, ["strata", "--d", "3", "--max-extra", "1", "--format", "json"])
        assert rc == 0
        data = json.loads(out)
        assert data["summary"] == {
            "classes": 26,
            "listed": 26,
            "marked_total": "760",
            "single_tail_family": "256",
            "single_tail_expected": "256",
            "survivors": 1,
        }
        first = data["shapes"][0]
        assert first["shape"] == "(0;0;[(3;8;[])])"
        assert first["dim"] == 17
        assert first["bound"] == 15
        assert first["survivor"] is False

    def test_csv_rows(self, capsys):
        rc, out, _ = run(capsys, ["strata", "--d", "3", "--max-extra", "1", "--format", "csv"])
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "kind,shape,e,k,dim,bound,survivor,note,multiplicity"
        assert len(lines) == 27

    def test_survivors_only_filters_listing(self, capsys):
        rc, out, _ = run(capsys, [
            "strata", "--d", "3", "--max-extra", "2",
            "--survivors-only", "--include-circuits",
        ])
        assert rc == 0
        assert "classes: 721 (listed: 136)" in out
        assert "survivors: 136" in out
        assert "positive partition, geometrically avoided" in out

    def test_guard_max_extra(self, capsys):
        rc, out, err = run(capsys, ["strata", "--d", "3", "--max-extra", "5"])
        assert rc == 4
        assert out == ""
        assert err == "error: max_extra_vertices 5 exceeds the desk-scale guard 4\n"

    def test_guard_ceiling(self, capsys):
        rc, _, err = run(capsys, [
            "strata", "--d", "3", "--max-extra", "2", "--ceiling", "374",
        ])
        assert rc == 4
        assert err == "error: projected class count 375 exceeds the ceiling 374\n"

    @pytest.mark.parametrize("circuits", [[], ["--include-circuits"]])
    @pytest.mark.parametrize(
        "d, cells", [("10000000", 29_999_999), ("666668", 2_000_003)]
    )
    def test_guard_label_cells_before_any_label(self, capsys, monkeypatch, circuits, d, cells):
        # One class passes the class ceiling, but it would spell 3d - 1 labels;
        # at d = 10**7 building them died with a MemoryError.
        def labelled_keys(*_):
            raise AssertionError("labels spelled")

        monkeypatch.setattr(strata, "_labelled_keys", labelled_keys)
        rc, out, err = run(capsys, ["strata", "--d", d, "--max-extra", "0", "--full", *circuits])
        assert (rc, out) == (4, "")
        assert err == f"error: projected label count {cells} exceeds the desk-scale guard 2000000\n"

    def test_guard_trips_before_building_every_skeleton(self, capsys):
        # The exact projection is accumulated one skeleton at a time, so the
        # refusal comes long before the 4-extra-vertex skeletons of degree 24
        # would all be built.
        start = time.perf_counter()
        rc, out, err = run(capsys, ["strata", "--d", "24", "--max-extra", "4"])
        elapsed = time.perf_counter() - start
        assert (rc, out) == (4, "")
        assert err.startswith("error: projected class count ")
        assert err.endswith(" exceeds the ceiling 500000\n")
        assert elapsed < 1.0

    def test_guard_trips_inside_a_group(self, capsys):
        # Each skeleton's count is added as the skeleton is built, so the
        # refusal comes a few skeletons into the 3-vertex trees, not after
        # weighting both 3-vertex shapes (17,027 skeletons).
        start = time.perf_counter()
        rc, out, err = run(capsys, ["strata", "--d", "150", "--max-extra", "2"])
        assert time.perf_counter() - start < 0.5
        assert (rc, out) == (4, "")
        assert err.endswith(" exceeds the ceiling 500000\n")

    @pytest.mark.parametrize(
        "argv, rc, rows",
        [
            (["--d", "10000000", "--max-extra", "1"], 4, 0),
            (["--d", "10000000", "--max-extra", "0"], 0, 1),
            (["--d", "5000000", "--max-extra", "0", "--include-circuits"], 0, 1),
        ],
    )
    def test_large_degree_never_runs_the_burnside_sum(self, capsys, monkeypatch, argv, rc, rows):
        # The sum's table has about 3d entries.  A one-vertex skeleton has one
        # profile and a rigid one its identity's count, and any other is
        # checked against that floor first, so none of these requests runs it.
        def burnside_sum(*_):
            raise AssertionError("_profile_count ran")

        monkeypatch.setattr(strata, "_profile_count", burnside_sum)
        got, out, err = run(capsys, ["strata", *argv, "--format", "csv"])
        assert got == rc
        assert len(out.splitlines()[1:]) == rows
        if rc == 4:
            assert err == "error: projected class count 30000001 exceeds the ceiling 500000\n"

    @pytest.mark.parametrize(
        "argv, rc, rows",
        [
            (["--d", "30000", "--max-extra", "1"], 4, 0),
            (["--d", "30000", "--max-extra", "0"], 0, 1),
        ],
    )
    def test_large_degree_full_mode_never_runs_the_burnside_sum(
        self, capsys, monkeypatch, argv, rc, rows
    ):
        # Each skeleton's floor, n**free over its group order taken no further
        # than the ceiling needs, is checked before its exact count (a power
        # of n with about 3d digits); the one-vertex skeleton's floor, 1, is
        # its count, since no vertex requires legs and its group is trivial.
        def burnside_sum(*_):
            raise AssertionError("_marked_count ran")

        monkeypatch.setattr(strata, "_marked_count", burnside_sum)
        got, out, err = run(capsys, ["strata", *argv, "--full", "--format", "csv"])
        assert got == rc
        assert len(out.splitlines()[1:]) == rows
        if rc == 4:
            assert err == "error: projected class count 524289 exceeds the ceiling 500000\n"

    def test_rejects_low_degree(self, capsys):
        rc, _, _ = run(capsys, ["strata", "--d", "2"])
        assert rc == 2

    def test_rejects_bad_ceiling(self, capsys):
        rc, _, _ = run(capsys, ["strata", "--d", "3", "--ceiling", "0"])
        assert rc == 2


def _plain_table(out):
    """The plain listing's rows, cut at the header's column offsets, after
    checking that every cell starts at its column and no line ends in a space."""
    lines = out.splitlines()
    assert all(line == line.rstrip() for line in lines)
    header = lines[0]
    offsets = [i for i, ch in enumerate(header) if ch != " " and (i == 0 or header[i - 1] == " ")]
    assert header.split() == ["kind", "e", "k", "dim", "bound", "survivor", "multiplicity", "shape", "note"]
    rows = []
    for line in lines[1:]:
        if line.startswith("classes: "):
            break
        cells = []
        for i, start in enumerate(offsets):
            end = offsets[i + 1] if i + 1 < len(offsets) else len(line)
            cell = line[start:end].rstrip()
            assert cell and line[start] != " " and (start == 0 or line[start - 1] == " ")
            assert line[start:end] == cell.ljust(end - start)
            cells.append(cell)
        rows.append(cells)
    return rows


class TestStrataStreaming:
    """Each listing is written row by row; all three formats stay well formed
    and list the same cells."""

    @pytest.mark.parametrize("survivors", [False, True])
    @pytest.mark.parametrize("circuits", [False, True])
    @pytest.mark.parametrize("full, k", [(False, 2), (True, 1)])
    def test_formats_agree(self, capsys, full, k, circuits, survivors):
        argv = ["strata", "--d", "3", "--max-extra", str(k)]
        argv += ["--full"] * full + ["--include-circuits"] * circuits + ["--survivors-only"] * survivors
        outs = {}
        for fmt in ("json", "csv", "plain"):
            rc, outs[fmt], err = run(capsys, argv + ["--format", fmt])
            assert (rc, err) == (0, "")

        doc = json.loads(outs["json"])
        assert json.dumps(doc, separators=(",", ":")) + "\n" == outs["json"]
        shapes = doc["shapes"]
        assert len(shapes) == doc["summary"]["listed"] > 0

        table = list(csv.reader(io.StringIO(outs["csv"])))
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows(table)
        assert text.getvalue() == outs["csv"]
        assert table[0] == ["kind", "shape", "e", "k", "dim", "bound", "survivor", "note", "multiplicity"]
        assert table[1:] == [
            [s["kind"], s["shape"], str(s["e"]), str(s["k"]), str(s["dim"]), str(s["bound"]),
             "true" if s["survivor"] else "false", s["note"] or "", s["multiplicity"]]
            for s in shapes
        ]

        assert _plain_table(outs["plain"]) == [
            [s["kind"], str(s["e"]), str(s["k"]), str(s["dim"]), str(s["bound"]),
             "yes" if s["survivor"] else "no", s["multiplicity"], s["shape"], s["note"] or "-"]
            for s in shapes
        ]


PINNED_LISTINGS = {
    "strata --d 6 --max-extra 2 --include-circuits":
        "357fc0461e53f485c6fbd725415405aeb57b3dc765a2ec19a380e88fb9cbee0f",
    "strata --d 6 --max-extra 2 --include-circuits --format csv":
        "e38eb10f2c5826321674c13d41cc0005e19fd875e6ca6aa5b3fa22bb9c2b10fb",
    "strata --d 6 --max-extra 2 --include-circuits --format json":
        "cf865eb06daeaae96be54731122f64c1d4facb2df290f53449ff3edf8632317f",
    "strata --d 3 --max-extra 2 --full --survivors-only --format json":
        "61de7929fbf00ebd6fbfb6c1985cf8ac29634674341c6cc3c029549ee2376b82",
    "strata --d 4 --max-extra 1 --full --include-circuits":
        "e24c89c404a46610f376caa7dd5bd0d0b981c82f535dcdc6e83d7ae7a1ecdcae",
    "strata --d 4 --max-extra 1 --full --include-circuits --format json":
        "95ae99482ec7823a74f8d59b42c6879aaec38eb74c4dda6988c03dc13a61dede",
    "strata --d 4 --max-extra 1 --full --include-circuits --format csv":
        "6cc0def6e440ec7c4bd68d7f093784e663f45e12764fddfa215afad49379f29b",
    # The benchmark's two full-mode listings, its slowest requests.
    "strata --d 5 --max-extra 1 --full":
        "9ca5d24020b20384b33fd8ea460dc076f303976c23ee28d8fd64ce743cf88d03",
    "strata --d 3 --max-extra 2 --full --format json":
        "fdac68ac368a9c8745c75c264e37304624cc8290cef075d5ec92381be66c16af",
    # Three symmetric 3-vertex skeletons: non-rigid and three-part labellings.
    "strata --d 3 --max-extra 2 --full --include-circuits":
        "1ee2060e5877e971417a6bccf3cc6d7e8b72cb58a77556a5945657018b7383ce",
}


class TestPinnedListings:
    """Stdout digests of listings outside the benchmark's golden file, recorded
    before listings were streamed; the bytes must not move."""

    @pytest.mark.parametrize("argv", PINNED_LISTINGS)
    def test_listing_digest(self, capsys, argv):
        rc, out, err = run(capsys, argv.split())
        assert (rc, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_LISTINGS[argv]

    def test_full_survivors_at_degree_four_are_refused(self, capsys):
        # Every labelled class counts towards the ceiling, survivor or not.
        argv = "strata --d 4 --max-extra 2 --full --survivors-only --format json"
        rc, out, err = run(capsys, argv.split())
        assert (rc, out) == (4, "")
        assert err == "error: projected class count 601572 exceeds the ceiling 500000\n"


class TestSeries:
    @pytest.fixture
    def net_path(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(MONOMIAL_NET_JSON)
        return str(path)

    def test_plain(self, capsys, net_path):
        rc, out, _ = run(capsys, ["series", net_path])
        assert rc == 0
        assert out == (
            "degree = 3\n"
            "point = infinity\n"
            "orders = (0, 2, 3)\n"
            "K = 0\n"
            "degenerate = false\n"
            "criterion = true\n"
        )

    def test_json(self, capsys, net_path):
        rc, out, _ = run(capsys, ["series", net_path, "--format", "json"])
        assert rc == 0
        assert out == (
            '{"degree":3,"point":"infinity","orders":[0,2,3],'
            '"K":"0","degenerate":false,"criterion":true}\n'
        )

    def test_csv(self, capsys, net_path):
        rc, out, _ = run(capsys, ["series", net_path, "--format", "csv"])
        assert rc == 0
        assert out == (
            "degree,point,a0,a1,a2,K,degenerate,criterion\n"
            "3,infinity,0,2,3,0,false,true\n"
        )

    def test_finite_point(self, capsys, net_path):
        rc, out, _ = run(capsys, ["series", net_path, "--at", "1/2"])
        assert rc == 0
        assert "point = 1/2\n" in out
        assert "orders = (0, 1, 2)\n" in out

    @pytest.mark.parametrize("at, reductions", [([], 1), (["--at", "1/2"], 2), (["--at", "0"], 2)])
    def test_one_reduction_per_point(self, capsys, monkeypatch, net_path, at, reductions):
        # At infinity the root-sum relation is read off the orders just found;
        # at a finite point (0 included) it needs its own reduction at infinity.
        calls = []
        echelon = series._echelon_pivots
        monkeypatch.setattr(series, "_echelon_pivots", lambda mat: calls.append(1) or echelon(mat))
        rc, out, _ = run(capsys, ["series", net_path, *at])
        assert (rc, len(calls)) == (0, reductions)
        assert "K = 0\n" in out

    def test_negative_point_both_spellings(self, capsys, net_path):
        spaced = run(capsys, ["series", net_path, "--at", "-2/5"])
        glued = run(capsys, ["series", net_path, "--at=-2/5"])
        assert spaced == glued
        assert spaced[0] == 0
        assert "point = -2/5\n" in spaced[1]

    def test_rank_deficient_exit(self, capsys, tmp_path):
        path = tmp_path / "rank2.json"
        path.write_text(
            '{"degree":3,"basis":[["1","0","0","0"],'
            '["2","0","0","0"],["0","0","0","1"]]}'
        )
        rc, out, err = run(capsys, ["series", str(path)])
        assert rc == 5
        assert out == ""
        assert err == "error: basis rows are linearly dependent; rank < 3\n"

    def test_zero_denominator_exit(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"degree":3,"basis":[["1","0","0","1/0"],'
            '["0","1","0","0"],["0","0","0","1"]]}'
        )
        rc, _, err = run(capsys, ["series", str(path)])
        assert rc == 2
        assert err == "error: basis[0][3]: zero denominator in '1/0'\n"

    def test_missing_file_exit(self, capsys, tmp_path):
        rc, _, err = run(capsys, ["series", str(tmp_path / "missing.json")])
        assert rc == 2
        assert "missing.json" in err

    def test_file_name_read_as_path_spells_it(self, capsys, tmp_path, monkeypatch):
        # A Path drops "./" and a trailing "/" from the name it opens and reports.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "net.json").write_text(MONOMIAL_NET_JSON)
        rc, out, _ = run(capsys, ["series", "net.json/"])
        assert (rc, "orders = (0, 2, 3)\n" in out) == (0, True)
        rc, out, err = run(capsys, ["series", "./missing.json"])
        assert (rc, out) == (2, "")
        assert err == "error: [Errno 2] No such file or directory: 'missing.json'\n"

    def test_bad_point_literal(self, capsys, net_path):
        rc, _, err = run(capsys, ["series", net_path, "--at", "x"])
        assert rc == 2
        assert err == "error: --at expects an exact rational, got 'x'\n"

    def test_non_ascii_digit_point_refused(self, capsys, net_path):
        # Fraction's own reader takes any Unicode digit: it reads this as 1/2.
        rc, out, err = run(capsys, ["series", net_path, "--at", "\u0661/2"])
        assert (rc, out) == (2, "")
        assert err == "error: --at expects an exact rational, got '\u0661/2'\n"

    def test_exponent_literal_refused_at_once(self, capsys, net_path, tmp_path):
        rc, out, err = run(capsys, ["series", net_path, "--at", "1e2000000"])
        assert (rc, out) == (2, "")
        assert err == (
            "error: --at expects an exact rational (exponent notation is not accepted), got '1e2000000'\n"
        )
        path = tmp_path / "big.json"
        path.write_text(MONOMIAL_NET_JSON.replace('"1","0","0","0"', '"1","1e2000000","0","0"'))
        start = time.perf_counter()
        rc, out, err = run(capsys, ["series", str(path)])
        assert time.perf_counter() - start < 0.5
        assert (rc, out) == (2, "")
        assert err.startswith("error: basis[0][1] expects an exact rational (exponent notation")

    @pytest.mark.parametrize("dependent, code, rounds", [(False, 0, 3), (True, 5, 0)])
    def test_point_shifts_only_the_columns_read(
        self, capsys, monkeypatch, tmp_path, dependent, code, rounds
    ):
        # Each column at a point is one Horner round of the Taylor shift.  A
        # generic net has orders (0, 1, 2) there, so three rounds settle it;
        # a rank-deficient one is refused at infinity before any round.
        rng = random.Random(4000)
        rows = [[Fraction(rng.randrange(-9, 10), rng.randrange(1, 8)) for _ in range(4001)]
                for _ in range(3)]
        if dependent:
            rows[2] = [2 * x - y for x, y in zip(rows[0], rows[1])]
        path = tmp_path / "net.json"
        path.write_text(json.dumps({"degree": 4000, "basis": [list(map(str, r)) for r in rows]}))
        columns_at, shifted = series._columns_at, []

        def counted(*args):
            for column in columns_at(*args):
                shifted.append(column)
                yield column

        monkeypatch.setattr(series, "_columns_at", counted)
        rc, out, err = run(capsys, ["series", str(path), "--at=3/7"])
        assert (rc, len(shifted)) == (code, rounds)
        if dependent:
            assert (out, err) == ("", "error: basis rows are linearly dependent; rank < 3\n")
        else:
            assert "orders = (0, 1, 2)\n" in out


# Mutations of a series document: each takes (rng, doc) and returns the
# document's text.
_BAD_LITERALS = ["1_0", "\u0663", "1e5", "1/0", "\x1c5", ".5", "+-1", "", " ", "1/", "/2", "--1"]


def _with_literal(rng, doc):
    row = rng.choice(doc["basis"])
    row[rng.randrange(len(row))] = rng.choice(_BAD_LITERALS)
    return json.dumps(doc)


def _with_length(rng, doc):
    row = rng.choice(doc["basis"])
    if rng.random() < 0.25:
        del row[rng.randrange(len(row))]
    elif rng.random() < 0.33:
        row.append("1")
    elif rng.random() < 0.5:
        doc["basis"].pop()
    else:
        doc["basis"].append(list(doc["basis"][0]))
    return json.dumps(doc)


def _with_type(rng, doc):
    value = rng.choice([1, 1.5, None, True, [], {}, ["1"]])
    if rng.random() < 0.5:
        row = rng.choice(doc["basis"])
        row[rng.randrange(len(row))] = value
    elif rng.random() < 0.5:
        doc["basis"][rng.randrange(3)] = value
    else:
        doc["basis"] = value
    return json.dumps(doc)


def _with_top(rng, doc):
    return json.dumps(rng.choice([doc["basis"], "net", 3, None, True]))


def _with_degree(rng, doc):
    doc["degree"] = rng.choice([True, False, 0, -1, "3", 3.0, None])
    if rng.random() < 0.3:
        del doc["degree"]
    return json.dumps(doc)


def _truncated(rng, doc):
    text = json.dumps(doc)
    return text[: rng.randrange(len(text))]


def _dependent(rng, doc):
    doc["basis"][2] = list(doc["basis"][rng.randrange(2)])
    return json.dumps(doc)


_MUTATIONS = [_with_literal, _with_length, _with_type, _with_top, _with_degree, _truncated, _dependent]


class TestSeriesInputFuzz:
    def test_mutated_documents(self, capsys, tmp_path):
        # The CLI reads a document into integer rows with no Fraction built; its
        # exit code and message must be those of the public reader and the
        # library's vanishing sequence on the same text.
        rng = random.Random(26)
        path = tmp_path / "net.json"
        for case in range(5000):
            degree = rng.randint(1, 6)
            doc = {
                "degree": degree,
                "basis": [[str(Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
                           for _ in range(degree + 1)] for _ in range(3)],
            }
            text = rng.choice(_MUTATIONS)(rng, doc) if case % 8 else json.dumps(doc)
            path.write_text(text, encoding="utf-8")
            at = rng.choice([None, "0", "3/7", "-2/5"])
            try:
                orders = series.vanishing_sequence(series.series_from_json(text), at).orders
                expected = (0, f"orders = ({orders[0]}, {orders[1]}, {orders[2]})\n")
            except series.SeriesFormatError as exc:
                expected = (2, f"error: {exc}\n")
            except series.RankDeficientError as exc:
                expected = (5, f"error: {exc}\n")
            rc, out, err = run(capsys, ["series", str(path), *([] if at is None else [f"--at={at}"])])
            assert rc == expected[0], text
            if rc:
                assert (out, err) == ("", expected[1]), text
                assert len(err) < 300
            else:
                assert expected[1] in out and err == "", text


class TestParsing:
    def test_no_subcommand(self, capsys):
        rc = main([])
        capsys.readouterr()
        assert rc == 2

    def test_unknown_flag(self, capsys):
        rc = main(["nd", "--max", "3", "--frobnicate"])
        capsys.readouterr()
        assert rc == 2

    def test_module_entry_point(self):
        # The child imports the same package the tests do, installed or not.
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "curvecount", "nd", "--max", "3", "--format", "csv"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert proc.stdout == "d,N\n1,1\n2,1\n3,12\n"


HELP_TEXT = {
    "": """\
usage: curvecount [-h] {nd,ed,strata,series} ...

Exact counts of rational and fixed-j elliptic plane curves, stratum-shape
enumeration, and vanishing-order checks.

positional arguments:
  {nd,ed,strata,series}
    nd                  rational curve counts for d = 1..max
    ed                  elliptic fixed-j counts and the ZT invariant
    strata              enumerate and classify stratum shapes
    series              vanishing sequence and root-sum relation of a net

options:
  -h, --help            show this help message and exit
""",
    "nd": """\
usage: curvecount nd [-h] --max MAX_D [--cache PATH]
                     [--format {plain,json,csv}]

options:
  -h, --help            show this help message and exit
  --max MAX_D
  --cache PATH          persistent count table
  --format {plain,json,csv}
""",
    "ed": """\
usage: curvecount ed [-h] --d D [--j {generic,0,1728,all}] [--cache PATH]
                     [--format {plain,json,csv}]

options:
  -h, --help            show this help message and exit
  --d D
  --j {generic,0,1728,all}
  --cache PATH          persistent count table
  --format {plain,json,csv}
""",
    "strata": """\
usage: curvecount strata [-h] --d D [--max-extra MAX_EXTRA] [--full]
                         [--include-circuits] [--survivors-only]
                         [--ceiling CEILING] [--format {plain,json,csv}]

options:
  -h, --help            show this help message and exit
  --d D
  --max-extra MAX_EXTRA
  --full                materialize labelled marked classes instead of
                        collapsed profiles
  --include-circuits
  --survivors-only
  --ceiling CEILING
  --format {plain,json,csv}
""",
    "series": """\
usage: curvecount series [-h] [--at-infinity | --at P]
                         [--format {plain,json,csv}]
                         file

positional arguments:
  file                  series JSON document

options:
  -h, --help            show this help message and exit
  --at-infinity         evaluate at infinity (default)
  --at P                evaluate at the exact rational P
  --format {plain,json,csv}
""",
}


class TestHelpText:
    """The parser's text, pinned byte for byte at an 80-column terminal."""

    @pytest.mark.parametrize("command", list(HELP_TEXT))
    def test_help(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        rc, out, err = run(capsys, [command, "--help"] if command else ["--help"])
        assert (rc, out, err) == (0, HELP_TEXT[command], "")

    def test_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        rc, out, err = run(capsys, ["frob"])
        assert (rc, out) == (2, "")
        assert err == (
            "usage: curvecount [-h] {nd,ed,strata,series} ...\n"
            "curvecount: error: argument command: invalid choice: 'frob' "
            "(choose from 'nd', 'ed', 'strata', 'series')\n"
        )


FAST_PATH = [
    (
        ["nd", "--max", "3", "--format=json"],
        '{"d_max":3,"values":[{"d":1,"N":"1"},{"d":2,"N":"1"},{"d":3,"N":"12"}]}\n',
    ),
    (["ed", "--d", "4", "--j=1728", "--format", "csv"], "d,j,E,ZT\n4,1728,930,1860\n"),
    (
        [
            "strata", "--d", "3", "--max-extra=1", "--survivors-only",
            "--include-circuits", "--ceiling", "1000",
        ],
        "kind  e  k  dim  bound  survivor  multiplicity  shape     note\n"
        "tree  3  0  16   16     yes       1             (3;8;[])  -\n"
        "classes: 43 (listed: 1)\n"
        "marked total: 1271\n"
        "single-tail family: 256 (expected 2^8 = 256)\n"
        "survivors: 1\n",
    ),
    (
        ["series", "NET", "--at", "-2/5"],
        "degree = 3\npoint = -2/5\norders = (0, 1, 2)\nK = 0\n"
        "degenerate = false\ncriterion = true\n",
    ),
    (
        ["series", "NET", "--at=-2/5", "--format=json"],
        '{"degree":3,"point":"-2/5","orders":[0,1,2],"K":"0",'
        '"degenerate":false,"criterion":true}\n',
    ),
    (
        ["series", "--at-infinity", "NET", "--format", "csv"],
        "degree,point,a0,a1,a2,K,degenerate,criterion\n3,infinity,0,2,3,0,false,true\n",
    ),
]


@pytest.fixture
def net_file(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(MONOMIAL_NET_JSON)
    return str(path)


class TestFastPath:
    """Well-formed requests are read without building the argparse parser."""

    @pytest.mark.parametrize("argv, expected", FAST_PATH)
    def test_no_parser_built(self, capsys, monkeypatch, net_file, argv, expected):
        def refuse():
            raise AssertionError("the argparse parser was built")

        monkeypatch.setattr(cli, "_build_parser", refuse)
        argv = [net_file if token == "NET" else token for token in argv]
        assert run(capsys, argv) == (0, expected, "")


@pytest.fixture
def parser_builds(monkeypatch):
    calls = []
    build = cli._build_parser

    def counted():
        calls.append(1)
        return build()

    monkeypatch.setattr(cli, "_build_parser", counted)
    return calls


class TestArgparseFallback:
    """Spellings the direct reader declines still parse exactly as argparse does."""

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["nd", "--ma", "3", "--format=csv"], "d,N\n1,1\n2,1\n3,12\n"),
            (["nd", "--max", "3", "--format", "json", "--format", "csv"], "d,N\n1,1\n2,1\n3,12\n"),
            (["ed", "--d", "-3", "--d", "3", "--j", "0", "--for", "csv"], "d,j,E,ZT\n3,0,4,12\n"),
            (
                ["strata", "--d", "3", "--max-e", "0", "--survivors-only", "--survivors-only"],
                "kind  e  k  dim  bound  survivor  multiplicity  shape     note\n"
                "tree  3  0  16   16     yes       1             (3;8;[])  -\n"
                "classes: 1 (listed: 1)\nmarked total: 1\nsurvivors: 1\n",
            ),
        ],
    )
    def test_declined_spellings(self, capsys, parser_builds, argv, expected):
        assert run(capsys, argv) == (0, expected, "")
        assert parser_builds == [1]

    def test_double_dash_positional(self, capsys, parser_builds, net_file):
        rc, out, _ = run(capsys, ["series", "--at", "1/2", "--", net_file])
        assert (rc, parser_builds) == (0, [1])
        assert "point = 1/2\n" in out

    def test_conflicting_points_are_a_usage_error(self, capsys, parser_builds, net_file):
        rc, out, err = run(capsys, ["series", net_file, "--at-infinity", "--at", "1/2"])
        assert (rc, out, parser_builds) == (2, "", [1])
        assert "not allowed with argument --at-infinity" in err


class TestDoubleDashValue:
    """A value after '=' is literal, '--' included, on either parsing path
    (argparse 3.11 drops such a '--' and leaves [])."""

    @pytest.mark.parametrize(
        "tail, builds",
        [
            (["--at=--"], []),
            (["--at", "--"], []),  # glued to --at=--
            (["--at=--", "--form", "json"], [1]),  # the abbreviation goes to argparse
        ],
    )
    def test_point_is_refused_as_a_rational(self, capsys, parser_builds, net_file, tail, builds):
        rc, out, err = run(capsys, ["series", net_file, *tail])
        assert (rc, out, parser_builds) == (2, "", builds)
        assert err == "error: --at expects an exact rational, got '--'\n"

    @pytest.mark.parametrize(
        "argv, builds",
        [
            (["nd", "--max", "3", "--cache=--"], []),
            (["nd", "--max", "3", "--cach=--"], [1]),
            (["ed", "--d", "3", "--cache=--"], []),
        ],
    )
    def test_cache_names_a_file(self, capsys, parser_builds, monkeypatch, tmp_path, argv, builds):
        monkeypatch.chdir(tmp_path)
        rc, _, err = run(capsys, argv)
        assert (rc, err, parser_builds) == (0, "", builds)
        assert load_table(tmp_path / "--").max_degree == 3


_NAMES = sorted(
    {arg.flag for _, spec in cli._SUBCOMMANDS.values() for arg in spec if arg.flag[0] == "-"}
)
_PREFIXES = sorted({name[:i] for name in _NAMES for i in range(1, len(name))})
_VALUES = [
    "3", "4", "0", "-2", "+5", " 6", "1_0", "007", "x", "", "1/2", "-2/5", "-", "--",
    "plain", "json", "csv", "xml", "generic", "1728", "all", "net.json", "a b", "-x y", "nd",
]
_FLAG_LIKE = st.sampled_from(_NAMES + _PREFIXES + ["-h", "--help", "--max-extra-x"])
_VALUE = st.sampled_from(_VALUES)
_TOKEN = st.one_of(
    _FLAG_LIKE,
    _VALUE,
    st.builds(lambda name, value: f"{name}={value}", _FLAG_LIKE, _VALUE),
)


def _values_for(arg):
    if arg.kind is int:
        usual = ["3", "4", "0", "-2", "+5", " 6", "1_0", "007"]
    elif isinstance(arg.kind, tuple):
        usual = list(arg.kind)
    else:
        usual = ["net.json", "1/2", "-2/5", "a b", "", "-", "--"]
    return st.one_of(st.sampled_from(usual), st.sampled_from(usual), _VALUE)


@st.composite
def _argv(draw):
    """A subcommand and its arguments, the required ones mostly present, each
    spelled one of the ways argparse reads it, at times a repeat or stray tokens."""
    command = draw(st.sampled_from(list(cli._SUBCOMMANDS)))
    spec = cli._SUBCOMMANDS[command][1]
    chosen = [arg for arg in spec if draw(st.integers(0, 7)) < (7 if arg.required else 4)]
    if not draw(st.integers(0, 5)):
        chosen.append(draw(st.sampled_from(spec)))
    argv = [command]
    for arg in draw(st.permutations(chosen)):
        value = draw(_values_for(arg))
        if arg.flag[0] != "-":
            argv.append(value)
            continue
        exact = draw(st.integers(0, 4))
        name = arg.flag if exact else draw(st.sampled_from(_NAMES + _PREFIXES))
        if arg.kind is bool:
            argv.append(name if exact > 1 else f"{name}={value}")
        else:
            argv.extend([name, value] if exact % 2 else [f"{name}={value}"])
    for _ in range(max(0, draw(st.integers(-2, 2)))):
        argv.insert(draw(st.integers(1, len(argv))), draw(_TOKEN))
    return argv


def _typed(namespace):
    return {key: (type(value), value) for key, value in vars(namespace).items()}


class TestDirectReader:
    """The reader returns exactly argparse's Namespace, or declines."""

    @given(argv=st.one_of(_argv(), st.lists(_TOKEN, max_size=8)))
    @settings(max_examples=1000, deadline=None)
    def test_reads_as_argparse_or_declines(self, argv):
        glued = cli._glue_at_values(argv)
        read = cli._read_argv(glued)
        if read is None:
            return
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                parsed = cli._build_parser().parse_args(glued)
            except SystemExit:
                pytest.fail(f"read {argv!r}, which argparse refuses")
        expected = _typed(parsed)
        # The one exemption: argparse 3.11 drops the '--' of '--opt=--',
        # leaving [], where the reader keeps the literal value.
        spec = cli._SUBCOMMANDS[glued[0]][1]
        for token in glued[1:]:
            flag, _, value = token.partition("=")
            if value == "--":
                (dest,) = [arg.dest for arg in spec if arg.flag == flag]
                assert expected[dest] == (list, [])
                expected[dest] = (str, "--")
        assert _typed(read) == expected

    @pytest.mark.parametrize(
        "argv",
        [
            ["nd", "--max", "3", "--cache", "-2/5"],  # argparse: expected one argument
            ["nd", "--max", "3", "--cache", "-"],  # argparse reads '-' as a value
            ["nd", "--format", "csv"],  # --max is required
            ["nd", "--max", "3", "--format", "xml"],
            ["nd", "--max", "3", "--max", "4"],
            ["nd", "--max", "3", "extra"],
            ["ed", "--d", "three"],
            ["strata", "--d", "3", "--full=yes"],
            ["series", "--at", "1/2"],  # the file is required
            ["nd", "--max", "3", "--cache=--", "--cache=x"],  # a repeat, '--' or not
            ["series", "net.json", "--at-infinity", "--at", "1/2"],
            ["series", "net.json", "--", "--at", "1/2"],
            ["series", "-", "--at", "1/2"],
            ["series", "net.json", "--at"],
            ["frob"],
            [],
        ],
    )
    def test_declines(self, argv):
        assert cli._read_argv(cli._glue_at_values(argv)) is None

    @pytest.mark.parametrize("argv", [argv for argv, _ in FAST_PATH])
    def test_reads_the_fast_path_requests(self, argv):
        glued = cli._glue_at_values(argv)
        read = cli._read_argv(glued)
        assert read is not None
        assert _typed(read) == _typed(cli._build_parser().parse_args(glued))
