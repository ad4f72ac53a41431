"""Tests of the benchmark harness itself: generators, checks, isolation, tracing."""

import io
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import forkrun  # noqa: E402
import layertrace  # noqa: E402
import outputs  # noqa: E402
import workloads  # noqa: E402
from curvecount import cli  # noqa: E402

ED_7 = {"argv": ["ed", "--d", "7"], "expect": 0, "check": "ed", "fmt": "plain", "d": 7, "j": "all"}
ND_10 = {"argv": ["nd", "--max", "10", "--format", "csv"], "expect": 0, "check": "nd", "fmt": "csv", "max": 10}


def _stdout(code, out):
    return {"out": out.decode()}


def _corrupting(entry, line_prefix):
    """An entry that runs ``entry`` and then bumps the last digit of one line."""

    def corrupted(argv):
        real, sys.stdout = sys.stdout, io.StringIO()
        try:
            code = entry(argv)
            lines = sys.stdout.getvalue().splitlines(keepends=True)
        finally:
            sys.stdout = real
        i = next(n for n, line in enumerate(lines) if line.startswith(line_prefix))
        body = lines[i].rstrip("\n")
        lines[i] = body[:-1] + str((int(body[-1]) + 1) % 10) + "\n"
        real.write("".join(lines))
        return code

    return corrupted


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(tmp_path, workload):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first = workloads.build(workload, 7, dirs[0])
    again = workloads.build(workload, 7, dirs[1])
    other = workloads.build(workload, 8, dirs[2])
    assert first == again
    digests = [outputs.request_digest(r, d) for r, d in zip((first, again, other), dirs)]
    assert digests[0] == digests[1] != digests[2]


def test_corrupted_digit_fails_the_invariant_check(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    good = forkrun.run_pass(cli.main, [ED_7], False, None)
    assert good["problems"] == {}
    bad = forkrun.run_pass(_corrupting(cli.main, "ZT = "), [ED_7], False, None)
    assert list(bad["problems"]) == [0]
    assert "ZT" in bad["problems"][0]


def test_corrupted_digit_fails_the_golden_check(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    good = forkrun.run_pass(cli.main, [ND_10], False, None)
    golden = good["digests"]
    assert forkrun.run_pass(cli.main, [ND_10], False, golden)["problems"] == {}
    corrupted = _corrupting(cli.main, "10,")
    # N_10 is not covered by any invariant, so only the golden digest sees it.
    assert forkrun.run_pass(corrupted, [ND_10], False, None)["problems"] == {}
    assert list(forkrun.run_pass(corrupted, [ND_10], False, golden)["problems"]) == [0]


def test_module_state_set_in_one_request_is_not_seen_by_the_next(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)

    def marking(argv):
        print("seen" if hasattr(cli, "_marker") else "fresh")
        cli._marker = True
        return cli.main(argv)

    runs = [forkrun.run_forked(marking, ["nd", "--max", "3"], check=_stdout) for _ in range(2)]
    assert [r["out"].splitlines()[0] for r in runs] == ["fresh", "fresh"]
    assert [r["code"] for r in runs] == [0, 0]
    assert not hasattr(cli, "_marker")


def test_traced_counts_are_exact(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    res = forkrun.run_forked(cli.main, ["nd", "--max", "6"], traced=True)
    assert res["code"] == 0
    root = res["spans"][0]
    assert root["name"] == "cli.main" and root["parent"] is None
    assert all(s["parent"] is not None for s in res["spans"][1:])
    m = layertrace.pass_metrics(res["spans"], res["stdout_bytes"])
    # Two binomials per recursion term (d, i), 1 <= i < d, for d = 2..6.
    assert m["counts.binomial.calls"] == 2 * sum(d - 1 for d in range(2, 7))
    assert m["counts.degrees_filled"] == 5
    assert m["cli.stdout_bytes"] == res["stdout_bytes"] > 0
