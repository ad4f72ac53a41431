import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_divisibility_table_header_names_binomial_column():
    proc = run_script("divisibility_table.py", "--max", "5", "--integrality-max", "5")
    assert proc.returncode == 0, proc.stderr
    header = proc.stdout.splitlines()[0]
    assert header.split() == ["d", "N_d", "mod", "3", "d", "mod", "3", "C(d-1,2)", "mod", "3", "law"]


def test_survivor_scan_header_prints_threshold():
    proc = run_script("survivor_scan.py", "--d", "3", "--max-extra", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "degree 3, up to 1 extra vertices"
    assert "survival threshold: bound >= 16" in lines


def test_survivor_scan_summary_with_circuits():
    proc = run_script("survivor_scan.py", "--d", "3", "--max-extra", "3", "--include-circuits")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for line in (
        "classes scanned: 7029",
        "survivors: 136",
        "flagged as geometrically avoided: 135",
        "unconditional survivors: 1",
    ):
        assert line in lines


@pytest.mark.parametrize(
    "name, args, code, message",
    [
        ("survivor_scan.py", ["--d", "2"], 2, "strata are defined for d >= 3, got 2"),
        ("survivor_scan.py", ["--max-extra", "5"], 4, "max_extra_vertices 5 exceeds the desk-scale guard 4"),
        ("divisibility_table.py", ["--max", "0"], 2, "report needs d_max >= 3, got 0"),
        (
            "divisibility_table.py",
            ["--integrality-max", "2"],
            2,
            "exact-division pass needs --integrality-max >= 3, got 2",
        ),
    ],
)
def test_script_errors_end_in_one_error_line(name, args, code, message):
    proc = run_script(name, *args)
    assert proc.returncode == code
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if "error: " in line]
    assert len(errors) == 1 and errors[0].endswith(f"error: {message}")
    if code == 2:
        assert proc.stderr.startswith(f"usage: {name}")
    else:
        assert proc.stderr == f"error: {message}\n"
