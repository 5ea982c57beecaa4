"""The scripts under scripts/ run end to end against the package."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repst import deligne
from repst.exact import poly_from_json
from repst.partitions import format_partition, partitions_up_to

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("REPST_LIMITS", None)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_export_tables_round_trips_the_dimensions():
    result = run_script("export_tables.py", "--max-size", "3", "--max-m", "3")
    assert result.returncode == 0, result.stderr
    dims = json.loads(result.stdout)["dimensions"]
    assert set(dims) == {format_partition(lam) for lam in partitions_up_to(3)}
    for lam in partitions_up_to(3):
        assert poly_from_json(dims[format_partition(lam)]) == deligne.dimension_poly(lam)


def test_scan_thresholds_finds_seven_for_one_box_budget():
    result = run_script("scan_thresholds.py", "--n-max", "10", "--c", "1", "--k", "1")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[1].split() == ["1", "1", "7", "n=6:", "[3,3]", "[2,2,2]"]


def test_scan_thresholds_runs_to_the_enumeration_cap():
    result = run_script("scan_thresholds.py", "--n-max", "40", "--c", "1", "--k", "1")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[1].split() == ["1", "1", "7", "n=6:", "[3,3]", "[2,2,2]"]


@pytest.mark.parametrize("name, args, message", [
    ("export_tables.py", ["--max-size", "-1", "--max-m", "3"], "max_size must be nonnegative, got -1"),
    ("export_tables.py", ["--max-size", "3", "--max-m", "-1"], "max_m must be nonnegative, got -1"),
    ("export_tables.py", ["--max-size", "41"],
     "max_size=41 exceeds the enumeration cap 40; raise REPST_LIMITS to allow it"),
    ("scan_thresholds.py", ["--n-max", "-3", "--c", "1", "--k", "1"],
     "n_max must be nonnegative, got -3"),
])
def test_scripts_reject_a_bad_cap_with_exit_2(name, args, message):
    result = run_script(name, *args)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == f"error: {message}\n"
