"""Byte-identity of the CLI: every command in tests/golden/cli.json is
replayed in-process and must give the recorded exit code, stdout and stderr.

Timings are masked on both sides: the `elapsed` field of JSON reports and
the `(N.NNs)` of text reports.  To record the file again, from the root of
a checkout whose output is known to be right:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path

from repst import cli

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"

# each is recorded as given and again with --json
COMMANDS = [
    ["dim", "--lambda", "2"],
    ["dim", "--lambda", ""],
    ["dim", "--lambda", "2,1", "--t-eval", "9"],
    ["dim", "--lambda", "3, 1,1", "--t-eval=-7/3"],
    ["pieri", "--lambda", "2,1"],
    ["pieri", "--lambda", ""],
    ["omega", "--lambda", "1"],
    ["omega", "--lambda", "3,1", "--t-eval", "1/2"],
    ["omega-m", "--rho", "0,1", "--lambda", "1"],
    ["omega-m", "--rho", "1", "--lambda", "2,1", "--t-eval", "7"],
    ["omega-m", "--rho", "", "--lambda", "2"],
    ["omega-m", "--rho", "2,0", "--lambda", "1,1", "--t-eval", "0"],
    ["class-size", "--rho", "1", "--t-eval", "6"],
    ["class-size", "--rho", "0,1"],
    ["class-size", "--rho", ""],
    ["hilbert", "--h", "1,1", "--deg", "10"],
    ["hilbert", "--h", "1,2,1", "--deg", "4"],
    ["hilbert", "--h", " 1, 1", "--deg", "3"],
    ["verma", "--lambda", "1", "--N", "4", "--t-max", "10"],
    ["verma", "--lambda", "2,1", "--N", "3", "--t-max", "12"],
    ["branch", "--lambda", "1", "--N", "3", "--max-size", "4"],
    ["stirling", "--max-m", "4"],
    ["bounds", "--max-n", "18"],
    ["bounds", "--max-n", "1"],
    ["verify", "--suite", "all"],
    ["verify", "--suite", "oracle", "--max-size", "4"],
    ["verify", "--suite", "stirling", "--max-m", "3"],
    # exit 2: the README's examples, then malformed lists
    ["dim", "--lambda", "41"],
    ["class-size", "--rho", "0,14"],
    ["verma", "--lambda", "1", "--N", "4", "--t-max", "41"],
    ["verify", "--suite", "pieri", "--max-n", "5"],
    ["verify", "--suite", "oracle", "--max-n", "10"],
    ["verify", "--suite", "stirling", "--max-n", "9"],
    ["dim", "--lambda", "1,2"],
    ["dim", "--lambda", "2,,1"],
    ["pieri", "--lambda", "0"],
    ["class-size", "--rho", "-1"],
    ["omega-m", "--rho", "x", "--lambda", "1"],
    ["hilbert", "--h", ""],
    # the threshold scan and the table export, then a bad cap of each
    ["thresholds", "--n-max", "14"],
    ["tables", "--max-size", "3", "--max-m", "3"],
    ["thresholds", "--n-max", "-3"],
    ["tables", "--max-size", "41"],
]
RECORDED_ARGS = [args + extra for args in COMMANDS for extra in ([], ["--json"])]

_ELAPSED = re.compile(r'"elapsed": [0-9.e+-]+')
_SECONDS = re.compile(r"\(\d+\.\d\ds\)")


def _mask(text: str) -> str:
    return _SECONDS.sub("(N.NNs)", _ELAPSED.sub('"elapsed": 0', text))


def _run(args: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(args))
    return {"args": args, "exit": code,
            "stdout": _mask(out.getvalue()), "stderr": _mask(err.getvalue())}


def _cases() -> list[dict]:
    return json.loads(GOLDEN.read_text())


def pytest_generate_tests(metafunc):
    # parametrized by this hook rather than a decorator, so that recording
    # needs no pytest; a missing file fails the coverage test, not the collection
    if "case" in metafunc.fixturenames:
        metafunc.parametrize("case", _cases() if GOLDEN.exists() else [],
                             ids=lambda case: " ".join(map(repr, case["args"])))


def test_cli_output_is_byte_identical(case, monkeypatch):
    monkeypatch.delenv("REPST_LIMITS", raising=False)
    assert _run(case["args"]) == case


def test_golden_file_covers_every_subcommand_in_both_formats():
    parser_commands = set(cli.build_parser()._subparsers._group_actions[0].choices)
    recorded = {(case["args"][0], "--json" in case["args"]) for case in _cases()}
    assert recorded == {(name, as_json) for name in parser_commands for as_json in (False, True)}


def test_golden_file_records_every_command_in_order():
    assert [case["args"] for case in _cases()] == RECORDED_ARGS


if __name__ == "__main__":
    os.environ.pop("REPST_LIMITS", None)
    cases = [_run(args) for args in RECORDED_ARGS]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(cases, indent=1, ensure_ascii=False) + "\n")
    print(f"wrote {len(cases)} cases to {GOLDEN}", file=sys.stderr)
