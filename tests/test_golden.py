"""Byte-for-byte CLI outputs on the shipped test data.

Each file under tests/data/golden/ holds the stdout, stderr and exit code of
one `qlfd <command> tests/data/<name>.json` call at the default config. To
regenerate them after a deliberate change of a report, run

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from qlfd import cli

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
NAMES = ("a2", "cycle3", "d4", "e7", "e8")
COMMANDS = ("analyze", "lfd", "degrees", "tubes", "normal-form")
CASES = [(name, command) for name in NAMES for command in COMMANDS]


def run_cli(name, command):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, str(DATA / f"{name}.json")])
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit_code": code}


def golden_path(name, command):
    return GOLDEN / f"{name}.{command}.json"


@pytest.mark.parametrize("name,command", CASES)
def test_cli_output_matches_golden(name, command):
    want = json.loads(golden_path(name, command).read_text(encoding="utf-8"))
    assert run_cli(name, command) == want


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, command in CASES:
        got = run_cli(name, command)
        golden_path(name, command).write_text(
            json.dumps(got, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(name, command, got["exit_code"], file=sys.__stdout__)
