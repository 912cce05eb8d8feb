"""Byte-for-byte CLI outputs on the shipped test data.

Each file under tests/data/golden/ holds the stdout, stderr and exit code of
one `qlfd <command> tests/data/<name>.json` call at the default config, or of
one `qlfd --prime <p> <command> tests/data/<name>.json` call at a small prime
(file <name>.<command>.p<p>.json). Small primes make singular line anchors
and split characteristic polynomials common. To regenerate the files after a
deliberate change of a report, run

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

import qlfd.saito
from qlfd import cli
from qlfd.config import Config

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
NAMES = ("a2", "cycle3", "d4", "dt4", "e7", "e8")
COMMANDS = ("analyze", "lfd", "degrees", "tubes", "normal-form")
CASES = [(name, command) for name in NAMES for command in COMMANDS]
PRIME_CASES = [("d4", "degrees", 3), ("d4", "lfd", 7),
               ("e7", "degrees", 29), ("e7", "degrees", 37)]


def run_cli(name, command, prime=None):
    argv = [command, str(DATA / f"{name}.json")]
    if prime is not None:
        argv = ["--prime", str(prime)] + argv
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit_code": code}


def golden_path(name, command, prime=None):
    suffix = "" if prime is None else f".p{prime}"
    return GOLDEN / f"{name}.{command}{suffix}.json"


@pytest.mark.parametrize("name,prime", [(name, None) for name in NAMES]
                         + [(n, p) for n, c, p in PRIME_CASES if c == "lfd"])
def test_lfd_draws_no_schur_sample(name, prime, monkeypatch):
    # the Schur stage of lfd is read off the line test's anchors
    def refuse(*args, **kwargs):
        raise AssertionError("lfd drew a Schur sample")

    monkeypatch.setattr(qlfd.saito, "is_schur_root", refuse)
    monkeypatch.setattr(Config, "rng", refuse)
    want = json.loads(golden_path(name, "lfd", prime).read_text(encoding="utf-8"))
    assert run_cli(name, "lfd", prime) == want


@pytest.mark.parametrize("name,prime", [(name, None) for name in NAMES]
                         + [(n, p) for n, c, p in PRIME_CASES if c == "degrees"])
def test_degrees_builds_no_saito_matrix(name, prime, monkeypatch):
    # the brick of degrees is sampled by is_brick alone
    def refuse(*args, **kwargs):
        raise AssertionError("degrees used the Saito matrix")

    monkeypatch.setattr(qlfd.saito, "build_saito_matrix", refuse)
    monkeypatch.setattr(qlfd.saito.SaitoMatrix, "det_at", refuse)
    want = json.loads(golden_path(name, "degrees", prime).read_text(encoding="utf-8"))
    assert run_cli(name, "degrees", prime) == want


@pytest.mark.parametrize("name,command", CASES)
def test_cli_output_matches_golden(name, command):
    want = json.loads(golden_path(name, command).read_text(encoding="utf-8"))
    assert run_cli(name, command) == want


@pytest.mark.parametrize("name,command,prime", PRIME_CASES)
def test_cli_output_at_small_prime_matches_golden(name, command, prime):
    want = json.loads(golden_path(name, command, prime).read_text(encoding="utf-8"))
    assert run_cli(name, command, prime) == want


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, command, prime in [c + (None,) for c in CASES] + PRIME_CASES:
        got = run_cli(name, command, prime)
        golden_path(name, command, prime).write_text(
            json.dumps(got, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(name, command, prime, got["exit_code"], file=sys.__stdout__)
