"""The --json output of fixed CLI commands, byte for byte.

golden/cli/commands.json lists the commands: `connection analyze`,
`connection named` and `metric check` on the universal calculus and on
one smaller calculus of S3, D4, Q8, A4, Z12 and an @file group table,
with constant and function-valued metrics and connection documents from
golden/cli/inputs.  golden/cli/out holds each command's stdout and exit
status.  `{inputs}` in an argument stands for the inputs directory.

    PYTHONPATH=src python tests/test_cli_golden.py

rewrites the outputs from the checkout on PYTHONPATH.
"""

import contextlib
import io
import json
import os
import sys

import pytest

from finitegeo import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "cli")
INPUTS = os.path.join(GOLDEN, "inputs")

with open(os.path.join(GOLDEN, "commands.json"), encoding="utf-8") as _fh:
    COMMANDS = json.load(_fh)


def _run(argv):
    """Exit status and stdout bytes of one command."""
    argv = [a.replace("{inputs}", INPUTS) for a in argv]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        status = cli.main(argv)
    return status, stdout.getvalue().encode("utf-8")


def _out_path(name):
    return os.path.join(GOLDEN, "out", f"{name}.json")


@pytest.mark.parametrize("command", COMMANDS, ids=[c["name"] for c in COMMANDS])
def test_json_output_is_byte_identical(command):
    status, stdout = _run(command["argv"])
    with open(_out_path(command["name"]), "rb") as fh:
        want = fh.read()
    assert (status, stdout) == (command["status"], want)


if __name__ == "__main__":
    os.makedirs(os.path.join(GOLDEN, "out"), exist_ok=True)
    for command in COMMANDS:
        command["status"], stdout = _run(command["argv"])
        with open(_out_path(command["name"]), "wb") as fh:
            fh.write(stdout)
    with open(os.path.join(GOLDEN, "commands.json"), "w", encoding="utf-8") as fh:
        json.dump(COMMANDS, fh, indent=1)
        fh.write("\n")
    sys.exit(0)
