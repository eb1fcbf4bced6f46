"""The benchmark pins the stdout SHA-256 and the exit code of every CLI
operation in bench/gates.json.  The verify operations are replayed here, so
a change to their output fails the test suite and not only the benchmark."""

import hashlib
import json
from pathlib import Path

import pytest

from bilocal.cli import main

GATES = json.loads((Path(__file__).resolve().parent.parent / "bench" / "gates.json").read_text())


@pytest.mark.parametrize("command", sorted(c for c in GATES if c.startswith("verify ")))
def test_verify_output_matches_gate(capsys, command):
    code = main(command.split())
    out = capsys.readouterr().out.encode()
    assert (hashlib.sha256(out).hexdigest(), code) == (GATES[command]["sha256"],
                                                       GATES[command]["exit"])
