"""The benchmark pins the stdout SHA-256 and the exit code of every CLI
operation in bench/gates.json.  All of them are replayed here (verify,
classify, gram and map-irreps), so a change to their output fails the
test suite and not only the benchmark."""

import hashlib
import json
from pathlib import Path

import pytest

from bilocal.cli import main

GATES = json.loads((Path(__file__).resolve().parent.parent / "bench" / "gates.json").read_text())


@pytest.mark.parametrize("command", sorted(GATES))
def test_verify_output_matches_gate(capsys, command):
    """Verify that the command's stdout hash and exit code match its gate."""
    code = main(command.split())
    out = capsys.readouterr().out.encode()
    assert (hashlib.sha256(out).hexdigest(), code) == (GATES[command]["sha256"],
                                                       GATES[command]["exit"])
