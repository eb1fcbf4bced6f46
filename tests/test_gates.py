"""The benchmark pins the stdout SHA-256 and the exit code of every CLI
operation in bench/gates.json.  All of them are replayed here (verify,
classify, gram and map-irreps), so a change to their output fails the
test suite and not only the benchmark.  The ``--format table``
stdout of two of them per subcommand is pinned here as well."""

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


TABLE_SHA256 = {
    "classify --kind complex --N 3 --M 4 --P 6 --cutoff 5":
        "58fd4465d285d59d1cc58ab6fe2d9e51caf0e0cb23b13230a8d30970355aa050",
    "classify --kind real --N 3 --M 4 --P 6 --cutoff 6 --D 4":
        "afa3122990781d1625972b6a6e09972746a3f865279efacc259788cf3aae6c90",
    "gram --kind complex --N 2 --M 2 --P 6 --level 2 --yplus 1 --yminus 1":
        "d4c9bc6957804178368ad61428b4f02ff5f155b9198e14a7fffa351197826cce",
    "gram --kind real --N 2 --M 2 --P 6 --level 2 --y 2":
        "fa6aa07cc2105b4c8ee0af67ef94111a5547513764877a9c350ee1c05b01aca4",
    "map-irreps --group O --N 4 --cap 6":
        "d3e00f034c11021ff81051c8fc8f69a620439060aa8ed329fe86791a8a3d48c8",
    "map-irreps --group U --N 4 --cap 5":
        "c6d8d48c6a1642af7f9572a570bda1bb90e9cb576f31c2ff4cdffab1cdc273d1",
    "verify --kind complex --N 1 --M 2 --P 4 --inject-fault drop-e-shift":
        "4281e9fc7cd8d37ca8c96a4a56abdf81ef2f41048ccb90ee19b728aa40627cb9",
    "verify --kind real --N 2 --M 3 --P 4":
        "4ae5ccc9ca000535b64256034c9ec8e41f39174fc8912b4cfd496d393b4a8735",
}


@pytest.mark.parametrize("command", sorted(TABLE_SHA256))
def test_table_output_matches_its_pin(capsys, command):
    """The table format writes the same payload as the gate, so it keeps
    the gate's exit code."""
    code = main(command.split() + ["--format", "table"])
    out = capsys.readouterr().out.encode()
    assert (hashlib.sha256(out).hexdigest(), code) == (TABLE_SHA256[command], GATES[command]["exit"])
