"""Pin the expected output of every CLI operation in the benchmark.

    python3 bench/record_gates.py

Runs each CLI operation of every workload once and writes the SHA-256 of
its stdout and its exit code to bench/gates.json.  run.py counts any
later difference as a failed operation, so re-record only when an
output is meant to change, and say so in the change that does it.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import CLI_OPS, op_name  # noqa: E402


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    gates = {}
    for ops in CLI_OPS.values():
        for argv in ops:
            proc = subprocess.run([sys.executable, "-m", "bilocal.cli", *argv], cwd=ROOT,
                                  env=env, capture_output=True, timeout=600)
            gates[op_name(argv)] = {"sha256": hashlib.sha256(proc.stdout).hexdigest(),
                                    "exit": proc.returncode, "bytes": len(proc.stdout)}
            print(f"exit {proc.returncode}  {len(proc.stdout):6d} bytes  {op_name(argv)}")
    (BENCH / "gates.json").write_text(json.dumps(gates, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
