"""The benchmark's layer tracer (bench/tracer.py) wraps library functions
by module and name.  Every name it lists must still resolve, and a traced
job must print what an untraced one prints, or every traced benchmark run
fails while the rest of the suite passes."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"
JOB = ROOT / "bench" / "job.py"
GATES = json.loads((ROOT / "bench" / "gates.json").read_text())


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # defines the tracer; install() is not called
    targets = tracer._targets()
    assert targets
    for name, owner, attr, _ in targets:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr} is gone"


def _job(report: Path, command: str, traced: bool):
    """bench/job.py on one CLI command in a fresh interpreter: its
    completed process and the report it wrote."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    argv = [sys.executable, str(JOB), str(report)] + (["--trace"] if traced else [])
    proc = subprocess.run(argv + ["cli"] + command.split(), cwd=ROOT, capture_output=True,
                          text=True, timeout=300, env=dict(os.environ, PYTHONPATH=path))
    return proc, json.loads(report.read_text())


# one verify and one classify gate, with the spans each must record once
PARITY = {
    "verify --kind complex --N 2 --M 2 --P 4": [
        "cli.verify", "algebra.structure_constants", "cli.ccr", "cli.adjointness",
        "cli.vacuum_cartan", "cli.charge_commutes", "cli.gauge_commutant"],
    "classify --kind complex --N 3 --M 4 --P 6 --cutoff 5": ["cli.classify", "sectors.classify"],
}


@pytest.mark.parametrize("command", sorted(PARITY))
def test_traced_job_prints_what_the_untraced_job_prints(tmp_path, command):
    plain, plain_report = _job(tmp_path / "plain.json", command, traced=False)
    traced, traced_report = _job(tmp_path / "traced.json", command, traced=True)
    assert (traced.stdout, traced.returncode) == (plain.stdout, plain.returncode)
    assert (hashlib.sha256(plain.stdout.encode()).hexdigest(), plain.returncode) == (
        GATES[command]["sha256"], GATES[command]["exit"])
    assert "trace" not in plain_report
    stats = traced_report["trace"]["stats"]
    assert {name: stats[name][0] for name in PARITY[command]} == dict.fromkeys(PARITY[command], 1)
