import importlib.util
from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def hw_cases():
    """The (sector, rank, context, determinant context) cases of the
    benchmark's hw job, read from bench/workloads.py."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return list(workloads.hw_cases())
