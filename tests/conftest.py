import importlib.util
import sys
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


def clear_memos():
    """Empty every memo of the package: each attribute of a loaded bilocal
    module that has ``cache_clear``.  A module not loaded yet has built
    nothing."""
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "bilocal":
            for value in list(vars(module).values()):
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


@pytest.fixture(autouse=True)
def memos_fresh_around_monkeypatch(request):
    """A test that plants a fault with monkeypatch starts and ends with
    empty memos: a fault planted beneath a memoized builder is never served
    a value built before it, and what it builds never reaches another
    test."""
    planting = "monkeypatch" in request.fixturenames
    if planting:
        clear_memos()
    yield
    if planting:
        clear_memos()
