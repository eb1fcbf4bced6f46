"""The benchmark's layer tracer (bench/tracer.py) wraps library functions
by module and name.  Every name it lists must still resolve, or every
traced benchmark run fails while the rest of the suite passes."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # defines the tracer; install() is not called
    targets = tracer._targets()
    assert targets
    for name, owner, attr, _ in targets:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr} is gone"
