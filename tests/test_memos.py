"""The package's memos, and ``clear_memos``, which the autouse fixture of
conftest.py runs around every test that plants a fault with monkeypatch."""

import importlib
import pkgutil

import pytest

import bilocal
from bilocal import fock
from bilocal.algebra import X, generator_images, generator_terms, generators, verify_structure_constants
from bilocal.fock import COMPLEX, FieldKind, FockContext
from bilocal.sectors import build_ground_state
from conftest import clear_memos
from oracles import vacuum_sector


def _package_memos() -> dict:
    """{module.name: function} for every function of the package that
    carries a memo, each under the module that defines it."""
    memos = {}
    for info in pkgutil.iter_modules(bilocal.__path__):
        module = importlib.import_module(f"bilocal.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_clear") and value.__module__ == module.__name__:
                memos[f"{info.name}.{name}"] = value
    return memos


def test_clear_memos_empties_every_memo_of_the_package():
    ctx = FockContext(COMPLEX, 2, 2, 4).validate()
    calls = {
        "algebra.generator_terms": lambda: generator_terms(ctx, X(1, 1)),
        "sectors._ground_state": lambda: build_ground_state(ctx, vacuum_sector(COMPLEX, 2)),
    }
    memos = _package_memos()
    assert memos.keys() == calls.keys()
    for name, call in calls.items():
        call()
        assert memos[name].cache_info().currsize > 0, name
    clear_memos()
    for name, memo in memos.items():
        assert memo.cache_info().currsize == 0, name


@pytest.fixture(scope="module")
def warm_generators():
    """Every generator of complex (2, 2, 4), built, and memoized, before any
    fixture of function scope runs."""
    ctx = FockContext(COMPLEX, 2, 2, 4).validate()
    for g in generators(ctx):
        generator_terms(ctx, g)
    return ctx


def test_a_fault_planted_beneath_the_generators_is_not_served_from_the_memo(warm_generators, monkeypatch):
    ctx = warm_generators
    # X(i,j) = sum_p b[i,p] a[j,p] becomes sum_p a[i,p] b[j,p]
    kind = fock.FIELD_KINDS[COMPLEX]
    monkeypatch.setitem(fock.FIELD_KINDS, COMPLEX, FieldKind(kind.species, kind.x_legs[::-1], kind.e_kinds, kind.sides))
    assert not verify_structure_constants(ctx, generator_images(ctx, shift=True))["ok"]
