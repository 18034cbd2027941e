"""The parsl package is the IPP engine pool the Parsl executor uses."""

import importlib

import pytest

import repro.parsl


def test_exports_are_the_engine_pool():
    assert set(repro.parsl.__all__) == {"IPPEnginePool", "EngineStats", "NoEnginesError"}
    for name in repro.parsl.__all__:
        assert hasattr(repro.parsl, name)


@pytest.mark.parametrize(
    "module",
    [
        "repro.parsl.app",
        "repro.parsl.dfk",
        "repro.parsl.executors",
        "repro.parsl.futures",
        "repro.core.multiservable",
    ],
)
def test_the_unreachable_modules_are_gone(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)
