"""The messaging package is the reliable queue plus serialization."""

import importlib

import pytest

import repro.messaging


def test_exports_are_the_queue_and_the_serializers():
    assert set(repro.messaging.__all__) == {
        "Serializer",
        "PickleSerializer",
        "TaskQueue",
        "QueuedMessage",
        "QueueEmpty",
    }
    for name in repro.messaging.__all__:
        assert hasattr(repro.messaging, name)


@pytest.mark.parametrize("module", ["sockets", "frames"])
def test_the_socket_layer_is_gone(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(f"repro.messaging.{module}")
