"""Servables: the common execution interface over heterogeneous models.

"DLHub converts all published models into executable servables ... a
complete model package that includes the trained model, model components
(e.g., training weights, hyperparameters), and any dependencies"
(SS IV-A). A :class:`Servable` couples:

* validated :class:`~repro.core.schema.ModelMetadata`,
* *components* — named byte artifacts (weights archives, pickled
  estimators) staged through data endpoints at publication time,
* a *shim* implementing the standard ``run(inputs)`` interface for the
  model type, and
* a calibration ``key`` selecting the virtual-time inference cost.

Shims provided: plain Python functions, Keras-like ``Sequential``
networks, sklearn-like estimators, and multi-step pipelines (which the
Management Service expands into chained steps).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.schema import ModelMetadata
from repro.ml.network import Sequential
from repro.ml.serialization import load_estimator, save_estimator, save_weights
from repro.sim import calibration as cal


class ServableError(RuntimeError):
    """Raised on invalid servable construction or execution."""


@dataclass
class Servable:
    """A runnable, publishable model package."""

    metadata: ModelMetadata
    handler: Callable[..., Any]
    #: Calibration key for inference cost / payload sizes.
    key: str = ""
    components: dict[str, bytes] = field(default_factory=dict)
    #: Extra pip dependencies baked into the container.
    dependencies: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not callable(self.handler):
            raise ServableError("servable handler must be callable")
        if not self.key:
            self.key = self.metadata.name

    @property
    def name(self) -> str:
        return self.metadata.name

    def run(self, *args: Any, **kwargs: Any) -> Any:
        """Execute the servable locally (no serving stack)."""
        return self.handler(*args, **kwargs)

    @property
    def inference_cost_s(self) -> float:
        return cal.inference_cost(self.key)

    @property
    def request_bytes(self) -> int:
        return cal.payload_bytes(self.key)

    @property
    def response_bytes(self) -> int:
        return cal.response_bytes(self.key)

    def component_bytes(self) -> int:
        return sum(len(v) for v in self.components.values())


# ---------------------------------------------------------------------------
# Shims
# ---------------------------------------------------------------------------


def PythonFunctionServable(
    metadata: ModelMetadata,
    func: Callable[..., Any],
    key: str = "",
    dependencies: list[str] | None = None,
) -> Servable:
    """Wrap an arbitrary Python function (the widest DLHub model class)."""
    return Servable(
        metadata=metadata,
        handler=func,
        key=key or metadata.name,
        dependencies=list(dependencies or []),
    )


def KerasLikeServable(
    metadata: ModelMetadata,
    model: Sequential,
    key: str = "",
    postprocess: Callable[[Any], Any] | None = None,
) -> Servable:
    """Wrap a :class:`Sequential` network; weights become a component.

    The handler reconstructs nothing at call time — the live model is
    baked into the container image, while the weight archive rides along
    as a reproducibility artifact (what :func:`verify_components` reads).
    """
    weights = save_weights(model)

    def handler(x):
        out = model.predict(x)
        return postprocess(out) if postprocess is not None else out

    return Servable(
        metadata=metadata,
        handler=handler,
        key=key or metadata.name,
        components={"weights.npz": weights},
        dependencies=["keras", "numpy"],
    )


def SklearnLikeServable(
    metadata: ModelMetadata,
    estimator: Any,
    key: str = "",
    method: str = "predict",
) -> Servable:
    """Wrap an sklearn-like estimator; the pickled estimator is a component."""
    if not hasattr(estimator, method):
        raise ServableError(
            f"estimator {type(estimator).__name__} has no method {method!r}"
        )
    blob = save_estimator(estimator)
    bound = getattr(estimator, method)

    def handler(x):
        return bound(x)

    return Servable(
        metadata=metadata,
        handler=handler,
        key=key or metadata.name,
        components={"estimator.pkl": blob},
        dependencies=["scikit-learn", "numpy"],
    )


def verify_components(servable: Servable) -> bool:
    """Round-trip check: components can be restored into live objects.

    Supports the reproducibility story (SS II): a consumer can rebuild the
    model from the published artifacts alone.
    """
    for name, blob in servable.components.items():
        if name.endswith(".npz"):
            # Weight archives load into a model of matching architecture;
            # here we only verify the archive is readable.
            import io

            import numpy as np

            with np.load(io.BytesIO(blob)) as archive:
                _ = list(archive.files)
        elif name.endswith(".pkl"):
            load_estimator(blob)
        # Other components (readme, schema files) are opaque bytes.
    return True
