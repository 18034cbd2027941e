"""Sequential model container (inference)."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.ml.layers import Layer


class Sequential:
    """An ordered stack of layers (Keras-like).

    ``predict`` runs inference. Nothing trains a network here: the
    paper's serving experiments only run the models (the random forests
    of :mod:`repro.ml.sklearn_like` are the trained models).
    """

    def __init__(self, layers: Iterable[Layer] = (), name: str = "model") -> None:
        self.layers: list[Layer] = list(layers)
        self.name = name

    # -- inference ---------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.asarray(x, dtype=np.float64)
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    # -- introspection ---------------------------------------------------------------
    def params(self) -> dict[str, np.ndarray]:
        """All parameters, keyed ``layer<i>.<name>``."""
        out = {}
        for i, layer in enumerate(self.layers):
            for key, value in layer.params().items():
                out[f"layer{i}.{key}"] = value
        return out
