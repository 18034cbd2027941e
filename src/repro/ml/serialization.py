"""Weight serialization: models round-trip through byte archives.

Published model components (weights, trees) are staged through endpoints
and baked into servable images as real byte artifacts, so the repository
path handles genuine payload sizes.
"""

from __future__ import annotations

import io
import pickle
from typing import Any

import numpy as np

from repro.ml.network import Sequential


def save_weights(model: Sequential) -> bytes:
    """Serialize all model parameters to an ``.npz`` byte archive."""
    buf = io.BytesIO()
    params = model.params()
    np.savez(buf, **params)
    return buf.getvalue()


def save_estimator(estimator: Any) -> bytes:
    """Pickle an sklearn-like estimator (forest, tree) to bytes."""
    return pickle.dumps(estimator, protocol=pickle.HIGHEST_PROTOCOL)


def load_estimator(blob: bytes) -> Any:
    return pickle.loads(blob)
