"""From-scratch ML substrate (TensorFlow/Keras/scikit-learn stand-ins).

DLHub serves "any Python 3-compatible model", with TensorFlow, Keras and
Scikit-learn named explicitly. This package implements the model stacks
the evaluation servables need, on plain NumPy:

* :mod:`repro.ml.layers` / :mod:`repro.ml.network` — a Keras-like
  ``Sequential`` model with Dense, Conv2D (im2col), pooling, activations
  and an Inception-style branch layer; forward inference only,
* :mod:`repro.ml.sklearn_like` — CART decision trees and random forests
  (regressor + classifier) with real ``fit``/``predict``,
* :mod:`repro.ml.models` — factories for the paper's benchmark models
  (a small Inception-style image classifier and the CIFAR-10 CNN),
* :mod:`repro.ml.serialization` — weights and estimators to byte
  archives, so model components can be staged through endpoints like
  real artifacts.
"""

from repro.ml.network import Sequential
from repro.ml.layers import (
    Layer,
    Dense,
    Conv2D,
    MaxPool2D,
    GlobalAvgPool2D,
    Flatten,
    ReLU,
    Softmax,
    InceptionBlock,
)
from repro.ml.serialization import save_weights
from repro.ml.sklearn_like import (
    DecisionTreeRegressor,
    RandomForestClassifier,
    RandomForestRegressor,
)

__all__ = [
    "Sequential",
    "Layer",
    "Dense",
    "Conv2D",
    "MaxPool2D",
    "GlobalAvgPool2D",
    "Flatten",
    "ReLU",
    "Softmax",
    "InceptionBlock",
    "save_weights",
    "DecisionTreeRegressor",
    "RandomForestRegressor",
    "RandomForestClassifier",
]
