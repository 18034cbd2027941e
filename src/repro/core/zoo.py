"""The six evaluation servables of SS V-A, ready to publish.

1. ``noop`` — returns "hello world" (the baseline test function),
2. ``inception`` — the small Inception-style classifier, top-5 output,
3. ``cifar10`` — the CIFAR-10 CNN, 10-way classification,
4. ``matminer_util`` — formula string -> element fractions (pymatgen-like),
5. ``matminer_featurize`` — element fractions -> Ward features,
6. ``matminer_model`` — features -> formation-enthalpy prediction with a
   random forest trained on the synthetic OQMD dataset.

``build_zoo`` constructs them all (training the forest); ``sample_input``
provides the fixed inputs the experiments reuse (memoization experiments
need identical inputs per SS V-B2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.servable import (
    KerasLikeServable,
    PythonFunctionServable,
    Servable,
    SklearnLikeServable,
)
from repro.core.toolbox import MetadataBuilder
from repro.matsci.composition import Composition
from repro.matsci.featurize import MagpieFeaturizer
from repro.matsci.oqmd import generate_oqmd_dataset
from repro.ml.models.cifar10 import build_cifar10_cnn
from repro.ml.models.inception_small import build_inception_small
from repro.ml.sklearn_like import RandomForestRegressor
from repro.sim.rng import generator_from_seed

ZOO_NAMES = (
    "noop",
    "inception",
    "cifar10",
    "matminer_util",
    "matminer_featurize",
    "matminer_model",
)


@dataclass
class ModelZoo:
    """All six servables plus the live models behind them."""

    servables: dict[str, Servable]
    forest: RandomForestRegressor
    featurizer: MagpieFeaturizer

    def __getitem__(self, name: str) -> Servable:
        return self.servables[name]


def _noop_servable() -> Servable:
    metadata = (
        MetadataBuilder("noop", "Baseline noop test function")
        .creator("DLHub Team")
        .description("Returns 'hello world'; measures pure serving overhead")
        .model_type("python_function")
        .input_type("dict")
        .output_type("string")
        .build()
    )
    return PythonFunctionServable(metadata, lambda *_args, **_kw: "hello world", key="noop")


def _inception_servable(seed: int) -> Servable:
    from repro.ml.models.inception_small import IMAGENET_CATEGORY_COUNT

    model = build_inception_small(seed)
    metadata = (
        MetadataBuilder("inception", "Inception-v3 image classifier (small reproduction)")
        .creator("Szegedy et al. (architecture)", "DLHub Team (packaging)")
        .description(
            f"Classifies images into {IMAGENET_CATEGORY_COUNT} categories; returns top-5"
        )
        .model_type("keras")
        .input_type("image")
        .output_type("list")
        .training_data("ImageNet (weights randomly initialized in reproduction)")
        .build()
    )

    def top5(probs: np.ndarray) -> list[dict]:
        row = np.atleast_2d(probs)[0]
        idx = np.argsort(row)[::-1][:5]
        return [{"category": int(i), "probability": float(row[i])} for i in idx]

    return KerasLikeServable(metadata, model, key="inception", postprocess=top5)


def _cifar10_servable(seed: int) -> Servable:
    model = build_cifar10_cnn(seed)
    metadata = (
        MetadataBuilder("cifar10", "CIFAR-10 convolutional classifier")
        .creator("DLHub Team")
        .description("Classifies 32x32 RGB images into 10 categories")
        .model_type("keras")
        .input_type("image")
        .output_type("list")
        .training_data("CIFAR-10 (weights randomly initialized in reproduction)")
        .build()
    )
    return KerasLikeServable(metadata, model, key="cifar10")


def _matminer_util_servable() -> Servable:
    metadata = (
        MetadataBuilder("matminer_util", "Composition parser (pymatgen-like)")
        .creator("DLHub Team")
        .description("Parses a formula string into element fractions")
        .model_type("python_function")
        .input_type("string")
        .output_type("composition")
        .domain("materials science")
        .dependency("pymatgen")
        .build()
    )

    def parse(formula: str) -> dict[str, float]:
        return Composition.parse(formula).fractions()

    return PythonFunctionServable(metadata, parse, key="matminer_util")


def _matminer_featurize_servable(featurizer: MagpieFeaturizer) -> Servable:
    metadata = (
        MetadataBuilder("matminer_featurize", "Ward-2016 composition featurizer")
        .creator("Ward et al. (method)", "DLHub Team (packaging)")
        .description("Computes Magpie-style features from element fractions")
        .model_type("python_function")
        .input_type("composition")
        .output_type("features")
        .domain("materials science")
        .dependency("matminer")
        .build()
    )

    def featurize(fractions: dict[str, float] | str) -> np.ndarray:
        comp = (
            Composition.parse(fractions)
            if isinstance(fractions, str)
            else Composition.from_dict(fractions)
        )
        return featurizer.featurize(comp)

    return PythonFunctionServable(metadata, featurize, key="matminer_featurize")


def _matminer_model_servable(
    forest: RandomForestRegressor, featurizer: MagpieFeaturizer
) -> Servable:
    metadata = (
        MetadataBuilder("matminer_model", "Formation-enthalpy random forest")
        .creator("Ward et al. (features)", "DLHub Team (model)")
        .description("Predicts formation enthalpy (eV/atom) from Ward features")
        .model_type("sklearn")
        .input_type("features")
        .output_type("number")
        .domain("materials science")
        .training_data("Synthetic OQMD-like dataset (seeded)")
        .hyperparameter("n_estimators", forest.n_estimators)
        .hyperparameter("max_depth", forest.max_depth)
        .build()
    )

    def predict(features: Any) -> float:
        x = np.atleast_2d(np.asarray(features, dtype=np.float64))
        return float(forest.predict(x)[0])

    servable = SklearnLikeServable(metadata, forest, key="matminer_model")
    # Replace the bare estimator handler with the scalar-returning shim.
    servable.handler = predict
    return servable


def build_zoo(
    seed: int = 0,
    oqmd_entries: int = 300,
    n_estimators: int = 12,
    max_depth: int = 10,
) -> ModelZoo:
    """Build all six servables; trains the forest on synthetic OQMD data."""
    featurizer = MagpieFeaturizer()
    dataset = generate_oqmd_dataset(oqmd_entries, seed=seed + 42)
    X = featurizer.featurize_many([e.composition for e in dataset])
    y = np.array([e.formation_energy for e in dataset])
    forest = RandomForestRegressor(
        n_estimators=n_estimators, max_depth=max_depth, random_state=seed
    ).fit(X, y)

    servables = {
        "noop": _noop_servable(),
        "inception": _inception_servable(seed + 11),
        "cifar10": _cifar10_servable(seed + 7),
        "matminer_util": _matminer_util_servable(),
        "matminer_featurize": _matminer_featurize_servable(featurizer),
        "matminer_model": _matminer_model_servable(forest, featurizer),
    }
    return ModelZoo(servables=servables, forest=forest, featurizer=featurizer)


def sample_input(name: str, seed: int = 123) -> tuple:
    """The fixed experiment input for each servable (as ``args`` tuple)."""
    rng = generator_from_seed(seed)
    if name == "noop":
        return ()
    if name == "inception":
        return (rng.random((1, 64, 64, 3)),)
    if name == "cifar10":
        return (rng.random((1, 32, 32, 3)),)
    if name == "matminer_util":
        return ("NaCl",)
    if name == "matminer_featurize":
        return ({"Na": 0.5, "Cl": 0.5},)
    if name == "matminer_model":
        features = MagpieFeaturizer().featurize("NaCl")
        return (features,)
    raise KeyError(f"unknown servable {name!r}")
