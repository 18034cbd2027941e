"""A small Inception-style image classifier (the Inception-v3 stand-in).

The paper serves Google's 22-layer Inception-v3 trained on ImageNet,
classifying into 1000 categories with top-5 output (SS V-A). Running the
real 24M-parameter network is out of scope for a pure-NumPy substrate, so
we build a *structurally faithful* scaled-down network: stem convolutions
followed by stacked Inception blocks (parallel 1x1 / 3x3 / 5x5 / pooled
branches, channel-concatenated), global average pooling and a
1000-way softmax head. The serving path — image in, top-5
``(category, probability)`` out — is identical.

Inputs are ``(N, 64, 64, 3)`` images (the real model uses 299x299; the
reduced spatial size keeps NumPy inference tractable while preserving the
compute ordering Inception > CIFAR-10 > noop).
"""

from __future__ import annotations

from repro.ml.layers import (
    Conv2D,
    Dense,
    GlobalAvgPool2D,
    InceptionBlock,
    MaxPool2D,
    ReLU,
    Softmax,
)
from repro.ml.network import Sequential
from repro.sim.rng import generator_from_seed

#: ImageNet-style output space.
IMAGENET_CATEGORY_COUNT = 1000

INPUT_SIZE = 64


def build_inception_small(seed: int = 11) -> Sequential:
    """Build the scaled-down Inception network.

    Input ``(N, 64, 64, 3)``, output ``(N, 1000)`` probabilities.
    """
    rng = generator_from_seed(seed)
    return Sequential(
        [
            # Stem: conv + pool, as in Inception-v3's opening layers.
            Conv2D(3, 16, 3, stride=2, padding="valid", rng=rng),
            ReLU(),
            Conv2D(16, 24, 3, padding="valid", rng=rng),
            ReLU(),
            MaxPool2D(2),
            # Stacked Inception modules.
            InceptionBlock(24, c1=8, c3=12, c5=6, cpool=6, rng=rng),
            MaxPool2D(2),
            InceptionBlock(32, c1=12, c3=16, c5=8, cpool=8, rng=rng),
            GlobalAvgPool2D(),
            Dense(44, IMAGENET_CATEGORY_COUNT, rng=rng),
            Softmax(),
        ],
        name="inception-small",
    )
