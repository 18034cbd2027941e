"""The CIFAR-10 benchmark CNN.

"A multi-layer convolutional neural network trained on CIFAR-10 ...
takes a 32x32 pixel RGB image as input and classifies it in 10
categories" (SS V-A). We build the standard conv-pool stack with
deterministic (seeded) weights; serving experiments exercise inference,
not training, exactly as in the paper.
"""

from __future__ import annotations

from repro.ml.layers import Conv2D, Dense, Flatten, MaxPool2D, ReLU, Softmax
from repro.ml.network import Sequential
from repro.sim.rng import generator_from_seed

CIFAR10_CLASSES = (
    "airplane",
    "automobile",
    "bird",
    "cat",
    "deer",
    "dog",
    "frog",
    "horse",
    "ship",
    "truck",
)


def build_cifar10_cnn(seed: int = 7) -> Sequential:
    """Build the CIFAR-10 CNN: 3 conv blocks then a dense head.

    Input ``(N, 32, 32, 3)``, output ``(N, 10)`` class probabilities.
    """
    rng = generator_from_seed(seed)
    return Sequential(
        [
            Conv2D(3, 16, 3, padding="same", rng=rng),
            ReLU(),
            MaxPool2D(2),
            Conv2D(16, 32, 3, padding="same", rng=rng),
            ReLU(),
            MaxPool2D(2),
            Conv2D(32, 64, 3, padding="same", rng=rng),
            ReLU(),
            MaxPool2D(2),
            Flatten(),
            Dense(4 * 4 * 64, 64, rng=rng),
            ReLU(),
            Dense(64, 10, rng=rng),
            Softmax(),
        ],
        name="cifar10-cnn",
    )
