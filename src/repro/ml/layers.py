"""Neural-network layers (NumPy forward passes).

Conventions: inputs are batched, channels-last — images are
``(N, H, W, C)``, vectors are ``(N, D)``. Each layer implements
``forward(x)`` and exposes its parameters through ``params``.
Convolution uses im2col so the heavy lifting is one matmul (the guide's
vectorize-don't-loop rule).
"""

from __future__ import annotations

import numpy as np

from repro.sim.rng import generator_from_seed


class LayerError(ValueError):
    """Raised on shape mismatches or invalid layer configuration."""


class Layer:
    """Base layer: subclasses implement ``forward(x)``."""

    name = "layer"

    def params(self) -> dict[str, np.ndarray]:
        """Trainable parameters by name (empty for stateless layers)."""
        return {}

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


class Dense(Layer):
    """Fully-connected layer: ``y = x @ W + b``."""

    name = "dense"

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator | None = None) -> None:
        if in_dim <= 0 or out_dim <= 0:
            raise LayerError("Dense dims must be positive")
        rng = rng or generator_from_seed(0)
        # He initialization (suits the ReLU nets we build).
        self.W = rng.normal(0.0, np.sqrt(2.0 / in_dim), size=(in_dim, out_dim))
        self.b = np.zeros(out_dim)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.W.shape[0]:
            raise LayerError(
                f"Dense expected (N, {self.W.shape[0]}), got {x.shape}"
            )
        return x @ self.W + self.b

    def params(self) -> dict[str, np.ndarray]:
        return {"W": self.W, "b": self.b}


class ReLU(Layer):
    name = "relu"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0)


class Softmax(Layer):
    """Row-wise softmax (numerically stabilized)."""

    name = "softmax"

    def forward(self, x: np.ndarray) -> np.ndarray:
        shifted = x - x.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=-1, keepdims=True)


class Flatten(Layer):
    name = "flatten"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(x.shape[0], -1)


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int) -> tuple[np.ndarray, int, int]:
    """Unfold ``(N,H,W,C)`` into ``(N*OH*OW, KH*KW*C)`` patches."""
    n, h, w, c = x.shape
    if pad:
        x = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    # Strided sliding-window view, then a single reshape-copy.
    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, oh, ow, kh, kw, c),
        strides=(s0, s1 * stride, s2 * stride, s1, s2, s3),
        writeable=False,
    )
    return windows.reshape(n * oh * ow, kh * kw * c), oh, ow


class Conv2D(Layer):
    """2-D convolution, channels-last, via im2col + matmul (inference)."""

    name = "conv2d"

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        padding: str = "same",
        rng: np.random.Generator | None = None,
    ) -> None:
        if padding not in ("same", "valid"):
            raise LayerError(f"padding must be 'same' or 'valid', got {padding!r}")
        if kernel_size < 1 or stride < 1:
            raise LayerError("kernel_size and stride must be >= 1")
        rng = rng or generator_from_seed(0)
        fan_in = kernel_size * kernel_size * in_channels
        self.W = rng.normal(
            0.0,
            np.sqrt(2.0 / fan_in),
            size=(kernel_size, kernel_size, in_channels, out_channels),
        )
        self.b = np.zeros(out_channels)
        self.stride = stride
        self.padding = padding

    @property
    def kernel_size(self) -> int:
        return self.W.shape[0]

    @property
    def in_channels(self) -> int:
        return self.W.shape[2]

    @property
    def out_channels(self) -> int:
        return self.W.shape[3]

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[3] != self.in_channels:
            raise LayerError(
                f"Conv2D expected (N,H,W,{self.in_channels}), got {x.shape}"
            )
        k = self.kernel_size
        pad = (k - 1) // 2 if self.padding == "same" else 0
        cols, oh, ow = _im2col(x, k, k, self.stride, pad)
        out = cols @ self.W.reshape(-1, self.out_channels) + self.b
        return out.reshape(x.shape[0], oh, ow, self.out_channels)

    def params(self) -> dict[str, np.ndarray]:
        return {"W": self.W, "b": self.b}


class MaxPool2D(Layer):
    name = "maxpool2d"

    def __init__(self, pool_size: int = 2, stride: int | None = None) -> None:
        if pool_size < 1:
            raise LayerError("pool_size must be >= 1")
        self.pool_size = pool_size
        self.stride = stride or pool_size

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise LayerError(f"MaxPool2D expected (N,H,W,C), got {x.shape}")
        n, h, w, c = x.shape
        p, s = self.pool_size, self.stride
        oh = (h - p) // s + 1
        ow = (w - p) // s + 1
        s0, s1, s2, s3 = x.strides
        windows = np.lib.stride_tricks.as_strided(
            x,
            shape=(n, oh, ow, p, p, c),
            strides=(s0, s1 * s, s2 * s, s1, s2, s3),
            writeable=False,
        )
        return windows.max(axis=(3, 4))


class GlobalAvgPool2D(Layer):
    name = "globalavgpool2d"

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise LayerError(f"GlobalAvgPool2D expected (N,H,W,C), got {x.shape}")
        return x.mean(axis=(1, 2))


class InceptionBlock(Layer):
    """An Inception-style multi-branch block: parallel convs, concatenated.

    Branches: 1x1 conv; 1x1->3x3 conv; 1x1->5x5 conv; 3x3 maxpool->1x1
    conv — the classic GoogLeNet/Inception module shape. All branches keep
    spatial dims (same padding, stride 1) and are concatenated on channels.
    """

    name = "inception"

    def __init__(
        self,
        in_channels: int,
        c1: int,
        c3: int,
        c5: int,
        cpool: int,
        rng: np.random.Generator | None = None,
    ) -> None:
        rng = rng or generator_from_seed(0)
        self.branch1 = Conv2D(in_channels, c1, 1, rng=rng)
        self.branch3_reduce = Conv2D(in_channels, max(c3 // 2, 1), 1, rng=rng)
        self.branch3 = Conv2D(max(c3 // 2, 1), c3, 3, rng=rng)
        self.branch5_reduce = Conv2D(in_channels, max(c5 // 2, 1), 1, rng=rng)
        self.branch5 = Conv2D(max(c5 // 2, 1), c5, 5, rng=rng)
        self.branch_pool = MaxPool2D(3, stride=1)
        self.branch_pool_conv = Conv2D(in_channels, cpool, 1, rng=rng)
        self.out_channels = c1 + c3 + c5 + cpool
        self._relu = ReLU()

    def forward(self, x: np.ndarray) -> np.ndarray:
        r = self._relu
        b1 = r(self.branch1(x))
        b3 = r(self.branch3(r(self.branch3_reduce(x))))
        b5 = r(self.branch5(r(self.branch5_reduce(x))))
        # 'same'-style pooling: pad by 1 so spatial dims survive the 3x3 window.
        padded = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
        bp = r(self.branch_pool_conv(self.branch_pool(padded)))
        return np.concatenate([b1, b3, b5, bp], axis=-1)

    def params(self) -> dict[str, np.ndarray]:
        out = {}
        for prefix, conv in [
            ("b1", self.branch1),
            ("b3r", self.branch3_reduce),
            ("b3", self.branch3),
            ("b5r", self.branch5_reduce),
            ("b5", self.branch5),
            ("bp", self.branch_pool_conv),
        ]:
            for key, value in conv.params().items():
                out[f"{prefix}.{key}"] = value
        return out
