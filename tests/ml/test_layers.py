"""Unit tests for neural-network layers."""

import numpy as np
import pytest

from repro.ml.layers import (
    Conv2D,
    Dense,
    Flatten,
    GlobalAvgPool2D,
    InceptionBlock,
    LayerError,
    MaxPool2D,
    ReLU,
    Softmax,
)

RNG = np.random.default_rng(0)


class TestDense:
    def test_output_shape(self):
        layer = Dense(8, 4, rng=RNG)
        assert layer.forward(np.zeros((3, 8))).shape == (3, 4)

    def test_linear_in_input(self):
        layer = Dense(4, 2, rng=np.random.default_rng(1))
        x = np.ones((1, 4))
        assert np.allclose(layer.forward(2 * x) - layer.b, 2 * (layer.forward(x) - layer.b))

    def test_shape_mismatch_rejected(self):
        layer = Dense(8, 4)
        with pytest.raises(LayerError):
            layer.forward(np.zeros((3, 7)))
        with pytest.raises(LayerError):
            layer.forward(np.zeros(8))

    def test_invalid_dims(self):
        with pytest.raises(LayerError):
            Dense(0, 2)


class TestActivations:
    def test_relu_clamps(self):
        out = ReLU().forward(np.array([-1.0, 0.0, 2.0]))
        assert np.array_equal(out, [0.0, 0.0, 2.0])

    def test_softmax_rows_sum_to_one(self):
        out = Softmax().forward(RNG.normal(size=(4, 10)))
        assert np.allclose(out.sum(axis=1), 1.0)
        assert (out >= 0).all()

    def test_softmax_stability_large_logits(self):
        out = Softmax().forward(np.array([[1000.0, 1001.0]]))
        assert np.isfinite(out).all()


class TestShapes:
    def test_flatten(self):
        out = Flatten().forward(np.zeros((2, 4, 4, 3)))
        assert out.shape == (2, 48)


class TestConv2D:
    def test_same_padding_preserves_spatial(self):
        conv = Conv2D(3, 8, kernel_size=3, padding="same", rng=RNG)
        assert conv.forward(np.zeros((2, 16, 16, 3))).shape == (2, 16, 16, 8)

    def test_valid_padding_shrinks(self):
        conv = Conv2D(3, 8, kernel_size=3, padding="valid", rng=RNG)
        assert conv.forward(np.zeros((2, 16, 16, 3))).shape == (2, 14, 14, 8)

    def test_stride(self):
        conv = Conv2D(3, 4, kernel_size=3, stride=2, padding="valid", rng=RNG)
        assert conv.forward(np.zeros((1, 17, 17, 3))).shape == (1, 8, 8, 4)

    def test_channel_mismatch_rejected(self):
        conv = Conv2D(3, 4)
        with pytest.raises(LayerError):
            conv.forward(np.zeros((1, 8, 8, 5)))

    def test_identity_kernel(self):
        """A centered delta 1x1... use a 3x3 kernel equal to delta: output
        equals input channel copy."""
        conv = Conv2D(1, 1, kernel_size=3, padding="same", rng=RNG)
        conv.W[...] = 0.0
        conv.W[1, 1, 0, 0] = 1.0
        conv.b[...] = 0.0
        x = RNG.normal(size=(1, 6, 6, 1))
        assert np.allclose(conv.forward(x), x)

    def test_matches_naive_convolution(self):
        """im2col result equals a straightforward nested-loop convolution."""
        rng = np.random.default_rng(4)
        conv = Conv2D(2, 3, kernel_size=3, padding="valid", rng=rng)
        x = rng.normal(size=(1, 5, 5, 2))
        out = conv.forward(x)
        naive = np.zeros_like(out)
        for i in range(3):
            for j in range(3):
                patch = x[0, i : i + 3, j : j + 3, :]
                naive[0, i, j, :] = (
                    np.tensordot(patch, conv.W, axes=([0, 1, 2], [0, 1, 2])) + conv.b
                )
        assert np.allclose(out, naive)

    def test_invalid_config(self):
        with pytest.raises(LayerError):
            Conv2D(3, 4, padding="reflect")
        with pytest.raises(LayerError):
            Conv2D(3, 4, kernel_size=0)


class TestPooling:
    def test_maxpool_downsamples(self):
        pool = MaxPool2D(2)
        assert pool.forward(np.zeros((1, 8, 8, 3))).shape == (1, 4, 4, 3)

    def test_maxpool_takes_max(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 4, 4, 1)
        out = MaxPool2D(2).forward(x)
        assert out[0, :, :, 0].tolist() == [[5.0, 7.0], [13.0, 15.0]]

    def test_global_avg_pool(self):
        x = np.ones((2, 4, 4, 3)) * 2.0
        out = GlobalAvgPool2D().forward(x)
        assert out.shape == (2, 3)
        assert np.allclose(out, 2.0)

    def test_wrong_rank_rejected(self):
        with pytest.raises(LayerError):
            MaxPool2D(2).forward(np.zeros((4, 4)))
        with pytest.raises(LayerError):
            GlobalAvgPool2D().forward(np.zeros((4, 4)))


class TestInceptionBlock:
    def test_output_channels_concatenated(self):
        block = InceptionBlock(8, c1=4, c3=6, c5=2, cpool=2, rng=RNG)
        out = block.forward(RNG.normal(size=(1, 10, 10, 8)))
        assert out.shape == (1, 10, 10, 14)
        assert block.out_channels == 14

    def test_params_cover_all_branches(self):
        block = InceptionBlock(4, 2, 2, 2, 2, rng=RNG)
        keys = set(block.params())
        assert {"b1.W", "b3.W", "b5.W", "bp.W"} <= keys
