"""Shape arithmetic for the residual CNN at full scale and reduced scales."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trgr.rcnn.layers import Conv2d, conv_output_size
from trgr.rcnn.model import RcnnModel, shape_chain

FULL_SCALE_CHAIN = [
    ("input", (1, 150, 8192)),
    ("conv1", (8, 74, 4095)),
    ("res_block1", (8, 37, 2048)),
    ("res_block2", (8, 37, 2048)),
    ("pool1", (8, 18, 1024)),
    ("conv2", (16, 8, 511)),
    ("pool2", (16, 4, 255)),
    ("conv3", (8, 2, 128)),
    ("pool3", (8, 1, 64)),
    ("conv4", (8, 1, 32)),
    ("fc_in", (256,)),
    ("output", (10,)),
]


class TestConvOutputSize:
    def test_floor_division_convention(self):
        # 8192 wide, kernel 3, stride 2, no padding -> 4095
        assert conv_output_size(8192, 3, 2, 0) == 4095
        assert conv_output_size(150, 3, 2, 0) == 74

    def test_padding_enters_symmetrically(self):
        assert conv_output_size(37, 3, 1, 1) == 37
        assert conv_output_size(2048, 3, 2, 1) == 1024

    def test_collapse_raises(self):
        with pytest.raises(ValueError):
            conv_output_size(2, 3, 2, 0)


class TestConvForward:
    @settings(max_examples=200, deadline=None)
    @given(b=st.integers(1, 3), c_in=st.integers(1, 3), c_out=st.integers(1, 3),
           kh=st.integers(1, 3), kw=st.integers(1, 3), sh=st.integers(1, 2), sw=st.integers(1, 2),
           ph=st.integers(0, 1), pw=st.integers(0, 1), extra_h=st.integers(0, 5),
           extra_w=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
    def test_forward_is_the_cross_correlation(self, b, c_in, c_out, kh, kw, sh, sw, ph, pw,
                                              extra_h, extra_w, seed):
        # the smallest input whose padded size fits one kernel, plus extra rows/columns
        h, w = max(1, kh - 2 * ph) + extra_h, max(1, kw - 2 * pw) + extra_w
        rng = np.random.default_rng(seed)
        conv = Conv2d(c_in, c_out, (kh, kw), (sh, sw), (ph, pw), rng)
        conv.b.data = rng.standard_normal(c_out)
        x = rng.standard_normal((b, c_in, h, w))
        out = conv.forward(x)

        # the definition, one output pixel at a time:
        # out[n, o, y, x] = b[o] + sum over c, i, j of w[o, c, i, j] * xp[n, c, sh*y + i, sw*x + j]
        xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
        oh, ow = conv_output_size(h, kh, sh, ph), conv_output_size(w, kw, sw, pw)
        expected = np.empty((b, c_out, oh, ow))
        for y in range(oh):
            for xx in range(ow):
                window = xp[:, :, sh * y:sh * y + kh, sw * xx:sw * xx + kw]
                expected[:, :, y, xx] = np.einsum("ncij,ocij->no", window, conv.w.data) + conv.b.data
        assert out.shape == (b, c_out, oh, ow)
        assert np.allclose(out, expected, rtol=1e-12, atol=1e-12)
        assert np.array_equal(conv.forward(x, training=True), out)


class TestShapeChain:
    def test_full_scale_matches_all_eleven_sizes(self):
        assert shape_chain(150, 8192, 10) == FULL_SCALE_CHAIN

    def test_desk_scale_chain_is_valid(self):
        chain = dict(shape_chain(150, 256, 4))
        assert chain["conv1"] == (8, 74, 127)
        assert chain["conv4"] == (8, 1, 1)
        assert chain["fc_in"] == (8,)
        assert chain["output"] == (4,)

    def test_too_small_input_raises(self):
        with pytest.raises(ValueError):
            shape_chain(40, 40, 3)

    def test_square_reduced_scale(self):
        chain = dict(shape_chain(104, 104, 3))
        assert chain["fc_in"] == (8,)


class TestModelForward:
    def test_logit_shape_batch_by_classes(self):
        model = RcnnModel(104, 104, class_count=4, seed=1)
        x = np.random.default_rng(0).standard_normal((2, 1, 104, 104))
        out = model.forward(x, training=False)
        assert out.shape == (2, 4)

    def test_single_sample_shape(self):
        model = RcnnModel(104, 104, class_count=4, seed=1)
        x = np.zeros((1, 1, 104, 104))
        assert model.forward(x, training=False).shape == (1, 4)

    def test_intermediate_shapes_match_chain(self):
        model = RcnnModel(104, 104, class_count=3, seed=2)
        chain = dict(shape_chain(104, 104, 3))
        x = np.random.default_rng(1).standard_normal((2, 1, 104, 104))
        cur = x
        hits = {}
        for layer in model.layers:
            cur = layer.forward(cur, training=False)
            if cur.ndim == 4:
                hits[cur.shape[1:]] = True
        assert chain["conv1"] in hits
        assert chain["pool3"] in hits

    def test_wrong_frame_size_rejected(self):
        model = RcnnModel(104, 104, class_count=3, seed=0)
        with pytest.raises(ValueError):
            model.forward(np.zeros((1, 1, 104, 100)), training=False)

    def test_wrong_rank_rejected(self):
        model = RcnnModel(104, 104, class_count=3, seed=0)
        with pytest.raises(ValueError):
            model.forward(np.zeros((1, 104, 104)), training=False)

    def test_mismatched_construction_rejected(self):
        with pytest.raises(ValueError):
            RcnnModel(40, 40, class_count=3)

    def test_predict_returns_labels(self):
        model = RcnnModel(104, 104, class_count=5, seed=3)
        x = np.random.default_rng(2).standard_normal((3, 1, 104, 104))
        labels = model.predict(x)
        assert labels.shape == (3,)
        assert set(labels.tolist()) <= set(range(5))
