"""Loss, optimizer, batchnorm invariants, the training loop, and checkpoints."""
import csv
import importlib
import inspect
import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from helpers import as_dtype
from trgr.gait import CsiRecording
from trgr.rcnn.layers import (
    BN_EPS,
    BN_MOMENTUM,
    DTYPE,
    TEMP_BYTES,
    BatchNorm2d,
    Conv2d,
    Flatten,
    Linear,
    MaxPool2d,
    Param,
    ReLU,
    ResidualBlock,
)
from trgr.rcnn.model import (
    CHECKPOINT_MAGIC,
    RcnnModel,
    load_model,
    save_model,
    softmax,
)
from trgr.rcnn.training import (
    Adam,
    EpochLog,
    TrainConfig,
    cross_entropy,
    recordings_to_arrays,
    train,
    write_training_log,
)

H = W = 104  # smallest square frame the fixed stack accepts


def toy_recordings(n_per_class: int, seed: int, label_offset: int = 0):
    """Constant frames vs horizontal-gradient frames, lightly dithered."""
    rng = np.random.default_rng(seed)
    recs = []
    for i in range(2 * n_per_class):
        label = i % 2
        base = np.full((H, W), 1.0) if label == 0 else np.tile(
            np.linspace(0.0, 2.0, W), (H, 1))
        recs.append(CsiRecording(base + 0.05 * rng.standard_normal((H, W)),
                                 label + label_offset, i))
    return recs


def toy_split(train_per_class=8, test_per_class=3, seed=42):
    """(train set, test set), each a (frames, labels) pair."""
    return (recordings_to_arrays(toy_recordings(train_per_class, seed)),
            recordings_to_arrays(toy_recordings(test_per_class, seed + 1)))


class TestSoftmax:
    def test_rows_sum_to_one(self):
        logits = np.random.default_rng(1).standard_normal((7, 5)) * 30
        p = softmax(logits)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(p > 0)

    def test_shift_invariance(self):
        logits = np.random.default_rng(2).standard_normal((4, 3))
        assert np.allclose(softmax(logits), softmax(logits + 123.0), atol=1e-12)

    def test_extreme_logits_stay_finite(self):
        p = softmax(np.array([[1000.0, -1000.0, 0.0]]))
        assert np.all(np.isfinite(p))
        assert p[0, 0] == pytest.approx(1.0)


class TestCrossEntropy:
    def test_uniform_logits_give_ln_k(self):
        # 1/K is exact in binary for K a power of two, so equality is exact there
        for k in (2, 4, 8):
            logits = np.zeros((6, k))
            labels = np.arange(6) % k
            loss, _ = cross_entropy(logits, labels)
            assert loss == math.log(k)
        loss3, _ = cross_entropy(np.zeros((3, 3)), np.arange(3))
        assert loss3 == pytest.approx(math.log(3), abs=1e-12)

    def test_gradient_rows_sum_to_zero(self):
        logits = np.random.default_rng(3).standard_normal((5, 4))
        _, grad = cross_entropy(logits, np.array([0, 1, 2, 3, 0]))
        assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-12)

    def test_gradient_is_probs_minus_onehot_over_n(self):
        logits = np.random.default_rng(4).standard_normal((3, 3))
        labels = np.array([2, 0, 1])
        _, grad = cross_entropy(logits, labels)
        expected = softmax(logits)
        expected[np.arange(3), labels] -= 1.0
        assert np.allclose(grad, expected / 3.0, atol=1e-12)

    def test_float32_logits_far_apart_give_a_finite_loss(self):
        # the picked class's probability, e^-200, is 0 in float32: the loss is
        # the log-sum-exp minus the picked logit, never the log of that 0
        logits = np.array([[0.0, 200.0]], dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss, grad = cross_entropy(logits, np.array([0]))
        assert loss == pytest.approx(200.0, rel=1e-12)
        assert grad.dtype == np.float32
        assert grad.tolist() == [[-1.0, 1.0]]

    def test_confident_correct_prediction_has_low_loss(self):
        logits = np.array([[20.0, 0.0, 0.0]])
        loss, _ = cross_entropy(logits, np.array([0]))
        assert loss < 1e-8

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            cross_entropy(np.zeros((2, 3)), np.array([0, 3]))
        with pytest.raises(ValueError):
            cross_entropy(np.zeros((2, 3)), np.array([-1, 0]))

    def test_label_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cross_entropy(np.zeros((2, 3)), np.array([0]))


class TestBatchNormInvariants:
    def test_training_mode_standardizes_per_channel(self):
        bn = BatchNorm2d(3)
        x = np.random.default_rng(5).standard_normal((8, 3, 4, 6)) * 5 + 2
        out = bn.forward(x, training=True)  # gamma 1, beta 0 -> pre-affine view
        mean = out.mean(axis=(0, 2, 3))
        var = out.var(axis=(0, 2, 3))
        assert np.abs(mean).max() < 1e-6
        assert np.abs(var - 1.0).max() < 1e-5

    def test_inference_uses_running_statistics(self):
        bn = BatchNorm2d(2)
        bn.running_mean = np.array([1.0, -2.0])
        bn.running_var = np.array([4.0, 0.25])
        x = np.random.default_rng(6).standard_normal((3, 2, 2, 2))
        out = bn.forward(x, training=False)
        expected = (x - bn.running_mean.reshape(1, 2, 1, 1)) / np.sqrt(
            bn.running_var.reshape(1, 2, 1, 1) + BN_EPS)
        assert np.allclose(out, expected, atol=1e-12)
        assert np.array_equal(out, bn.forward(x, training=False))  # deterministic

    def test_running_stats_move_toward_batch_stats(self):
        bn = BatchNorm2d(1)
        x = np.full((4, 1, 2, 2), 10.0)
        bn.forward(x, training=True)
        assert bn.running_mean[0] == pytest.approx(0.1 * 10.0)  # momentum 0.1

    @settings(max_examples=150, deadline=None)
    @given(b=st.integers(1, 3), c=st.integers(1, 4), h=st.integers(1, 6), w=st.integers(1, 6),
           dtype=st.sampled_from([np.float32, np.float64]),
           offset=st.sampled_from([0.0, 1.0, -250.0, 1e4]),
           scale=st.sampled_from([1e-3, 1.0, 3.0, 1e3]), seed=st.integers(0, 2**32 - 1))
    def test_training_forward_keeps_numpys_statistics(self, b, c, h, w, dtype, offset, scale,
                                                       seed):
        rng = np.random.default_rng(seed)
        x = (scale * rng.standard_normal((b, c, h, w)) + offset).astype(dtype)
        bn = as_dtype(BatchNorm2d(c), dtype)
        bn.gamma.data[...] = rng.uniform(0.5, 2.0, c)
        bn.beta.data[...] = rng.standard_normal(c)
        bn.running_mean[...] = rng.standard_normal(c)
        bn.running_var[...] = rng.uniform(0.5, 2.0, c)
        prior_mean, prior_var = bn.running_mean.copy(), bn.running_var.copy()
        out = bn.forward(x, training=True)
        # the reference: numpy's mean and var, then x minus the mean
        mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat = (x - mean.reshape(1, -1, 1, 1)) * inv_std.reshape(1, -1, 1, 1)
        expected = bn.gamma.data.reshape(1, -1, 1, 1) * xhat + bn.beta.data.reshape(1, -1, 1, 1)
        assert out.dtype == expected.dtype == dtype
        assert out.tobytes() == expected.tobytes()
        assert bn._cache[0].tobytes() == xhat.tobytes()
        assert bn._cache[1].ravel().tobytes() == inv_std.tobytes()
        for got, want in ((bn.running_mean, (1 - BN_MOMENTUM) * prior_mean + BN_MOMENTUM * mean),
                          (bn.running_var, (1 - BN_MOMENTUM) * prior_var + BN_MOMENTUM * var)):
            assert got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes()
        assert not np.shares_memory(out, x)


def relu_inputs(dtype):
    """Arrays of every non-NaN value, with signed zeros and infinities drawn often."""
    width = np.dtype(dtype).itemsize * 8
    elements = (st.floats(allow_nan=False, width=width)
                | st.sampled_from([0.0, -0.0, np.inf, -np.inf]))
    return arrays(dtype, array_shapes(min_dims=1, max_dims=4, max_side=5), elements=elements)


class TestReLU:
    # NaN is the one input on which the arithmetic form and the select differ:
    # np.maximum propagates a NaN, where np.where(x > 0, x, 0.0) zeroed it.
    # The dataset's load-time check keeps NaN out of the network.
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2**32 - 1))
    def test_relu_is_the_select_byte_for_byte(self, data, dtype, seed):
        x = data.draw(relu_inputs(dtype))
        kept = x.copy()
        relu = ReLU()
        expected = np.where(x > 0, x, 0.0)
        for training in (False, True):
            out = relu.forward(x, training)
            assert out.dtype == expected.dtype == dtype
            assert out.tobytes() == expected.tobytes()  # -0.0 comes out as +0.0
            assert not np.shares_memory(out, x)
        assert x.tobytes() == kept.tobytes()
        # about half the gradients are negative, whose products with False are -0.0
        grad = np.random.default_rng(seed).standard_normal(x.shape).astype(dtype)
        dx = relu.backward(grad)
        assert dx.dtype == dtype
        assert dx.tobytes() == np.where(x > 0, grad, 0.0).tobytes()


class TestTrainConfig:
    @pytest.mark.parametrize("field", ["learning_rate"])
    @pytest.mark.parametrize("value", [0.0, -1e-3, float("nan")])
    def test_non_positive_or_nan_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_adam_constants_are_fixed(self):
        # read as cfg.beta1 etc., but no run sets them
        cfg = TrainConfig()
        assert (cfg.beta1, cfg.beta2, cfg.eps) == (0.9, 0.999, 1e-8)
        with pytest.raises(TypeError):
            TrainConfig(eps=1e-6)


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        p = Param(np.array([1.0, -2.0, 3.0]))
        opt = Adam([p], learning_rate=0.5)
        before = p.data.copy()
        for _ in range(3):
            p.grad[...] = 0.0
            opt.step()
        assert np.array_equal(p.data, before)

    def test_first_step_matches_hand_formula(self):
        p = Param(np.array([1.0, 1.0]))
        g = np.array([0.3, -0.7])
        opt = Adam([p], learning_rate=0.01, beta1=0.9, beta2=0.999, eps=1e-8)
        p.grad[...] = g
        opt.step()
        m_hat = (0.1 * g) / (1 - 0.9)
        v_hat = (0.001 * g ** 2) / (1 - 0.999)
        expected = np.array([1.0, 1.0]) - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert np.allclose(p.data, expected, atol=1e-15)

    def test_deterministic_trajectories(self):
        rng = np.random.default_rng(7)
        grads = rng.standard_normal((5, 4))
        results = []
        for _ in range(2):
            p = Param(np.ones(4))
            opt = Adam([p], learning_rate=0.05)
            for g in grads:
                p.grad[...] = g
                opt.step()
            results.append(p.data.copy())
        assert np.array_equal(results[0], results[1])

    def test_defaults_are_the_train_configs_constants(self):
        opt = Adam([Param(np.zeros(2))])
        assert (opt.beta1, opt.beta2, opt.eps) == (TrainConfig.beta1, TrainConfig.beta2,
                                                   TrainConfig.eps)


class TestTrainLoop:
    def test_fresh_model_scores_uniform_softmax_baseline(self):
        for k in (2, 4):
            model = RcnnModel(H, W, k, seed=3)
            x = np.random.default_rng(5).standard_normal((2 * k, 1, H, W))
            y = np.tile(np.arange(k), 2)
            loss, _ = cross_entropy(model.forward(x, training=True), y)
            assert loss == pytest.approx(math.log(k), rel=1e-12)

    def test_separable_toy_reaches_full_train_accuracy(self):
        model = RcnnModel(H, W, 2, seed=0)
        logs, test_metrics = train(model, *toy_split(), TrainConfig(epochs=16, batch_size=4, seed=1))
        assert max(lg.train_acc for lg in logs) == 1.0
        assert logs[-1].train_acc == 1.0
        assert logs[-1].test_acc == 1.0
        assert test_metrics.accuracy == 1.0
        assert np.array_equal(test_metrics.confusion, [[3, 0], [0, 3]])

    def test_same_seed_reproduces_final_loss_exactly(self):
        split = toy_split(train_per_class=4, test_per_class=3)
        cfg = TrainConfig(epochs=3, batch_size=4, seed=9)
        finals = []
        for _ in range(2):
            model = RcnnModel(H, W, 2, seed=5)
            logs, _ = train(model, *split, cfg)
            finals.append(logs[-1].loss)
        assert abs(finals[0] - finals[1]) < 1e-9

    def test_different_shuffle_seed_changes_trajectory(self):
        split = toy_split(train_per_class=4, test_per_class=3)
        losses = []
        for s in (1, 2):
            model = RcnnModel(H, W, 2, seed=5)
            logs, _ = train(model, *split, TrainConfig(epochs=2, batch_size=4, seed=s))
            losses.append(logs[-1].loss)
        assert losses[0] != losses[1]

    def test_out_of_range_label_rejected(self, monkeypatch):
        # labels 2, 3 in either set fail before any training step or prediction
        bad = recordings_to_arrays(toy_recordings(2, seed=0, label_offset=2))
        good = toy_split(train_per_class=2, test_per_class=2)[1]
        model = RcnnModel(H, W, 2, seed=0)
        monkeypatch.setattr(model, "forward", lambda *a, **k: pytest.fail("forward ran"))
        for sets in ((bad, good), (good, bad)):
            with pytest.raises(ValueError, match="out of range"):
                train(model, *sets, TrainConfig(epochs=1))

    @pytest.mark.parametrize("fault", ["nan_frame", "inf_gradient"])
    def test_non_finite_step_stops_before_the_update(self, monkeypatch, fault):
        (x, y), test_set = toy_split(train_per_class=2, test_per_class=2)
        model = RcnnModel(H, W, 2, seed=0)
        if fault == "nan_frame":  # the loss turns NaN
            x = x.copy()
            x[0, 0, 0, 0] = np.nan
        else:  # the loss stays finite, the gradient norm does not
            backward = model.backward

            def overflowing(grad):
                out = backward(grad)
                model.layers[-1].b.grad[0] = np.inf
                return out

            monkeypatch.setattr(model, "backward", overflowing)
        before = [p.data.copy() for p in model.parameters()]
        with pytest.raises(ValueError, match="training diverged in epoch 1"):
            train(model, (x, y), test_set, TrainConfig(epochs=1, batch_size=4))
        assert all(np.array_equal(p.data, b) for p, b in zip(model.parameters(), before))

    def test_epoch_log_fields(self):
        model = RcnnModel(H, W, 2, seed=0)
        logs, test_metrics = train(model, *toy_split(2, 2),
                                   TrainConfig(epochs=2, batch_size=4, seed=0))
        assert [lg.epoch for lg in logs] == [1, 2]
        for lg in logs:
            assert 0.0 <= lg.train_acc <= 1.0
            assert 0.0 <= lg.test_acc <= 1.0
            assert lg.loss >= 0.0
        assert test_metrics.accuracy == logs[-1].test_acc


class TestTrainingLogCsv:
    def test_layout_and_float_round_trip(self, tmp_path):
        logs = [EpochLog(1, 1.234567890123456789, 0.5, 0.25),
                EpochLog(2, 0.987654321, 1.0, 0.75)]
        path = tmp_path / "log.csv"
        write_training_log(logs, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "loss", "train_acc", "test_acc"]
        assert len(rows) == 3
        for row, lg in zip(rows[1:], logs):
            assert int(row[0]) == lg.epoch
            assert float(row[1]) == lg.loss
            assert float(row[2]) == lg.train_acc
            assert float(row[3]) == lg.test_acc


class TestRecordingsToArrays:
    def test_stacks_frames_and_labels(self):
        recs = toy_recordings(2, seed=1)
        frames, labels = recordings_to_arrays(recs)
        assert frames.shape == (4, 1, H, W)
        assert frames.dtype == np.float32
        assert np.array_equal(frames[:, 0], [rec.magnitudes.astype(np.float32) for rec in recs])
        assert labels.tolist() == [0, 1, 0, 1]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            recordings_to_arrays([])


class TestCheckpoint:
    def make_model(self, k=3, seed=11) -> RcnnModel:
        model = RcnnModel(H, W, k, seed=seed)
        # move running stats off their defaults so their persistence is visible
        x = np.random.default_rng(1).standard_normal((4, 1, H, W))
        model.forward(x, training=True)
        return model

    def test_round_trip_preserves_inference(self, tmp_path):
        model = self.make_model()
        x = np.random.default_rng(2).standard_normal((3, 1, H, W))
        path = tmp_path / "m.bin"
        save_model(model, path)
        loaded = load_model(path)
        a = model.forward(x, training=False)
        b = loaded.forward(x, training=False)
        assert np.allclose(a, b, atol=1e-4)  # float32 quantization on disk
        assert np.array_equal(model.predict(x), loaded.predict(x))

    @settings(max_examples=15, deadline=None)
    @given(h=st.integers(103, 160), w=st.integers(103, 300), k=st.integers(2, 10),
           seed=st.integers(0, 2**32 - 1))
    @example(h=H, w=W, k=3, seed=11)
    def test_save_load_save_is_byte_identical(self, h, w, k, seed):
        model = RcnnModel(h, w, k, seed=seed)
        model.forward(np.random.default_rng(seed).standard_normal((2, 1, h, w)), training=True)
        with tempfile.TemporaryDirectory() as tmp:
            p1, p2 = Path(tmp) / "a.bin", Path(tmp) / "b.bin"
            save_model(model, p1)
            save_model(load_model(p1), p2)
            assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_state_is_the_trained_state(self, tmp_path):
        # the network trains in the checkpoint's float32, so it loses nothing
        model = RcnnModel(H, W, 2, seed=4)
        train(model, *toy_split(2, 2), TrainConfig(epochs=1, batch_size=4, seed=0))
        path = tmp_path / "m.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert [a.dtype for a in loaded.state()] == [np.float32] * len(model.state())
        assert [a.tobytes() for a in loaded.state()] == [a.tobytes() for a in model.state()]

    def test_header_layout(self, tmp_path):
        model = self.make_model(k=4)
        path = tmp_path / "h.bin"
        save_model(model, path)
        raw = path.read_bytes()
        assert raw[:7] == CHECKPOINT_MAGIC
        assert int.from_bytes(raw[7:9], "little") == 1    # version
        assert int.from_bytes(raw[9:13], "little") == H
        assert int.from_bytes(raw[13:17], "little") == W
        assert int.from_bytes(raw[17:19], "little") == 4  # classes

    def test_running_statistics_survive(self, tmp_path):
        model = self.make_model()
        bn = model.layers[1]
        path = tmp_path / "m.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert np.allclose(loaded.layers[1].running_mean, bn.running_mean, atol=1e-6)
        assert np.allclose(loaded.layers[1].running_var, bn.running_var, atol=1e-6)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        save_model(self.make_model(), path)
        data = bytearray(path.read_bytes())
        data[:7] = b"WRONGMG"
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError):
            load_model(path)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_truncation_rejected(self, data):
        # a cut anywhere, in the header, the layer table or the parameters
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.bin"
            save_model(RcnnModel(H, W, 3, seed=11), path)
            raw = path.read_bytes()
            cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
            path.write_bytes(raw[:cut])
            with pytest.raises(ValueError):
                load_model(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "x.bin"
        save_model(self.make_model(), path)
        with open(path, "ab") as fh:
            fh.write(b"\x00\x00\x00\x00")
        with pytest.raises(ValueError):
            load_model(path)

    @settings(max_examples=60, deadline=None)
    @given(at=st.integers(19, 21 + 19 * 15 - 1), flip=st.integers(1, 255))
    @example(at=21, flip=1 ^ 0xEE)  # the first record's kind code becomes 0xEE
    @example(at=21, flip=1 ^ 8)     # ... or 8, a softmax code no model ever wrote
    @example(at=19, flip=1)         # layer_count 19 -> 18
    def test_changed_layer_table_byte_rejected(self, at, flip):
        # any byte of the header's u16 layer_count (offset 19) or of the 19
        # 15-byte records after the 21-byte header
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.bin"
            save_model(RcnnModel(H, W, 3, seed=11), path)
            data = bytearray(path.read_bytes())
            data[at] ^= flip
            path.write_bytes(bytes(data))
            with pytest.raises(ValueError, match="layer table does not match the fixed architecture"):
                load_model(path)

    @pytest.mark.parametrize("value", [1e39, -1e39, np.inf, np.nan])
    @pytest.mark.parametrize("array", ["classifier bias", "running variance"])
    def test_state_not_finite_in_float32_is_not_saved(self, tmp_path, value, array):
        # 1e39 is finite in float64 but overflows the checkpoint's float32; a
        # float32 network could not even hold it, so the model is cast
        model = as_dtype(self.make_model(), np.float64)
        target = model.layers[-1].b.data if array == "classifier bias" else model.layers[1].running_var
        target[0] = value
        path = tmp_path / "m.bin"
        with pytest.raises(ValueError, match="not finite in float32"):
            save_model(model, path)
        assert not path.exists()


class TestResidualIdentity:
    def test_zeroed_main_path_passes_relu_of_input_through(self):
        rng = np.random.default_rng(3)
        block = ResidualBlock(2, stride=1, rng=rng)
        for conv in (block.conv1, block.conv2):
            conv.w.data[...] = 0.0
            conv.b.data[...] = 0.0
        x = rng.standard_normal((2, 2, 5, 5))
        out = block.forward(x, training=True)
        assert np.allclose(out, np.maximum(x, 0.0), atol=1e-12)


class TestOneDtype:
    @pytest.mark.parametrize("module", ["layers", "model", "training", "metrics"])
    def test_no_constructor_takes_a_dtype(self, module):
        module = importlib.import_module(f"trgr.rcnn.{module}")
        classes = [cls for cls in vars(module).values()
                   if inspect.isclass(cls) and cls.__module__ == module.__name__]
        assert classes
        for cls in classes:
            assert "dtype" not in inspect.signature(cls).parameters, cls.__name__

    def test_an_epoch_on_float64_frames_keeps_every_array_in_the_one_dtype(self):
        assert importlib.import_module("trgr.rcnn.model").DTYPE is DTYPE
        assert RcnnModel.dtype is DTYPE
        (x, y), (tx, ty) = toy_split(train_per_class=2, test_per_class=2)
        model = RcnnModel(H, W, 2, seed=4)
        train(model, (x.astype(np.float64), y), (tx.astype(np.float64), ty),
              TrainConfig(epochs=1, batch_size=4, seed=0))
        # state() holds every parameter and BatchNorm running statistic
        arrays = model.state() + [p.grad for p in model.parameters()]
        assert {a.dtype for a in arrays} == {DTYPE}


# the layer kinds that keep backward state; each keeps it in `_cache`
STATEFUL = (Conv2d, BatchNorm2d, ReLU, MaxPool2d, Flatten, Linear)


def backward_state(model: RcnnModel) -> list:
    """The `_cache` of every stateful layer, the layers inside each
    ResidualBlock included."""
    layers = []
    for layer in model.layers:
        if isinstance(layer, ResidualBlock):
            layers += [*layer.main.layers, *layer.shortcut.layers, layer.relu_out]
        else:
            layers.append(layer)
    return [layer._cache for layer in layers if isinstance(layer, STATEFUL)]


def training_step(model: RcnnModel, x: np.ndarray, y: np.ndarray) -> None:
    _, grad = cross_entropy(model.forward(x, training=True), y)
    model.backward(grad)


class TestInference:
    def test_predict_leaves_no_training_state(self):
        (x, y), _ = toy_split(train_per_class=2)
        model, twin = RcnnModel(H, W, 2, seed=4), RcnnModel(H, W, 2, seed=4)
        for m in (model, twin):
            training_step(m, x, y)
            Adam(m.parameters(), learning_rate=0.01).step()
        # 9 convolutions and 9 BatchNorms (4 stages, 2 per block, block 1's
        # shortcut), 8 ReLUs (4 stages, 2 per block), 3 pools, the flatten and
        # the classifier
        assert len(backward_state(model)) == 31
        assert all(state is not None for state in backward_state(model))

        model.predict(x)
        assert all(state is None for state in backward_state(model))

        # training still works afterwards, with the gradients of a model that
        # never predicted
        training_step(model, x, y)
        training_step(twin, x, y)
        for p, q in zip(model.parameters(), twin.parameters()):
            assert np.array_equal(p.grad, q.grad)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), k=st.integers(1, 3), b=st.integers(1, 2), c=st.integers(1, 3),
           oh=st.integers(1, 4), ow=st.integers(1, 4), top=st.integers(0, 3),
           dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**32 - 1))
    def test_maxpool_output_is_the_argmax_backward_routes_to(self, data, k, b, c, oh, ow,
                                                             top, dtype, seed):
        # rows and columns that do not fill a window are dropped
        h = k * oh + data.draw(st.integers(0, k - 1))
        w = k * ow + data.draw(st.integers(0, k - 1))
        # a ReLU of a few integer levels: non-negative, with ties inside windows
        levels = np.random.default_rng(seed).integers(-2, top + 1, (b, c, h, w))
        x = ReLU().forward(levels.astype(dtype))
        pool = MaxPool2d(k)
        out = pool.forward(x, training=True)
        idx, _ = pool._cache
        windows = (x[:, :, :oh * k, :ow * k].reshape(b, c, oh, k, ow, k)
                   .transpose(0, 1, 2, 4, 3, 5).reshape(b, c, oh, ow, k * k))
        pick = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]
        assert out.shape == pick.shape == (b, c, oh, ow)
        assert out.dtype == pick.dtype == dtype
        assert out.tobytes() == pick.tobytes()
        # each window's gradient lands on its first row-major maximum; every
        # other entry, trailing rows and columns included, stays zero
        grad = np.random.default_rng(seed + 1).standard_normal(out.shape).astype(dtype)
        expected = np.zeros_like(x)
        for n, ch, i, j in np.ndindex(b, c, oh, ow):
            window = x[n, ch, i * k:(i + 1) * k, j * k:(j + 1) * k]
            r, s = divmod(int(np.flatnonzero(window == window.max())[0]), k)
            expected[n, ch, i * k + r, j * k + s] = grad[n, ch, i, j]
        assert pool.backward(grad).tobytes() == expected.tobytes()
        assert pool.forward(x).tobytes() == out.tobytes()
        assert not np.shares_memory(out, x)

    # frames per forward: TEMP_BYTES over the widest activation, the stem's
    # 8 channels, in float32 (8 x 74 x 127 x 4 B = 301 kB at desk width,
    # 149 kB at 128, 9.7 MB at 8192)
    @pytest.mark.parametrize("width, frames, sizes", [
        (256, 70, [13] * 5 + [5]),   # desk frames
        (128, 18, [18]),             # the largest TINY set
        (8192, 3, [1, 1, 1]),        # the paper's frames
    ])
    def test_predict_chunk_is_set_by_frame_size(self, monkeypatch, width, frames, sizes):
        seen = []

        def forward(model, batch, training=False):
            seen.append(len(batch))
            return np.zeros((len(batch), model.class_count))

        monkeypatch.setattr(RcnnModel, "forward", forward)
        labels = RcnnModel(150, width, 4).predict(np.zeros((frames, 1, 150, width)))
        assert seen == sizes
        assert labels.shape == (frames,)

    def test_predict_holds_a_small_multiple_of_the_budget(self):
        # a desk frame's residual columns are 1.36 MB; 32 of them in one
        # array would pass glibc's 32 MiB mmap ceiling
        model = RcnnModel(150, 256, 4, seed=1)
        frames = np.random.default_rng(2).standard_normal((70, 1, 150, 256))
        model.predict(frames[:2])
        tracemalloc.start()
        try:
            labels = model.predict(frames)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert labels.shape == (70,)
        assert peak < 5 * TEMP_BYTES < 32 << 20  # 15.5 MiB measured at 4 MiB


def one_gemm_conv(conv: Conv2d, x: np.ndarray) -> np.ndarray:
    """The convolution as one im2col matrix and one GEMM per frame."""
    (kh, kw), (sh, sw), (ph, pw) = conv.kernel, conv.stride, conv.padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    cols = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]
    b, c, oh, ow = cols.shape[:4]
    cols = cols.transpose(0, 1, 4, 5, 2, 3).reshape(b, c * kh * kw, oh * ow)
    out = conv.w.data.reshape(conv.c_out, -1) @ cols
    return out.reshape(b, conv.c_out, oh, ow) + conv.b.data.reshape(1, -1, 1, 1)


def textbook_batchnorm_backward(bn: BatchNorm2d, grad: np.ndarray):
    """(gamma grad, beta grad, input grad) of a training forward, written out."""
    xhat, inv_std = bn._cache
    dxhat = grad * bn.gamma.data.reshape(1, -1, 1, 1)
    n = grad.shape[0] * grad.shape[2] * grad.shape[3]
    sum_d = dxhat.sum(axis=(0, 2, 3)).reshape(1, -1, 1, 1)
    sum_dx = (dxhat * xhat).sum(axis=(0, 2, 3)).reshape(1, -1, 1, 1)
    dx = (inv_std.reshape(1, -1, 1, 1) / n) * (n * dxhat - sum_d - xhat * sum_dx)
    return (grad * xhat).sum(axis=(0, 2, 3)), grad.sum(axis=(0, 2, 3)), dx


class TestTemporaryBudget:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), b=st.integers(1, 3), c_in=st.integers(1, 3), c_out=st.integers(1, 4),
           kh=st.integers(1, 3), kw=st.integers(1, 3), sh=st.integers(1, 2),
           sw=st.integers(1, 2), ph=st.integers(0, 1), pw=st.integers(0, 1),
           dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**32 - 1))
    def test_blocked_eval_forward_is_the_one_gemm_forward(self, data, b, c_in, c_out, kh, kw,
                                                          sh, sw, ph, pw, dtype, seed):
        # at least 3 output rows, so that blocks can be several with a short last one
        h = data.draw(st.integers(max(1, 2 * sh + kh - 2 * ph), 20))
        w = data.draw(st.integers(max(1, kw - 2 * pw), 36))
        oh, ow = (h + 2 * ph - kh) // sh + 1, (w + 2 * pw - kw) // sw + 1
        rows = data.draw(st.sampled_from([r for r in range(1, oh) if oh % r]))
        rng = np.random.default_rng(seed)
        conv = as_dtype(Conv2d(c_in, c_out, (kh, kw), (sh, sw), (ph, pw), rng), dtype)
        conv.b.data[...] = rng.standard_normal(c_out)
        x = rng.standard_normal((b, c_in, h, w)).astype(dtype)
        row_bytes = b * c_in * kh * kw * ow * np.dtype(dtype).itemsize
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("trgr.rcnn.layers.TEMP_BYTES",
                       rows * row_bytes + data.draw(st.integers(0, row_bytes - 1)))
            blocked = conv.forward(x)
            # a training forward is one block whatever the budget
            trained = conv.forward(x, training=True)
        expected = one_gemm_conv(conv, x)
        assert blocked.shape == expected.shape == (b, c_out, oh, ow)
        assert blocked.dtype == expected.dtype == dtype
        assert trained.tobytes() == expected.tobytes()
        assert conv._cache[0].shape == (b, c_in * kh * kw, oh * ow)
        # OpenBLAS may compute a column with another kernel, and so another
        # summation order, when a block moves it off a vector tile or leaves a
        # short block (16 + 8 columns against 24 at c_out 1, say); only the
        # rounding of the sum over the taps may differ
        taps = c_in * kh * kw
        scale = taps * np.abs(conv.w.data).max() * np.abs(x).max() + np.abs(conv.b.data).max()
        assert np.abs(blocked - expected).max() <= 2 * taps * np.finfo(dtype).eps * scale

    @pytest.mark.parametrize("width, k", [(128, 3), (256, 4), (8192, 10)])
    def test_blocked_network_forward_is_the_one_gemm_forward(self, monkeypatch, width, k):
        # at the network's own sizes the blocks round as the one GEMM does, so
        # predict's forwards are bit for bit the unblocked ones
        model = RcnnModel(150, width, k, seed=2)
        widest = 8 * 74 * ((width - 3) // 2 + 1) * model.dtype.itemsize  # the stem's output
        chunk = max(1, TEMP_BYTES // widest)
        frames = np.random.default_rng(3).standard_normal((chunk, 1, 150, width))
        blocked = model.forward(frames)
        monkeypatch.setattr("trgr.rcnn.layers.TEMP_BYTES", 1 << 40)
        assert blocked.tobytes() == model.forward(frames).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(b=st.integers(1, 3), c=st.integers(1, 4), h=st.integers(1, 5), w=st.integers(1, 5),
           dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**32 - 1))
    def test_batchnorm_backward_is_the_textbook_expression(self, b, c, h, w, dtype, seed):
        rng = np.random.default_rng(seed)
        bn = as_dtype(BatchNorm2d(c), dtype)
        bn.gamma.data[...] = rng.uniform(0.5, 2.0, c)
        bn.forward((3 * rng.standard_normal((b, c, h, w)) + 1).astype(dtype), training=True)
        grad = rng.standard_normal((b, c, h, w)).astype(dtype)
        expected = textbook_batchnorm_backward(bn, grad)
        dx = bn.backward(grad)
        for got, want in zip((bn.gamma.grad, bn.beta.grad, dx), expected):
            assert got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes()
