"""Loss, optimizer, batchnorm invariants, the training loop, and checkpoints."""
import csv
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trgr.gait import CsiRecording
from trgr.pipeline import DatasetSplit
from trgr.rcnn.layers import BatchNorm2d, Param, ResidualBlock
from trgr.rcnn.model import (
    CHECKPOINT_MAGIC,
    RcnnModel,
    load_model,
    save_model,
)
from trgr.rcnn.training import (
    Adam,
    EpochLog,
    TrainConfig,
    cross_entropy,
    recordings_to_arrays,
    softmax,
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
                                 label + label_offset, "toy", i))
    return recs


def toy_split(train_per_class=8, test_per_class=3, seed=42) -> DatasetSplit:
    return DatasetSplit(
        toy_recordings(train_per_class, seed),
        toy_recordings(test_per_class, seed + 1),
        split_seed=0,
    )


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
            bn.running_var.reshape(1, 2, 1, 1) + bn.eps)
        assert np.allclose(out, expected, atol=1e-12)
        assert np.array_equal(out, bn.forward(x, training=False))  # deterministic

    def test_running_stats_move_toward_batch_stats(self):
        bn = BatchNorm2d(1)
        x = np.full((4, 1, 2, 2), 10.0)
        bn.forward(x, training=True)
        assert bn.running_mean[0] == pytest.approx(0.1 * 10.0)  # momentum 0.1


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
        logs = train(model, toy_split(), TrainConfig(epochs=16, batch_size=4, seed=1))
        assert max(lg.train_acc for lg in logs) == 1.0
        assert logs[-1].train_acc == 1.0
        assert logs[-1].test_acc == 1.0

    def test_same_seed_reproduces_final_loss_exactly(self):
        split = toy_split(train_per_class=4, test_per_class=3)
        cfg = TrainConfig(epochs=3, batch_size=4, seed=9)
        finals = []
        for _ in range(2):
            model = RcnnModel(H, W, 2, seed=5)
            logs = train(model, split, cfg)
            finals.append(logs[-1].loss)
        assert abs(finals[0] - finals[1]) < 1e-9

    def test_different_shuffle_seed_changes_trajectory(self):
        split = toy_split(train_per_class=4, test_per_class=3)
        losses = []
        for s in (1, 2):
            model = RcnnModel(H, W, 2, seed=5)
            logs = train(model, split, TrainConfig(epochs=2, batch_size=4, seed=s))
            losses.append(logs[-1].loss)
        assert losses[0] != losses[1]

    def test_out_of_range_label_rejected(self):
        bad = toy_split(train_per_class=2, test_per_class=2)
        model = RcnnModel(H, W, 2, seed=0)
        bad_recs = toy_recordings(2, seed=0, label_offset=2)  # labels 2, 3
        split = DatasetSplit(bad_recs, bad.test, 0)
        with pytest.raises(ValueError):
            train(model, split, TrainConfig(epochs=1))

    def test_epoch_log_fields(self):
        model = RcnnModel(H, W, 2, seed=0)
        logs = train(model, toy_split(2, 2), TrainConfig(epochs=2, batch_size=4, seed=0))
        assert [lg.epoch for lg in logs] == [1, 2]
        for lg in logs:
            assert 0.0 <= lg.train_acc <= 1.0
            assert 0.0 <= lg.test_acc <= 1.0
            assert lg.loss >= 0.0


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

    def test_corrupt_layer_kind_rejected(self, tmp_path):
        path = tmp_path / "c.bin"
        save_model(self.make_model(), path)
        data = bytearray(path.read_bytes())
        # 8 was a softmax code that no model ever wrote
        for code in (0xEE, 8):
            data[21] = code  # first layer record's kind code, after the 21-byte header
            path.write_bytes(bytes(data))
            with pytest.raises(ValueError, match=f"unknown layer kind code {code}"):
                load_model(path)


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
