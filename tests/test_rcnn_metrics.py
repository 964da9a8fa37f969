"""Confusion-matrix arithmetic against hand-computed examples."""
import numpy as np
import pytest

from trgr.rcnn.metrics import Metrics, metrics_from_predictions
from trgr.rcnn.model import RcnnModel
from trgr.rcnn.training import evaluate


class TestHandExamples:
    def test_perfect_predictions_score_one_everywhere(self):
        for k in (2, 3, 5):
            y = np.arange(k).repeat(2)
            m = metrics_from_predictions(y, y, k)
            assert m.accuracy == 1.0
            assert m.macro_recall == 1.0
            assert m.macro_precision == 1.0
            assert m.macro_f1 == 1.0
            assert np.array_equal(m.confusion, np.eye(k, dtype=np.int64) * 2)

    def test_two_class_single_error_example(self):
        # truth (0,0,1,1), predicted (0,1,1,1):
        #   confusion [[1,1],[0,2]]
        #   accuracy 3/4; recall (1/2, 1) -> 0.75
        #   precision (1/1, 2/3) -> 5/6; F1 (2/3, 4/5) -> 11/15
        m = metrics_from_predictions([0, 0, 1, 1], [0, 1, 1, 1], 2)
        assert np.array_equal(m.confusion, [[1, 1], [0, 2]])
        assert abs(m.accuracy - 0.75) < 1e-9
        assert abs(m.macro_recall - 0.75) < 1e-9
        assert abs(m.macro_precision - 5.0 / 6.0) < 1e-9
        assert abs(m.macro_f1 - 11.0 / 15.0) < 1e-9

    def test_collapsed_predictor_zero_positive_rule(self):
        # everything predicted class 0 on a balanced 2-class set:
        #   accuracy 1/2; precision (1/2, 0); F1 (2/3, 0) -> macro F1 1/3
        m = metrics_from_predictions([0, 0, 1, 1], [0, 0, 0, 0], 2)
        assert abs(m.accuracy - 0.5) < 1e-9
        assert abs(m.macro_f1 - 1.0 / 3.0) < 1e-9
        assert abs(m.macro_precision - 0.25) < 1e-9
        assert abs(m.macro_recall - 0.5) < 1e-9

    def test_classes_absent_from_truth_are_excluded(self):
        # class 2 never appears in truth, so macros average classes 0 and 1 only
        m = metrics_from_predictions([0, 0, 1, 1], [0, 2, 1, 1], 3)
        assert abs(m.macro_recall - (0.5 + 1.0) / 2) < 1e-9
        assert abs(m.macro_precision - (1.0 + 1.0) / 2) < 1e-9


class TestValidation:
    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            metrics_from_predictions([], [], 2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            metrics_from_predictions([0, 1], [0], 2)

    def test_out_of_range_labels_rejected(self):
        with pytest.raises(ValueError):
            metrics_from_predictions([0, 2], [0, 1], 2)
        with pytest.raises(ValueError):
            metrics_from_predictions([0, 1], [0, 5], 2)


class TestPermutationInvariance:
    def test_metrics_ignore_sample_order(self):
        rng = np.random.default_rng(3)
        y_true = rng.integers(0, 3, 40)
        y_pred = rng.integers(0, 3, 40)
        base = metrics_from_predictions(y_true, y_pred, 3)
        perm = rng.permutation(40)
        shuffled = metrics_from_predictions(y_true[perm], y_pred[perm], 3)
        assert np.array_equal(base.confusion, shuffled.confusion)
        assert base.accuracy == shuffled.accuracy
        assert base.macro_f1 == shuffled.macro_f1

    def test_evaluate_ignores_recording_order(self):
        rng = np.random.default_rng(4)
        model = RcnnModel(104, 104, 2, seed=1)
        frames = rng.standard_normal((6, 1, 104, 104))
        labels = np.arange(6) % 2
        a = evaluate(model, frames, labels)
        b = evaluate(model, frames[::-1], labels[::-1])
        assert np.array_equal(a.confusion, b.confusion)
        assert a.accuracy == b.accuracy
        assert a.macro_precision == b.macro_precision

    def test_evaluate_rejects_labels_beyond_model_classes(self, monkeypatch):
        model = RcnnModel(104, 104, 2, seed=1)
        monkeypatch.setattr(model, "predict", lambda batch: pytest.fail("predict ran"))
        for label in (5, 2, -1):  # rejected before any prediction
            with pytest.raises(ValueError, match=f"label {label} out of range"):
                evaluate(model, np.ones((2, 1, 104, 104)), np.array([0, label]))


def test_metrics_is_frozen():
    m = metrics_from_predictions([0, 1], [0, 1], 2)
    assert isinstance(m, Metrics)
    with pytest.raises(AttributeError):
        m.accuracy = 0.0
