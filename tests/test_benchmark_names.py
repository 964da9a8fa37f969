"""The benchmark's tracer patches package names by module and attribute, and
its workloads call package functions directly; a deletion, rename or changed
signature in the package must not leave one of them dangling."""
import importlib
from pathlib import Path

import numpy as np
import pytest

from trgr.gait import CsiRecording
from trgr.pipeline import split_dataset
from trgr.rcnn.layers import Conv2d
from trgr.rcnn.model import RcnnModel

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture
def benchmarks_path(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))


def test_tracer_lookup_names_resolve(benchmarks_path):
    tracing = importlib.import_module("tracing")
    missing = [f"{module}.{attr}" for module, attr, _, _ in tracing.FUNCTIONS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    for module, cls_name, method, _, _ in tracing.METHODS:
        cls = getattr(importlib.import_module(module), cls_name, None)
        if not callable(getattr(cls, method, None)):
            missing.append(f"{module}.{cls_name}.{method}")
    assert tracing.FUNCTIONS and tracing.METHODS
    assert missing == []


def test_conv_counts_match_a_forward_pass(benchmarks_path, monkeypatch):
    workloads = importlib.import_module("workloads")
    model = RcnnModel(150, 256, 4)
    macs, cols = workloads.conv_counts(model, 8)

    seen = []
    forward = Conv2d.forward

    def counted(layer, x, training=False):
        out = forward(layer, x, training)
        taps = layer.c_in * layer.kernel[0] * layer.kernel[1]
        seen.append((out.size * taps, out.size // layer.c_out * taps * out.itemsize))
        return out

    monkeypatch.setattr(Conv2d, "forward", counted)
    model.forward(np.zeros((8, 1, 150, 256)))
    assert (macs, cols) == tuple(map(sum, zip(*seen)))


def test_recordings_to_arrays_stacks_a_split(benchmarks_path):
    training = importlib.import_module("workloads").training
    rng = np.random.default_rng(0)
    recs = [CsiRecording(rng.standard_normal((6, 5)), i % 2, i) for i in range(8)]
    split = split_dataset(recs, 3)
    frames, labels = training.recordings_to_arrays(split.train)
    assert frames.shape == (len(split.train), 1, 6, 5)
    assert labels.tolist() == [rec.label for rec in split.train]
    # stacked in the network's float32
    assert np.array_equal(frames[:, 0], [rec.magnitudes.astype(np.float32)
                                         for rec in split.train])
