"""The benchmark's tracer patches package names by module and attribute, and
its workloads call package functions directly; a deletion, rename or changed
signature in the package must not leave one of them dangling."""
import dataclasses
import importlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

import trgr.gait
import trgr.pipeline
import trgr.ris
from trgr.channel import RisChannel
from trgr.cli import main
from trgr.codebook import Codebook
from trgr.config import load_config
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


# a small stand-in for the workloads' configs: 3 subjects x 3 episodes of 150x128
TINY = {"seed": 5, "scenario": {"subcarriers": 128, "ris_rows": 3, "ris_cols": 3},
        "subjects": {"count": 3}, "optimizer": {"outer_iters": 2},
        "dataset": {"episodes_per_subject": 3}}


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**TINY, "output_dir": str(tmp_path / "out")}))
    return path


def test_full_geometry_per_record_chain_runs(benchmarks_path, tiny_config):
    # the calls and the order of `FullGeometry.setup`, on a tiny scenario
    training = importlib.import_module("workloads").training
    cfg = load_config(tiny_config)
    scenario = cfg.scenario
    probe = trgr.ris.snr_probe(scenario.ris, scenario.noise, cfg.probe_noise_std, cfg.probe_seed)
    trace = trgr.ris.optimize(probe, Codebook.zeros(cfg.ris_rows, cfg.ris_cols), cfg.outer_iters)
    recordings = trgr.gait.generate_dataset(cfg.profiles, scenario, trace.best_codebook,
                                            cfg.episodes_per_subject, cfg.dataset_seed)
    prepared = [trgr.pipeline.normalize(trgr.pipeline.denoise_recording(rec, cfg.filter_spec))
                for rec in recordings]
    split = trgr.pipeline.split_dataset(prepared, cfg.split_seed)
    x_train, y_train = training.recordings_to_arrays(split.train)
    x_pred, _ = training.recordings_to_arrays(split.test[:4])
    assert len(recordings) == 9
    assert x_train.shape == (6, 1, 150, 128) and x_pred.shape == (3, 1, 150, 128)
    assert sorted(y_train.tolist()) == [0, 0, 1, 1, 2, 2]
    assert np.isfinite(x_train).all() and np.isfinite(x_pred).all()


def test_desk_synth_saved_renders_check_holds(benchmarks_path, tiny_config):
    # `DeskSynth.cycle` prepares what `trgr generate` saved through the
    # per-record names, and `check_saved_renders` finds the loaded magnitudes
    # equal to the float32 cast of a fresh render
    cfg = load_config(tiny_config)
    assert main(["generate", "--config", str(tiny_config)]) == 0
    probe = trgr.ris.snr_probe(cfg.scenario.ris, cfg.scenario.noise, cfg.probe_noise_std,
                               cfg.probe_seed)
    codebook = trgr.ris.optimize(probe, Codebook.zeros(cfg.ris_rows, cfg.ris_cols),
                                 cfg.outer_iters).best_codebook
    setups = {"ris_on": (cfg.scenario, codebook),
              "ris_off": (dataclasses.replace(cfg.scenario, ris=RisChannel.empty()),
                          Codebook.zeros(0, 0))}
    for name, (scenario, cb) in setups.items():
        recs = trgr.pipeline.load_dataset(cfg.output_dir / f"dataset_{name}.bin")
        prepared = [trgr.pipeline.normalize(trgr.pipeline.denoise_recording(rec, cfg.filter_spec))
                    for rec in recs]
        split = trgr.pipeline.split_dataset(prepared, cfg.split_seed)
        assert len(split.train) == 3 * math.floor(2 * 3 / 3 + 0.5)
        for rec in (recs[0], recs[-1]):
            fresh = trgr.gait.render_recording(cfg.profiles[rec.label], scenario, cb,
                                               rec.episode_seed)
            expected = fresh.magnitudes.astype(np.float32).astype(np.float64)
            assert np.array_equal(rec.magnitudes, expected), name
