"""End-to-end checks of every subcommand on a reduced-size configuration."""
import hashlib
import json
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import trgr.cli
from trgr.cli import main
from trgr.config import ExperimentConfig, load_config
from trgr.gait import CsiRecording, render_dataset
from trgr.pipeline import load_dataset, save_dataset
from trgr.rcnn.model import RcnnModel, load_model, save_model

from helpers import dataset_records

TINY = {
    "seed": 123,
    "scenario": {
        "subcarriers": 128,
        "noise_variance": 0.5,
        "wall_attenuation_db": 45.0,
        "dynamic_path_count": 3,
        "ris_rows": 4,
        "ris_cols": 4,
    },
    "subjects": {"count": 3},
    "optimizer": {"outer_iters": 3},
    "dataset": {"episodes_per_subject": 6},
    "pipeline": {"window": 3},
    "train": {"epochs": 2, "batch_size": 4},
}


def write_config(directory, output_dir, **overrides):
    doc = json.loads(json.dumps(TINY))
    doc["output_dir"] = str(output_dir)
    for key, val in overrides.items():
        if isinstance(val, dict):
            doc.setdefault(key, {}).update(val)
        else:
            doc[key] = val
    path = directory / "config.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated tiny run shared by the train/evaluate/ablate tests."""
    root = tmp_path_factory.mktemp("cli")
    out = root / "run"
    cfg = write_config(root, out)
    assert main(["generate", "--config", str(cfg)]) == 0
    return {"root": root, "out": out, "config": cfg}


class TestShapes:
    def test_full_scale_table(self, capsys):
        assert main(["shapes"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split() == ["input", "1x150x8192"]
        assert any(ln.split() == ["conv1", "8x74x4095"] for ln in lines)
        assert any(ln.split() == ["fc_in", "256"] for ln in lines)
        assert lines[-1].split() == ["output", "10"]

    def test_desk_scale(self, capsys):
        assert main(["shapes", "--height", "150", "--width", "256", "--classes", "4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert any(ln.split() == ["fc_in", "8"] for ln in lines)

    def test_undersized_input_fails_cleanly(self, capsys):
        assert main(["shapes", "--height", "40", "--width", "40"]) == 1
        assert "error:" in capsys.readouterr().err


class TestOptimize:
    def test_writes_codebook_trace_report_manifest(self, tmp_path, capsys):
        out = tmp_path / "opt"
        cfg = write_config(tmp_path, out)
        assert main(["optimize", "--config", str(cfg)]) == 0
        stdout = capsys.readouterr().out
        assert "snr initial" in stdout

        lines = (out / "codebook.txt").read_text().splitlines()
        assert len(lines) == 4 and all(len(ln) == 4 and set(ln) <= {"0", "1"} for ln in lines)

        trace_rows = (out / "trace.csv").read_text().strip().splitlines()
        assert trace_rows[0] == "t,i,kind,index,s_current,accepted"
        assert len(trace_rows) == 1 + 3 * (4 + 4)  # outer_iters * (rows+cols)

        report = json.loads((out / "snr_report.json").read_text())
        assert report["elements"] == 16
        assert report["snr_optimized"] >= report["snr_initial"]
        # 16 elements is within brute-force reach: the oracle can never lose
        assert report["brute_force_strength"] >= report["snr_optimized"] - 1e-9
        assert report["gap_to_brute_force"] >= -1e-9
        assert (out / "manifest_optimize.json").exists()

    def test_noisy_probe_passes(self, tmp_path):
        # under probe noise each visit re-measures, so accepted readings need
        # not increase; the monotonicity audit applies only to exact probes
        out = tmp_path / "noisy"
        cfg = write_config(tmp_path, out, optimizer={"probe_noise_std": 0.5})
        assert main(["optimize", "--config", str(cfg)]) == 0
        assert len((out / "trace.csv").read_text().strip().splitlines()) == 25

    def test_seed_override_changes_the_channel(self, tmp_path):
        outs = []
        for seed in (1, 2):
            out = tmp_path / f"o{seed}"
            cfg = write_config(tmp_path, out)
            assert main(["optimize", "--config", str(cfg), "--seed", str(seed)]) == 0
            outs.append(json.loads((out / "snr_report.json").read_text()))
        assert outs[0]["snr_optimized"] != outs[1]["snr_optimized"]


class TestGenerate:
    def test_datasets_exist_and_load(self, workspace):
        for name in ("dataset_ris_on.bin", "dataset_ris_off.bin"):
            recs = load_dataset(workspace["out"] / name)
            assert len(recs) == 3 * 6
            assert recs[0].magnitudes.shape == (150, 128)
            assert sorted({r.label for r in recs}) == [0, 1, 2]
        assert (workspace["out"] / "manifest_generate.json").exists()

    def test_ris_on_and_off_actually_differ(self, workspace):
        on = load_dataset(workspace["out"] / "dataset_ris_on.bin")
        off = load_dataset(workspace["out"] / "dataset_ris_off.bin")
        assert not np.allclose(on[0].magnitudes, off[0].magnitudes)
        # the surface carries most of the energy in this geometry
        assert on[0].magnitudes.mean() > off[0].magnitudes.mean()

    def test_regeneration_is_byte_identical(self, workspace, tmp_path):
        out2 = tmp_path / "again"
        cfg2 = write_config(tmp_path, out2)
        assert main(["generate", "--config", str(cfg2)]) == 0
        for name in ("dataset_ris_on.bin", "dataset_ris_off.bin"):
            a = (workspace["out"] / name).read_bytes()
            b = (out2 / name).read_bytes()
            assert a == b

    def test_untrainable_frame_fails_before_writing(self, tmp_path, capsys):
        out = tmp_path / "narrow"
        cfg = write_config(tmp_path, out, scenario={"subcarriers": 64})
        assert main(["generate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not list(out.glob("dataset_*.bin"))

    def test_magnitudes_beyond_float32_fail_before_writing(self, tmp_path, capsys):
        # noise this loud renders finite float64 magnitudes that overflow the
        # dataset's float32, and train would refuse the infinities
        out = tmp_path / "loud"
        cfg = write_config(tmp_path, out, scenario={"noise_variance": 1e80})
        assert main(["generate", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            "error: refusing to write magnitudes that are not finite in float32"]
        assert not list(out.glob("*"))

    def test_generate_runs_no_oracle(self, tmp_path, monkeypatch):
        # the exhaustive oracle belongs to the optimize report, not the datasets
        monkeypatch.setattr("trgr.cli.brute_force", _forbidden("brute_force"))
        cfg = write_config(tmp_path, tmp_path / "gen")
        assert main(["generate", "--config", str(cfg)]) == 0

    def test_output_flag_overrides_directory(self, workspace, tmp_path):
        override = tmp_path / "elsewhere"
        assert main(["generate", "--config", str(workspace["config"]),
                     "--output", str(override)]) == 0
        assert (override / "dataset_ris_on.bin").exists()


DESK_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "desk.json"

# sha256 of `trgr generate --config configs/desk.json`; refactors of the
# channel, gait or dataset code must keep these bytes.
DESK_DATASET_SHA256 = {
    "dataset_ris_on.bin": "38584e2a9d5f7f67901b4bb1d24e0204cf2ce310ceadc92042977c5df718a8eb",
    "dataset_ris_off.bin": "324277dc7b6785452dd019c94b35a1f6481bfa799ee2a8686d256c41596105d2",
}


@pytest.fixture(scope="module")
def desk_out(tmp_path_factory):
    """The directory `trgr generate --config configs/desk.json` wrote into."""
    out = tmp_path_factory.mktemp("desk")
    assert main(["generate", "--config", str(DESK_CONFIG), "--output", str(out)]) == 0
    return out


def test_desk_datasets_match_golden_digests(desk_out):
    for name, digest in DESK_DATASET_SHA256.items():
        assert hashlib.sha256((desk_out / name).read_bytes()).hexdigest() == digest, name


# sha256 of the desk ris_on dataset smoothed, standardized and split, as
# `train` and `evaluate` feed it to the network; a faster prepare must keep
# these bytes and this split order.
DESK_PREPARED_SHA256 = {
    "train frames": "62c886bebd8d738dc910fc5cafe22652661f58cc66d44adfd40cf462a93bafa7",
    "train labels": "4f9fca9506feb193bfd97f8fde91051d1cd664be35aabba3c71bb59c4b182e29",
    "test frames": "396a498183162ca9fa6e9e897e6026f85d89eda040652ce50b80d6a0b9e1daf6",
    "test labels": "fe254d11a8ba9aa00446f6a78ac79a0ae3ab2686ce31999fb1bb693f1d534986",
}


def test_desk_prepared_split_matches_golden_digests(desk_out):
    cfg = load_config(DESK_CONFIG)
    prepared = trgr.cli._prepared_split(cfg, desk_out / "dataset_ris_on.bin")
    for part, (frames, labels) in zip(("train", "test"), prepared):
        assert frames.dtype == np.float32 and labels.dtype == np.int64
        for what, array in (("frames", frames), ("labels", labels)):
            digest = hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()
            assert digest == DESK_PREPARED_SHA256[f"{part} {what}"], f"{part} {what}"


def test_desk_prepare_peaks_below_two_and_a_half_dataset_files(desk_out):
    # one read of the file, the float32 frames and a few MB of chunk scratch;
    # per-record float64 copies of every recording peaked at 4x the file
    dataset = desk_out / "dataset_ris_on.bin"
    cfg = load_config(DESK_CONFIG)
    tracemalloc.start()
    try:
        trgr.cli._prepared_split(cfg, dataset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * dataset.stat().st_size


def test_desk_render_and_save_peak_below_one_and_a_half_dataset_files(tmp_path):
    # the record array is the file's body, and each render's scratch is freed
    # as its record lands; a float64 recording per episode, held until the
    # save, peaked at twice the file
    cfg = load_config(DESK_CONFIG)
    codebook = trgr.cli._search(cfg)[1].best_codebook
    path = tmp_path / "dataset_ris_on.bin"
    tracemalloc.start()
    try:
        save_dataset(path, render_dataset(cfg.profiles, cfg.scenario, codebook,
                                          cfg.episodes_per_subject, cfg.dataset_seed))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == DESK_DATASET_SHA256["dataset_ris_on.bin"]
    assert peak <= 1.5 * path.stat().st_size


# sha256 of a 2-epoch `trgr train` on the TINY config's ris_on dataset and of
# `trgr evaluate --split all` on its checkpoint; refactors of the network, the
# training loop, the scoring or the checkpoint format must keep these bytes.
TINY_TRAIN_SHA256 = {
    "model.bin": "4861ff91aade4657d6a4acc3c42761592dc802a14412ba799fd953998efc71fd",
    "training_log.csv": "d78b689d772cf2242b2286781bddf9ae4125fc57a5a2c325bdb2a35feec6c768",
    "metrics.json": "34120625166b94fd88eeb3905ed77d5e65ba8d09deacc733b2b88920e3c4e0b7",
    "eval_metrics.json": "adfd6a87dfcffa661433b9df3a03a63ff9b54babe9989f3e7648aed2525c68cf",
}


def test_checkpoint_does_not_depend_on_the_blas_thread_count(workspace, tmp_path):
    # a rerun gives a bit-identical checkpoint however many threads BLAS runs
    src = str(Path(trgr.__file__).resolve().parents[1])
    checkpoints = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        res = subprocess.run([sys.executable, "-m", "trgr.cli", "train", "--config",
                              str(workspace["config"]), "--output", str(out), "--dataset",
                              str(workspace["out"] / "dataset_ris_on.bin")],
                             env=env, capture_output=True, text=True, timeout=600)
        assert res.returncode == 0, res.stderr
        checkpoints.append((out / "model.bin").read_bytes())
    assert checkpoints[0] == checkpoints[1]


def test_tiny_training_matches_golden_digests(workspace, tmp_path):
    dataset = str(workspace["out"] / "dataset_ris_on.bin")
    for command in (["train"], ["evaluate", "--split", "all"]):
        assert main([*command, "--config", str(workspace["config"]), "--output", str(tmp_path),
                     "--dataset", dataset]) == 0
    for name, digest in TINY_TRAIN_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
    # the pinned checkpoint loads and re-saves to the same bytes
    save_model(load_model(tmp_path / "model.bin"), tmp_path / "resaved.bin")
    assert (tmp_path / "resaved.bin").read_bytes() == (tmp_path / "model.bin").read_bytes()


# sha256 of `trgr optimize` on the TINY config, whose 16-element surface also
# runs the exhaustive oracle; moving the search or the report must keep these
# bytes and the printed summary.
TINY_OPTIMIZE_SHA256 = {
    "codebook.txt": "90ae5b1391b08315aff43097bea6c84f35a5de94ed19d56377b4f9a362511927",
    "trace.csv": "82162e00b37641f38e7d92c251d9d81afe0318b68e09456b700886b1360f0cdb",
    "snr_report.json": "e21565990a9eb140d1281bbca485d747e1c4c8a02199aa349a8e7d341e781ba3",
}
TINY_OPTIMIZE_STDOUT = ("snr initial 0.407251  optimized 1.15291  gain 4.52 dB\n"
                        "brute force strength 2.53862  gap 1.39\n")


def test_tiny_optimize_matches_golden_digests(tmp_path, capsys):
    cfg = write_config(tmp_path, tmp_path / "opt")
    assert main(["optimize", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == TINY_OPTIMIZE_STDOUT
    for name, digest in TINY_OPTIMIZE_SHA256.items():
        digest_now = hashlib.sha256((tmp_path / "opt" / name).read_bytes()).hexdigest()
        assert digest_now == digest, name


def _forbidden(name):
    def fail(*args, **kwargs):
        raise ValueError(f"{name} must not run here")
    return fail


class TestTrain:
    def test_train_writes_all_artifacts(self, workspace, capsys):
        assert main(["train", "--config", str(workspace["config"])]) == 0
        stdout = capsys.readouterr().out
        assert "epoch   1" in stdout
        assert "test: accuracy" in stdout
        out = workspace["out"]
        assert (out / "model.bin").exists()
        log = (out / "training_log.csv").read_text().strip().splitlines()
        assert log[0] == "epoch,loss,train_acc,test_acc"
        assert len(log) == 1 + 2  # epochs
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics) >= {"accuracy_pct", "recall_pct", "precision_pct",
                                "f1_pct", "confusion"}
        assert 0.0 <= metrics["accuracy_pct"] <= 100.0
        assert (out / "manifest_train.json").exists()

    def test_each_epoch_predicts_each_split_once(self, workspace, tmp_path, monkeypatch):
        # the reported test metrics come from the last epoch's prediction
        calls = []
        predict = RcnnModel.predict
        monkeypatch.setattr(RcnnModel, "predict",
                            lambda model, batch: calls.append(len(batch)) or predict(model, batch))
        assert main(["train", "--config", str(workspace["config"]), "--output", str(tmp_path),
                     "--dataset", str(workspace["out"] / "dataset_ris_on.bin")]) == 0
        # per epoch: the 12 train frames, then the 6 test frames (3 subjects x 6 episodes)
        assert calls == [12, 6] * 2

    def test_missing_dataset_fails_with_its_path(self, tmp_path, capsys):
        out = tmp_path / "nowhere"
        cfg = write_config(tmp_path, out)
        assert main(["train", "--config", str(cfg),
                     "--dataset", str(out / "ghost.bin")]) == 1
        err = capsys.readouterr().err
        assert "ghost.bin" in err

    def test_state_beyond_float32_fails_before_the_checkpoint(self, workspace, tmp_path,
                                                              capsys):
        # a huge step drives the float32 network past its range within the
        # first epoch, so no checkpoint holding the infinities is written
        out = tmp_path / "run"
        cfg = write_config(tmp_path, out, train={"learning_rate": 1e12})
        assert main(["train", "--config", str(cfg),
                     "--dataset", str(workspace["out"] / "dataset_ris_on.bin")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: training diverged in epoch 1:")
        assert not (out / "model.bin").exists()
        assert not list(out.glob("manifest_*.json"))

    def test_diverging_training_fails_before_the_checkpoint(self, workspace, tmp_path, capsys):
        # a step this long overflows the weights, and the next gradient norm
        # with them
        out = tmp_path / "run"
        cfg = write_config(tmp_path, out, train={"learning_rate": 1e300})
        assert main(["train", "--config", str(cfg),
                     "--dataset", str(workspace["out"] / "dataset_ris_on.bin")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: training diverged in epoch 1:")
        assert not out.exists()

    def test_overflowing_training_fails_with_one_line_error(self, workspace, tmp_path, capsys):
        # the loss and gradient norm stay finite, but a later forward
        # overflows; that overflow is the one fault reported, with no numpy
        # warning on the way
        out = tmp_path / "run"
        cfg = write_config(tmp_path, out, train={"learning_rate": 1e100})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["train", "--config", str(cfg),
                         "--dataset", str(workspace["out"] / "dataset_ris_on.bin")]) == 1
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: training diverged in epoch 1:")
        assert not out.exists()

    @pytest.mark.parametrize("labels, line", [
        ([0], "error: need at least two classes"),
        ([0, 2], "error: labels must be 0..K-1, got [0, 2]"),
    ])
    def test_unusable_class_set_fails_with_one_line(self, tmp_path, capsys, labels, line):
        # three recordings per class, the fewest a split accepts
        rng = np.random.default_rng(0)
        dataset = tmp_path / "handmade.bin"
        frames = rng.uniform(0.5, 1.5, (3 * len(labels), 150, 128))
        save_dataset(dataset, dataset_records(frames, labels * 3, range(3 * len(labels))))
        out = tmp_path / "run"
        cfg = write_config(tmp_path, out)
        assert main(["train", "--config", str(cfg), "--dataset", str(dataset)]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [line]
        assert not out.exists()

    def test_damaged_dataset_fails_with_one_line_error(self, workspace, tmp_path, capsys):
        data = (workspace["out"] / "dataset_ris_on.bin").read_bytes()
        damaged = tmp_path / "damaged.bin"
        # cut inside the first record header, cut inside a record body, one extra byte
        for blob in (data[:20], data[:-7], data + b"\x00"):
            damaged.write_bytes(blob)
            assert main(["train", "--config", str(workspace["config"]),
                         "--dataset", str(damaged)]) == 1
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and err[0].startswith("error:")


class TestEvaluate:
    def test_each_split_choice(self, workspace, tmp_path, capsys):
        # trains its own checkpoint, so it does not depend on TestTrain's
        common = ["--config", str(workspace["config"]), "--output", str(tmp_path),
                  "--dataset", str(workspace["out"] / "dataset_ris_on.bin")]
        assert main(["train", *common]) == 0
        for split in ("test", "train", "all"):
            assert main(["evaluate", *common, "--model", str(tmp_path / "model.bin"),
                         "--split", split]) == 0
            doc = json.loads((tmp_path / "eval_metrics.json").read_text())
            assert doc.pop("split") == split
            assert 0.0 <= doc["accuracy_pct"] <= 100.0
            if split == "test":
                # the checkpoint holds the trained state exactly, so scoring
                # it again gives the metrics train reported
                assert doc == json.loads((tmp_path / "metrics.json").read_text())
        assert "all: accuracy" in capsys.readouterr().out

    def test_missing_checkpoint_fails_with_its_path(self, tmp_path, capsys):
        out = tmp_path / "e"
        cfg = write_config(tmp_path, out)
        assert main(["evaluate", "--config", str(cfg),
                     "--model", str(out / "missing_model.bin")]) == 1
        assert "missing_model.bin" in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_checkpoint_fails_before_allocating(self, tmp_path, capsys):
        # a real 19-layer table whose header claims 150 x 2^26 frames and a
        # 60000-class classifier, with no parameter block: 938 GiB of weights
        save_model(RcnnModel(150, 256, 4), tmp_path / "small.bin")
        raw = bytearray((tmp_path / "small.bin").read_bytes()[:306])
        raw[13:17] = (2 ** 26).to_bytes(4, "little")  # frame width
        raw[17:19] = raw[-2:] = (60000).to_bytes(2, "little")  # classes, Linear outputs
        (tmp_path / "model.bin").write_bytes(bytes(raw))
        cfg = write_config(tmp_path, tmp_path / "e")
        assert main(["evaluate", "--config", str(cfg),
                     "--model", str(tmp_path / "model.bin")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: checkpoint truncated inside the parameter block"]
        assert not (tmp_path / "e").exists()

    def test_non_finite_checkpoint_fails_with_one_line(self, tmp_path, capsys):
        # a NaN in the last classifier bias, the checkpoint's final 4 bytes
        path = tmp_path / "model.bin"
        save_model(RcnnModel(150, 256, 4), path)
        raw = bytearray(path.read_bytes())
        raw[-4:] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(bytes(raw))
        cfg = write_config(tmp_path, tmp_path / "e")
        assert main(["evaluate", "--config", str(cfg), "--model", str(path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: checkpoint holds a non-finite parameter or running statistic"]
        assert not (tmp_path / "e").exists()


    @pytest.mark.parametrize("where", ["stem", "shortcut"])
    def test_negative_running_variance_fails_with_one_line(self, workspace, tmp_path, capsys,
                                                           where):
        # sqrt(running_var + BN_EPS) of it is NaN: scoring went on with
        # numpy's RuntimeWarning and a chance accuracy, and exited 0
        model = RcnnModel(150, 128, 3)
        block = model.layers[3]  # res_block1, whose shortcut is a 1x1 conv plus BatchNorm
        bn = model.layers[1] if where == "stem" else block.shortcut.layers[1]
        bn.running_var[-1] = -1.0
        save_model(model, tmp_path / "model.bin")
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["evaluate", "--config", str(workspace["config"]), "--output", str(out),
                         "--dataset", str(workspace["out"] / "dataset_ris_on.bin"),
                         "--model", str(tmp_path / "model.bin"), "--split", "all"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: checkpoint holds a negative BatchNorm running variance"]
        assert not out.exists()

@pytest.mark.parametrize("command", ["train", "evaluate"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_frame_fails_at_load(workspace, tmp_path, capsys, command, value):
    # ReLU passes a NaN on, so the dataset's load-time check is what keeps a
    # non-finite frame out of the network
    data = bytearray((workspace["out"] / "dataset_ris_on.bin").read_bytes())
    _, _, t, s, count = struct.unpack_from("<4sHIII", data)  # the 18-byte file header
    record = 10 + 4 * t * s  # a (label, seed) head, then T x S float32
    at = 18 + count // 2 * record + 10 + 4 * (t * s // 2)  # mid-frame, mid-file
    data[at:at + 4] = np.array([value], dtype="<f4").tobytes()
    dataset = tmp_path / "patched.bin"
    dataset.write_bytes(bytes(data))
    checkpoint = tmp_path / "model_in.bin"
    save_model(RcnnModel(150, 128, 3), checkpoint)
    extra = ["--model", str(checkpoint), "--split", "all"] * (command == "evaluate")
    out = tmp_path / "run"
    assert main([command, "--config", str(workspace["config"]), "--output", str(out),
                 "--dataset", str(dataset), *extra]) == 1
    assert capsys.readouterr().err.strip().splitlines() == ["error: magnitudes must be finite"]
    assert not (out / "model.bin").exists()
    assert not list(out.glob("manifest_*.json"))


@pytest.mark.parametrize("command", ["train", "evaluate"])
@pytest.mark.parametrize("t, s, count", [(150, 0, 6), (0, 128, 6), (150, 128, 0)])
def test_empty_frame_dataset_fails_with_one_line(tmp_path, capsys, command, t, s, count):
    # a header with no packets, no subcarriers or no records is refused before
    # any record is read, so no numpy warning about empty statistics gets out
    dataset = tmp_path / "empty_frame.bin"
    dataset.write_bytes(struct.pack("<4sHIII", b"TRGR", 1, t, s, count) + b"\x00" * 10 * count)
    checkpoint = tmp_path / "model_in.bin"
    save_model(RcnnModel(150, 128, 3), checkpoint)
    extra = ["--model", str(checkpoint), "--split", "all"] * (command == "evaluate")
    out = tmp_path / "run"
    cfg = write_config(tmp_path, out)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", str(cfg), "--dataset", str(dataset), *extra]) == 1
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err.strip().splitlines() == [
        f"error: dataset {dataset} holds {count} frames of {t}x{s}, need at least one of 1x1"]
    assert not out.exists()


def test_generate_builds_no_per_record_objects(tmp_path, monkeypatch):
    # each render lands in the dataset's record array, which is saved in one write
    monkeypatch.setattr(CsiRecording, "__post_init__", _forbidden("CsiRecording"))
    assert main(["generate", "--config", str(write_config(tmp_path, tmp_path / "gen"))]) == 0


def test_train_and_evaluate_build_no_per_record_objects(workspace, tmp_path, monkeypatch):
    # the datasets reach the network as arrays, never as one object per record
    monkeypatch.setattr(CsiRecording, "__post_init__", _forbidden("CsiRecording"))
    common = ["--config", str(workspace["config"]), "--output", str(tmp_path),
              "--dataset", str(workspace["out"] / "dataset_ris_on.bin")]
    assert main(["train", *common]) == 0
    assert main(["evaluate", *common, "--split", "all"]) == 0


class TestAblate:
    def test_reuses_explicit_datasets_and_reports_delta(self, workspace, tmp_path, capsys):
        out = tmp_path / "ab"
        cfg = write_config(tmp_path, out)
        on = workspace["out"] / "dataset_ris_on.bin"
        off = workspace["out"] / "dataset_ris_off.bin"
        assert main(["ablate", "--config", str(cfg),
                     "--ris-on", str(on), "--ris-off", str(off)]) == 0
        stdout = capsys.readouterr().out
        assert "accuracy delta" in stdout
        report = json.loads((out / "ablation_report.json").read_text())
        assert report["ris_on"]["dataset"] == str(on)
        assert report["ris_off"]["dataset"] == str(off)
        expected = round(report["ris_on"]["accuracy_pct"]
                         - report["ris_off"]["accuracy_pct"], 2)
        assert report["accuracy_delta_pp"] == expected

    def test_renders_only_the_missing_ris_off_without_a_search(self, workspace, tmp_path,
                                                                monkeypatch):
        # ris_off is rendered on the empty surface and needs no codebook
        monkeypatch.setattr("trgr.cli.optimize", _forbidden("optimize"))
        out = tmp_path / "abo"
        cfg = write_config(tmp_path, out)
        assert main(["ablate", "--config", str(cfg),
                     "--ris-on", str(workspace["out"] / "dataset_ris_on.bin")]) == 0
        assert (out / "dataset_ris_off.bin").exists()
        assert not (out / "dataset_ris_on.bin").exists()

    def test_explicit_missing_dataset_fails(self, tmp_path, capsys):
        out = tmp_path / "abx"
        cfg = write_config(tmp_path, out)
        assert main(["ablate", "--config", str(cfg),
                     "--ris-on", str(out / "no_such.bin")]) == 1
        assert "no_such.bin" in capsys.readouterr().err


def _manifest_paths(out: Path, command: str) -> set[Path]:
    """The files `manifest_<command>.json` names, each checked against its bytes."""
    manifest = json.loads((out / f"manifest_{command}.json").read_text())
    assert manifest["command"] == command
    for entry in manifest["artifacts"].values():
        data = Path(entry["path"]).read_bytes()
        assert entry["bytes"] == len(data)
        assert entry["sha256"] == hashlib.sha256(data).hexdigest()
    return {Path(entry["path"]) for entry in manifest["artifacts"].values()}


class TestCommandFrame:
    @pytest.mark.parametrize("command", ["optimize", "generate", "train", "evaluate", "ablate"])
    def test_manifest_names_every_file_read_or_written(self, workspace, tmp_path, command):
        ris_on = workspace["out"] / "dataset_ris_on.bin"
        checkpoint = tmp_path / "model_in.bin"
        save_model(RcnnModel(150, 128, 3), checkpoint)
        # inputs come from outside the output directory, which then holds
        # exactly what the command wrote
        inputs = {"optimize": [], "generate": [], "train": ["--dataset", ris_on],
                  "evaluate": ["--dataset", ris_on, "--model", checkpoint],
                  "ablate": ["--ris-on", ris_on]}[command]  # ablate renders ris_off
        out = tmp_path / "run"
        assert main([command, "--config", str(workspace["config"]), "--output", str(out),
                     *map(str, inputs)]) == 0
        written = set(out.iterdir()) - {out / f"manifest_{command}.json"}
        assert written
        assert _manifest_paths(out, command) == written | set(inputs[1::2])

    @pytest.mark.parametrize("command, callee, failing_call", [
        ("generate", "save_dataset", 2),  # after ris_on is saved
        ("train", "write_training_log", 1),  # after the checkpoint is saved
    ])
    def test_failed_command_writes_no_manifest(self, workspace, tmp_path, monkeypatch, capsys,
                                               command, callee, failing_call):
        original = getattr(trgr.cli, callee)
        calls = []

        def fails_once_reached(*args):
            calls.append(args)
            if len(calls) == failing_call:
                raise OSError("No space left on device")
            return original(*args)

        monkeypatch.setattr(f"trgr.cli.{callee}", fails_once_reached)
        out = tmp_path / "run"
        extra = ["--dataset", str(workspace["out"] / "dataset_ris_on.bin")] * (command == "train")
        assert main([command, "--config", str(workspace["config"]), "--output", str(out),
                     *extra]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            "error: No space left on device"]
        assert list(out.iterdir())  # an artifact was written before the failure
        assert not list(out.glob("manifest_*.json"))

    @pytest.mark.parametrize("command, override", [
        # the first dataset save refuses magnitudes beyond float32
        ("generate", {"scenario": {"noise_variance": 1e80}}),
        # training past float32's range stops in the first epoch
        ("train", {"train": {"learning_rate": 1e12}}),
    ])
    @pytest.mark.parametrize("output", ["run", "nested/run"])
    def test_failed_command_removes_the_directories_it_made(self, workspace, tmp_path, capsys,
                                                            command, override, output):
        cfg = write_config(tmp_path, tmp_path / output, **override)
        extra = ["--dataset", str(workspace["out"] / "dataset_ris_on.bin")] * (command == "train")
        assert main([command, "--config", str(cfg), *extra]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        first = {"generate": "error: refusing", "train": "error: training diverged in epoch 1:"}
        assert len(err) == 1 and err[0].startswith(first[command])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_failed_command_keeps_an_existing_empty_directory(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        cfg = write_config(tmp_path, out, scenario={"noise_variance": 1e80})
        assert main(["generate", "--config", str(cfg)]) == 1
        assert out.is_dir() and not list(out.iterdir())

    def test_main_runs_the_module_level_command(self, tmp_path, monkeypatch):
        # a wrapper set on the module (as the benchmark's tracer sets one) is
        # what the frame calls, with the resolved config
        seen = []
        monkeypatch.setattr("trgr.cli.cmd_generate", lambda cfg, args: seen.append(cfg) or {})
        cfg = write_config(tmp_path, tmp_path / "run")
        assert main(["generate", "--config", str(cfg)]) == 0
        assert len(seen) == 1 and isinstance(seen[0], ExperimentConfig)
        manifest = json.loads((tmp_path / "run" / "manifest_generate.json").read_text())
        assert manifest["artifacts"] == {}
        assert set(manifest["timings_s"]) == {"total"}


class TestConfigErrors:
    def test_unknown_key_is_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"sceanrio": {}}))
        assert main(["optimize", "--config", str(bad)]) == 1
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("command, section, key, value", [
        ("optimize", "optimizer", "probe_noise_std", float("nan")),
        ("generate", "scenario", "duration_s", float("inf")),
    ])
    def test_non_finite_float_fails_with_one_line(self, tmp_path, capsys,
                                                  command, section, key, value):
        out = tmp_path / "nonfinite"
        cfg = write_config(tmp_path, out, **{section: {key: value}})
        assert main([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and key in err[0]
        assert not out.exists()  # rejected before the output directory is made

    @pytest.mark.parametrize("command, size", [
        ("optimize", {"ris_rows": 0, "ris_cols": 0}),
        ("generate", {"ris_cols": -3}),
    ])
    def test_empty_surface_fails_before_any_search(self, tmp_path, capsys, command, size):
        out = tmp_path / "empty"
        cfg = write_config(tmp_path, out, scenario=size)
        assert main([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "ris_rows" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["optimize", "generate"])
    def test_overflowing_snr_fails_with_one_line(self, tmp_path, capsys, command):
        # |g|^2 / sigma^2 overflows at a subnormal noise variance; the search
        # stops there instead of reporting NaN gains or rendering with an
        # all-zeros codebook
        out = tmp_path / "faint"
        cfg = write_config(tmp_path, out, scenario={"noise_variance": 1e-320})
        assert main([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: SNR") and "not finite" in err[0]
        assert not out.exists()

    def test_wrong_typed_name_fails_before_any_dataset(self, tmp_path, capsys):
        out = tmp_path / "typed"
        cfg = write_config(tmp_path, out, scenario={"name": 5})
        assert main(["generate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not list(out.glob("dataset_*.bin"))


@pytest.mark.parametrize("exc, line", [
    (MemoryError("Unable to allocate 7.28 TiB for an array"),
     "error: Unable to allocate 7.28 TiB for an array"),
    (MemoryError(), "error: MemoryError"),
])
def test_memory_error_fails_with_one_line(monkeypatch, capsys, exc, line):
    # raised by a patched callee: a real oversized allocation could take the
    # machine's memory instead of raising
    def exhausted(*args):
        raise exc

    monkeypatch.setattr("trgr.cli.shape_chain", exhausted)
    assert main(["shapes"]) == 1
    assert capsys.readouterr().err.strip().splitlines() == [line]
