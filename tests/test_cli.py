"""End-to-end checks of every subcommand on a reduced-size configuration."""
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from trgr.cli import main
from trgr.codebook import Codebook
from trgr.pipeline import load_dataset
from trgr.rcnn.model import load_model, save_model

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

        cb = Codebook.from_text((out / "codebook.txt").read_text())
        assert (cb.rows, cb.cols) == (4, 4)

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
            assert recs[0].shape == (150, 128)
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


def test_desk_datasets_match_golden_digests(tmp_path):
    assert main(["generate", "--config", str(DESK_CONFIG), "--output", str(tmp_path)]) == 0
    for name, digest in DESK_DATASET_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# sha256 of a 2-epoch `trgr train` on the TINY config's ris_on dataset;
# refactors of the network, the training loop or the checkpoint format must
# keep these bytes.
TINY_TRAIN_SHA256 = {
    "model.bin": "3b807c5eadd69f4bfc07d625a629fd66d537be20494934da295d5437de75e833",
    "training_log.csv": "2489b95f17d9367c6e07060a395d73552b70462b6886ccd31f0bfa88b0d1f406",
}


def test_tiny_training_matches_golden_digests(workspace, tmp_path):
    assert main(["train", "--config", str(workspace["config"]), "--output", str(tmp_path),
                 "--dataset", str(workspace["out"] / "dataset_ris_on.bin")]) == 0
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

    def test_missing_dataset_fails_with_its_path(self, tmp_path, capsys):
        out = tmp_path / "nowhere"
        cfg = write_config(tmp_path, out)
        assert main(["train", "--config", str(cfg),
                     "--dataset", str(out / "ghost.bin")]) == 1
        err = capsys.readouterr().err
        assert "ghost.bin" in err


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
    def test_each_split_choice(self, workspace, capsys):
        for split in ("test", "train", "all"):
            assert main(["evaluate", "--config", str(workspace["config"]),
                         "--split", split]) == 0
            doc = json.loads((workspace["out"] / "eval_metrics.json").read_text())
            assert doc["split"] == split
            assert 0.0 <= doc["accuracy_pct"] <= 100.0
        assert "all: accuracy" in capsys.readouterr().out

    def test_missing_checkpoint_fails_with_its_path(self, tmp_path, capsys):
        out = tmp_path / "e"
        cfg = write_config(tmp_path, out)
        assert main(["evaluate", "--config", str(cfg),
                     "--model", str(out / "missing_model.bin")]) == 1
        assert "missing_model.bin" in capsys.readouterr().err


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


class TestConfigErrors:
    def test_unknown_key_is_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"sceanrio": {}}))
        assert main(["optimize", "--config", str(bad)]) == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_wrong_typed_name_fails_before_any_dataset(self, tmp_path, capsys):
        out = tmp_path / "typed"
        cfg = write_config(tmp_path, out, scenario={"name": 5})
        assert main(["generate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not list(out.glob("dataset_*.bin"))
