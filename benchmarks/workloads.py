"""The three benchmark workloads.

Each is a closed loop with one client in one process: the next operation
starts only when the previous one has returned.  `setup` builds everything the
timed part needs from the workload seed and may run several times; `cycle`
runs one timed cycle, checks its outputs and returns its timed operations,
computed counts and output digests.  Every call into trgr goes through a
module attribute or a method, so the tracer's wrappers see it.

- desk-train: `trgr train` then `trgr evaluate --split all` on configs/desk.json
  (2 epochs).  primary = train frames/s, secondary = inference frames/s.
- full-geometry: the paper's 150x8192 frames with 10 classes; the per-batch
  calls `train()` makes, at B=2, then `RcnnModel.predict` at its default chunk
  on 4 frames.  primary = train frames/s, secondary = inference frames/s.
- desk-synth: `trgr generate` on configs/desk.json; greedy `optimize` and
  `brute_force` on one random surface of every size 1x1..4x4 (cycle k takes
  surface k mod 7 of the criterion-2 sweep); then load + denoise + normalize
  + split of both datasets.  primary = recordings/s, secondary = probes/s.
"""
from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import time
from pathlib import Path
from typing import Callable

import numpy as np

import trgr.channel
import trgr.cli
import trgr.codebook
import trgr.config
import trgr.gait
import trgr.pipeline
import trgr.ris
import trgr.seeds
from trgr.rcnn import layers, model as rcnn_model, training

from harness import Ops, Samples


@dataclasses.dataclass
class Context:
    root: Path
    work: Path
    seed: int
    ops: Ops
    # context manager under which output checks run (pauses tracing)
    unobserved: Callable = contextlib.nullcontext


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def conv_counts(model, batch: int) -> tuple[int, int]:
    """Forward-pass conv multiply-accumulates and im2col bytes of one batch,
    computed from the model's layer shapes."""
    itemsize = model.dtype.itemsize
    macs = cols = 0

    def conv(layer, h, w):
        nonlocal macs, cols
        (kh, kw), (sh, sw), (ph, pw) = layer.kernel, layer.stride, layer.padding
        oh = layers.conv_output_size(h, kh, sh, ph)
        ow = layers.conv_output_size(w, kw, sw, pw)
        macs += batch * layer.c_out * oh * ow * layer.c_in * kh * kw
        cols += batch * layer.c_in * kh * kw * oh * ow * itemsize
        return oh, ow

    h, w = model.frame_height, model.frame_width
    for layer in model.layers:
        if isinstance(layer, layers.Conv2d):
            h, w = conv(layer, h, w)
        elif isinstance(layer, layers.ResidualBlock):
            oh, ow = conv(layer.conv1, h, w)
            conv(layer.conv2, oh, ow)
            if layer.shortcut_conv is not None:
                conv(layer.shortcut_conv, h, w)
            h, w = oh, ow
        elif isinstance(layer, layers.MaxPool2d):
            h, w = h // layer.kernel, w // layer.kernel
    return macs, cols


def desk_config(ctx: Context, **overrides) -> Path:
    """configs/desk.json with the workload seed, a private output directory
    and the given per-section overrides, written into the work directory."""
    doc = json.loads((ctx.root / "configs" / "desk.json").read_text())
    doc["seed"] = ctx.seed
    doc["output_dir"] = str(ctx.work / "out")
    for section, values in overrides.items():
        doc.setdefault(section, {}).update(values)
    path = ctx.work / "config.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


class Workload:
    # conv MACs / im2col bytes of one training step, 0 where no CNN runs
    step_conv_counts = (0, 0)

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.ops = ctx.ops

    def setup(self) -> None:
        raise NotImplementedError

    def cycle(self, index: int) -> Samples:
        raise NotImplementedError

    def measure(self, budget_s: float) -> Samples:
        """Run cycles while the next one is expected to end inside the budget;
        at least one."""
        pooled = Samples()
        t0 = time.perf_counter()
        index = 0
        while True:
            started = time.perf_counter()
            pooled.extend(self.cycle(index))
            index += 1
            now = time.perf_counter()
            if now - t0 + (now - started) > budget_s:
                return pooled

    def traced_pass(self, index: int) -> Samples:
        """One cycle of fixed work, so traced counts repeat exactly."""
        return self.cycle(index)

    def cli(self, *argv: str) -> int:
        """Run one `trgr` command in-process; its printed output is discarded."""
        self.ops.begin()
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = trgr.cli.main(list(argv))
        self.ops.check(f"trgr {argv[0]} exit code", rc == 0, f"{rc}: {err.getvalue().strip()}")
        return rc

    def check_manifest(self, path: Path) -> None:
        """Every artifact the manifest names exists with the recorded sha256 and size."""
        manifest = json.loads(path.read_text())
        for name, entry in manifest["artifacts"].items():
            artifact = Path(entry["path"])
            ok = (artifact.is_file() and artifact.stat().st_size == entry["bytes"]
                  and sha256(artifact) == entry["sha256"])
            self.ops.check(f"{path.name}: {name} sha256", ok, str(artifact))

    def check_split(self, split, what: str) -> None:
        """Per class, the train part holds round(2n/3) of the n recordings."""
        train, total = {}, {}
        for rec in split.train:
            train[rec.label] = train.get(rec.label, 0) + 1
        for rec in split.train + split.test:
            total[rec.label] = total.get(rec.label, 0) + 1
        ok = all(train.get(label, 0) == math.floor(2 * n / 3 + 0.5) for label, n in total.items())
        self.ops.check(f"{what} split sizes", ok, f"train {train} of {total}")

    def check_optimizer(self, cfg):
        """The optimizer never ends below the all-zeros codebook, and on the
        shipped desk config (criterion 3) it gains at least 6 dB; returns the
        codebook it finds for `cfg`."""
        def search(cfg):
            scenario = cfg.scenario
            probe = trgr.ris.snr_probe(scenario.ris, scenario.noise, cfg.probe_noise_std,
                                       cfg.probe_seed)
            initial = trgr.codebook.Codebook.zeros(cfg.ris_rows, cfg.ris_cols)
            trace = trgr.ris.optimize(probe, initial, cfg.outer_iters)
            gain_db = 10.0 * math.log10(
                trgr.channel.snr(scenario.ris, trace.best_codebook, scenario.noise)
                / trgr.channel.snr(scenario.ris, initial, scenario.noise))
            return gain_db, trace.best_codebook

        gain_db, codebook = search(cfg)
        self.ops.check("optimizer gain >= 0 dB", gain_db >= 0.0, f"{gain_db:.2f} dB")
        desk_gain_db, _ = search(trgr.config.load_config(self.ctx.root / "configs" / "desk.json"))
        self.ops.check("desk.json optimizer gain >= 6 dB", desk_gain_db >= 6.0,
                       f"{desk_gain_db:.2f} dB")
        return codebook


class DeskTrain(Workload):
    EPOCHS = 2

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.config = desk_config(ctx, train={"epochs": self.EPOCHS})
        cfg = trgr.config.load_config(self.config)
        self.out = cfg.output_dir
        self.class_count = len(cfg.profiles)
        self.frame = (cfg.scenario.packet_count, cfg.scenario.grid.count)
        self.step_conv_counts = conv_counts(rcnn_model.RcnnModel(*self.frame, self.class_count),
                                            cfg.train.batch_size)
        self.check_optimizer(cfg)

    def setup(self) -> None:
        self.cli("generate", "--config", str(self.config))
        self.check_manifest(self.out / "manifest_generate.json")
        # first BLAS calls: one training step at B=2
        model = rcnn_model.RcnnModel(*self.frame, self.class_count)
        logits = model.forward(np.zeros((2, 1, *self.frame)), training=True)
        model.backward(training.cross_entropy(logits, np.array([0, 1]))[1])

    def cycle(self, index: int) -> Samples:
        t0 = time.perf_counter()
        self.cli("train", "--config", str(self.config))
        train_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        self.cli("evaluate", "--config", str(self.config), "--split", "all")
        eval_s = time.perf_counter() - t0

        out = self.out
        self.check_manifest(out / "manifest_train.json")
        self.check_manifest(out / "manifest_evaluate.json")
        with open(out / "training_log.csv") as fh:
            rows = list(csv.DictReader(fh))
        losses = [float(row["loss"]) for row in rows]
        self.ops.check("losses finite", len(rows) == self.EPOCHS and all(map(math.isfinite, losses)),
                       str(losses))
        test = json.loads((out / "metrics.json").read_text())
        every = json.loads((out / "eval_metrics.json").read_text())
        self.ops.check("test accuracy above chance", test["accuracy_pct"] > 100.0 / self.class_count,
                       f"{test['accuracy_pct']}%")

        test_frames = int(np.sum(test["confusion"]))
        all_frames = int(np.sum(every["confusion"]))
        train_frames = all_frames - test_frames
        samples = Samples()
        samples.add("primary_per_s", self.EPOCHS * train_frames, train_s)
        samples.add("secondary_per_s", all_frames, eval_s)
        macs, cols = self.step_conv_counts
        samples.counts.append({
            "train_frames": train_frames, "eval_frames": all_frames,
            "conv_macs_per_step": macs, "im2col_bytes_per_step": cols,
            "dataset_bytes": (out / "dataset_ris_on.bin").stat().st_size,
        })
        samples.digests.append({"checkpoint_sha256": sha256(out / "model.bin")})
        return samples


class FullGeometry(Workload):
    """Training steps and inference on the paper's frame size.

    `train()` itself is not called: its per-epoch accuracy pass predicts 20
    frames in one 32-frame chunk with every layer's backward cache held, which
    peaked at 6.3 GB RSS for one epoch on an 8 GB machine.
    """

    BATCH = 2
    PREDICT_FRAMES = 4
    TRAIN_SHARE = 0.6      # of a time-boxed window spent on training steps
    MIN_STEPS, MIN_PREDICTS = 5, 3

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.config = desk_config(ctx, scenario={"subcarriers": 8192}, subjects={"count": 10},
                                  dataset={"episodes_per_subject": 3},
                                  train={"batch_size": self.BATCH})
        self.state = None

    def setup(self) -> None:
        self.state = None
        cfg = trgr.config.load_config(self.config)
        scenario = cfg.scenario
        probe = trgr.ris.snr_probe(scenario.ris, scenario.noise, cfg.probe_noise_std, cfg.probe_seed)
        trace = trgr.ris.optimize(probe, trgr.codebook.Codebook.zeros(cfg.ris_rows, cfg.ris_cols),
                                  cfg.outer_iters)
        recordings = trgr.gait.generate_dataset(cfg.profiles, scenario, trace.best_codebook,
                                                cfg.episodes_per_subject, cfg.dataset_seed)
        self.rendered = len(recordings)
        prepared = [trgr.pipeline.normalize(trgr.pipeline.denoise_recording(rec, cfg.filter_spec))
                    for rec in recordings]
        del recordings
        split = trgr.pipeline.split_dataset(prepared, cfg.split_seed)
        self.check_split(split, "full-geometry")
        x_train, y_train = training.recordings_to_arrays(split.train)
        x_pred, _ = training.recordings_to_arrays(split.test[:self.PREDICT_FRAMES])
        del prepared, split
        t, s = x_train.shape[2:]
        model = rcnn_model.RcnnModel(t, s, len(cfg.profiles), seed=cfg.model_seed)
        tc = cfg.train
        adam = training.Adam(model.parameters(), tc.learning_rate, tc.beta1, tc.beta2, tc.eps)
        self.class_count = model.class_count
        self.step_conv_counts = conv_counts(model, self.BATCH)
        self.state = {"x": x_train, "y": y_train, "x_pred": x_pred, "model": model, "adam": adam,
                      "rng": np.random.default_rng(tc.seed), "order": []}
        self.step()  # first BLAS calls and first touch of the step's buffers

    def step(self) -> float:
        """One training step as `train()` makes it; returns its wall seconds."""
        st = self.state
        if not st["order"]:
            st["order"] = list(st["rng"].permutation(st["x"].shape[0]).reshape(-1, self.BATCH))
        batch = st["order"].pop(0)
        self.ops.begin()
        t0 = time.perf_counter()
        logits = st["model"].forward(st["x"][batch], training=True)
        loss, grad = training.cross_entropy(logits, st["y"][batch])
        st["model"].backward(grad)
        st["adam"].step()
        wall = time.perf_counter() - t0
        self.ops.check("loss finite", math.isfinite(loss), str(loss))
        return wall

    def predict(self) -> float:
        self.ops.begin()
        t0 = time.perf_counter()
        labels = self.state["model"].predict(self.state["x_pred"])
        wall = time.perf_counter() - t0
        ok = labels.shape == (self.PREDICT_FRAMES,) and bool(np.all((labels >= 0) & (labels < self.class_count)))
        self.ops.check("predict labels in [0, K)", ok, str(labels))
        return wall

    def run(self, train_until, predict_until, min_steps: int, min_predicts: int) -> Samples:
        samples = Samples()
        steps = predicts = 0
        while steps < min_steps or time.perf_counter() < train_until:
            samples.add("primary_per_s", self.BATCH, self.step())
            steps += 1
        while predicts < min_predicts or time.perf_counter() < predict_until:
            samples.add("secondary_per_s", self.PREDICT_FRAMES, self.predict())
            predicts += 1
        macs, cols = self.step_conv_counts
        samples.counts.append({
            "recordings": self.rendered, "train_frames": int(self.state["x"].shape[0]),
            "predict_frames": self.PREDICT_FRAMES,
            "conv_macs_per_step": macs, "im2col_bytes_per_step": cols,
        })
        return samples

    def measure(self, budget_s: float) -> Samples:
        t0 = time.perf_counter()
        return self.run(t0 + self.TRAIN_SHARE * budget_s, t0 + budget_s,
                        self.MIN_STEPS, self.MIN_PREDICTS)

    def traced_pass(self, index: int) -> Samples:
        # one pass over the train split, then the minimum number of predicts
        steps = self.state["x"].shape[0] // self.BATCH
        return self.run(0.0, 0.0, steps, self.MIN_PREDICTS)


class DeskSynth(Workload):
    """No CNN: channel, codebook, optimizer, render and dataset pipeline."""

    SURFACES = 7          # random surfaces per size, as in acceptance criterion 2
    MAX_SIDE = 4          # sizes 1x1 .. 4x4
    OUTER_ITERS = 5

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.config = desk_config(ctx)
        self.cfg = trgr.config.load_config(self.config)
        self.out = self.cfg.output_dir
        self.codebook = self.check_optimizer(self.cfg)

    def setup(self) -> None:
        noise = trgr.channel.NoiseSpec(variance=1.0)
        self.surfaces = []
        for k in range(self.SURFACES):
            group = []
            for rows in range(1, self.MAX_SIDE + 1):
                for cols in range(1, self.MAX_SIDE + 1):
                    n = rows * cols
                    rng = np.random.default_rng(trgr.seeds.mix_seeds(self.ctx.seed, rows, cols, k))
                    ris = trgr.channel.RisChannel(
                        rng.standard_normal(n) + 1j * rng.standard_normal(n),
                        rng.standard_normal(n) + 1j * rng.standard_normal(n),
                        np.full(n, 25e-9))
                    group.append((rows, cols, trgr.ris.snr_probe(ris, noise)))
            self.surfaces.append(group)
        # the first render, dataset write and search of a process run slower
        # (fresh heap, new files), so one of each happens here
        self.cli("generate", "--config", str(self.config))
        rows, cols, probe = self.surfaces[0][0]
        trgr.ris.brute_force(probe, rows, cols)

    def cycle(self, index: int) -> Samples:
        samples = Samples()
        # (a) trgr generate
        t0 = time.perf_counter()
        self.cli("generate", "--config", str(self.config))
        generate_s = time.perf_counter() - t0
        # (b) greedy optimizer and exhaustive oracle on one surface of every size
        results = []
        t0 = time.perf_counter()
        for rows, cols, probe in self.surfaces[index % self.SURFACES]:
            self.ops.begin()
            trace = trgr.ris.optimize(probe, trgr.codebook.Codebook.zeros(rows, cols),
                                      self.OUTER_ITERS)
            _, best = trgr.ris.brute_force(probe, rows, cols)
            results.append((rows, cols, trace, best))
        search_s = time.perf_counter() - t0
        # (c) load, denoise, normalize and split both datasets
        paths = {"ris_on": self.out / "dataset_ris_on.bin", "ris_off": self.out / "dataset_ris_off.bin"}
        loaded, splits = {}, {}
        t0 = time.perf_counter()
        for name, path in paths.items():
            self.ops.begin()
            loaded[name] = trgr.pipeline.load_dataset(path)
            prepared = [trgr.pipeline.normalize(trgr.pipeline.denoise_recording(rec, self.cfg.filter_spec))
                        for rec in loaded[name]]
            splits[name] = trgr.pipeline.split_dataset(prepared, self.cfg.split_seed)
        prepare_s = time.perf_counter() - t0

        self.check_manifest(self.out / "manifest_generate.json")
        probes = 0
        for rows, cols, trace, best in results:
            probes += 2 * len(trace.steps) + (1 << (rows * cols))
            gap = trace.best_strength - best
            self.ops.check(f"greedy never beats the oracle ({rows}x{cols})", gap <= 1e-9, f"gap {gap:.3g}")
            accepted = trace.accepted_strengths()
            self.ops.check(f"accepted strengths increase ({rows}x{cols})",
                           all(b > a for a, b in zip(accepted, accepted[1:])))
        for name, split in splits.items():
            self.check_split(split, name)
        with self.ctx.unobserved():
            self.check_saved_renders(loaded)

        recordings = sum(len(recs) for recs in loaded.values())
        float32_bytes = sum(rec.magnitudes.size * 4 for recs in loaded.values() for rec in recs)
        samples.add("primary_per_s", recordings, generate_s)
        samples.add("secondary_per_s", probes, search_s)
        samples.add("prepare_mb_per_s", float32_bytes / 1e6, prepare_s)
        samples.counts.append({
            "recordings": recordings, "probes": probes, "prepared_bytes": float32_bytes,
            "dataset_bytes": sum(path.stat().st_size for path in paths.values()),
        })
        return samples

    def check_saved_renders(self, loaded) -> None:
        """Loaded magnitudes equal the float32 cast of a fresh render (first and
        last recording of each dataset)."""
        cfg = self.cfg
        off_scenario = dataclasses.replace(cfg.scenario, ris=trgr.channel.RisChannel.empty())
        setups = {"ris_on": (cfg.scenario, self.codebook),
                  "ris_off": (off_scenario, trgr.codebook.Codebook.zeros(0, 0))}
        for name, recs in loaded.items():
            scenario, codebook = setups[name]
            for rec in (recs[0], recs[-1]):
                fresh = trgr.gait.render_recording(cfg.profiles[rec.label], scenario, codebook,
                                                   rec.episode_seed)
                expected = fresh.magnitudes.astype(np.float32).astype(np.float64)
                self.ops.check(f"{name} save/load equals float32 render",
                               np.array_equal(rec.magnitudes, expected))


WORKLOADS = {"desk-train": DeskTrain, "full-geometry": FullGeometry, "desk-synth": DeskSynth}
