"""Runtime tracing of the trgr package for the benchmark's traced runs.

`Tracer.install` replaces public functions and layer methods under the name
where callers look them up (`trgr.ris.snr` is what the optimizer's probe
calls, `trgr.cli.train` is what the `train` command calls, `Conv2d.forward` is
what every model calls) and `uninstall` puts the originals back, so untraced
runs execute the package exactly as shipped.  Spans live in flat in-memory
arrays and are written once, at the end of the run.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import os
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

from harness import tail_percentile

RCNN_KINDS = {
    "conv": "Conv2d",
    "batchnorm": "BatchNorm2d",
    "relu": "ReLU",
    "maxpool": "MaxPool2d",
    "residual": "ResidualBlock",
    "linear": "Linear",
}


def _optimize_counts(args, kwargs, trace):
    return {"ris.proposed": len(trace.steps),
            "ris.accepted": sum(step.accepted for step in trace.steps)}


def _saved_bytes(args, kwargs, result):
    return {"pipeline.dataset_bytes": os.path.getsize(args[0])}


def _digested_bytes(args, kwargs, result):
    return {"config.digest_bytes": sum(Path(p).stat().st_size for p in args[2].values())}


def _predicted_frames(args, kwargs, result):
    return {"rcnn.predict.frames": int(args[1].shape[0])}


# (module, attribute, span name, counter hook)
FUNCTIONS = [
    ("trgr.gait", "frequency_response", "channel.frequency_response", None),
    ("trgr.gait", "combined_taps", "channel.combined_taps", None),
    ("trgr.ris", "snr", "channel.snr", None),
    ("trgr.cli", "snr", "channel.snr", None),
    ("trgr.ris", "line_flip", "codebook.line_flip", None),
    ("trgr.ris", "optimize", "ris.optimize", _optimize_counts),
    ("trgr.cli", "optimize", "ris.optimize", _optimize_counts),
    ("trgr.ris", "brute_force", "ris.brute_force", None),
    ("trgr.cli", "brute_force", "ris.brute_force", None),
    ("trgr.gait", "render_recording", "gait.render_recording", None),
    ("trgr.gait", "generate_dataset", "gait.generate_dataset", None),
    ("trgr.cli", "generate_dataset", "gait.generate_dataset", None),
    ("trgr.cli", "save_dataset", "pipeline.save_dataset", _saved_bytes),
    ("trgr.cli", "load_dataset", "pipeline.load_dataset", None),
    ("trgr.pipeline", "load_dataset", "pipeline.load_dataset", None),
    ("trgr.cli", "denoise_recording", "pipeline.denoise_recording", None),
    ("trgr.pipeline", "denoise_recording", "pipeline.denoise_recording", None),
    ("trgr.cli", "normalize", "pipeline.normalize", None),
    ("trgr.pipeline", "normalize", "pipeline.normalize", None),
    ("trgr.cli", "split_dataset", "pipeline.split_dataset", None),
    ("trgr.pipeline", "split_dataset", "pipeline.split_dataset", None),
    ("trgr.rcnn.training", "cross_entropy", "rcnn.loss", None),
    ("trgr.cli", "train", "rcnn.train", None),
    ("trgr.cli", "evaluate", "rcnn.evaluate", None),
    ("trgr.cli", "save_model", "rcnn.save_model", None),
    ("trgr.cli", "load_model", "rcnn.load_model", None),
    ("trgr.config", "resolve_config", "config.resolve_config", None),
    ("trgr.cli", "resolve_config", "config.resolve_config", None),
    ("trgr.cli", "build_manifest", "config.build_manifest", _digested_bytes),
    ("trgr.cli", "cmd_generate", "cli.generate", None),
    ("trgr.cli", "cmd_train", "cli.train", None),
    ("trgr.cli", "cmd_evaluate", "cli.evaluate", None),
]

# (module, class, method, span name, counter hook)
METHODS = [
    ("trgr.rcnn.layers", cls, method, f"rcnn.{kind}.{suffix}", None)
    for kind, cls in RCNN_KINDS.items()
    for method, suffix in (("forward", "fwd"), ("backward", "bwd"))
] + [
    ("trgr.rcnn.training", "Adam", "step", "rcnn.adam", None),
    ("trgr.rcnn.model", "RcnnModel", "backward", "rcnn.model.backward", None),
    ("trgr.rcnn.model", "RcnnModel", "predict", "rcnn.predict", _predicted_frames),
]

FORWARD_TRAIN = "rcnn.model.forward_train"
FORWARD_EVAL = "rcnn.model.forward_eval"

# Every per-layer metric the traced run reports, with its unit.  Metrics of
# layers a workload does not exercise read 0.
PER_LAYER_UNITS = {
    "channel.frequency_response.calls": "count",
    "channel.frequency_response.s": "s",
    "channel.combined_taps.s": "s",
    "channel.snr.calls": "count",
    "channel.snr.s": "s",
    "codebook.line_flip.calls": "count",
    "codebook.line_flip.s": "s",
    "codebook.constructed": "count",
    "ris.optimize.s": "s",
    "ris.brute_force.s": "s",
    "ris.probes": "count",
    "ris.accept_ratio": "ratio",
    "gait.render_recording.calls": "count",
    "gait.render_recording.self_s": "s",
    "gait.generate_dataset.s": "s",
    "pipeline.save_dataset.s": "s",
    "pipeline.load_dataset.s": "s",
    "pipeline.dataset_bytes": "bytes",
    "pipeline.denoise_recording.s": "s",
    "pipeline.normalize.s": "s",
    "pipeline.split_dataset.s": "s",
    "pipeline.prepare_mb_per_s": "MB/s",
    **{f"rcnn.{kind}.{part}": unit
       for kind in RCNN_KINDS
       for part, unit in (("fwd_s", "s"), ("bwd_s", "s"), ("calls", "count"))},
    "rcnn.loss.s": "s",
    "rcnn.adam.s": "s",
    "rcnn.step_ms.p50": "ms",
    "rcnn.step_ms.tail": "ms",
    "rcnn.step_ms.tail_pct": "%",
    "rcnn.step_ms.samples": "count",
    "rcnn.predict.s": "s",
    "rcnn.predict.frames": "count",
    "rcnn.conv.macs": "count",
    "rcnn.conv.im2col_bytes": "bytes",
    "rcnn.save_model.s": "s",
    "rcnn.load_model.s": "s",
    "config.resolve_config.s": "s",
    "config.build_manifest.s": "s",
    "config.digest_bytes": "bytes",
    "cli.generate.s": "s",
    "cli.train.s": "s",
    "cli.evaluate.s": "s",
    "trace.spans": "count",
    "trace_delta.setup_s": "s",
    "trace_delta.primary_per_s": "items/s",
    "trace_delta.secondary_per_s": "items/s",
    "trace_delta.peak_rss_mb": "MB",
}


class Tracer:
    """Spans (name, start, end, parent, cycle) in flat arrays plus counters.

    `cycle` is -1 for the traced set-up repetition and the closed-loop cycle
    index otherwise; `run_id` identifies every span of one benchmark run.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.cycle_of = array("i")
        self.counters: Counter = Counter()
        self.cycle = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, name_id: int, fn, args, kwargs):
        sid = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.cycle_of.append(self.cycle)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[sid] = perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str, hook):
        name_id = self._intern(name)
        span, counters = self._span, self.counters

        if hook is None:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return span(name_id, fn, args, kwargs)
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                result = span(name_id, fn, args, kwargs)
                counters.update(hook(args, kwargs, result))
                return result
        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for module, attr, name, hook in FUNCTIONS:
            owner = importlib.import_module(module)
            self._patch(owner, attr, self._wrap(getattr(owner, attr), name, hook))
        for module, cls_name, method, name, hook in METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            self._patch(cls, method, self._wrap(getattr(cls, method), name, hook))

        model_cls = importlib.import_module("trgr.rcnn.model").RcnnModel
        forward = model_cls.forward
        train_id, eval_id = self._intern(FORWARD_TRAIN), self._intern(FORWARD_EVAL)
        span = self._span

        def traced_forward(model, batch, training=False):
            return span(train_id if training else eval_id, forward, (model, batch, training), {})

        self._patch(model_cls, "forward", traced_forward)

        codebook_cls = importlib.import_module("trgr.codebook").Codebook
        init, counters = codebook_cls.__init__, self.counters

        def counted_init(codebook, grid):
            counters["codebook.constructed"] += 1
            init(codebook, grid)

        self._patch(codebook_cls, "__init__", counted_init)

    @contextlib.contextmanager
    def suspended(self):
        """Run the package untraced for the duration, e.g. while outputs are checked."""
        active = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in self._patches]
        for owner, attr, original in self._patches:
            setattr(owner, attr, original)
        try:
            yield
        finally:
            for owner, attr, replacement in active:
                setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            np.savez_compressed(
                fh, run_id=np.array(self.run_id), names=np.array(self.names),
                name_id=np.frombuffer(self.name_id, dtype=np.int32),
                start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                parent=np.frombuffer(self.parent, dtype=np.int64),
                cycle=np.frombuffer(self.cycle_of, dtype=np.int32))

    def layer_metrics(self) -> dict[str, float]:
        """Aggregate every span and counter into the per-layer metrics.

        A span's self time is its duration minus the durations of its direct
        children; spans never overlap their siblings because the program is
        single-threaded."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        start, end = np.frombuffer(self.start), np.frombuffer(self.end)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = end - start
        nested = parent >= 0
        self_time = dur - np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)

        def mask(name):
            return name_id == self._ids.get(name, -1)

        def total(name):
            return float(dur[mask(name)].sum())

        def self_total(name):
            return float(self_time[mask(name)].sum())

        def calls(name):
            return int(mask(name).sum())

        out = {name: 0.0 for name in PER_LAYER_UNITS}
        for name in ("channel.frequency_response", "channel.snr", "codebook.line_flip",
                     "gait.render_recording"):
            out[f"{name}.calls"] = calls(name)
        for name in ("channel.frequency_response", "channel.combined_taps", "channel.snr",
                     "codebook.line_flip", "ris.optimize", "ris.brute_force",
                     "gait.generate_dataset", "pipeline.save_dataset", "pipeline.load_dataset",
                     "pipeline.denoise_recording", "pipeline.normalize", "pipeline.split_dataset",
                     "rcnn.loss", "rcnn.adam", "rcnn.predict", "rcnn.save_model",
                     "rcnn.load_model", "config.resolve_config", "config.build_manifest",
                     "cli.generate", "cli.train", "cli.evaluate"):
            out[f"{name}.s"] = total(name)
        out["gait.render_recording.self_s"] = self_total("gait.render_recording")
        for kind in RCNN_KINDS:
            out[f"rcnn.{kind}.fwd_s"] = self_total(f"rcnn.{kind}.fwd")
            out[f"rcnn.{kind}.bwd_s"] = self_total(f"rcnn.{kind}.bwd")
            out[f"rcnn.{kind}.calls"] = calls(f"rcnn.{kind}.fwd")

        searches = mask("ris.optimize") | mask("ris.brute_force")
        probe_parents = parent[mask("channel.snr") & nested]
        out["ris.probes"] = int(searches[probe_parents].sum())
        proposed = self.counters["ris.proposed"]
        out["ris.accept_ratio"] = self.counters["ris.accepted"] / proposed if proposed else 0.0
        for name in ("codebook.constructed", "pipeline.dataset_bytes", "config.digest_bytes",
                     "rcnn.predict.frames"):
            out[name] = int(self.counters[name])

        steps = step_durations_ms(start, end, mask(FORWARD_TRAIN), mask("rcnn.adam"))
        if steps.size:
            pct, tail = tail_percentile(steps.tolist())
            out["rcnn.step_ms.p50"] = float(np.median(steps))
            out["rcnn.step_ms.tail"] = tail
            out["rcnn.step_ms.tail_pct"] = pct
        out["rcnn.step_ms.samples"] = int(steps.size)
        out["trace.spans"] = int(dur.size)
        return out


def step_durations_ms(start, end, forward_train, adam) -> np.ndarray:
    """A training step runs from a training-mode forward to the next Adam step's end."""
    fwd_start = start[forward_train]
    adam_start, adam_end = start[adam], end[adam]
    idx = np.searchsorted(fwd_start, adam_start, side="right") - 1
    ok = idx >= 0
    return (adam_end[ok] - fwd_start[idx[ok]]) * 1000.0
