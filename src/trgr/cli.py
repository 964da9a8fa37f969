"""Command-line harness tying the simulator, optimizer, and classifier together.

Subcommands:
    shapes     print the network's layer-by-layer output sizes
    optimize   tune the 1-bit RIS codebook and report the SNR gain
    generate   synthesize the ris_on / ris_off CSI datasets
    train      fit the classifier on a dataset and report test metrics
    evaluate   score a saved checkpoint on a dataset
    ablate     train on both datasets and report the accuracy delta

Every command but `shapes` takes (config, args) and returns each file it read
or wrote, by name.  `main` is the one frame around it: it resolves the JSON
config (`config.DEFAULTS` is its schema), times the command and writes
`manifest_<command>.json` over those files, so a command that fails writes no
manifest.  Artifacts go under the output directory, which the first artifact
creates; exit 0 means all outputs were written and the internal audits passed.
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import time
from pathlib import Path

import numpy as np

from .channel import RisChannel, snr
from .codebook import Codebook
from .config import (
    ExperimentConfig,
    build_manifest,
    load_config,
    resolve_config,
    write_json,
)
from .gait import generate_dataset
from .pipeline import denoise_recording, load_dataset, normalize, save_dataset, split_dataset
from .rcnn.model import RcnnModel, load_model, save_model, shape_chain
from .rcnn.training import evaluate, recordings_to_arrays, train, write_training_log
from .ris import BRUTE_FORCE_MAX_BITS, brute_force, optimize, snr_probe


def _output(cfg: ExperimentConfig, name: str) -> Path:
    """The artifact `name` under the output directory, which the first artifact
    creates, so a command that fails on its inputs leaves nothing behind."""
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    return cfg.output_dir / name


def _existing(path, what: str) -> Path:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"{what} not found: {path}")
    return path


def _percent(x: float) -> float:
    return round(100.0 * x, 2)


def _metrics_doc(metrics) -> dict:
    return {
        "accuracy_pct": _percent(metrics.accuracy),
        "recall_pct": _percent(metrics.macro_recall),
        "precision_pct": _percent(metrics.macro_precision),
        "f1_pct": _percent(metrics.macro_f1),
        "confusion": metrics.confusion.tolist(),
    }


def _print_metrics(prefix: str, doc: dict) -> None:
    print(f"{prefix} accuracy {doc['accuracy_pct']:.2f}%  recall {doc['recall_pct']:.2f}%  "
          f"precision {doc['precision_pct']:.2f}%  f1 {doc['f1_pct']:.2f}%")


def _search(cfg: ExperimentConfig):
    """The audited line-flip search from the all-zeros codebook: (probe, trace)."""
    probe = snr_probe(cfg.scenario.ris, cfg.scenario.noise, cfg.probe_noise_std, cfg.probe_seed)
    trace = optimize(probe, Codebook.zeros(cfg.ris_rows, cfg.ris_cols), cfg.outer_iters)
    accepted = trace.accepted_strengths()
    # a noisy probe re-measures on every visit, so only exact readings must rise
    if cfg.probe_noise_std == 0 and any(b <= a for a, b in zip(accepted, accepted[1:])):
        raise ValueError("optimizer audit failed: accepted strengths are not increasing")
    return probe, trace


def cmd_optimize(cfg: ExperimentConfig, args) -> dict[str, Path]:
    probe, trace = _search(cfg)
    scenario = cfg.scenario
    rho_initial = snr(scenario.ris, Codebook.zeros(cfg.ris_rows, cfg.ris_cols), scenario.noise)
    rho_optimized = snr(scenario.ris, trace.best_codebook, scenario.noise)
    report = {
        "elements": scenario.ris.n_elements,
        "outer_iters": cfg.outer_iters,
        "snr_initial": rho_initial,
        "snr_optimized": rho_optimized,
        "gain_db": 10.0 * math.log10(rho_optimized / rho_initial),
        "accepted_flips": len(trace.accepted_strengths()),
    }
    print(f"snr initial {rho_initial:.6g}  optimized {rho_optimized:.6g}  "
          f"gain {report['gain_db']:.2f} dB")
    if scenario.ris.n_elements <= BRUTE_FORCE_MAX_BITS:
        # the oracle reads its own fresh stream from the same probe settings
        _, best = brute_force(probe, cfg.ris_rows, cfg.ris_cols)
        report["brute_force_strength"] = best
        report["gap_to_brute_force"] = best - trace.best_strength
        print(f"brute force strength {best:.6g}  gap {report['gap_to_brute_force']:.3g}")
    paths = {"codebook": _output(cfg, "codebook.txt"), "trace": _output(cfg, "trace.csv"),
             "snr_report": _output(cfg, "snr_report.json")}
    paths["codebook"].write_text(trace.best_codebook.to_text())
    trace.to_csv(paths["trace"])
    write_json(paths["snr_report"], report)
    return paths


def _dataset(cfg: ExperimentConfig, name: str, given: str | None) -> Path:
    """The dataset file `given`, which must exist, or else the default for `name`."""
    return _existing(given, "dataset") if given else cfg.output_dir / f"dataset_{name}.bin"


def _generate_datasets(cfg: ExperimentConfig, names) -> dict[str, Path]:
    """Render and save each named dataset (ris_on, ris_off) to its default path."""
    # reject a config whose datasets could not be split or trained on before
    # spending the optimizer and render time on it
    shape_chain(cfg.scenario.packet_count, cfg.scenario.grid.count, len(cfg.profiles))
    if cfg.episodes_per_subject < 3:
        raise ValueError(f"episodes_per_subject is {cfg.episodes_per_subject}, "
                         "need at least 3 to split each subject")
    paths = {}
    for name in names:
        if name == "ris_on":
            scenario, codebook = cfg.scenario, _search(cfg)[1].best_codebook
        else:  # the same room with the surface removed needs no codebook
            scenario = dataclasses.replace(cfg.scenario, ris=RisChannel.empty())
            codebook = Codebook.zeros(0, 0)
        recordings = generate_dataset(cfg.profiles, scenario, codebook,
                                      cfg.episodes_per_subject, cfg.dataset_seed)
        paths[name] = _output(cfg, f"dataset_{name}.bin")
        save_dataset(paths[name], recordings)
        del recordings  # freed before the next dataset renders
    return paths


def cmd_generate(cfg: ExperimentConfig, args) -> dict[str, Path]:
    paths = _generate_datasets(cfg, ("ris_on", "ris_off"))
    count = len(cfg.profiles) * cfg.episodes_per_subject
    t, s = cfg.scenario.packet_count, cfg.scenario.grid.count
    for name, path in paths.items():
        print(f"{name}: {count} recordings of {t}x{s} -> {path}")
    return paths


def _prepared_split(cfg: ExperimentConfig, dataset_path: Path):
    """The dataset smoothed, normalized and split: stacked (frames, labels) for
    train and for test.  The per-record lists die here, before any training."""
    split = split_dataset([normalize(denoise_recording(rec, cfg.filter_spec))
                           for rec in load_dataset(_existing(dataset_path, "dataset"))],
                          cfg.split_seed)
    return recordings_to_arrays(split.train), recordings_to_arrays(split.test)


def _class_count(labels: list[int]) -> int:
    labels = sorted(set(labels))
    if len(labels) < 2:
        raise ValueError("training needs at least two classes")
    if labels != list(range(len(labels))):
        raise ValueError(f"labels must be 0..K-1, got {labels}")
    return len(labels)


def _train_on(cfg: ExperimentConfig, dataset_path: Path):
    """Train a fresh model: (model, epoch logs, last epoch's test metrics)."""
    train_set, test_set = _prepared_split(cfg, dataset_path)
    k = _class_count(train_set[1].tolist() + test_set[1].tolist())
    model = RcnnModel(*train_set[0].shape[2:], k, seed=cfg.model_seed)
    return (model, *train(model, train_set, test_set, cfg.train))


def cmd_train(cfg: ExperimentConfig, args) -> dict[str, Path]:
    dataset_path = _dataset(cfg, "ris_on", args.dataset)
    model, logs, metrics = _train_on(cfg, dataset_path)
    paths = {"checkpoint": _output(cfg, "model.bin"),
             "training_log": _output(cfg, "training_log.csv"),
             "metrics": _output(cfg, "metrics.json")}
    save_model(model, paths["checkpoint"])
    write_training_log(logs, paths["training_log"])
    doc = _metrics_doc(metrics)
    write_json(paths["metrics"], doc)
    for row in logs:
        print(f"epoch {row.epoch:3d}  loss {row.loss:.4f}  "
              f"train {100 * row.train_acc:.2f}%  test {100 * row.test_acc:.2f}%")
    _print_metrics("test:", doc)
    return {**paths, "dataset": dataset_path}


def cmd_evaluate(cfg: ExperimentConfig, args) -> dict[str, Path]:
    model_path = _existing(args.model or cfg.output_dir / "model.bin", "checkpoint")
    dataset_path = _dataset(cfg, "ris_on", args.dataset)
    model = load_model(model_path)
    train_set, test_set = _prepared_split(cfg, dataset_path)
    if args.split == "all":  # train then test, the order the split lists them in
        frames, labels = (np.concatenate(pair) for pair in zip(train_set, test_set))
    else:
        frames, labels = train_set if args.split == "train" else test_set
    doc = {**_metrics_doc(evaluate(model, frames, labels)), "split": args.split}
    metrics_path = _output(cfg, "eval_metrics.json")
    write_json(metrics_path, doc)
    _print_metrics(f"{args.split}:", doc)
    return {"metrics": metrics_path, "dataset": dataset_path, "checkpoint": model_path}


def cmd_ablate(cfg: ExperimentConfig, args) -> dict[str, Path]:
    paths = {"ris_on": _dataset(cfg, "ris_on", args.ris_on),
             "ris_off": _dataset(cfg, "ris_off", args.ris_off)}
    # explicit datasets exist by now, so only missing defaults are made
    missing = [name for name, path in paths.items() if not path.exists()]
    if missing:
        _generate_datasets(cfg, missing)

    report = {}
    for name in ("ris_off", "ris_on"):
        _, _, metrics = _train_on(cfg, paths[name])
        report[name] = _metrics_doc(metrics)
        report[name]["dataset"] = str(paths[name])
        _print_metrics(f"{name}:", report[name])
    report["accuracy_delta_pp"] = round(
        report["ris_on"]["accuracy_pct"] - report["ris_off"]["accuracy_pct"], 2)
    print(f"accuracy delta {report['accuracy_delta_pp']:+.2f} pp (ris_on - ris_off)")

    report_path = _output(cfg, "ablation_report.json")
    write_json(report_path, report)
    return {"ablation_report": report_path, **paths}


def cmd_shapes(args) -> int:
    for name, shape in shape_chain(args.height, args.width, args.classes):
        print(f"{name:12s} {'x'.join(str(v) for v in shape)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trgr",
        description="Through-wall gait recognition sandbox: RIS-assisted channel "
                    "simulation, codebook search, CSI synthesis, CNN classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def framed(command: str, func, help: str):
        """A config-driven subcommand, run by `main` in the command frame."""
        p = sub.add_parser(command, help=help)
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--seed", type=int, help="override the config's top-level seed")
        p.add_argument("--output", help="override the config's output directory")
        p.set_defaults(func=func)
        return p

    framed("optimize", cmd_optimize, "search the 1-bit codebook for maximum SNR")
    framed("generate", cmd_generate, "synthesize ris_on/ris_off CSI datasets")
    p = framed("train", cmd_train, "train the classifier and report test metrics")
    p.add_argument("--dataset", help="dataset file (default: <output>/dataset_ris_on.bin)")
    p = framed("evaluate", cmd_evaluate, "score a saved checkpoint")
    p.add_argument("--dataset", help="dataset file (default: <output>/dataset_ris_on.bin)")
    p.add_argument("--model", help="checkpoint file (default: <output>/model.bin)")
    p.add_argument("--split", choices=("test", "train", "all"), default="test")
    p = framed("ablate", cmd_ablate, "train with and without the RIS, report the delta")
    p.add_argument("--ris-on", help="existing ris_on dataset to reuse")
    p.add_argument("--ris-off", help="existing ris_off dataset to reuse")

    p = sub.add_parser("shapes", help="print the network's output size at every stage")
    p.add_argument("--height", type=int, default=150)
    p.add_argument("--width", type=int, default=8192)
    p.add_argument("--classes", type=int, default=10)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "shapes":
            return cmd_shapes(args)
        cfg = (load_config(args.config, args.seed, args.output) if args.config is not None
               else resolve_config({}, args.seed, args.output))
        t0 = time.perf_counter()
        artifacts = args.func(cfg, args)
        manifest = build_manifest(args.command, cfg, artifacts,
                                  {"total": time.perf_counter() - t0})
        write_json(_output(cfg, f"manifest_{args.command}.json"), manifest)
        return 0
    except (ValueError, OSError, MemoryError) as exc:
        # a bare MemoryError has no message; numpy's names the allocation
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
