"""Command-line harness tying the simulator, optimizer, and classifier together.

Subcommands:
    shapes     print the network's layer-by-layer output sizes
    optimize   tune the 1-bit RIS codebook and report the SNR gain
    generate   synthesize the ris_on / ris_off CSI datasets
    train      fit the classifier on a dataset and report test metrics
    evaluate   score a saved checkpoint on a dataset
    ablate     train on both datasets and report the accuracy delta

Every command is driven by one JSON config (see config.py for the schema),
writes its artifacts plus a manifest under the output directory, and exits 0
only when all outputs were written and the internal audits passed.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

from .channel import RisChannel, snr
from .codebook import Codebook
from .config import (
    ExperimentConfig,
    build_manifest,
    load_config,
    resolve_config,
    write_manifest,
)
from .gait import generate_dataset
from .pipeline import denoise_recording, load_dataset, normalize, save_dataset, split_dataset
from .rcnn.metrics import evaluate
from .rcnn.model import RcnnModel, load_model, save_model, shape_chain
from .rcnn.training import train, write_training_log
from .ris import BRUTE_FORCE_MAX_BITS, brute_force, optimize, snr_probe


def _load_cfg(args) -> ExperimentConfig:
    if args.config is not None:
        cfg = load_config(args.config, args.seed, args.output)
    else:
        cfg = resolve_config({}, args.seed, args.output)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    return cfg


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _write_manifest(command: str, cfg: ExperimentConfig, artifacts: dict[str, Path],
                    t0: float) -> None:
    manifest = build_manifest(command, cfg, artifacts, {"total": time.perf_counter() - t0})
    write_manifest(manifest, cfg.output_dir / f"manifest_{command}.json")


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


def cmd_optimize(args) -> int:
    cfg = _load_cfg(args)
    t0 = time.perf_counter()
    probe, trace = _search(cfg)
    scenario = cfg.scenario
    rho_initial = snr(scenario.ris, Codebook.zeros(cfg.ris_rows, cfg.ris_cols), scenario.noise)
    rho_optimized = snr(scenario.ris, trace.best_codebook, scenario.noise)
    report = {
        "elements": scenario.ris.n_elements,
        "outer_iters": cfg.outer_iters,
        "snr_initial": rho_initial,
        "snr_optimized": rho_optimized,
        "gain_db": (10.0 * math.log10(rho_optimized / rho_initial)
                    if rho_initial > 0 else None),
        "accepted_flips": len(trace.accepted_strengths()),
    }
    if scenario.ris.n_elements <= BRUTE_FORCE_MAX_BITS:
        # the oracle reads its own fresh stream from the same probe settings
        _, best = brute_force(probe, cfg.ris_rows, cfg.ris_cols)
        report["brute_force_strength"] = best
        report["gap_to_brute_force"] = best - trace.best_strength
    out = cfg.output_dir
    codebook_path = out / "codebook.txt"
    trace_path = out / "trace.csv"
    report_path = out / "snr_report.json"
    codebook_path.write_text(trace.best_codebook.to_text())
    trace.to_csv(trace_path)
    _write_json(report_path, report)
    _write_manifest("optimize", cfg, {
        "codebook": codebook_path, "trace": trace_path, "snr_report": report_path,
    }, t0)
    gain = report["gain_db"]
    print(f"snr initial {rho_initial:.6g}  optimized {rho_optimized:.6g}"
          + (f"  gain {gain:.2f} dB" if gain is not None else "  gain n/a"))
    if "brute_force_strength" in report:
        print(f"brute force strength {report['brute_force_strength']:.6g}  "
              f"gap {report['gap_to_brute_force']:.3g}")
    return 0


def _dataset_paths(cfg: ExperimentConfig) -> dict[str, Path]:
    return {
        "ris_on": cfg.output_dir / "dataset_ris_on.bin",
        "ris_off": cfg.output_dir / "dataset_ris_off.bin",
    }


def _generate_datasets(cfg: ExperimentConfig, paths: dict[str, Path]) -> None:
    """Render and save each named dataset (ris_on, ris_off) to its path."""
    # reject a config whose datasets could not be split or trained on before
    # spending the optimizer and render time on it
    shape_chain(cfg.scenario.packet_count, cfg.scenario.grid.count, len(cfg.profiles))
    if cfg.episodes_per_subject < 3:
        raise ValueError(f"episodes_per_subject is {cfg.episodes_per_subject}, "
                         "need at least 3 to split each subject")
    for name, path in paths.items():
        if name == "ris_on":
            scenario, codebook = cfg.scenario, _search(cfg)[1].best_codebook
        else:  # the same room with the surface removed needs no codebook
            scenario = dataclasses.replace(cfg.scenario, ris=RisChannel.empty(),
                                           name=cfg.scenario.name + "_ris_off")
            codebook = Codebook.zeros(0, 0)
        save_dataset(path, generate_dataset(cfg.profiles, scenario, codebook,
                                            cfg.episodes_per_subject, cfg.dataset_seed))


def cmd_generate(args) -> int:
    cfg = _load_cfg(args)
    t0 = time.perf_counter()
    paths = _dataset_paths(cfg)
    _generate_datasets(cfg, paths)
    _write_manifest("generate", cfg, paths, t0)
    count = len(cfg.profiles) * cfg.episodes_per_subject
    t = cfg.scenario.packet_count
    s = cfg.scenario.grid.count
    for name, path in paths.items():
        print(f"{name}: {count} recordings of {t}x{s} -> {path}")
    return 0


def _prepared_split(cfg: ExperimentConfig, dataset_path: Path):
    if not Path(dataset_path).exists():
        raise FileNotFoundError(f"dataset not found: {dataset_path}")
    recordings = load_dataset(dataset_path)
    prepared = [normalize(denoise_recording(rec, cfg.filter_spec)) for rec in recordings]
    return split_dataset(prepared, cfg.split_seed)


def _class_count(recordings) -> int:
    labels = sorted({rec.label for rec in recordings})
    if len(labels) < 2:
        raise ValueError("training needs at least two classes")
    if labels != list(range(len(labels))):
        raise ValueError(f"labels must be 0..K-1, got {labels}")
    return len(labels)


def _train_on(cfg: ExperimentConfig, dataset_path: Path):
    split = _prepared_split(cfg, dataset_path)
    k = _class_count(split.train + split.test)
    t, s = split.train[0].shape
    model = RcnnModel(t, s, k, seed=cfg.model_seed)
    logs = train(model, split, cfg.train)
    metrics = evaluate(model, split.test)
    return model, logs, metrics


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    dataset_path = Path(args.dataset) if args.dataset else _dataset_paths(cfg)["ris_on"]
    t0 = time.perf_counter()
    model, logs, metrics = _train_on(cfg, dataset_path)
    out = cfg.output_dir
    ckpt_path = out / "model.bin"
    log_path = out / "training_log.csv"
    metrics_path = out / "metrics.json"
    save_model(model, ckpt_path)
    write_training_log(logs, log_path)
    doc = _metrics_doc(metrics)
    _write_json(metrics_path, doc)
    _write_manifest("train", cfg, {
        "checkpoint": ckpt_path, "training_log": log_path, "metrics": metrics_path,
        "dataset": dataset_path,
    }, t0)
    for row in logs:
        print(f"epoch {row.epoch:3d}  loss {row.loss:.4f}  "
              f"train {100 * row.train_acc:.2f}%  test {100 * row.test_acc:.2f}%")
    _print_metrics("test:", doc)
    return 0


def cmd_evaluate(args) -> int:
    cfg = _load_cfg(args)
    dataset_path = Path(args.dataset) if args.dataset else _dataset_paths(cfg)["ris_on"]
    model_path = Path(args.model) if args.model else cfg.output_dir / "model.bin"
    if not model_path.exists():
        raise FileNotFoundError(f"checkpoint not found: {model_path}")
    t0 = time.perf_counter()
    model = load_model(model_path)
    split = _prepared_split(cfg, dataset_path)
    subset = {"test": split.test, "train": split.train,
              "all": split.train + split.test}[args.split]
    metrics = evaluate(model, subset)
    doc = _metrics_doc(metrics)
    doc["split"] = args.split
    metrics_path = cfg.output_dir / "eval_metrics.json"
    _write_json(metrics_path, doc)
    _write_manifest("evaluate", cfg, {
        "metrics": metrics_path, "dataset": dataset_path, "checkpoint": model_path,
    }, t0)
    _print_metrics(f"{args.split}:", doc)
    return 0


def cmd_ablate(args) -> int:
    cfg = _load_cfg(args)
    t0 = time.perf_counter()
    paths = _dataset_paths(cfg)
    for name, override in (("ris_on", args.ris_on), ("ris_off", args.ris_off)):
        if override is not None:
            paths[name] = Path(override)
            if not paths[name].exists():
                raise FileNotFoundError(f"dataset not found: {paths[name]}")
    # explicit datasets exist by now, so only missing defaults are made
    missing = {name: path for name, path in paths.items() if not path.exists()}
    if missing:
        _generate_datasets(cfg, missing)

    report = {}
    for name in ("ris_off", "ris_on"):
        _, logs, metrics = _train_on(cfg, paths[name])
        report[name] = _metrics_doc(metrics)
        report[name]["dataset"] = str(paths[name])
        _print_metrics(f"{name}:", report[name])
    report["accuracy_delta_pp"] = round(
        report["ris_on"]["accuracy_pct"] - report["ris_off"]["accuracy_pct"], 2)
    print(f"accuracy delta {report['accuracy_delta_pp']:+.2f} pp (ris_on - ris_off)")

    report_path = cfg.output_dir / "ablation_report.json"
    _write_json(report_path, report)
    _write_manifest("ablate", cfg, {"ablation_report": report_path}, t0)
    return 0


def cmd_shapes(args) -> int:
    chain = shape_chain(args.height, args.width, args.classes)
    for name, shape in chain:
        print(f"{name:12s} {'x'.join(str(v) for v in shape)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trgr",
        description="Through-wall gait recognition sandbox: RIS-assisted channel "
                    "simulation, codebook search, CSI synthesis, CNN classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--seed", type=int, help="override the config's top-level seed")
        p.add_argument("--output", help="override the config's output directory")

    p = sub.add_parser("optimize", help="search the 1-bit codebook for maximum SNR")
    common(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("generate", help="synthesize ris_on/ris_off CSI datasets")
    common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train the classifier and report test metrics")
    common(p)
    p.add_argument("--dataset", help="dataset file (default: <output>/dataset_ris_on.bin)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a saved checkpoint")
    common(p)
    p.add_argument("--dataset", help="dataset file (default: <output>/dataset_ris_on.bin)")
    p.add_argument("--model", help="checkpoint file (default: <output>/model.bin)")
    p.add_argument("--split", choices=("test", "train", "all"), default="test")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="train with and without the RIS, report the delta")
    common(p)
    p.add_argument("--ris-on", help="existing ris_on dataset to reuse")
    p.add_argument("--ris-off", help="existing ris_off dataset to reuse")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("shapes", help="print the network's output size at every stage")
    p.add_argument("--height", type=int, default=150)
    p.add_argument("--width", type=int, default=8192)
    p.add_argument("--classes", type=int, default=10)
    p.set_defaults(func=cmd_shapes)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
