"""Experiment configuration and run manifests.

A single JSON document drives every command, and `DEFAULTS` is its schema.
Each stage owns a seed; any seed omitted from the file is derived from the
top-level seed and the role's fixed salt, so configs stay short while reruns
stay exactly reproducible.  Explicit sub-seeds always win over derived ones.
"""
from __future__ import annotations

import hashlib
import json
import math
import platform
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .gait import ScenarioConfig, SubjectProfile, default_profiles, default_scenario
from .pipeline import FilterSpec
from .rcnn.training import TrainConfig
from .seeds import mix_seeds

# Every key and its default.  The default's type is the key's type; None marks
# a sub-seed, an int derived from the top-level seed when absent or null.
DEFAULTS = {
    "seed": 0,
    "output_dir": "runs/default",
    "scenario": {"name": "desk", "subcarriers": 256, "noise_variance": 0.5,
                 "wall_attenuation_db": 45.0, "dynamic_path_count": 3,
                 "packets_per_second": 50, "duration_s": 3.0,
                 "ris_rows": 16, "ris_cols": 16, "seed": None},
    "subjects": {"count": 4, "seed": None},
    "optimizer": {"outer_iters": 5, "probe_noise_std": 0.0, "probe_seed": None},
    "dataset": {"episodes_per_subject": 50, "seed": None},
    "pipeline": {"window": 5, "split_seed": None},
    "train": {"learning_rate": 0.001, "batch_size": 8, "epochs": 20,
              "seed": None, "model_seed": None},
}
# the salt each sub-seed is derived with
_SALTS = {("scenario", "seed"): 0x7363656E, ("subjects", "seed"): 0x73756266,
          ("optimizer", "probe_seed"): 0x70726F62, ("dataset", "seed"): 0x64617461,
          ("pipeline", "split_seed"): 0x73706C74, ("train", "seed"): 0x7472726E,
          ("train", "model_seed"): 0x6D6F646C}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a command needs, with every seed pinned down."""

    scenario: ScenarioConfig
    ris_rows: int
    ris_cols: int
    profiles: list[SubjectProfile]
    outer_iters: int
    probe_noise_std: float
    probe_seed: int
    episodes_per_subject: int
    dataset_seed: int
    filter_spec: FilterSpec
    split_seed: int
    train: TrainConfig
    model_seed: int
    output_dir: Path
    raw: dict


def _read(body: dict, key: str, default):
    """body[key], or the default, as the default's type (int for a sub-seed).

    A str key takes only a string.  A number key also takes a numeric string
    but no boolean; an int key takes no fractional number, and a float key
    only a finite one.
    """
    value = body.get(key, default)
    kind = int if default is None else type(default)
    try:
        if not isinstance(value, bool) and (kind is not str or isinstance(value, str)):
            result = kind(value)
            whole = not isinstance(value, float) or result == value
            if whole and (kind is not float or math.isfinite(result)):
                return result
    except (TypeError, ValueError, OverflowError):
        pass
    what = "finite float" if kind is float else kind.__name__
    raise ValueError(f"config key {key!r} is not a valid {what}: {value!r}")


def _section(doc: dict, name: str, top_seed: int) -> dict:
    """Section `name` of the document with every key of `DEFAULTS[name]` read,
    and every absent or null sub-seed derived from the top-level seed."""
    body = doc.get(name, {})
    if not isinstance(body, dict):
        raise ValueError(f"config section {name!r} must be an object")
    extra = set(body) - set(DEFAULTS[name])
    if extra:
        raise ValueError(f"unknown keys in config section {name!r}: {sorted(extra)}")
    return {key: mix_seeds(top_seed, _SALTS[name, key])
            if default is None and body.get(key) is None else _read(body, key, default)
            for key, default in DEFAULTS[name].items()}


def resolve_config(doc: dict, seed_override: int | None = None,
                   output_override: str | None = None) -> ExperimentConfig:
    """Turn a parsed JSON document into a fully resolved configuration."""
    if not isinstance(doc, dict):
        raise ValueError("config root must be a JSON object")
    doc = json.loads(json.dumps(doc))  # private copy, guarantee plain types
    unknown = set(doc) - set(DEFAULTS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if seed_override is not None:
        doc["seed"] = int(seed_override)
    if output_override is not None:
        doc["output_dir"] = str(output_override)
    top_seed = _read(doc, "seed", DEFAULTS["seed"])
    scenario, subjects, opt, ds, pipe, tr = (_section(doc, name, top_seed) for name in (
        "scenario", "subjects", "optimizer", "dataset", "pipeline", "train"))
    del scenario["name"]  # a label for the reader: checked, changes no artifact
    model_seed = tr.pop("model_seed")
    return ExperimentConfig(
        scenario=default_scenario(**scenario),
        ris_rows=scenario["ris_rows"], ris_cols=scenario["ris_cols"],
        profiles=default_profiles(**subjects),
        outer_iters=opt["outer_iters"], probe_noise_std=opt["probe_noise_std"],
        probe_seed=opt["probe_seed"],
        episodes_per_subject=ds["episodes_per_subject"], dataset_seed=ds["seed"],
        filter_spec=FilterSpec(window=pipe["window"]), split_seed=pipe["split_seed"],
        train=TrainConfig(**tr), model_seed=model_seed,
        output_dir=Path(_read(doc, "output_dir", DEFAULTS["output_dir"])),
        raw=doc,
    )


def load_config(path, seed_override: int | None = None,
                output_override: str | None = None) -> ExperimentConfig:
    with open(path) as fh:
        doc = json.load(fh)
    return resolve_config(doc, seed_override, output_override)


def config_digest(cfg: ExperimentConfig) -> str:
    canonical = json.dumps(cfg.raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def build_manifest(command: str, cfg: ExperimentConfig, artifacts: dict[str, Path],
                   timings: dict[str, float]) -> dict:
    """Record what a command produced: config hash, artifact hashes, versions.

    Keys are in sorted order at every level, so `write_json` lays out every
    manifest the same way.
    """
    return {
        "artifacts": {
            name: {
                "bytes": Path(path).stat().st_size,
                "path": str(path),
                "sha256": file_digest(path),
            }
            for name, path in sorted(artifacts.items())
        },
        "command": command,
        "config_sha256": config_digest(cfg),
        "seed": int(cfg.raw.get("seed", DEFAULTS["seed"])),
        "timings_s": {k: round(v, 3) for k, v in sorted(timings.items())},
        "versions": {
            "numpy": np.__version__,
            "package": __version__,
            "python": platform.python_version(),
        },
    }


def write_json(path, doc: dict) -> None:
    """Write a JSON artifact: two-space indent, keys in the document's order;
    a document holding NaN or an infinity is refused before the file opens."""
    Path(path).write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n")
