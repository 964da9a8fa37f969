"""Experiment configuration and run manifests.

A single JSON document drives every command.  Each stage owns a seed; any
seed omitted from the file is derived from the top-level seed and a fixed
per-role salt, so configs stay short while reruns stay exactly reproducible.
Explicit sub-seeds always win over derived ones.

Schema (all sections optional, defaults shown):

    {
      "seed": 0,
      "output_dir": "runs/default",
      "scenario": {
        "name": "desk", "subcarriers": 256, "noise_variance": 0.5,
        "wall_attenuation_db": 45.0, "dynamic_path_count": 3,
        "packets_per_second": 50, "duration_s": 3.0,
        "ris_rows": 16, "ris_cols": 16, "seed": null
      },
      "subjects": {"count": 4, "seed": null},
      "optimizer": {"outer_iters": 5, "probe_noise_std": 0.0, "probe_seed": null},
      "dataset": {"episodes_per_subject": 50, "seed": null},
      "pipeline": {"window": 5, "split_seed": null},
      "train": {"learning_rate": 0.001, "batch_size": 8, "epochs": 20,
                "seed": null, "model_seed": null}
    }
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

_SALT_SCENARIO = 0x7363656E
_SALT_SUBJECTS = 0x73756266
_SALT_PROBE = 0x70726F62
_SALT_DATASET = 0x64617461
_SALT_SPLIT = 0x73706C74
_SALT_TRAIN = 0x7472726E
_SALT_MODEL = 0x6D6F646C

_SECTION_KEYS = {
    "scenario": {"name", "subcarriers", "noise_variance", "wall_attenuation_db",
                 "dynamic_path_count", "packets_per_second", "duration_s",
                 "ris_rows", "ris_cols", "seed"},
    "subjects": {"count", "seed"},
    "optimizer": {"outer_iters", "probe_noise_std", "probe_seed"},
    "dataset": {"episodes_per_subject", "seed"},
    "pipeline": {"window", "split_seed"},
    "train": {"learning_rate", "batch_size", "epochs", "seed", "model_seed"},
}
_TOP_KEYS = {"seed", "output_dir", *_SECTION_KEYS}


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


def _check_keys(doc: dict) -> None:
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for section, allowed in _SECTION_KEYS.items():
        body = doc.get(section, {})
        if not isinstance(body, dict):
            raise ValueError(f"config section {section!r} must be an object")
        extra = set(body) - allowed
        if extra:
            raise ValueError(f"unknown keys in config section {section!r}: {sorted(extra)}")


def _read(section: dict, key: str, default, kind=int):
    """section[key], or the default, as `kind`; a str key must hold a string
    and a float key a finite number."""
    value = section.get(key, default)
    try:
        if kind is not str or isinstance(value, str):
            result = kind(value)
            if kind is not float or math.isfinite(result):
                return result
    except (TypeError, ValueError, OverflowError):
        pass
    what = "finite float" if kind is float else kind.__name__
    raise ValueError(f"config key {key!r} is not a valid {what}: {value!r}")


def _pick_seed(section: dict, key: str, top_seed: int, salt: int) -> int:
    return mix_seeds(top_seed, salt) if section.get(key) is None else _read(section, key, None)


def resolve_config(doc: dict, seed_override: int | None = None,
                   output_override: str | None = None) -> ExperimentConfig:
    """Turn a parsed JSON document into a fully resolved configuration."""
    if not isinstance(doc, dict):
        raise ValueError("config root must be a JSON object")
    doc = json.loads(json.dumps(doc))  # private copy, guarantee plain types
    _check_keys(doc)
    if seed_override is not None:
        doc["seed"] = int(seed_override)
    if output_override is not None:
        doc["output_dir"] = str(output_override)
    top_seed = _read(doc, "seed", 0)

    sc = doc.get("scenario", {})
    ris_rows, ris_cols = _read(sc, "ris_rows", 16), _read(sc, "ris_cols", 16)
    scenario_seed = _pick_seed(sc, "seed", top_seed, _SALT_SCENARIO)
    _read(sc, "name", "desk", str)  # a label for the reader: checked, changes no artifact
    scenario = default_scenario(
        subcarriers=_read(sc, "subcarriers", 256),
        seed=scenario_seed,
        noise_variance=_read(sc, "noise_variance", 0.5, float),
        wall_attenuation_db=_read(sc, "wall_attenuation_db", 45.0, float),
        dynamic_path_count=_read(sc, "dynamic_path_count", 3),
        ris_rows=ris_rows, ris_cols=ris_cols,
        packets_per_second=_read(sc, "packets_per_second", 50),
        duration_s=_read(sc, "duration_s", 3.0, float),
    )

    sub = doc.get("subjects", {})
    profiles = default_profiles(
        count=_read(sub, "count", 4),
        seed=_pick_seed(sub, "seed", top_seed, _SALT_SUBJECTS),
    )

    opt = doc.get("optimizer", {})
    pipe = doc.get("pipeline", {})
    ds = doc.get("dataset", {})
    tr = doc.get("train", {})
    train = TrainConfig(
        learning_rate=_read(tr, "learning_rate", 1e-3, float),
        batch_size=_read(tr, "batch_size", 8),
        epochs=_read(tr, "epochs", 20),
        seed=_pick_seed(tr, "seed", top_seed, _SALT_TRAIN),
    )

    return ExperimentConfig(
        scenario=scenario,
        ris_rows=ris_rows, ris_cols=ris_cols,
        profiles=profiles,
        outer_iters=_read(opt, "outer_iters", 5),
        probe_noise_std=_read(opt, "probe_noise_std", 0.0, float),
        probe_seed=_pick_seed(opt, "probe_seed", top_seed, _SALT_PROBE),
        episodes_per_subject=_read(ds, "episodes_per_subject", 50),
        dataset_seed=_pick_seed(ds, "seed", top_seed, _SALT_DATASET),
        filter_spec=FilterSpec(window=_read(pipe, "window", 5)),
        split_seed=_pick_seed(pipe, "split_seed", top_seed, _SALT_SPLIT),
        train=train,
        model_seed=_pick_seed(tr, "model_seed", top_seed, _SALT_MODEL),
        output_dir=Path(_read(doc, "output_dir", "runs/default", str)),
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
        "seed": int(cfg.raw.get("seed", 0)),
        "timings_s": {k: round(v, 3) for k, v in sorted(timings.items())},
        "versions": {
            "numpy": np.__version__,
            "package": __version__,
            "python": platform.python_version(),
        },
    }


def write_json(path, doc: dict) -> None:
    """Write a JSON artifact: two-space indent, keys in the document's order."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
