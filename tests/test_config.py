"""Config resolution: defaults, seed derivation, overrides, manifests."""
import copy
import dataclasses
import json
import pickle
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import trgr.config
from trgr.codebook import Codebook
from trgr.config import (
    DEFAULTS,
    build_manifest,
    config_digest,
    file_digest,
    load_config,
    resolve_config,
    write_json,
)


class TestDefaults:
    def test_empty_document_resolves_fully(self):
        cfg = resolve_config({})
        assert cfg.scenario.grid.count == 256
        assert cfg.scenario.noise.variance == 0.5
        assert cfg.scenario.wall_attenuation_db == 45.0
        assert (cfg.ris_rows, cfg.ris_cols) == (16, 16)
        assert len(cfg.profiles) == 4
        assert cfg.outer_iters == 5
        assert cfg.episodes_per_subject == 50
        assert cfg.filter_spec.window == 5
        assert cfg.train.epochs == 20
        assert cfg.train.batch_size == 8

    def test_schema_block_shows_the_defaults(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        start = readme.index("```jsonc\n", readme.index("## Config schema")) + len("```jsonc\n")
        block = json.loads(re.sub(r"//.*", "", readme[start:readme.index("```", start)]))
        # equal as JSON text, so 45 and 45.0 differ as the key types do
        assert json.dumps(block, sort_keys=True) == json.dumps(DEFAULTS, sort_keys=True)
        sub_seeds = {(name, key) for name, body in DEFAULTS.items() if isinstance(body, dict)
                     for key, default in body.items() if default is None}
        assert sub_seeds == set(trgr.config._SALTS)
        shown, empty = resolve_config(block), resolve_config({})
        for field in ("probe_seed", "dataset_seed", "split_seed", "model_seed", "profiles",
                      "train", "output_dir", "ris_rows", "ris_cols", "outer_iters",
                      "probe_noise_std", "episodes_per_subject", "filter_spec"):
            assert getattr(shown, field) == getattr(empty, field), field
        a, b = shown.scenario, empty.scenario
        assert (a.grid, a.noise, a.packet_count, a.wall_attenuation_db, a.dynamic_path_count) \
            == (b.grid, b.noise, b.packet_count, b.wall_attenuation_db, b.dynamic_path_count)
        # the scenario seed shows in the drawn channels
        assert np.array_equal(a.direct.gain, b.direct.gain)
        assert np.array_equal(a.ris.tx_to_ris, b.ris.tx_to_ris)

    def test_every_seed_is_pinned(self):
        cfg = resolve_config({})
        seeds = [cfg.probe_seed, cfg.dataset_seed, cfg.split_seed,
                 cfg.train.seed, cfg.model_seed]
        assert all(isinstance(s, int) for s in seeds)
        assert len(set(seeds)) == len(seeds)  # distinct roles get distinct seeds

    def test_resolution_is_deterministic(self):
        a, b = resolve_config({"seed": 3}), resolve_config({"seed": 3})
        assert a.dataset_seed == b.dataset_seed
        assert a.profiles == b.profiles
        assert a.scenario.noise == b.scenario.noise
        for field in ("gain", "delay"):
            assert np.array_equal(getattr(a.scenario.direct, field),
                                  getattr(b.scenario.direct, field))
        assert np.array_equal(a.scenario.ris.tx_to_ris, b.scenario.ris.tx_to_ris)
        assert np.array_equal(a.scenario.ris.ris_to_rx, b.scenario.ris.ris_to_rx)


class TestSeedDerivation:
    def test_top_seed_changes_all_derived_seeds(self):
        a, b = resolve_config({"seed": 1}), resolve_config({"seed": 2})
        assert a.dataset_seed != b.dataset_seed
        assert a.split_seed != b.split_seed
        assert a.train.seed != b.train.seed
        assert a.profiles != b.profiles

    def test_explicit_subseed_wins(self):
        cfg = resolve_config({"seed": 1, "dataset": {"seed": 999}})
        assert cfg.dataset_seed == 999
        base = resolve_config({"seed": 1})
        assert cfg.split_seed == base.split_seed  # others still derived

    def test_seed_override_argument(self):
        base = resolve_config({"seed": 1}, seed_override=5)
        direct = resolve_config({"seed": 5})
        assert base.dataset_seed == direct.dataset_seed
        assert base.raw["seed"] == 5


class TestOverridesAndSections:
    def test_scenario_fields_flow_through(self):
        cfg = resolve_config({"scenario": {
            "name": "hard", "subcarriers": 128, "noise_variance": 9.0,
            "wall_attenuation_db": 55.0, "dynamic_path_count": 2,
            "packets_per_second": 25, "duration_s": 2.0,
            "ris_rows": 4, "ris_cols": 8,
        }})
        assert cfg.scenario.grid.count == 128
        assert cfg.scenario.noise.variance == 9.0
        assert cfg.scenario.wall_attenuation_db == 55.0
        assert cfg.scenario.dynamic_path_count == 2
        assert cfg.scenario.packet_count == 50
        assert cfg.scenario.ris.n_elements == 32
        assert (cfg.ris_rows, cfg.ris_cols) == (4, 8)

    def test_train_section(self):
        cfg = resolve_config({"train": {"learning_rate": 0.01, "batch_size": 2,
                                        "epochs": 3, "model_seed": 77}})
        assert cfg.train.learning_rate == 0.01
        assert cfg.train.batch_size == 2
        assert cfg.train.epochs == 3
        assert cfg.model_seed == 77

    def test_output_dir_override(self, tmp_path):
        cfg = resolve_config({"output_dir": "runs/x"}, output_override=str(tmp_path))
        assert cfg.output_dir == tmp_path

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError):
            resolve_config({"sceanrio": {}})

    def test_unknown_section_key_rejected(self):
        with pytest.raises(ValueError):
            resolve_config({"scenario": {"subcariers": 64}})

    def test_non_object_root_rejected(self):
        with pytest.raises(ValueError):
            resolve_config([1, 2, 3])

    @pytest.mark.parametrize("doc", [
        {"scenario": 5},
        {"scenario": None},
        {"scenario": {"subcarriers": None}},
        {"seed": [1]},
        {"seed": float("inf")},
        {"train": {"model_seed": {}}},
        {"subjects": {"count": "four"}},
        {"scenario": {"name": 5}},
        {"output_dir": 5},
        {"optimizer": {"probe_noise_std": float("nan")}},
        {"scenario": {"duration_s": float("inf")}},
        {"scenario": {"noise_variance": float("-inf")}},
        {"train": {"learning_rate": "NaN"}},
        {"train": {"epochs": 2.9}},
        {"train": {"batch_size": True}},
        {"seed": False},
        {"dataset": {"seed": 1.5}},
        {"subjects": {"count": "2.5"}},
        {"scenario": {"noise_variance": True}},
        {"optimizer": {"probe_noise_std": False}},
    ])
    def test_wrong_typed_value_rejected(self, doc):
        with pytest.raises(ValueError, match="config"):
            resolve_config(doc)

    def test_numeric_strings_still_convert(self):
        cfg = resolve_config({"seed": "3", "scenario": {"subcarriers": "128"},
                              "train": {"learning_rate": "0.01"}})
        assert cfg.scenario.grid.count == 128
        assert cfg.train.learning_rate == 0.01
        assert cfg.dataset_seed == resolve_config({"seed": 3}).dataset_seed
        # integral floats convert to int keys too
        cfg = resolve_config({"seed": 3.0, "train": {"epochs": 8.0, "batch_size": "3"},
                              "dataset": {"seed": 5.0}})
        ints = (cfg.train.epochs, cfg.train.batch_size, cfg.dataset_seed)
        assert ints == (8, 3, 5) and all(type(v) is int for v in ints)
        assert cfg.split_seed == resolve_config({"seed": 3}).split_seed


class TestLoadConfig:
    def test_reads_json_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 11, "subjects": {"count": 3}}))
        cfg = load_config(path)
        assert len(cfg.profiles) == 3
        assert cfg.raw["seed"] == 11

    def test_repo_presets_parse(self):
        desk = load_config("configs/desk.json")
        hard = load_config("configs/desk-hard.json")
        assert desk.scenario.grid.count == 256
        assert hard.scenario.noise.variance > desk.scenario.noise.variance
        assert hard.scenario.wall_attenuation_db > desk.scenario.wall_attenuation_db


def _same(a, b) -> bool:
    """Equal values all the way down: dataclass fields, arrays by dtype and
    contents, containers item by item."""
    if type(a) is not type(b):
        return False
    if dataclasses.is_dataclass(a):
        return all(_same(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


@pytest.mark.parametrize("path", [None, "configs/desk.json"])
def test_resolved_config_survives_pickle(path):
    # a worker process receives its config this way
    cfg = load_config(path) if path else resolve_config({})
    back = pickle.loads(pickle.dumps(cfg))
    assert _same(back, cfg)
    assert back.scenario.ris.n_elements == cfg.ris_rows * cfg.ris_cols


def _arrays(value):
    """Every array held by a value, through dataclass fields and containers."""
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _arrays(getattr(value, f.name))
    elif isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _arrays(item)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**63 - 1),
       bits=arrays(np.uint8, st.tuples(st.integers(0, 4), st.integers(0, 4)),
                   elements=st.integers(0, 1)),
       round_trip=st.sampled_from([lambda v: pickle.loads(pickle.dumps(v)),
                                   copy.deepcopy, copy.copy]))
def test_copies_stay_checked_and_read_only(seed, bits, round_trip):
    # copies and unpickled values are rebuilt through their constructors
    cfg = resolve_config({"seed": seed, "scenario": {"ris_rows": 3, "ris_cols": 4}})
    for value in (cfg, cfg.scenario.direct, cfg.scenario.ris, Codebook(bits)):
        back = round_trip(value)
        assert _same(back, value)
        held = list(_arrays(back))
        assert held and not any(a.flags.writeable for a in held)


class TestManifest:
    def test_digest_is_stable_under_key_order(self):
        a = resolve_config({"seed": 1, "subjects": {"count": 3}})
        b = resolve_config({"subjects": {"count": 3}, "seed": 1})
        assert config_digest(a) == config_digest(b)

    def test_digest_changes_with_content(self):
        a = resolve_config({"seed": 1})
        b = resolve_config({"seed": 2})
        assert config_digest(a) != config_digest(b)

    def test_build_and_write_manifest(self, tmp_path):
        artifact = tmp_path / "blob.bin"
        artifact.write_bytes(b"hello world")
        cfg = resolve_config({"seed": 4})
        manifest = build_manifest("generate", cfg, {"blob": artifact}, {"total": 1.23456})
        assert manifest["command"] == "generate"
        assert manifest["seed"] == 4
        assert manifest["artifacts"]["blob"]["bytes"] == 11
        assert manifest["artifacts"]["blob"]["sha256"] == file_digest(artifact)
        assert manifest["timings_s"]["total"] == 1.235
        out = tmp_path / "m.json"
        write_json(out, manifest)
        again = json.loads(out.read_text())
        assert again == manifest
        # keys come out sorted at every level without asking the writer to sort
        assert out.read_text() == json.dumps(manifest, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_document_refused_before_the_file_opens(self, tmp_path, value):
        # NaN and Infinity are not JSON; a refused document leaves no file behind
        out = tmp_path / "report.json"
        with pytest.raises(ValueError):
            write_json(out, {"gain_db": value})
        assert not out.exists()

    def test_file_digest_matches_known_vector(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_bytes(b"abc")
        assert file_digest(p) == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
