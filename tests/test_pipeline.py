"""Denoising, normalization, stratified splitting, and the dataset container."""
import math
import struct
import tempfile
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import trgr.pipeline
from helpers import dataset_records
from trgr.cli import _prepared_split
from trgr.gait import CsiRecording
from trgr.pipeline import (
    DATASET_MAGIC,
    FilterSpec,
    denoise_recording,
    load_dataset,
    normalize,
    read_records,
    save_dataset,
    split_dataset,
)
from trgr.seeds import mix_seeds


def rec_of(mags, label=0, seed=1) -> CsiRecording:
    return CsiRecording(np.asarray(mags, dtype=np.float64), label, seed)


def smooth(series, spec: FilterSpec) -> np.ndarray:
    """Denoise a 1-D series as the one subcarrier of a (T, 1) recording."""
    return denoise_recording(rec_of(np.asarray(series)[:, None]), spec).magnitudes[:, 0]


class TestFilterSpec:
    def test_default_window_is_five(self):
        assert FilterSpec().window == 5

    def test_even_window_rejected(self):
        with pytest.raises(ValueError):
            FilterSpec(window=4)

    def test_nonpositive_window_rejected(self):
        with pytest.raises(ValueError):
            FilterSpec(window=-3)


class TestMovingAverage:
    def test_shrinking_edge_example(self):
        out = smooth(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), FilterSpec(3))
        assert out == pytest.approx([1.5, 2.0, 3.0, 4.0, 4.5], abs=1e-12)

    def test_window_one_is_identity(self):
        x = np.random.default_rng(3).standard_normal(20)
        assert np.array_equal(smooth(x, FilterSpec(1)), x)

    def test_linearity(self):
        rng = np.random.default_rng(4)
        x, y = rng.standard_normal(30), rng.standard_normal(30)
        spec = FilterSpec(7)
        lhs = smooth(2.5 * x - 1.5 * y, spec)
        rhs = 2.5 * smooth(x, spec) - 1.5 * smooth(y, spec)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_constant_series_passes_through(self):
        x = np.full(11, 3.25)
        assert np.allclose(smooth(x, FilterSpec(5)), 3.25)

    def test_output_length_matches_input(self):
        for n in (1, 2, 5, 9):
            assert smooth(np.arange(n, dtype=float), FilterSpec(5)).shape == (n,)

    def test_window_larger_than_series_degrades_to_clipped_means(self):
        out = smooth(np.array([2.0, 4.0]), FilterSpec(9))
        assert out == pytest.approx([3.0, 3.0])


class TestDenoiseRecording:
    def test_filters_along_time_per_subcarrier(self):
        mags = np.stack([
            np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
            np.array([10.0, 10.0, 10.0, 10.0, 10.0]),
        ], axis=1)  # T=5, S=2
        out = denoise_recording(rec_of(mags, label=3, seed=9), FilterSpec(3))
        assert out.magnitudes[:, 0] == pytest.approx([1.5, 2.0, 3.0, 4.0, 4.5])
        assert out.magnitudes[:, 1] == pytest.approx([10.0] * 5)
        assert (out.label, out.episode_seed) == (3, 9)

    def test_shape_preserved(self):
        rng = np.random.default_rng(6)
        out = denoise_recording(rec_of(rng.random((12, 7))), FilterSpec(5))
        assert out.magnitudes.shape == (12, 7)


class TestNormalize:
    def test_moments_are_zero_and_one(self):
        rng = np.random.default_rng(7)
        out = normalize(rec_of(rng.random((20, 10)) * 9 + 4, label=2, seed=8))
        assert abs(out.magnitudes.mean()) < 1e-9
        assert abs(out.magnitudes.std() - 1.0) < 1e-9
        assert (out.label, out.episode_seed) == (2, 8)

    def test_zero_variance_maps_to_zeros(self):
        out = normalize(rec_of(np.full((4, 4), 6.0)))
        assert np.array_equal(out.magnitudes, np.zeros((4, 4)))

    def test_affine_invariance(self):
        rng = np.random.default_rng(8)
        base = rng.random((6, 5))
        a = normalize(rec_of(base))
        b = normalize(rec_of(base * 7.0 + 3.0))
        assert np.allclose(a.magnitudes, b.magnitudes, atol=1e-12)


class TestSplitDataset:
    def make_recs(self, counts: dict[int, int]) -> list:
        recs = []
        k = 0
        for label, n in counts.items():
            for _ in range(n):
                recs.append(rec_of(np.full((2, 2), float(k)), label=label, seed=k))
                k += 1
        return recs

    def test_round_two_thirds_rule_per_class(self):
        # train counts follow floor(2n/3 + 0.5): 3->2, 4->3, 5->3, 6->4, 50->33
        for n, expect in [(3, 2), (4, 3), (5, 3), (6, 4), (50, 33)]:
            split = split_dataset(self.make_recs({0: n, 1: n}), split_seed=1)
            per_class_train = sum(1 for r in split.train if r.label == 0)
            assert per_class_train == expect
            assert sum(1 for r in split.test if r.label == 0) == n - expect

    def test_partition_is_exact(self):
        recs = self.make_recs({0: 7, 1: 5, 2: 9})
        split = split_dataset(recs, split_seed=3)
        assert len(split.train) + len(split.test) == len(recs)
        seen = sorted(r.episode_seed for r in split.train + split.test)
        assert seen == sorted(r.episode_seed for r in recs)

    def test_deterministic_per_seed(self):
        recs = self.make_recs({0: 6, 1: 6})
        a = split_dataset(recs, split_seed=5)
        b = split_dataset(recs, split_seed=5)
        c = split_dataset(recs, split_seed=6)
        assert [r.episode_seed for r in a.train] == [r.episode_seed for r in b.train]
        assert [r.episode_seed for r in a.train] != [r.episode_seed for r in c.train]

    def test_small_class_rejected(self):
        with pytest.raises(ValueError):
            split_dataset(self.make_recs({0: 2, 1: 6}), split_seed=1)


class TestDatasetContainer:
    def make_set(self, n=4, t=6, s=3):
        frames = np.random.default_rng(9).random((n, t, s))
        return dataset_records(frames, [i % 2 for i in range(n)], range(100, 100 + n))

    def test_round_trip_preserves_data(self, tmp_path):
        records = self.make_set()
        path = tmp_path / "d.bin"
        save_dataset(path, records)
        loaded = load_dataset(path)
        assert len(loaded) == len(records)
        for orig, back in zip(records, loaded):
            assert back.label == orig["label"]
            assert back.episode_seed == orig["episode_seed"]
            # float32 on disk, widened to float64 on load
            assert np.array_equal(back.magnitudes, orig["magnitudes"])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_round_trip_is_exact_over_the_whole_format(self, data):
        # any u16 label, any u64 seed and any finite float32 frame survive
        n = data.draw(st.integers(1, 5), label="n")
        t = data.draw(st.integers(1, 6), label="t")
        s = data.draw(st.integers(1, 6), label="s")
        labels = data.draw(st.lists(st.integers(0, 0xFFFF), min_size=n, max_size=n))
        seeds = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=n, max_size=n))
        frames = data.draw(arrays(np.float32, (n, t, s),
                                  elements=st.floats(width=32, allow_nan=False,
                                                     allow_infinity=False)))
        records = dataset_records(frames.astype(np.float64), labels, seeds)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "r.bin"
            save_dataset(path, records)
            loaded = load_dataset(path)
        assert [r.label for r in loaded] == labels
        assert [r.episode_seed for r in loaded] == seeds
        for frame, back in zip(frames, loaded):
            assert back.magnitudes.dtype == np.float64
            assert np.array_equal(back.magnitudes.astype(np.float32), frame)
            assert np.array_equal(back.magnitudes, frame.astype(np.float64))

    def test_header_layout(self, tmp_path):
        recs = self.make_set(n=2, t=6, s=3)
        path = tmp_path / "h.bin"
        save_dataset(path, recs)
        raw = path.read_bytes()
        assert raw[:4] == DATASET_MAGIC
        assert int.from_bytes(raw[4:6], "little") == 1          # version
        assert int.from_bytes(raw[6:10], "little") == 6         # T
        assert int.from_bytes(raw[10:14], "little") == 3        # S
        assert int.from_bytes(raw[14:18], "little") == 2        # count
        per_record = 2 + 8 + 6 * 3 * 4
        assert len(raw) == 18 + 2 * per_record

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        save_dataset(path, self.make_set())
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError):
            load_dataset(path)

    def test_truncated_record_rejected(self, tmp_path):
        path = tmp_path / "trunc.bin"
        save_dataset(path, self.make_set())
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(ValueError):
            load_dataset(path)

    def test_every_truncation_and_trailing_byte_rejected(self, tmp_path):
        path = tmp_path / "cut.bin"
        save_dataset(path, self.make_set(n=6, t=2, s=3))
        data = path.read_bytes()
        for size in range(len(data)):
            path.write_bytes(data[:size])
            with pytest.raises(ValueError):
                load_dataset(path)
        path.write_bytes(data + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            load_dataset(path)
        path.write_bytes(data)
        assert len(load_dataset(path)) == 6

    def test_empty_dataset_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty dataset"):
            save_dataset(tmp_path / "e.bin", dataset_records(np.empty((0, 2, 2)), [], []))
        assert not (tmp_path / "e.bin").exists()

    # float32's largest value plus half its last step: the first float64 that
    # the cast rounds to infinity
    F32_LIMIT = float(np.finfo(np.float32).max) + 2.0 ** 103

    @settings(max_examples=40, deadline=None)
    @given(peak=st.floats(3.4e38, 3.5e38), sign=st.sampled_from([1.0, -1.0]))
    @example(peak=F32_LIMIT, sign=1.0)
    @example(peak=np.nextafter(F32_LIMIT, 0.0), sign=-1.0)
    def test_refuses_exactly_what_float32_cannot_hold(self, peak, sign):
        mags = np.random.default_rng(9).random((4, 6, 3))
        mags[-1, 2, 1] = sign * peak
        records = dataset_records(mags, [0, 1, 0, 1], [100, 101, 102, 7])
        with np.errstate(over="ignore"):
            fits = np.isfinite(mags.astype(np.float32)).all()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "o.bin"
            if fits:
                save_dataset(path, records)
                assert load_dataset(path)[-1].magnitudes[2, 1] == np.float32(sign * peak)
            else:
                with pytest.raises(ValueError, match="not finite in float32"):
                    save_dataset(path, records)
                assert not path.exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_refuses_a_non_finite_value_anywhere(self, tmp_path, value):
        records = self.make_set()
        records["magnitudes"][2, 5, 0] = value
        with pytest.raises(ValueError, match="not finite in float32"):
            save_dataset(tmp_path / "n.bin", records)
        assert not (tmp_path / "n.bin").exists()

    def test_byte_identical_rewrites(self, tmp_path):
        recs = self.make_set()
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_dataset(p1, recs)
        save_dataset(p2, recs)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("t, s, count", [(0, 3, 5), (4, 0, 5), (0, 0, 5), (4, 3, 0)])
    def test_no_frame_or_empty_frames_rejected_before_any_record(self, tmp_path, t, s, count):
        # the header alone decides; the records that follow are never read
        path = tmp_path / "empty.bin"
        path.write_bytes(struct.pack("<4sHIII", DATASET_MAGIC, 1, t, s, count) + b"\x00" * 3)
        with pytest.raises(ValueError, match=f"holds {count} frames of {t}x{s}, need at least one"):
            read_records(path)


def reference_prepare(path, window: int, split_seed: int):
    """The per-record path the array kernels replace, step for step: load each
    record as float64, smooth it through `np.cumsum`, standardize it with
    numpy's `mean` and `std`, split per class, stack as float32.  Returns the
    train-then-test frames and labels, that order of record indices, the
    train count and each record smoothed and standardized in float64."""
    raw = Path(path).read_bytes()
    _, _, t, s, count = struct.unpack_from("<4sHIII", raw)
    labels, prepared = [], []
    for k in range(count):
        at = 18 + k * (10 + 4 * t * s)
        labels.append(struct.unpack_from("<HQ", raw, at)[0])
        m = np.frombuffer(raw, "<f4", t * s, at + 10).astype(np.float64).reshape(t, s)
        half = window // 2
        if half:
            prefix = np.concatenate([np.zeros((1, s)), np.cumsum(m, axis=0)], axis=0)
            idx = np.arange(t)
            lo, hi = np.maximum(idx - half, 0), np.minimum(idx + half + 1, t)
            m = (prefix[hi] - prefix[lo]) / (hi - lo).astype(np.float64)[:, None]
        std = m.std()
        prepared.append(np.zeros_like(m) if std == 0.0 else (m - m.mean()) / std)
    train, test = [], []
    for label in sorted(set(labels)):
        idx = [i for i, lab in enumerate(labels) if lab == label]
        perm = np.random.default_rng(mix_seeds(split_seed, label)).permutation(len(idx))
        cut = int(math.floor(2.0 * len(idx) / 3.0 + 0.5))
        train += [idx[j] for j in perm[:cut]]
        test += [idx[j] for j in perm[cut:]]
    order = train + test
    frames = np.stack([prepared[i] for i in order], dtype=np.float32)[:, None]
    return (frames, np.array([labels[i] for i in order], dtype=np.int64), order, len(train),
            prepared)


def same_bytes(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_array_path_matches_the_per_record_expressions(data):
    # across several chunks, windows wider than the recording, one-packet
    # recordings and constant records
    t = data.draw(st.integers(1, 7), label="t")
    s = data.draw(st.integers(1, 4), label="s")
    window = data.draw(st.sampled_from([1, 3, 5, 2 * t + 1, 2 * t + 3]), label="window")
    per_class = data.draw(st.lists(st.integers(3, 5), min_size=1, max_size=3), label="per_class")
    classes = data.draw(st.lists(st.integers(0, 9), min_size=len(per_class),
                                 max_size=len(per_class), unique=True), label="classes")
    labels = data.draw(st.permutations([c for c, n in zip(classes, per_class) for _ in range(n)]))
    n = len(labels)
    mags = data.draw(arrays(np.float32, (n, t, s), elements=st.floats(
        width=32, allow_nan=False, allow_infinity=False)), label="mags")
    # a constant of few significant bits sums exactly, so its record maps to zeros
    constant = data.draw(st.lists(st.booleans(), min_size=n, max_size=n), label="constant")
    level = data.draw(st.integers(0, 400), label="level") / 4.0
    mags[np.array(constant)] = level
    chunk = data.draw(st.integers(1, 4), label="chunk_records")
    split_seed = data.draw(st.integers(0, 2**32), label="split_seed")
    records = dataset_records(mags.astype(np.float64), labels, range(n))
    cfg = SimpleNamespace(filter_spec=FilterSpec(window), split_seed=split_seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.bin"
        save_dataset(path, records)
        frames, expect_labels, order, n_train, prepared = reference_prepare(path, window,
                                                                            split_seed)
        with mock.patch.object(trgr.pipeline, "PREPARE_BYTES", chunk * 3 * (t + 1) * s * 8):
            (train_x, train_y), (test_x, test_y) = _prepared_split(cfg, path)
            (all_x, all_y), = _prepared_split(cfg, path, ("all",))
            (only_x, only_y), = _prepared_split(cfg, path, ("test",))
        loaded = load_dataset(path)
    assert same_bytes(np.concatenate([train_x, test_x]), frames)
    assert same_bytes(np.concatenate([train_y, test_y]), expect_labels)
    assert len(train_y) == n_train
    assert same_bytes(all_x, frames) and same_bytes(all_y, expect_labels)
    assert same_bytes(only_x, frames[n_train:]) and same_bytes(only_y, expect_labels[n_train:])
    for k in np.flatnonzero(constant):
        assert same_bytes(prepared[k], np.zeros((t, s)))
    # the per-record wrappers run the same kernels, in the same split order
    for rec, expected in zip(loaded, prepared):
        assert same_bytes(normalize(denoise_recording(rec, FilterSpec(window))).magnitudes,
                          expected)
    split = split_dataset(loaded, split_seed)
    assert [rec.episode_seed for rec in split.train + split.test] == order
    assert len(split.train) == n_train
