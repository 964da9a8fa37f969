"""Denoising, normalization, stratified splitting, and the dataset container."""
import numpy as np
import pytest

from trgr.gait import VACANT, CsiRecording
from trgr.pipeline import (
    DATASET_MAGIC,
    FilterSpec,
    denoise_recording,
    load_dataset,
    moving_average,
    normalize,
    save_dataset,
    split_dataset,
)


def rec_of(mags, label=0, seed=1) -> CsiRecording:
    return CsiRecording(np.asarray(mags, dtype=np.float64), label, "t", seed)


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
        out = moving_average(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), FilterSpec(3))
        assert out == pytest.approx([1.5, 2.0, 3.0, 4.0, 4.5], abs=1e-12)

    def test_window_one_is_identity(self):
        x = np.random.default_rng(3).standard_normal(20)
        assert np.array_equal(moving_average(x, FilterSpec(1)), x)

    def test_linearity(self):
        rng = np.random.default_rng(4)
        x, y = rng.standard_normal(30), rng.standard_normal(30)
        spec = FilterSpec(7)
        lhs = moving_average(2.5 * x - 1.5 * y, spec)
        rhs = 2.5 * moving_average(x, spec) - 1.5 * moving_average(y, spec)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_constant_series_passes_through(self):
        x = np.full(11, 3.25)
        assert np.allclose(moving_average(x, FilterSpec(5)), 3.25)

    def test_output_length_matches_input(self):
        for n in (1, 2, 5, 9):
            assert moving_average(np.arange(n, dtype=float), FilterSpec(5)).shape == (n,)

    def test_window_larger_than_series_degrades_to_clipped_means(self):
        out = moving_average(np.array([2.0, 4.0]), FilterSpec(9))
        assert out == pytest.approx([3.0, 3.0])

    def test_two_dimensional_input_rejected(self):
        with pytest.raises(ValueError):
            moving_average(np.zeros((3, 3)), FilterSpec(3))


class TestDenoiseRecording:
    def test_filters_along_time_per_subcarrier(self):
        mags = np.stack([
            np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
            np.array([10.0, 10.0, 10.0, 10.0, 10.0]),
        ], axis=1)  # T=5, S=2
        out = denoise_recording(rec_of(mags, label=3), FilterSpec(3))
        assert out.magnitudes[:, 0] == pytest.approx([1.5, 2.0, 3.0, 4.0, 4.5])
        assert out.magnitudes[:, 1] == pytest.approx([10.0] * 5)
        assert out.label == 3

    def test_shape_preserved(self):
        rng = np.random.default_rng(6)
        out = denoise_recording(rec_of(rng.random((12, 7))), FilterSpec(5))
        assert out.shape == (12, 7)


class TestNormalize:
    def test_moments_are_zero_and_one(self):
        rng = np.random.default_rng(7)
        out = normalize(rec_of(rng.random((20, 10)) * 9 + 4))
        assert abs(out.magnitudes.mean()) < 1e-9
        assert abs(out.magnitudes.std() - 1.0) < 1e-9

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

    def test_split_seed_recorded(self):
        split = split_dataset(self.make_recs({0: 4}), split_seed=11)
        assert split.split_seed == 11


class TestDatasetContainer:
    def make_set(self, n=4, t=6, s=3):
        rng = np.random.default_rng(9)
        return [
            CsiRecording(rng.random((t, s)), label=i % 2, scenario="scene",
                         episode_seed=100 + i)
            for i in range(n)
        ]

    def test_round_trip_preserves_data(self, tmp_path):
        recs = self.make_set()
        path = tmp_path / "d.bin"
        save_dataset(path, recs)
        loaded = load_dataset(path)
        assert len(loaded) == len(recs)
        for orig, back in zip(recs, loaded):
            assert back.label == orig.label
            assert back.episode_seed == orig.episode_seed
            # float32 on disk
            assert np.allclose(back.magnitudes, orig.magnitudes, atol=1e-6)

    def test_vacant_label_round_trips(self, tmp_path):
        rec = CsiRecording(np.ones((2, 2)), VACANT, "x", 5)
        path = tmp_path / "v.bin"
        save_dataset(path, [rec])
        assert load_dataset(path)[0].label == VACANT

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
        with pytest.raises(ValueError):
            save_dataset(tmp_path / "e.bin", [])

    def test_mixed_shapes_rejected(self, tmp_path):
        recs = [rec_of(np.ones((2, 2))), rec_of(np.ones((3, 2)))]
        with pytest.raises(ValueError):
            save_dataset(tmp_path / "m.bin", recs)

    def test_byte_identical_rewrites(self, tmp_path):
        recs = self.make_set()
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_dataset(p1, recs)
        save_dataset(p2, recs)
        assert p1.read_bytes() == p2.read_bytes()
