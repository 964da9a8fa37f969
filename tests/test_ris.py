"""Line-flip search behaviour, trace bookkeeping, and the exhaustive oracle.

Probes read (k, rows, cols) stacks of 0/1 grids and return k strengths."""
import csv
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trgr.ris
from trgr.channel import NoiseSpec, RisChannel, snr, snr_stack
from trgr.codebook import Codebook, line_flip
from trgr.ris import (
    BRUTE_FORCE_MAX_BITS,
    ObjectiveProbe,
    brute_force,
    optimize,
    snr_probe,
)


def random_ris(n: int, seed: int) -> RisChannel:
    rng = np.random.default_rng(seed)
    return RisChannel(
        tx_to_ris=rng.standard_normal(n) + 1j * rng.standard_normal(n),
        ris_to_rx=rng.standard_normal(n) + 1j * rng.standard_normal(n),
        path_delays=np.full(n, 25e-9),
    )


def constant(value: float):
    """Stack probe function reading `value` for every grid."""
    return lambda grids: np.full(len(grids), value)


def one(cb: Codebook) -> np.ndarray:
    """A one-grid stack."""
    return cb.grid[None]


def replay_visited_configs(initial: Codebook, trace) -> list[Codebook]:
    """Configuration measured at each visit, reconstructed from the trace."""
    cur = initial
    configs = []
    for step in trace.steps:
        configs.append(cur)
        if step.accepted:
            cur = line_flip(cur, step.kind, step.index)
    return configs


def final_config(initial: Codebook, trace) -> Codebook:
    cur = initial
    for step in trace.steps:
        if step.accepted:
            cur = line_flip(cur, step.kind, step.index)
    return cur


def reaches_by_line_flips(initial: Codebook, cb: Codebook) -> bool:
    """Any sequence of line flips produces grid ^ (row mask outer-xor col mask)."""
    d = np.bitwise_xor(initial.grid, cb.grid)
    return bool(np.all(d == d[:, :1] ^ d[:1, :] ^ d[0, 0]))


class TestProbe:
    def test_negative_noise_std_rejected(self):
        with pytest.raises(ValueError):
            ObjectiveProbe(constant(0.0), measurement_noise_std=-0.1)

    @pytest.mark.parametrize("std", [math.nan, math.inf])
    def test_non_finite_noise_std_rejected(self, std):
        with pytest.raises(ValueError, match="finite"):
            ObjectiveProbe(constant(0.0), measurement_noise_std=std)

    def test_noiseless_reader_is_exact(self):
        probe = ObjectiveProbe(lambda grids: np.full(len(grids), float(grids[0].size)))
        read = probe.reader()
        assert read(one(Codebook.zeros(2, 3))).tolist() == [6.0]

    def test_noisy_readers_restart_the_same_stream(self):
        probe = ObjectiveProbe(constant(1.0), measurement_noise_std=0.5, seed=7)
        grids = one(Codebook.zeros(1, 1))
        r1, r2 = probe.reader(), probe.reader()
        seq1 = [r1(grids)[0], r1(grids)[0], r1(grids)[0]]
        seq2 = [r2(grids)[0], r2(grids)[0], r2(grids)[0]]
        assert seq1 == seq2  # independent readers replay the same stream
        assert seq1[0] != seq1[1]  # draws differ within one stream

    def test_a_stack_reads_the_draws_of_one_grid_reads(self):
        probe = ObjectiveProbe(lambda grids: grids.reshape(len(grids), -1).sum(axis=1) * 1.5,
                               measurement_noise_std=0.3, seed=11)
        grids = np.random.default_rng(0).integers(0, 2, (9, 2, 3), dtype=np.uint8)
        stacked = probe.reader()(grids)
        read = probe.reader()
        assert stacked.tolist() == [read(grids[j:j + 1])[0] for j in range(len(grids))]

    @pytest.mark.parametrize("bad", [math.nan, -math.inf, math.inf])
    @pytest.mark.parametrize("std", [0.0, 0.2])
    def test_first_non_finite_reading_raises(self, bad, std):
        readings = np.array([1.0, bad, 2.0, -math.inf])
        probe = ObjectiveProbe(lambda grids: readings[:len(grids)], measurement_noise_std=std)
        read = probe.reader()
        assert np.isfinite(read(np.zeros((1, 1, 1), dtype=np.uint8))).all()
        with pytest.raises(ValueError, match=f"reading {bad} is not finite"):
            read(np.zeros((4, 1, 1), dtype=np.uint8))

    def test_snr_probe_matches_snr(self):
        ris = random_ris(4, seed=2)
        noise = NoiseSpec(variance=0.5)
        probe = snr_probe(ris, noise)
        cb = Codebook(np.array([[1, 0], [0, 1]], dtype=np.uint8))
        assert probe.reader()(one(cb)).tolist() == [snr(ris, cb, noise)]


class TestOptimize:
    def test_visit_schedule_columns_then_rows_each_sweep(self):
        probe = ObjectiveProbe(constant(0.0))
        trace = optimize(probe, Codebook.zeros(2, 3), outer_iters=5)
        assert len(trace.steps) == 5 * (2 + 3)
        per_sweep = [("column", 0), ("column", 1), ("column", 2), ("row", 0), ("row", 1)]
        for t in range(1, 6):
            sweep = [s for s in trace.steps if s.t == t]
            assert [(s.kind, s.index) for s in sweep] == per_sweep
            assert [s.i for s in sweep] == [1, 2, 3, 4, 5]

    def test_constant_objective_never_accepts(self):
        probe = ObjectiveProbe(constant(1.0))
        trace = optimize(probe, Codebook.zeros(3, 3), outer_iters=2)
        assert not any(s.accepted for s in trace.steps)
        assert trace.best_codebook == Codebook.zeros(3, 3)
        assert trace.best_strength == 1.0

    def test_single_element_flip_cannot_improve_snr(self):
        # a lone element only rotates the gain's phase, so |gain| is invariant
        probe = snr_probe(random_ris(1, seed=11), NoiseSpec(variance=1.0))
        trace = optimize(probe, Codebook.zeros(1, 1), outer_iters=5)
        assert not any(s.accepted for s in trace.steps)

    @settings(max_examples=40, deadline=None)
    @given(rows=st.integers(1, 6), cols=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    @example(rows=4, cols=4, seed=3)
    def test_accepted_strengths_strictly_increase_noiseless(self, rows, cols, seed):
        probe = snr_probe(random_ris(rows * cols, seed=seed), NoiseSpec(variance=1.0))
        trace = optimize(probe, Codebook.zeros(rows, cols), outer_iters=5)
        inc = trace.accepted_strengths()
        assert all(b > a for a, b in zip(inc, inc[1:]))
        # an exact probe re-reads what the last accepted flip left, so no reading falls
        measured = [s.s_current for s in trace.steps]
        assert all(b >= a for a, b in zip(measured, measured[1:]))
        if (rows, cols, seed) == (4, 4, 3):  # this surface improves: the checks bite
            assert len(inc) > 0

    def test_best_strength_is_max_of_visit_measurements(self):
        ris = random_ris(16, seed=3)
        noise = NoiseSpec(variance=1.0)
        probe = snr_probe(ris, noise)
        init = Codebook.zeros(4, 4)
        trace = optimize(probe, init, outer_iters=5)
        visited = replay_visited_configs(init, trace)
        strengths = [snr(ris, cb, noise) for cb in visited]
        assert trace.best_strength == pytest.approx(max(strengths), rel=1e-12)
        k = int(np.argmax(strengths))
        assert trace.best_codebook == visited[k]
        assert trace.best_strength == pytest.approx(
            snr(ris, trace.best_codebook, noise), rel=1e-12)

    def test_improves_over_initial_on_random_channel(self):
        ris = random_ris(16, seed=6)
        noise = NoiseSpec(variance=1.0)
        trace = optimize(snr_probe(ris, noise), Codebook.zeros(4, 4), outer_iters=5)
        assert trace.best_strength > snr(ris, Codebook.zeros(4, 4), noise)

    def test_every_visited_config_is_line_flip_reachable(self):
        probe = snr_probe(random_ris(12, seed=9), NoiseSpec(variance=1.0))
        init = Codebook.zeros(3, 4)
        trace = optimize(probe, init, outer_iters=5)
        for cb in replay_visited_configs(init, trace):
            assert reaches_by_line_flips(init, cb)

    def test_converged_run_sits_at_a_line_flip_local_max(self):
        ris = random_ris(16, seed=3)
        noise = NoiseSpec(variance=1.0)
        init = Codebook.zeros(4, 4)
        trace = optimize(snr_probe(ris, noise), init, outer_iters=5)
        last_sweep = [s for s in trace.steps if s.t == 5]
        assert not any(s.accepted for s in last_sweep)  # converged before sweep 5
        final = final_config(init, trace)
        base = snr(ris, final, noise)
        for kind, limit in (("row", 4), ("column", 4)):
            for idx in range(limit):
                assert snr(ris, line_flip(final, kind, idx), noise) <= base

    def test_best_matches_reachable_optimum_on_tiny_grid(self):
        ris = random_ris(4, seed=21)
        noise = NoiseSpec(variance=1.0)
        init = Codebook.zeros(2, 2)
        trace = optimize(snr_probe(ris, noise), init, outer_iters=5)
        reachable_best = -math.inf
        for bits in itertools.product((0, 1), repeat=4):
            cb = Codebook(np.array(bits, dtype=np.uint8).reshape(2, 2))
            if reaches_by_line_flips(init, cb):
                reachable_best = max(reachable_best, snr(ris, cb, noise))
        assert trace.best_strength <= reachable_best + 1e-12
        full_best = brute_force(snr_probe(ris, noise), 2, 2)[1]
        assert trace.best_strength <= full_best + 1e-12

    def test_noisy_search_is_reproducible(self):
        ris = random_ris(9, seed=4)
        probe = snr_probe(ris, NoiseSpec(variance=1.0), measurement_noise_std=0.3, seed=17)
        t1 = optimize(probe, Codebook.zeros(3, 3), outer_iters=3)
        t2 = optimize(probe, Codebook.zeros(3, 3), outer_iters=3)
        assert t1.steps == t2.steps
        assert t1.best_codebook == t2.best_codebook
        assert t1.best_strength == t2.best_strength

    def test_outer_iters_must_be_positive(self):
        with pytest.raises(ValueError):
            optimize(ObjectiveProbe(constant(0.0)), Codebook.zeros(2, 2), outer_iters=0)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_non_finite_reading_stops_the_search(self, bad):
        # skipping it could leave no best codebook at all
        with pytest.raises(ValueError, match="not finite"):
            optimize(ObjectiveProbe(constant(bad)), Codebook.zeros(2, 2))

    def test_trace_stores_python_floats(self):
        trace = optimize(snr_probe(random_ris(4, seed=2), NoiseSpec(variance=1.0)),
                         Codebook.zeros(2, 2), outer_iters=1)
        assert type(trace.best_strength) is float
        assert all(type(step.s_current) is float for step in trace.steps)


class TestTraceCsv:
    def test_csv_layout_and_round_trip_floats(self, tmp_path):
        probe = snr_probe(random_ris(4, seed=2), NoiseSpec(variance=1.0))
        trace = optimize(probe, Codebook.zeros(2, 2), outer_iters=2)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["t", "i", "kind", "index", "s_current", "accepted"]
        assert len(rows) == 1 + len(trace.steps)
        for row, step in zip(rows[1:], trace.steps):
            assert int(row[0]) == step.t
            assert int(row[1]) == step.i
            assert row[2] == step.kind
            assert int(row[3]) == step.index
            assert float(row[4]) == step.s_current  # repr round-trips exactly
            assert bool(int(row[5])) == step.accepted


def scalar_snr(ris: RisChannel, cb: Codebook, noise: NoiseSpec) -> float:
    """The per-codebook SNR expression: Python's abs(complex) ** 2 of the cascade sum."""
    thetas = cb.grid.reshape(-1).astype(np.float64) * np.pi
    cascade = ris.ris_to_rx * np.exp(1j * thetas) * ris.tx_to_ris
    return abs(complex(np.sum(cascade))) ** 2 / noise.variance


def per_candidate_oracle(strength, rows: int, cols: int, std: float, seed: int):
    """One Codebook, one strength and one scalar draw per candidate, candidate k
    being k in binary, most significant bit first; only a strictly greater
    reading replaces the best."""
    n = rows * cols
    rng = np.random.default_rng(seed)
    best_cb, best_s = None, -math.inf
    for k in range(1 << n):
        bits = [(k >> (n - 1 - j)) & 1 for j in range(n)]
        cb = Codebook(np.array(bits, dtype=np.uint8).reshape(rows, cols))
        s = strength(cb)
        if std > 0:
            s = s + rng.normal(0.0, std)
        if s > best_s:
            best_cb, best_s = cb, s
    return best_cb, best_s


class TestBruteForce:
    def test_finds_global_max_of_binary_value_objective(self):
        def value(grids: np.ndarray) -> np.ndarray:
            flat = grids.reshape(len(grids), -1)
            return (flat @ (1 << np.arange(flat.shape[1] - 1, -1, -1))).astype(float)

        best_cb, best_s = brute_force(ObjectiveProbe(value), 2, 3)
        assert best_s == 2**6 - 1
        assert best_cb.grid.sum() == 6

    def test_tie_keeps_smallest_row_major_binary_value(self):
        best_cb, best_s = brute_force(ObjectiveProbe(constant(42.0)), 2, 2)
        assert best_s == 42.0
        assert best_cb == Codebook.zeros(2, 2)

    def test_tie_across_blocks_keeps_the_earlier_candidate(self, monkeypatch):
        # candidates 2, 5 and 6 share the maximum; blocks of 4 put 2 in the first
        monkeypatch.setattr(trgr.ris, "BRUTE_FORCE_BLOCK", 4)
        values = np.array([0.0, 1.0, 7.0, 3.0, 2.0, 7.0, 7.0, 0.0])
        probe = ObjectiveProbe(lambda grids: values[grids.reshape(len(grids), 3) @ [4, 2, 1]])
        best_cb, best_s = brute_force(probe, 1, 3)
        assert best_s == 7.0
        assert best_cb.grid.tolist() == [[0, 1, 0]]
        values[6] = 8.0  # a strictly greater reading in a later block wins
        assert brute_force(probe, 1, 3)[0].grid.tolist() == [[1, 1, 0]]

    def test_enumerates_every_configuration_once(self, monkeypatch):
        monkeypatch.setattr(trgr.ris, "BRUTE_FORCE_BLOCK", 5)
        seen, sizes = [], []

        def record(grids):
            sizes.append(len(grids))
            seen.extend(grid.tobytes() for grid in grids)
            return np.zeros(len(grids))

        brute_force(ObjectiveProbe(record), 2, 3)
        assert sizes == [5] * 12 + [4]  # the 64-candidate table is never held whole
        assert len(seen) == 64
        assert len(set(seen)) == 64

    @pytest.mark.parametrize("rows, cols", [(1, 1), (1, 3), (2, 2), (3, 1), (2, 3), (2, 4),
                                            (1, 8)])
    def test_kth_candidate_is_k_in_binary_msb_first(self, rows, cols):
        seen = []

        def record(grids):
            assert grids.shape[1:] == (rows, cols)
            seen.extend(grids.reshape(len(grids), -1).tolist())
            return np.zeros(len(grids))

        brute_force(ObjectiveProbe(record), rows, cols)
        n = rows * cols
        assert seen == [[int(ch) for ch in format(k, f"0{n}b")] for k in range(1 << n)]

    def test_builds_one_codebook_for_the_winner(self, monkeypatch):
        built = []
        init = Codebook.__init__

        def counted(cb, grid):
            built.append(grid)
            init(cb, grid)

        monkeypatch.setattr(Codebook, "__init__", counted)
        brute_force(snr_probe(random_ris(12, seed=5), NoiseSpec(variance=1.0)), 3, 4)
        assert len(built) == 1

    def test_matches_exhaustive_snr_scan(self):
        ris = random_ris(6, seed=6)
        noise = NoiseSpec(variance=1.0)
        best_cb, best_s = brute_force(snr_probe(ris, noise), 2, 3)
        expected = max(
            snr(ris, Codebook(np.array(bits, dtype=np.uint8).reshape(2, 3)), noise)
            for bits in itertools.product((0, 1), repeat=6)
        )
        assert best_s == pytest.approx(expected, rel=1e-12)
        assert snr(ris, best_cb, noise) == pytest.approx(best_s, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(rows=st.integers(0, 3), cols=st.integers(0, 4), seed=st.integers(0, 2**32 - 1),
           std=st.sampled_from([0.0, 0.4]), block=st.integers(1, 40), ties=st.booleans())
    @example(rows=4, cols=4, seed=3, std=0.0, block=4096, ties=False)
    @example(rows=4, cols=4, seed=8, std=0.4, block=3000, ties=False)
    @example(rows=0, cols=3, seed=1, std=0.4, block=1, ties=False)
    @example(rows=2, cols=3, seed=2, std=0.0, block=5, ties=True)
    def test_blocks_give_the_per_candidate_oracle_bytes(self, rows, cols, seed, std, block, ties):
        # `ties` floors every strength, so equal maxima appear, often in two blocks
        ris = random_ris(rows * cols, seed)
        noise = NoiseSpec(variance=0.7)
        if ties:
            def evaluate(grids):
                return np.floor(snr_stack(ris, grids, noise))

            def strength(cb):
                return float(math.floor(scalar_snr(ris, cb, noise)))
        else:
            def evaluate(grids):
                return snr_stack(ris, grids, noise)

            def strength(cb):
                return scalar_snr(ris, cb, noise)
        probes = [ObjectiveProbe(evaluate, std, seed)]
        if not ties:
            probes.append(snr_probe(ris, noise, std, seed))
        want_cb, want_s = per_candidate_oracle(strength, rows, cols, std, seed)
        with mock.patch.object(trgr.ris, "BRUTE_FORCE_BLOCK", block):
            for probe in probes:
                got_cb, got_s = brute_force(probe, rows, cols)
                assert got_cb == want_cb
                assert type(got_s) is float and repr(got_s) == repr(want_s)
        # snr is the one-row case of the same expression
        assert repr(snr(ris, want_cb, noise)) == repr(scalar_snr(ris, want_cb, noise))

    def test_size_cap(self):
        assert BRUTE_FORCE_MAX_BITS == 20
        with pytest.raises(ValueError):
            brute_force(ObjectiveProbe(constant(0.0)), 3, 7)

    @pytest.mark.parametrize("rows, cols", [(-1, -1), (-2, 3), (2, -3), (0, -1)])
    def test_negative_shape_rejected_before_any_read(self, rows, cols):
        def unread(grids):
            raise AssertionError("no block may be read")

        with pytest.raises(ValueError, match=r"rows, cols >= 0"):
            brute_force(ObjectiveProbe(unread), rows, cols)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_non_finite_reading_raises(self, bad):
        # skipping it once returned (None, -inf)
        with pytest.raises(ValueError, match="not finite"):
            brute_force(ObjectiveProbe(constant(bad)), 2, 2)
