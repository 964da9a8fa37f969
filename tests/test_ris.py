"""Line-flip search behaviour, trace bookkeeping, and the exhaustive oracle."""
import csv
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trgr.channel import NoiseSpec, RisChannel, snr
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
            ObjectiveProbe(lambda cb: 0.0, measurement_noise_std=-0.1)

    def test_noiseless_reader_is_exact(self):
        probe = ObjectiveProbe(lambda cb: float(cb.grid.size))
        read = probe.reader()
        assert read(Codebook.zeros(2, 3)) == 6.0

    def test_noisy_readers_restart_the_same_stream(self):
        probe = ObjectiveProbe(lambda cb: 1.0, measurement_noise_std=0.5, seed=7)
        cb = Codebook.zeros(1, 1)
        r1, r2 = probe.reader(), probe.reader()
        seq1 = [r1(cb), r1(cb), r1(cb)]
        seq2 = [r2(cb), r2(cb), r2(cb)]
        assert seq1 == seq2  # independent readers replay the same stream
        assert seq1[0] != seq1[1]  # draws differ within one stream

    def test_snr_probe_matches_snr(self):
        ris = random_ris(4, seed=2)
        noise = NoiseSpec(variance=0.5)
        probe = snr_probe(ris, noise)
        cb = Codebook(np.array([[1, 0], [0, 1]], dtype=np.uint8))
        assert probe.reader()(cb) == pytest.approx(snr(ris, cb, noise), rel=1e-12)


class TestOptimize:
    def test_visit_schedule_columns_then_rows_each_sweep(self):
        probe = ObjectiveProbe(lambda cb: 0.0)
        trace = optimize(probe, Codebook.zeros(2, 3), outer_iters=5)
        assert len(trace.steps) == 5 * (2 + 3)
        per_sweep = [("column", 0), ("column", 1), ("column", 2), ("row", 0), ("row", 1)]
        for t in range(1, 6):
            sweep = [s for s in trace.steps if s.t == t]
            assert [(s.kind, s.index) for s in sweep] == per_sweep
            assert [s.i for s in sweep] == [1, 2, 3, 4, 5]

    def test_constant_objective_never_accepts(self):
        probe = ObjectiveProbe(lambda cb: 1.0)
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
            optimize(ObjectiveProbe(lambda cb: 0.0), Codebook.zeros(2, 2), outer_iters=0)


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


class TestBruteForce:
    def test_finds_global_max_of_binary_value_objective(self):
        def value(cb: Codebook) -> float:
            bits = cb.grid.reshape(-1)
            return float(sum(int(b) << (len(bits) - 1 - j) for j, b in enumerate(bits)))

        best_cb, best_s = brute_force(ObjectiveProbe(value), 2, 3)
        assert best_s == 2**6 - 1
        assert best_cb.grid.sum() == 6

    def test_tie_keeps_smallest_row_major_binary_value(self):
        best_cb, best_s = brute_force(ObjectiveProbe(lambda cb: 42.0), 2, 2)
        assert best_s == 42.0
        assert best_cb == Codebook.zeros(2, 2)

    def test_enumerates_every_configuration_once(self):
        seen = []
        probe = ObjectiveProbe(lambda cb: float(len(seen)) * 0.0 or seen.append(
            cb.grid.tobytes()) or 0.0)
        brute_force(probe, 2, 2)
        assert len(seen) == 16
        assert len(set(seen)) == 16

    @pytest.mark.parametrize("rows, cols", [(1, 1), (1, 3), (2, 2), (3, 1), (2, 3), (2, 4),
                                            (1, 8)])
    def test_kth_candidate_is_k_in_binary_msb_first(self, rows, cols):
        seen = []
        brute_force(ObjectiveProbe(lambda cb: seen.append(cb.grid.reshape(-1).tolist()) or 0.0),
                    rows, cols)
        n = rows * cols
        assert seen == [[int(ch) for ch in format(k, f"0{n}b")] for k in range(1 << n)]

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

    def test_size_cap(self):
        assert BRUTE_FORCE_MAX_BITS == 20
        with pytest.raises(ValueError):
            brute_force(ObjectiveProbe(lambda cb: 0.0), 3, 7)
