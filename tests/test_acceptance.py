"""Acceptance suite: eight go/no-go checks covering the whole system.

Each test prints one [PASS]/[FAIL] line (visible under `pytest -s`) with the
measured numbers, then asserts.  The heavy end-to-end checks (5 and 6) drive
the real CLI through subprocesses on the committed config presets.
"""
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import trgr
from helpers import run_gradient_suite
from trgr.channel import NoiseSpec, RisChannel, snr
from trgr.cli import main
from trgr.codebook import Codebook
from trgr.config import file_digest
from trgr.gait import CsiRecording, default_scenario
from trgr.pipeline import FilterSpec, denoise_recording, normalize, split_dataset
from trgr.rcnn.metrics import metrics_from_predictions
from trgr.ris import brute_force, optimize, snr_probe

ROOT = Path(__file__).resolve().parent.parent


def report(name: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def run_cli(args, cwd=ROOT, timeout=1800) -> subprocess.CompletedProcess:
    # the child runs the trgr these tests import, whether or not it is installed
    path = [str(Path(trgr.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, "-m", "trgr.cli", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_criterion_1_shape_fidelity(capsys):
    expected = [
        ("input", "1x150x8192"),
        ("conv1", "8x74x4095"),
        ("res_block1", "8x37x2048"),
        ("res_block2", "8x37x2048"),
        ("pool1", "8x18x1024"),
        ("conv2", "16x8x511"),
        ("pool2", "16x4x255"),
        ("conv3", "8x2x128"),
        ("pool3", "8x1x64"),
        ("conv4", "8x1x32"),
        ("fc_in", "256"),
        ("output", "10"),
    ]
    t0 = time.perf_counter()
    code = main(["shapes", "--height", "150", "--width", "8192", "--classes", "10"])
    elapsed = time.perf_counter() - t0
    lines = [tuple(ln.split()) for ln in capsys.readouterr().out.strip().splitlines()]
    with capsys.disabled():
        ok = code == 0 and lines == expected and elapsed < 1.0
        report("criterion 1 (shape fidelity)", ok,
               f"11/11 stage sizes exact, {elapsed * 1000:.0f} ms"
               if lines == expected else f"mismatch: {lines}")


def test_criterion_2_optimizer_oracle_equivalence():
    noise = NoiseSpec(variance=1.0)
    t0 = time.perf_counter()
    channels = 0
    worst_gap = -np.inf
    monotone = True
    for rows in range(1, 5):
        for cols in range(1, 5):
            for seed in range(7):
                rng = np.random.default_rng(1000 + 97 * rows + 13 * cols + seed)
                n = rows * cols
                ris = RisChannel(
                    rng.standard_normal(n) + 1j * rng.standard_normal(n),
                    rng.standard_normal(n) + 1j * rng.standard_normal(n),
                    np.full(n, 25e-9),
                )
                probe = snr_probe(ris, noise)
                trace = optimize(probe, Codebook.zeros(rows, cols), outer_iters=5)
                _, brute_best = brute_force(probe, rows, cols)
                worst_gap = max(worst_gap, trace.best_strength - brute_best)
                inc = trace.accepted_strengths()
                monotone &= all(b > a for a, b in zip(inc, inc[1:]))
                channels += 1
    elapsed = time.perf_counter() - t0
    ok = channels >= 100 and worst_gap <= 1e-9 and monotone and elapsed < 60.0
    report("criterion 2 (optimizer vs brute force)", ok,
           f"{channels} channels, oracle never beaten (worst gap {worst_gap:.2e}), "
           f"accepted strengths strictly increasing, {elapsed:.1f} s")


def test_criterion_3_snr_gain_direction():
    scenario = default_scenario()
    probe = snr_probe(scenario.ris, scenario.noise)
    initial = Codebook.zeros(16, 16)
    t0 = time.perf_counter()
    trace = optimize(probe, initial, outer_iters=5)
    elapsed = time.perf_counter() - t0
    rho0 = snr(scenario.ris, initial, scenario.noise)
    gain_db = 10.0 * np.log10(trace.best_strength / rho0)
    ok = gain_db >= 6.0 and elapsed < 10.0
    report("criterion 3 (SNR gain direction)", ok,
           f"optimized codebook gains {gain_db:.2f} dB over all-zeros "
           f"(threshold 6 dB), {elapsed:.2f} s")


def test_criterion_4_gradient_suite():
    t0 = time.perf_counter()
    worst = run_gradient_suite(trials=20, seed=1234)
    elapsed = time.perf_counter() - t0
    overall = max(worst.values())
    ok = overall <= 1e-4 and elapsed < 120.0
    detail = ", ".join(f"{k} {v:.1e}" for k, v in sorted(worst.items()))
    report("criterion 4 (gradient checks, 20 trials/layer)", ok,
           f"worst relative error {overall:.2e} <= 1e-4 ({detail}), {elapsed:.1f} s")


def test_criterion_5_end_to_end_recognition(tmp_path):
    config = ROOT / "configs" / "desk.json"
    gen_dir = tmp_path / "gen"
    t0 = time.perf_counter()
    gen = run_cli(["generate", "--config", str(config), "--output", str(gen_dir)])
    assert gen.returncode == 0, gen.stderr
    dataset = gen_dir / "dataset_ris_on.bin"

    accuracies, digests, logs = [], [], []
    for run in ("a", "b"):
        out = tmp_path / f"train_{run}"
        res = run_cli(["train", "--config", str(config), "--output", str(out),
                       "--dataset", str(dataset)])
        assert res.returncode == 0, res.stderr
        metrics = json.loads((out / "metrics.json").read_text())
        accuracies.append(metrics["accuracy_pct"])
        digests.append(file_digest(out / "model.bin"))
        logs.append((out / "training_log.csv").read_text())
    elapsed = time.perf_counter() - t0

    deterministic = (accuracies[0] == accuracies[1]
                     and digests[0] == digests[1]
                     and logs[0] == logs[1])
    ok = accuracies[0] >= 90.0 and deterministic and elapsed < 1800.0
    report("criterion 5 (desk-scale recognition)", ok,
           f"test accuracy {accuracies[0]:.2f}% (threshold 90%), rerun identical "
           f"(metrics, log, checkpoint bytes), {elapsed / 60:.1f} min")


def test_criterion_6_ablation_direction(tmp_path):
    config = ROOT / "configs" / "desk-hard.json"
    out = tmp_path / "ablate"
    t0 = time.perf_counter()
    res = run_cli(["ablate", "--config", str(config), "--output", str(out)])
    elapsed = time.perf_counter() - t0
    assert res.returncode == 0, res.stderr
    rep = json.loads((out / "ablation_report.json").read_text())
    delta = rep["accuracy_delta_pp"]
    ok = delta >= 5.0 and elapsed < 3600.0
    report("criterion 6 (ablation direction)", ok,
           f"ris_on {rep['ris_on']['accuracy_pct']:.2f}% vs ris_off "
           f"{rep['ris_off']['accuracy_pct']:.2f}%, delta {delta:+.2f} pp "
           f"(threshold +5), {elapsed / 60:.1f} min")


def test_criterion_7_metrics_arithmetic():
    m1 = metrics_from_predictions([0, 0, 1, 1], [0, 1, 1, 1], 2)
    checks = [
        abs(m1.accuracy - 0.75),
        abs(m1.macro_precision - 5.0 / 6.0),
        abs(m1.macro_recall - 0.75),
        abs(m1.macro_f1 - 11.0 / 15.0),
    ]
    m2 = metrics_from_predictions([0, 0, 1, 1], [0, 0, 0, 0], 2)
    checks += [abs(m2.accuracy - 0.5), abs(m2.macro_f1 - 1.0 / 3.0)]
    worst = max(checks)
    ok = worst < 1e-9
    report("criterion 7 (metrics hand examples)", ok,
           f"both confusion-matrix examples match, worst deviation {worst:.1e}")


def moving_average(series: np.ndarray, spec: FilterSpec) -> np.ndarray:
    """The denoising filter on one series, as a recording with one subcarrier."""
    rec = CsiRecording(np.asarray(series, dtype=np.float64)[:, None], 0, 0)
    return denoise_recording(rec, spec).magnitudes[:, 0]


def test_criterion_8_pipeline_properties():
    t0 = time.perf_counter()
    spec3 = FilterSpec(3)
    edge = moving_average(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), spec3)
    edge_ok = np.allclose(edge, [1.5, 2.0, 3.0, 4.0, 4.5], atol=1e-12)

    rng = np.random.default_rng(12)
    x, y = rng.standard_normal(40), rng.standard_normal(40)
    linear_ok = np.allclose(
        moving_average(3.0 * x - 2.0 * y, FilterSpec(7)),
        3.0 * moving_average(x, FilterSpec(7)) - 2.0 * moving_average(y, FilterSpec(7)),
        atol=1e-12,
    )
    identity_ok = np.array_equal(moving_average(x, FilterSpec(1)), x)

    norm = normalize(CsiRecording(rng.random((30, 8)) * 5 + 2, 0, 1))
    norm_ok = (abs(norm.magnitudes.mean()) < 1e-9
               and abs(norm.magnitudes.std() - 1.0) < 1e-9)

    split_ok = True
    for n, want_train in [(3, 2), (4, 3), (5, 3), (6, 4), (50, 33)]:
        recs = [CsiRecording(np.full((2, 2), float(i)), label=i % 2, episode_seed=i)
                for i in range(2 * n)]
        split = split_dataset(recs, split_seed=4)
        for label in (0, 1):
            got = sum(1 for r in split.train if r.label == label)
            split_ok &= got == want_train
        split_ok &= len(split.train) + len(split.test) == len(recs)
        split_ok &= (sorted(r.episode_seed for r in split.train + split.test)
                     == list(range(2 * n)))
    elapsed = time.perf_counter() - t0

    ok = edge_ok and linear_ok and identity_ok and norm_ok and split_ok and elapsed < 60
    report("criterion 8 (pipeline properties)", ok,
           "edge example, linearity, window-1 identity, normalization moments, "
           f"round(2n/3) stratified split all hold, {elapsed:.2f} s")
