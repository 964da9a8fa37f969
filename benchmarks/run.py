"""Benchmark of the trgr pipeline.

    python3 benchmarks/run.py --workload desk-train --seed 7 --seconds 30 --trace 0

Run it from the root of a checkout that holds src/trgr and configs/desk.json;
it imports trgr from that checkout's src/ and exits 2 without a result when
they are missing.  Every file it writes goes under .bench_runs/ in the
checkout; the per-run work directory is removed on exit.

A run sets up its workload three times (setup_s is the import time plus the
median set-up), then measures closed-loop cycles for --seconds seconds and
prints, as its last line, one JSON object with `correct`, `attempted`,
`failed` and `metrics`:

- --trace 0: the end-to-end metrics setup_s, peak_rss_mb, primary_per_s and
  secondary_per_s: work completed per second over all the window's operations
  of each kind (workloads.py says what they count on each workload).  No
  wrapper is installed.
- --trace 1: the per-layer metrics.  The third set-up runs traced, the window
  is measured untraced for half of --seconds, then one more cycle of fixed
  work runs traced.  Per-layer values sum the traced set-up and the traced
  cycle; trace_delta.* is traced minus untraced.  Spans are written to
  .bench_runs/spans-<workload>.npz.

Computed counts (conv MACs, probes, recordings, dataset bytes, and in traced
runs Codebook constructions and call counts) must repeat in every cycle and in
every run in the checkout; .bench_runs/ledger.json keeps the first run's
values.  The lines before the result hold the environment block and a summary
of every sample set (median, quartiles, tail percentile, count).
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".bench_runs"
WORKLOAD_NAMES = ("desk-train", "full-geometry", "desk-synth")  # keys of workloads.WORKLOADS
SETUP_REPS = 3
REQUIRED = ("src/trgr/__init__.py", "configs/desk.json")

# Traced counts that depend only on a workload's geometry: every traced run of
# the workload must report the same values, whatever its seed.
LEDGER_TRACED = ("codebook.constructed", "ris.probes", "gait.render_recording.calls",
                 "channel.frequency_response.calls", "pipeline.dataset_bytes",
                 "rcnn.conv.calls", "rcnn.predict.frames", "rcnn.step_ms.samples")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="trgr benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def check_repeats(ops, ledger, prefix: str, values: list[dict]) -> None:
    """Each cycle reports the same values, and so does every earlier run."""
    if not values:
        return
    first = values[0]
    ops.check(f"{prefix} repeat across cycles", all(v == first for v in values), str(values))
    for name, value in sorted(first.items()):
        key = f"{prefix}/{name}"
        ops.check(f"{key} matches earlier runs", ledger.agree(key, value),
                  f"{value} vs {ledger.data[key]}")


def run(args, import_s: float) -> dict:
    from harness import Ledger, Ops, Samples, median, peak_rss_mb, summary
    from tracing import PER_LAYER_UNITS, Tracer
    from workloads import WORKLOADS, Context

    ops = Ops()
    ledger = Ledger(STATE / "ledger.json")
    work = STATE / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(f"{args.workload}-seed{args.seed}-{os.getpid()}-{time.time_ns()}") if args.trace else None
    reps: list[float] = []
    workload = untraced = traced = None
    rss_untraced = 0.0
    try:
        ctx = Context(ROOT, work, args.seed, ops)
        if tracer:
            ctx.unobserved = tracer.suspended
        workload = WORKLOADS[args.workload](ctx)
        for rep in range(SETUP_REPS):
            gc.collect()
            traced_rep = tracer is not None and rep == SETUP_REPS - 1
            if traced_rep:
                tracer.install()
            try:
                t0 = time.perf_counter()
                workload.setup()
                reps.append(time.perf_counter() - t0)
            finally:
                if traced_rep:
                    tracer.uninstall()
        gc.collect()
        untraced = workload.measure(args.seconds / 2 if tracer else args.seconds)
        rss_untraced = peak_rss_mb()
        if tracer:
            gc.collect()
            tracer.install()
            tracer.cycle = len(untraced.counts)
            try:
                traced = workload.traced_pass(tracer.cycle)
            finally:
                tracer.uninstall()
    except Exception as exc:  # the program under test failed: report it, do not crash
        ops.fail(f"run aborted: {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if untraced is not None:
        check_repeats(ops, ledger, f"{args.workload}/counts", untraced.counts)
        check_repeats(ops, ledger, f"{args.workload}/seed={args.seed}", untraced.digests)
    untraced_reps = reps[:SETUP_REPS - 1] if tracer else reps
    setup_s = import_s + median(untraced_reps)
    untraced = untraced or Samples()
    stats = {"setup_reps_s": summary(reps)}
    for name in untraced.timed:
        stats[name] = {"rate": untraced.rate(name), "per_op": summary(untraced.rates(name))}

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "primary_per_s": (untraced.rate("primary_per_s"), "items/s"),
            "secondary_per_s": (untraced.rate("secondary_per_s"), "items/s"),
        }
    else:
        layer = tracer.layer_metrics()
        macs, cols = getattr(workload, "step_conv_counts", (0, 0))
        layer["rcnn.conv.macs"], layer["rcnn.conv.im2col_bytes"] = macs, cols
        layer["pipeline.prepare_mb_per_s"] = untraced.rate("prepare_mb_per_s")
        if traced is not None:
            layer["trace_delta.setup_s"] = reps[-1] - median(untraced_reps)
            for name in ("primary_per_s", "secondary_per_s"):
                layer[f"trace_delta.{name}"] = traced.rate(name) - untraced.rate(name)
                stats[f"traced_{name}"] = {"rate": traced.rate(name),
                                           "per_op": summary(traced.rates(name))}
            layer["trace_delta.peak_rss_mb"] = peak_rss_mb() - rss_untraced
            check_repeats(ops, ledger, f"{args.workload}/seed={args.seed}", traced.digests)
            check_repeats(ops, ledger, f"{args.workload}/traced",
                          [{name: layer[name] for name in LEDGER_TRACED}])
        tracer.write(STATE / f"spans-{args.workload}.npz")
        metrics = {name: (layer[name], unit) for name, unit in PER_LAYER_UNITS.items()}

    ledger.save()
    print(json.dumps({"summary": stats, "failures": ops.failures}))
    return {
        "correct": ops.failed == 0 and ops.attempted > 0,
        "attempted": max(ops.attempted, 1),
        "failed": ops.failed if ops.attempted else 1,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from harness import cap_blas_threads, environment

    cap_blas_threads()
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import trgr.cli  # noqa: F401  (numpy and every trgr module)

    import_s = time.perf_counter() - t0
    if Path(trgr.cli.__file__).resolve().parent != (ROOT / "src" / "trgr").resolve():
        print(f"error: imported trgr from {trgr.cli.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    result = run(args, import_s)
    print(json.dumps({"environment": environment(ROOT)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
