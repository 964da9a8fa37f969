"""Shared pieces of the benchmark: operation accounting, the cross-run ledger,
sample statistics and the environment block."""
from __future__ import annotations

import json
import os
import platform
import resource
import statistics
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Ops:
    """Operations attempted and failed.

    An operation is one call into the program (a CLI command, a training step,
    one optimizer/oracle pair) or one output check.  A call that raises and a
    check whose condition is false both count as failed.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def begin(self) -> None:
        self.attempted += 1

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.begin()
        if not ok:
            self.fail(f"{name}: {detail}" if detail else name)
        return ok


class Ledger:
    """Values that must repeat exactly across runs in one checkout.

    The first run records a value; every later run must report the same one.
    """

    def __init__(self, path: Path):
        self.path = path
        self.data = json.loads(path.read_text()) if path.exists() else {}

    def agree(self, key: str, value) -> bool:
        return self.data.setdefault(key, value) == value

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, self.path)


class Samples:
    """Timed operations of one measured window as (items, seconds) pairs per
    rate name, plus each cycle's computed counts (fixed by the workload) and
    output digests (fixed by the workload and seed)."""

    def __init__(self):
        self.timed: dict[str, list[tuple[float, float]]] = {}
        self.counts: list[dict[str, int]] = []
        self.digests: list[dict[str, str]] = []

    def add(self, rate: str, items: float, seconds: float) -> None:
        self.timed.setdefault(rate, []).append((items, seconds))

    def extend(self, other: "Samples") -> None:
        for rate, pairs in other.timed.items():
            self.timed.setdefault(rate, []).extend(pairs)
        self.counts += other.counts
        self.digests += other.digests

    def rate(self, name: str) -> float:
        """Work completed per second over the whole window."""
        pairs = self.timed.get(name, [])
        seconds = sum(s for _, s in pairs)
        return sum(i for i, _ in pairs) / seconds if seconds else 0.0

    def rates(self, name: str) -> list[float]:
        """Per-operation rates."""
        return [i / s for i, s in self.timed.get(name, [])]


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def summary(values) -> dict:
    """Median, quartiles, the highest percentile with >= 10 samples beyond it, and n."""
    out = {"n": len(values), "median": median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    pct, value = tail_percentile(values)
    if pct:
        out[f"p{pct:g}"] = value
    return out


TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(values) -> tuple[float, float]:
    """(p, value) for the highest p in TAIL_PERCENTILES with >= 10 samples
    above it; (0, 0) when there are fewer than 20 samples."""
    n = len(values)
    ordered = sorted(values)
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            rank = p / 100.0 * (n - 1)
            lo = int(rank)
            hi = min(lo + 1, n - 1)
            return p, ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)
    return 0.0, 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cap_blas_threads() -> None:
    """Keep BLAS/OpenMP thread counts at or below the CPUs this process may use.

    Must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown'
    when the checkout is not a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown")},
        "threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(root),
    }
