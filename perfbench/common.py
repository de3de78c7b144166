"""Plumbing shared by every workload: statistics, op logs, scratch space.

Nothing here imports :mod:`repro`; ``run.py`` pins the BLAS/OpenMP thread
counts before numpy or the library is imported, so this module must stay
importable first.
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Sequence

#: The checkout the benchmark runs in (the parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
#: Where runs write traces, result files and scratch data (git-ignored).
OUT_DIR = ROOT / ".perfbench-out"


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (numpy's default method), q in [0, 1]."""
    if not values:
        raise ValueError("quantile of an empty sample")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def tail_quantile_ok(n: int, q: float, beyond: int = 10) -> bool:
    """Whether ``n`` samples put at least ``beyond`` samples past quantile q."""
    return n * (1.0 - q) >= beyond


class OpLog:
    """Latencies of the timed operations of one run, by op kind."""

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = {}
        self.sequence: List[tuple] = []     # (kind, ms) in run order
        self.attempted = 0
        self.failed = 0
        self.errors: Dict[str, int] = {}

    def add(self, kind: str, ms: float) -> None:
        self.attempted += 1
        self.samples.setdefault(kind, []).append(ms)
        self.sequence.append((kind, ms))

    def fail(self, kind: str, error: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        key = f"{kind}:{type(error).__name__}"
        self.errors[key] = self.errors.get(key, 0) + 1

    def all_ms(self) -> List[float]:
        return [ms for values in self.samples.values() for ms in values]

    def summary(self) -> Dict[str, dict]:
        """Per-kind count, p50 and p95 (p95 only where the sample supports it)."""
        out = {}
        for kind, values in sorted(self.samples.items()):
            entry = {"n": len(values), "p50_ms": median(values)}
            if tail_quantile_ok(len(values), 0.95):
                entry["p95_ms"] = quantile(values, 0.95)
            out[kind] = entry
        return out


class Deadline:
    """A measurement window of a fixed length, started on construction."""

    def __init__(self, seconds: float):
        self.ends = time.perf_counter() + float(seconds)

    def expired(self) -> bool:
        return time.perf_counter() >= self.ends


@contextmanager
def scratch_dir(prefix: str):
    """A fresh directory under :data:`OUT_DIR`, removed on exit."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=OUT_DIR))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


@contextmanager
def checkout_tmpdir():
    """Point ``TMPDIR`` (inherited by worker processes) into the checkout.

    Fleet workers bind AF_UNIX sockets under the temp directory, and those
    paths must stay within the kernel's ~107-byte limit, so a checkout
    whose path is too long keeps the system temp directory.
    """
    tmp = OUT_DIR / "tmp"
    if len(str(tmp)) > 60:
        yield
        return
    tmp.mkdir(parents=True, exist_ok=True)
    previous = os.environ.get("TMPDIR")
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None           # re-read TMPDIR
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = previous
        tempfile.tempdir = None
        shutil.rmtree(tmp, ignore_errors=True)


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def cpu_steal_s() -> float:
    """Seconds of CPU time the hypervisor gave to other guests (all CPUs).

    A shared host that runs other tenants slows every timing here; the
    steal over a run is saved with its result to tell such runs apart.
    """
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def answers_equal(a, b, rtol: float = 1e-9) -> bool:
    """Two :class:`~repro.query.QueryResult` objects agree group by group.

    Completed joins are pinned bitwise up to row order; aggregates summed
    over rows in another order may differ in the last float64 bits, so
    values compare with a relative tolerance far above float64 rounding
    (~1e-16 per addition) and far below any real change in the answer.
    """
    if set(a.values) != set(b.values):
        return False
    for key, x in a.values.items():
        y = b.values[key]
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        if abs(x - y) > rtol * max(abs(x), abs(y)):
            return False
    return True


def max_rel_diff(a, b) -> float:
    """Largest relative difference between two results' shared groups."""
    worst = 0.0
    for key, x in a.values.items():
        y = b.values.get(key)
        if y is None or x == y:
            continue
        worst = max(worst, abs(x - y) / max(abs(x), abs(y), 1e-300))
    return worst


def answers_identical(a, b) -> bool:
    """Bitwise equality of two query results (NaN equal to NaN)."""
    if set(a.values) != set(b.values):
        return False
    return all(
        x == b.values[k] or (math.isnan(x) and math.isnan(b.values[k]))
        for k, x in a.values.items()
    )


def fmt_metric(name: str, value: float, unit: str) -> str:
    return f"  {name:<34s} {value:>14.6g} {unit}"
