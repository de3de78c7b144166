"""Smoke test of the benchmark itself: every workload, tiny, both passes.

    python3 perfbench/smoke.py

Shrinks each workload (small databases, few epochs, one set-up, a short
window), runs its untraced and its traced pass in this process, and
checks that

* the untraced pass reports every ``end_to_end`` metric of
  ``BENCHMARK.json`` with its unit, each finite and non-zero;
* the traced pass reports every ``per_layer`` metric with its unit, each
  finite, and every layer metric is measured by at least one workload
  (``run.py`` fills a layer a workload bypasses with 0, so a misspelt
  name would otherwise pass unnoticed);
* every correctness check passed.

Prints every problem and exits non-zero if there was one.  Takes about
half a minute.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import run as bench  # noqa: E402  (pins BLAS threads first)

TINY_SECONDS = 2.0


def shrink() -> None:
    from perfbench import fleet, session, stream

    session.SCALE = 0.3
    session.EPOCHS = 3
    session.SETUP_REPEATS = 1
    stream.SCALE_FACTOR = 0.05
    stream.SLICE_ROOTS = 500
    stream.EPOCHS = 2
    stream.SETUP_REPEATS = 1
    fleet.SETUP_REPEATS = 1
    fleet.POOL = 8
    fleet.LOW_SHARE = 0.2
    fleet.REFERENCE_SHARE = 0.5
    fleet.SWEEP_RATES = (450, 600)
    fleet.SWEEP_STEP_SHARE = 0.15
    fleet.SWEEPS = 1
    fleet.BLOCK = 100
    fleet.TRACE_BLOCKS = 1


def main() -> int:
    bench.import_library()
    from perfbench.common import checkout_tmpdir

    spec = bench.load_spec()
    shrink()
    with checkout_tmpdir():
        return check(spec)


def check(spec) -> int:
    """Run every workload tiny, both passes; return the exit code."""
    measured_layers = set()
    problems = []
    for workload in bench.WORKLOADS:
        for traced in (False, True):
            result = bench.run_workload(workload, seed=7, seconds=TINY_SECONDS, traced=traced)
            metrics = bench.metrics_block(spec, result, traced)
            entries = spec["per_layer"] if traced else spec["end_to_end"]
            label = f"{workload} trace={int(traced)}"
            for entry in entries:
                got = metrics.get(entry["name"])
                if got is None or got["unit"] != entry["unit"]:
                    problems.append(f"{label}: {entry['name']} missing or wrong unit")
                    continue
                value = got["value"]
                if not math.isfinite(value):
                    problems.append(f"{label}: {entry['name']} = {value}")
                elif not traced and value == 0:
                    problems.append(f"{label}: end-to-end {entry['name']} reads 0")
                elif traced and entry["name"] in result["layers"]:
                    measured_layers.add(entry["name"])
            problems.extend(f"{label}: {m}" for m in result["mismatches"])
            if result["attempted"] < 1:
                problems.append(f"{label}: no op attempted")
            print(f"{label}: {len(metrics)} metrics, attempted {result['attempted']}, "
                  f"failed {result['failed']}, checks "
                  f"{'ok' if not result['mismatches'] else 'FAILED'}")
    for entry in spec["per_layer"]:
        if entry["name"] not in measured_layers:
            problems.append(f"layer metric {entry['name']} is measured by no workload")
    for problem in problems:
        print(f"SMOKE FAILED: {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
