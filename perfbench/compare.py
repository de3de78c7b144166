"""Compare two saved benchmark results of the same workload.

    python3 perfbench/compare.py .perfbench-out/A.json .perfbench-out/B.json

Each run of ``run.py`` saves its full result, stamped with
``repro.obs.bench_envelope()``.  Timings from different machines are not
comparable, so this refuses (exit code 2) when the two results' host
fingerprints differ.  Otherwise it prints each metric of B against A and
flags an end-to-end metric that got worse by more than its bound in
``BENCHMARK.json`` (exit code 1).  One pair of runs is an anecdote: the
bounds are meant for medians over several seeds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FINGERPRINT = ("hostname", "platform", "python_version", "numpy_version")


def fingerprint(record: dict) -> dict:
    envelope = record["envelope"]
    out = {key: envelope[key] for key in FINGERPRINT}
    out["cpus"] = record.get("host_cpus")
    return out


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    if a["workload"] != b["workload"] or a["traced"] != b["traced"]:
        print("refusing: the results come from different workloads or passes")
        return 2
    if fingerprint(a) != fingerprint(b):
        print(f"refusing: host fingerprints differ\n  A {fingerprint(a)}\n  B {fingerprint(b)}")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {e["name"]: e for e in spec["end_to_end"]}
    worse = 0
    for name, entry in a["metrics"].items():
        if name not in b["metrics"]:
            continue
        va, vb = entry["value"], b["metrics"][name]["value"]
        ratio = vb / va if va else float("nan")
        flag = ""
        if name in bounds and va:
            change = (vb - va) / va
            if bounds[name]["better"] == "higher":
                change = -change
            if change > bounds[name]["bound"]:
                flag = f"  WORSE by {change:.1%} (bound {bounds[name]['bound']:.0%})"
                worse += 1
        print(f"{name:<36s} {va:>14.6g} {vb:>14.6g} {entry['unit']:<6s} x{ratio:.3f}{flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
