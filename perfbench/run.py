"""Run one benchmark workload, or all of them, and print the result.

    python3 perfbench/run.py --workload table1-session --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout.  The workloads, metric names, units and
bounds live in ``BENCHMARK.json``; ``perfbench/README.md`` documents them.

With ``--trace 0`` the last stdout line is one JSON object with the
end-to-end metrics; with ``--trace 1`` (a separate, traced pass) it holds
the per-layer metrics, and the Chrome trace of the pass is written under
``.perfbench-out/``.  Every run also writes its full result, stamped with
``repro.obs.bench_envelope()``, to ``.perfbench-out/``; compare two of
them with ``perfbench/compare.py``.  The exit code is 0 only when every
correctness check passed.
"""

from __future__ import annotations

import os

# Pin every BLAS/OpenMP pool to one thread before numpy is imported
# (here or in any module imported below): thread pools that oversubscribe
# the cores make run-to-run times swing far more than any code change.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("table1-session", "sf-stream", "fleet-open")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def import_library():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library sources at {src}/repro; "
                         "run from the root of a full checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    # bench_envelope() asks git for the commit; never search above the
    # checkout for a repository.
    os.environ.setdefault("GIT_CEILING_DIRECTORIES", str(ROOT.parent))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {src}")
    return repro


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    if name == "table1-session":
        from perfbench import session as module
    elif name == "sf-stream":
        from perfbench import stream as module
    elif name == "fleet-open":
        from perfbench import fleet as module
    else:
        raise SystemExit(f"perfbench: unknown workload {name!r}")
    return module.run(seed, seconds, traced)


def metrics_block(spec: dict, result: dict, traced: bool) -> dict:
    """The result's metrics in spec order, each with its unit."""
    entries = spec["per_layer"] if traced else spec["end_to_end"]
    values = result["layers"] if traced else result["e2e"]
    if not traced:
        missing = [e["name"] for e in entries if e["name"] not in values]
        if missing:
            raise SystemExit(f"perfbench: workload did not measure {missing}")
    # A layer the workload bypasses reads 0 (e.g. fleet counters in-process).
    return {e["name"]: {"value": float(values.get(e["name"], 0.0)), "unit": e["unit"]}
            for e in entries}


def write_outputs(workload: str, seed: int, traced: bool, result: dict,
                  metrics: dict) -> Path:
    import repro.obs as obs

    from perfbench.common import OUT_DIR

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(traced)}"
    spans = result.pop("spans", None)
    if spans:
        obs.export_chrome_trace(OUT_DIR / f"{stem}.trace.json", spans=spans)
    record = {
        "workload": workload, "seed": seed, "traced": traced,
        "correct": not result["mismatches"], "metrics": metrics,
        "details": result.get("details", {}), "mismatches": result["mismatches"],
        "host_cpus": os.cpu_count(),
        # every op latency (ms), for statistics beyond the JSON line
        "samples": result.get("samples", {}),
        "envelope": obs.bench_envelope(),
    }
    path = OUT_DIR / f"{stem}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    return path


def print_report(workload: str, result: dict, metrics: dict) -> None:
    from perfbench.common import fmt_metric

    print(f"== {workload}")
    for key, value in result.get("details", {}).items():
        if key != "breakdown":
            print(f"  {key}: {json.dumps(value, default=str)}")
    if "breakdown" in result.get("details", {}):
        from perfbench.ledger import print_breakdown

        print_breakdown(result["details"]["breakdown"])
    for name, entry in metrics.items():
        print(fmt_metric(name, entry["value"], entry["unit"]))
    for problem in result["mismatches"]:
        print(f"  CHECK FAILED: {problem}")


def run_all(args) -> int:
    """Each workload in its own process (so peak RSS is its own)."""
    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, check=False)
        ok = ok and proc.returncode == 0
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help=f"one of {', '.join(WORKLOADS)}, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement window (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload == "all":
        return run_all(args)
    import_library()
    from perfbench.common import checkout_tmpdir, cpu_steal_s

    traced = bool(args.trace)
    steal = cpu_steal_s()
    with checkout_tmpdir():
        result = run_workload(args.workload, args.seed, args.seconds, traced)
    result["details"]["host_steal_s"] = cpu_steal_s() - steal
    metrics = metrics_block(spec, result, traced)
    path = write_outputs(args.workload, args.seed, traced, result, metrics)
    print_report(args.workload, result, metrics)
    print(f"  full result: {path.relative_to(ROOT)}")
    correct = not result["mismatches"]
    print(json.dumps({"correct": correct, "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
