"""``fleet-open``: an open loop of Poisson arrivals against a 2-worker fleet.

Set-up (repeated ``SETUP_REPEATS`` times, median reported; the last fleet
serves the measurement): generate housing at scale 1.0, apply the H1
removal, fit, ``save_artifact``, start a ``FleetRouter`` with
``min(2, cpu_count)`` worker processes (one completion thread each) and
warm every worker's join cache with the request pool.

The request pool holds ``POOL`` seeded predicate variants of H1's Table 1
queries (Q1, Q6): the ``room_type`` constant redrawn and a seeded
``price >=`` bound added.  One load-generator coroutine sends Poisson
arrivals (schedule drawn from the run's seed): first the fixed steps
(150 and the reference 300 req/s), then ``SWEEPS`` capacity sweeps up
``SWEEP_RATES``.  Each request is timed from the moment it was due, so
generator stalls count against latency.  Every step reports sent /
succeeded / failed, p50 / p95 / p99, generator lateness and the backlog
at its start and end; the fleet drains between steps.  The latency limit
is p95 <= ``LIMIT_P95_MS``.

After warm-up the chunk walk sits idle: time goes to the router, the
wire, micro-batching and the warm answer path.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import random
import time
from typing import List

from .common import (OpLog, answers_equal, answers_identical, dir_bytes, median,
                     quantile, scratch_dir)

#: The low-rate step and its share of the measurement window.
LOW_RATE, LOW_SHARE = 150, 0.05
#: The reference rate runs in ``SWEEPS`` steps of ``REFERENCE_SHARE`` of
#: the window each, one before every capacity sweep, so a burst of host
#: contention lands in one of them, not in all.
REFERENCE_RATE, REFERENCE_SHARE = 300, 0.1
#: Capacity sweeps: each climbs this ladder, ``SWEEP_STEP_SHARE`` of the
#: window per step, and stops at the first step that misses the limit.
#: The capacity is the highest rate any sweep sustained: a shared host's
#: slow phases lower single sweeps, and several sweeps find the rate the
#: fleet itself sustains.
SWEEP_RATES = (450, 600, 750, 900, 1050, 1200, 1350, 1500)
SWEEP_STEP_SHARE = 0.025
SWEEPS = 4
#: The latency limit: p95 at most this (see ``step_percentiles``).
LIMIT_P95_MS = 50.0
POOL = 256
#: A step's p50/p95 are medians over consecutive blocks of this many
#: requests (in due-time order), 15 samples beyond each block's p95: one
#: scheduler stall on a shared host then moves one block, not the step.
BLOCK = 300
#: The traced run alternates this many untraced and traced blocks.
TRACE_BLOCKS = 3
SETUP_REPEATS = 3
DRAIN_TIMEOUT_S = 30.0


def fit_and_save(path):
    """Fit housing/H1 and save its artifact.

    Returns the engine, the complete database, the fit seconds and the
    save seconds.
    """
    from repro import ReStore
    from repro.experiments.common import ExperimentConfig
    from repro.workloads import ALL_SETUPS, base_database

    from .session import EPOCHS, KEEP_RATE, REMOVAL_CORRELATION, SCALE

    setup = ALL_SETUPS["H1"]
    db = base_database("housing", seed=0, scale=SCALE)
    dataset = setup.make(db, KEEP_RATE, REMOVAL_CORRELATION, seed=0)
    engine = ReStore.from_dataset(
        dataset, ExperimentConfig(scale=SCALE, epochs=EPOCHS).engine_config())
    started = time.perf_counter()
    engine.fit(targets=[setup.incomplete_table])
    fit_s = time.perf_counter() - started
    started = time.perf_counter()
    engine.save_artifact(path)
    return engine, db, fit_s, time.perf_counter() - started


def request_pool(db, seed: int):
    """Seeded predicate variants of H1's Table 1 queries."""
    from repro.query import Filter, FilterOp
    from repro.workloads import queries_for

    from .session import py, variant

    rng = random.Random(seed)
    bases = [q for _, (setup, q) in sorted(queries_for("housing").items())
             if setup == "H1"]
    prices = sorted({py(v) for v in db.table("apartment")["price"] if v == v})
    pool = []
    for i in range(POOL):
        query = variant(db, bases[i % len(bases)], rng)
        bound = prices[rng.randrange(len(prices) // 2)]
        pool.append(dataclasses.replace(
            query, filters=query.filters + (Filter("price", FilterOp.GE, float(bound)),)))
    return pool


def fleet_config():
    from repro.serving import FleetConfig, ServiceConfig

    return FleetConfig(
        n_workers=min(2, os.cpu_count() or 1),
        worker=ServiceConfig(n_workers=1, max_queue=64, max_batch=16),
    )


async def start_fleet(artifact, pool):
    from repro.serving import FleetRouter

    fleet = FleetRouter(artifact, fleet_config())
    await fleet.start()
    try:
        # The first round is cold per join signature (routed to one worker,
        # one join each); the second spreads warm and fills every worker.
        for _ in range(2):
            await asyncio.gather(*(fleet.submit(query) for query in pool))
    except BaseException:
        await fleet.close()
        raise
    return fleet


class OpenLoop:
    """One load generator; latencies timed from each request's due time."""

    def __init__(self, fleet, pool, reference, seed: int):
        from .ledger import Ledger

        self.ledger = Ledger()      # its spans are no-ops while tracing is off
        self.fleet = fleet
        self.pool = pool
        self.reference = reference
        self.rng = random.Random(seed)
        self.ops = OpLog()
        self.steps: List[dict] = []
        self.mismatches: List[str] = []
        self.bitwise = 0
        self._outstanding = 0

    async def _one(self, index: int, due: float, latencies: List[float], step):
        loop = asyncio.get_running_loop()
        try:
            with self.ledger.op("request"), self.ledger.layer("submit"):
                answer = await self.fleet.submit(self.pool[index])
        except Exception as exc:   # shed, rejected or failed: counted
            step["failed"] += 1
            self.ops.fail("request", exc)
            return
        finally:
            self._outstanding -= 1
        ms = (loop.time() - due) * 1e3
        latencies.append((due, ms))
        step["succeeded"] += 1
        self.ops.add(f"request@{step['rate']}", ms)
        expected = self.reference[index]
        if not answers_equal(answer.result, expected):
            self.mismatches.append(f"fleet answer != in-process answer for pool[{index}]")
        self.bitwise += answers_identical(answer.result, expected)

    async def step(self, rate: float, seconds: float) -> dict:
        loop = asyncio.get_running_loop()
        step = {"rate": rate, "sent": 0, "succeeded": 0, "failed": 0}
        latencies: List[float] = []
        late: List[float] = []
        tasks = []
        step["backlog_start"] = self._outstanding
        start = loop.time() + 0.005
        due = start
        while True:
            due += self.rng.expovariate(rate)
            if due - start > seconds:
                break
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            late.append(max(0.0, loop.time() - due) * 1e3)
            index = self.rng.randrange(len(self.pool))
            self._outstanding += 1
            step["sent"] += 1
            tasks.append(asyncio.ensure_future(self._one(index, due, latencies, step)))
        step["backlog_end"] = self._outstanding
        await asyncio.wait_for(asyncio.gather(*tasks), DRAIN_TIMEOUT_S)
        latencies = [ms for _, ms in sorted(latencies)]     # due-time order
        step["p50_ms"], step["p95_ms"] = step_percentiles(latencies)
        step["p99_ms"] = quantile(latencies, 0.99) if latencies else float("inf")
        step["late_p99_ms"] = quantile(late, 0.99) if late else 0.0
        # A backlog that grows by more than the latency limit's worth of
        # arrivals over the step means the fleet is falling behind.
        step["backlog_growing"] = (step["backlog_end"] - step["backlog_start"]
                                   > rate * LIMIT_P95_MS / 1e3)
        step["meets_limit"] = (step["failed"] == 0 and not step["backlog_growing"]
                               and step["p95_ms"] <= LIMIT_P95_MS)
        step["latencies"] = latencies
        self.steps.append(step)
        return step


def blocked(latencies: List[float]) -> List[List[float]]:
    """Consecutive blocks of about ``BLOCK`` requests (due-time order)."""
    n = max(1, len(latencies) // BLOCK)
    size = len(latencies) // n
    return [latencies[i * size:(i + 1) * size] for i in range(n)]


def step_percentiles(latencies: List[float]):
    """(p50, p95) of a step: medians over its blocks of ``BLOCK`` requests."""
    if not latencies:
        return float("inf"), float("inf")
    blocks = blocked(latencies)
    return (median([median(b) for b in blocks]),
            median([quantile(b, 0.95) for b in blocks]))


def max_rate(steps: List[dict]) -> float:
    """The highest rate meeting the limit, interpolated to the p95 knee.

    ``steps`` climb in rate, every one but the last meeting the limit.
    Between the last passing step and the first failing one, the rate is
    interpolated linearly in p95 (a step that failed requests or grew a
    backlog counts as p95 = 2x the limit).
    """
    passing = None
    for step in steps:
        if step["meets_limit"]:
            passing = step
            continue
        p95 = step["p95_ms"]
        if step["failed"] or step["backlog_growing"]:
            p95 = max(p95, 2 * LIMIT_P95_MS)
        if passing is None:
            return step["rate"] * LIMIT_P95_MS / p95
        frac = (LIMIT_P95_MS - passing["p95_ms"]) / (p95 - passing["p95_ms"])
        return passing["rate"] + (step["rate"] - passing["rate"]) * frac
    return steps[-1]["rate"]


async def _run(seed: int, seconds: float, traced: bool) -> dict:
    import repro.obs as obs
    from repro import ReStore

    from . import ledger as lg

    with scratch_dir("fleet-") as work:
        setup_runs, save_runs = [], []
        fleet = None
        for i in range(1 if traced else SETUP_REPEATS):
            if fleet is not None:
                await fleet.close()
                fleet = None
            artifact = work / f"artifact-{i}"
            started = time.perf_counter()
            if traced:
                (engine, db, _, save_s), fit_layers = lg.traced_setup(
                    lambda: fit_and_save(artifact))
                fit_layers["fit.models"] = float(len(engine.fitted_models()))
            else:
                _, db, _, save_s = fit_and_save(artifact)
            pool = request_pool(db, seed)
            fleet = await start_fleet(artifact, pool)
            setup_runs.append(time.perf_counter() - started)
            save_runs.append(save_s)
        try:
            started = time.perf_counter()
            local = ReStore.load(artifact)
            load_s = time.perf_counter() - started
            reference = [local.answer(q).result for q in pool]
            loop = OpenLoop(fleet, pool, reference, seed)
            if traced:
                # Untraced and traced blocks at the reference rate alternate,
                # so their p50 difference is the tracing overhead.
                untraced, traced_steps = [], []
                for _ in range(TRACE_BLOCKS):
                    untraced.append(await loop.step(REFERENCE_RATE, seconds / TRACE_BLOCKS / 2))
                    obs.enable_tracing()
                    traced_steps.append(await loop.step(REFERENCE_RATE, seconds / TRACE_BLOCKS / 2))
                    obs.disable_tracing()
                spans = obs.get_tracer().spans()
            else:
                await loop.step(LOW_RATE, seconds * LOW_SHARE)
                references, capacities = [], []
                for sweep in range(SWEEPS):
                    ref = await loop.step(REFERENCE_RATE, seconds * REFERENCE_SHARE)
                    references.append(ref)
                    climbed = [ref]
                    for rate in SWEEP_RATES:
                        step = await loop.step(rate, seconds * SWEEP_STEP_SHARE)
                        step["sweep"] = sweep
                        climbed.append(step)
                        if not step["meets_limit"]:
                            break       # past the knee: higher rates only queue
                    capacities.append(max_rate(climbed))
            stats = await fleet.stats()
        finally:
            await fleet.close()
        artifact_bytes = dir_bytes(artifact)

    steps = [{k: v for k, v in s.items() if k != "latencies"} for s in loop.steps]
    details = {"setup_runs_s": setup_runs, "workers": stats.workers,
               "steps": steps, "op_errors": loop.ops.errors,
               "bitwise_equal_answers": loop.bitwise}
    result = {"attempted": sum(s["sent"] for s in steps),
              "failed": sum(s["failed"] for s in steps),
              "details": details, "mismatches": list(loop.mismatches),
              "samples": {"steps": [[s["rate"], s["latencies"]] for s in loop.steps]}}
    if not traced:
        details["max_rps_per_sweep"] = capacities
        blocks = [block for ref in references for block in blocked(ref["latencies"])]
        p75s = [quantile(b, 0.75) for b in blocks]
        p95s = [quantile(b, 0.95) for b in blocks]
        result["e2e"] = {
            "setup_s": median(setup_runs),
            "op_p75_ms": median(p75s),
            "op_p95_ms": median(p95s),
            "throughput_per_s": max(capacities),
            "peak_rss_mb": obs.peak_rss_bytes() / 1e6,
            "rel_error_median": _rel_error_median(local, db),
        }
        return result

    breakdown = lg.op_breakdown(spans)
    submits = [s for s in spans if s.name == "fleet.submit"]
    kids = lg.children_index(spans)
    router_pid = os.getpid()
    self_ms, worker_ms = [], []
    for span in submits:
        worker = sum(k.duration_us for k in kids.get(span.span_id, ()) if k.pid != router_pid)
        worker_ms.append(worker / 1e3)
        self_ms.append((span.duration_us - worker) / 1e3)
    if "request" in breakdown:
        # Inside the public submit call: router + wire + queue vs the
        # worker's stitched spans.
        breakdown["request"]["layers_ms"].update({
            "submit.router_self": lg.mean_or_zero(self_ms),
            "submit.worker": lg.mean_or_zero(worker_ms)})
    details["breakdown"] = breakdown
    per_worker = stats.per_worker
    result["spans"] = spans
    result["layers"] = {
        **fit_layers,
        "artifact.save_s": save_runs[0],
        "artifact.load_s": load_s,
        "artifact.bytes": float(artifact_bytes),
        "fleet.completed": float(stats.completed),
        "fleet.failed": float(stats.failed),
        "fleet.shed": float(stats.shed),
        "fleet.joins_started": float(stats.joins_started),
        "fleet.coalesced": float(stats.coalesced_requests),
        "worker.batch_size_mean": lg.mean_or_zero(
            w.get("mean_batch_size", 0.0) for w in per_worker),
        "fleet.router_self_ms": lg.median_or_zero(self_ms),
        "serve.group_ms": lg.mean_or_zero(lg.span_stats(spans, "serve.group")),
        "generator.late_p99_ms": median([s["late_p99_ms"] for s in untraced]),
        "trace.coverage_min": lg.coverage_min(breakdown),
        "trace.overhead_ms": (median([s["p50_ms"] for s in traced_steps])
                              - median([s["p50_ms"] for s in untraced])),
    }
    return result


def _rel_error_median(engine, db) -> float:
    """Median relative error of H1's Table 1 queries, as Table 1 states them."""
    from repro.metrics import relative_error
    from repro.query import execute
    from repro.workloads import queries_for

    errors = [relative_error(engine.answer(q).result, execute(db, q))
              for setup, q in queries_for("housing").values() if setup == "H1"]
    return median(errors)


def run(seed: int, seconds: float, traced: bool) -> dict:
    return asyncio.run(_run(seed, seconds, traced))
