"""``table1-session``: a closed loop over the 20 Table 1 queries.

One in-process engine per paper setup (H1–H5 on housing, M1–M5 on movies,
scale 1.0, keep rate 0.4, removal correlation 0.6).  A single client plays
a seeded stream of operations; each op runs on the engine of its query's
paired setup:

* ``cold``        both caches of the engine emptied, then ``answer``;
* ``warm``        the previous cold op's query again (join cache hit);
* ``pushdown``    ``answer(pushdown=True)`` after dropping the full join,
                  so the chunk-level partial cache is all that helps;
* ``progressive`` ``answer_progressive`` consumed to its final refinement;
* ``write``       ``apply_mutations`` updating 1% of the model's root rows,
                  then ``recomplete(delta)``.

Every op except ``write`` uses a seeded predicate variant of its Table 1
query: each filter constant is redrawn from the column's values.  The
engines keep a deliberately small partial cache (``PARTIAL_CACHE_CHUNKS``)
so the distinct chunk sets of the variants overflow it.

Known failures: queries listed in ``EXPECTED_FAILURES`` raise on their
paired setup today.  They are probed once per run (untimed) and reported
as the ``session.known_failures`` layer metric with their error class; a
query that fails without being listed fails the run.
"""

from __future__ import annotations

import dataclasses
import random
import time
from typing import Dict, List, Optional, Tuple

from .common import (Deadline, OpLog, answers_equal, answers_identical,
                     max_rel_diff, median)
from .ledger import Ledger

SCALE = 1.0
KEEP_RATE = 0.4
REMOVAL_CORRELATION = 0.6
EPOCHS = 15
PARTIAL_CACHE_CHUNKS = 48
SETUP_REPEATS = 3
WRITE_FRACTION = 0.01
#: One round of the op stream: exact op counts, shuffled per round.
ROUND = {"cold": 4, "warm": 6, "pushdown": 5, "progressive": 3, "write": 2}
#: (dataset, query) -> error class raised on its paired setup today.
EXPECTED_FAILURES = {("movies", "Q7"): "RuntimeError"}


class SessionState:
    """Fitted engines, the complete databases and the Table 1 workload."""

    def __init__(self, dbs, engines, workload):
        self.dbs = dbs
        self.engines = engines        # setup name -> ReStore
        self.workload = workload      # (dataset, qname) -> (setup, Query)
        self.epoch = {name: 0 for name in engines}   # writes per engine


def build_session() -> SessionState:
    """Generate both databases, apply the ten removals, fit ten engines."""
    from repro import ReStore
    from repro.experiments.common import ExperimentConfig
    from repro.workloads import ALL_SETUPS, base_database, queries_for

    experiment = ExperimentConfig(scale=SCALE, epochs=EPOCHS)
    config = dataclasses.replace(
        experiment.engine_config(), partial_cache_chunks=PARTIAL_CACHE_CHUNKS
    )
    dbs = {d: base_database(d, seed=0, scale=SCALE) for d in ("housing", "movies")}
    engines = {}
    for name, setup in ALL_SETUPS.items():
        dataset = setup.make(dbs[setup.dataset], KEEP_RATE, REMOVAL_CORRELATION, seed=0)
        engine = ReStore.from_dataset(dataset, config)
        engine.fit(targets=[setup.incomplete_table])
        engines[name] = engine
    workload = {
        (d, q): entry for d in ("housing", "movies")
        for q, entry in queries_for(d).items()
    }
    return SessionState(dbs, engines, workload)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------

def py(value):
    """A numpy scalar as the plain Python value the query/mutation APIs take."""
    return value.item() if hasattr(value, "item") else value


def _column_values(db, query, column):
    """Distinct values of a filter column, searched over the query tables."""
    import numpy as np

    table_name, _, bare = column.rpartition(".")
    for name in ([table_name] if table_name else query.tables):
        table = db.table(name)
        if bare in table.column_names:
            return np.unique(table[bare])
    raise KeyError(column)


def variant(db, query, rng: random.Random):
    """The query with every filter constant redrawn from its column."""
    filters = []
    for f in query.filters:
        values = [py(v) for v in _column_values(db, query, f.column)]
        values = [v for v in values if v == v]      # drop NaN (missing)
        value = values[rng.randrange(len(values))]
        if isinstance(f.value, str):
            value = str(value)
        elif isinstance(f.value, float):
            value = float(value)
        elif isinstance(f.value, int):
            value = int(value)
        filters.append(dataclasses.replace(f, value=value))
    return dataclasses.replace(query, filters=tuple(filters))


def plan_stream(seed: int, runnable: List[Tuple[str, str]]):
    """An endless seeded op stream of (kind, (dataset, query), variant seed).

    Each round holds the exact op counts of ``ROUND`` in a seeded order.
    Each op kind walks its own seeded permutation of the runnable queries,
    so every query gets an equal share of every kind; a warm op re-asks
    the latest cold op's query and constants.
    """
    rng = random.Random(seed)
    cycles = {kind: [] for kind in ROUND}
    last_cold = None
    while True:
        kinds = [k for k, n in ROUND.items() for _ in range(n)]
        rng.shuffle(kinds)
        for kind in kinds:
            if not cycles[kind]:
                cycles[kind] = rng.sample(runnable, len(runnable))
            key = cycles[kind].pop()
            vseed = rng.randrange(1 << 30)
            if kind == "warm" and last_cold is not None:
                key, vseed = last_cold
            if kind == "cold":
                last_cold = (key, vseed)
            yield kind, key, vseed


def target_of(engine, query) -> Optional[str]:
    """The completion target the engine picks for a query (public rule)."""
    incomplete = [t for t in query.tables if not engine.annotation.is_complete(t)]
    if not incomplete:
        return None
    with_columns = [t for t in incomplete if engine.db.table(t).modelable_columns()]
    pool = with_columns or incomplete
    known = [t for t in pool if t in engine.candidate_scores()]
    return known[0] if known else pool[0]


def write_batch(engine, model, rng: random.Random) -> Dict[str, list]:
    """Updates for 1% of the model's root rows: one column, values copied
    from other rows of the same column (always in its domain)."""
    root = engine.db.table(model.layout.path.tables[0])
    columns = [c for c in root.modelable_columns() if c != root.primary_key]
    column = columns[rng.randrange(len(columns))]
    values = [py(v) for v in root[column]]
    present = [v for v in values if v == v]         # drop NaN (missing)
    keys = root[root.primary_key]
    n = max(1, int(round(WRITE_FRACTION * len(root))))
    rows = rng.sample(range(len(root)), n)
    return {model.layout.path.tables[0]: [
        {root.primary_key: py(keys[i]), column: present[rng.randrange(len(present))]}
        for i in rows
    ]}


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------

def probe_queries(state: SessionState):
    """Answer every Table 1 query once on its setup (untimed).

    Returns the runnable query keys, the relative error of each answer
    against the complete database, the known failures seen, and any
    unexpected failure.
    """
    from repro.metrics import relative_error
    from repro.query import execute

    runnable, errors, known, unexpected = [], {}, {}, {}
    for key, (setup, query) in state.workload.items():
        engine = state.engines[setup]
        try:
            answer = engine.answer(query)
        except Exception as exc:   # recorded per query, never dropped
            cls = type(exc).__name__
            if EXPECTED_FAILURES.get(key) == cls:
                known[f"{setup}/{key[1]}"] = cls
            else:
                unexpected[f"{setup}/{key[1]}"] = f"{cls}: {exc}"
            continue
        if key in EXPECTED_FAILURES:
            known[f"{setup}/{key[1]}"] = "fixed"
        runnable.append(key)
        truth = execute(state.dbs[key[0]], query)
        errors[f"{setup}/{key[1]}"] = relative_error(answer.result, truth)
    return runnable, errors, known, unexpected


def reset_caches(engine, partial: bool) -> None:
    engine.join_cache.invalidate()
    if partial:
        engine.partial_cache.invalidate()


class Session:
    """Runs the op stream; ``traced`` decomposes each op into layer calls."""

    def __init__(self, state: SessionState, seed: int, ledger: Optional[Ledger]):
        self.state = state
        self.seed = seed
        self.ledger = ledger
        self.ops = OpLog()
        self.first_ms: List[float] = []
        self.checks = {"warm_equals_cold": 0, "warm_bitwise_cold": 0,
                       "pushdown_equals_full": 0,
                       "progressive_equals_full": 0, "recomplete_bitwise": 0,
                       "decomposed_equals_answer": 0}
        self.mismatches: List[str] = []
        self._cold: Dict[Tuple, Tuple[int, object]] = {}
        self._recomplete_checked = False

    def _reference(self, engine, query):
        """The full-join answer (untimed); leaves the full join cached."""
        return engine.answer(query).result

    # -- one op --------------------------------------------------------
    def run_op(self, kind: str, key, vseed: int) -> None:
        setup, base = self.state.workload[key]
        engine = self.state.engines[setup]
        rng = random.Random(vseed)
        query = variant(engine.db, base, rng)
        label = f"{kind} {setup}/{key[1]}"
        if kind == "cold":
            reset_caches(engine, partial=True)
            result = self._timed(kind, lambda: self._answer(engine, query, kind))
            self._check_decomposed(engine, query, kind, result, label)
            self._cold[(key, vseed)] = (self.state.epoch[setup], result)
        elif kind == "warm":
            self._reference(engine, query)
            result = self._timed(kind, lambda: self._answer(engine, query, kind))
            self._check_decomposed(engine, query, kind, result, label)
            seen = self._cold.get((key, vseed))
            if seen is not None and seen[0] == self.state.epoch[setup]:
                # A full join rebuilt from cached chunks holds the same rows
                # in another order, so sums may differ in the last bits.
                if not answers_equal(seen[1], result):
                    self.mismatches.append(
                        f"{label}: warm != cold "
                        f"(max rel diff {max_rel_diff(seen[1], result):.3g})")
                self.checks["warm_equals_cold"] += 1
                self.checks["warm_bitwise_cold"] += answers_identical(seen[1], result)
        elif kind == "pushdown":
            reset_caches(engine, partial=False)
            result = self._timed(kind, lambda: self._answer(engine, query, kind))
            self._check_decomposed(engine, query, kind, result, label)
            if not answers_equal(result, self._reference(engine, query)):
                self.mismatches.append(f"{label}: pushdown != full")
            self.checks["pushdown_equals_full"] += 1
        elif kind == "progressive":
            result = self._timed(kind, lambda: self._progressive(engine, query))
            if not answers_equal(result, self._reference(engine, query)):
                self.mismatches.append(f"{label}: final refinement != full")
            self.checks["progressive_equals_full"] += 1
            if self.ledger is not None:
                self.ledger.confidence_band()
        elif kind == "write":
            model = engine.select_model(target_of(engine, base), query=base).model
            updates = write_batch(engine, model, rng)
            completed = self._timed(kind, lambda: self._write(engine, model, updates))
            self.state.epoch[setup] += 1
            if not self._recomplete_checked:
                self._check_recomplete(engine, model, completed, label)
        else:
            raise ValueError(kind)

    def _check_decomposed(self, engine, query, kind, result, label) -> None:
        """Traced pass only: the layer-by-layer result equals ``answer``."""
        if self.ledger is None:
            return
        if kind == "pushdown":
            reset_caches(engine, partial=False)
            answer = engine.answer(query, pushdown=True)
            self.ledger.pushdown_profile(answer.pushdown)
            same = answers_equal(result, answer.result)
        else:
            same = answers_identical(result, engine.answer(query).result)
        if not same:
            self.mismatches.append(f"{label}: decomposed != answer")
        self.checks["decomposed_equals_answer"] += 1

    def _timed(self, kind: str, fn):
        span = self.ledger.op(kind) if self.ledger else None
        started = time.perf_counter()
        if span is None:
            out = fn()
        else:
            with span:
                out = fn()
        self.ops.add(kind, (time.perf_counter() - started) * 1e3)
        return out

    def _check_recomplete(self, engine, model, completed, label) -> None:
        from repro.experiments import joins_bitwise_identical

        reset_caches(engine, partial=True)
        scratch = engine.completed_join(model)
        if not joins_bitwise_identical(completed, scratch):
            self.mismatches.append(f"{label}: recomplete != from-scratch join")
        self.checks["recomplete_bitwise"] += 1
        self._recomplete_checked = True

    # -- untraced op bodies are the engine's own entry points -----------
    def _answer(self, engine, query, kind):
        if self.ledger is not None:
            return self.ledger.decomposed_answer(engine, query, kind)
        return engine.answer(query, pushdown=(kind == "pushdown")).result

    def _progressive(self, engine, query):
        if self.ledger is not None:
            return self.ledger.decomposed_progressive(engine, query)
        started = time.perf_counter()
        result = None
        for refinement in engine.answer_progressive(query):
            if result is None:
                self.first_ms.append((time.perf_counter() - started) * 1e3)
            result = refinement.result
        return result

    def _write(self, engine, model, updates):
        if self.ledger is not None:
            return self.ledger.decomposed_write(engine, model, updates)
        delta = engine.apply_mutations(updates=updates)
        return engine.recomplete(delta, model=model)

    def play(self, deadline: Optional[Deadline] = None,
             max_ops: Optional[int] = None) -> None:
        """Play the stream until the deadline passes or ``max_ops`` ran."""
        stream = plan_stream(self.seed, self.state.runnable)
        for index, (kind, key, vseed) in enumerate(stream):
            if deadline is not None and deadline.expired():
                break
            if max_ops is not None and index >= max_ops:
                break
            try:
                self.run_op(kind, key, vseed)
            except Exception as exc:    # counted as a failed op, class kept
                self.ops.fail(kind, exc)


def run(seed: int, seconds: float, traced: bool) -> dict:
    """One run of the workload; see ``perfbench/run.py`` for the result."""
    import repro.obs as obs

    from . import ledger as lg

    if traced:
        state, layers = lg.traced_setup(build_session)
        layers["fit.models"] = float(
            sum(len(e.fitted_models()) for e in state.engines.values()))
        setup_s, setup_runs = layers["fit.s"], [layers["fit.s"]]
    else:
        runs = []
        for _ in range(SETUP_REPEATS):
            state = None                # free the previous build first
            started = time.perf_counter()
            state = build_session()
            runs.append(time.perf_counter() - started)
        setup_s, setup_runs = median(runs), runs

    state.runnable, errors, known, unexpected = probe_queries(state)
    for engine in state.engines.values():
        reset_caches(engine, partial=True)

    # The traced run's first half plays the decomposed ops with tracing
    # off; replaying the same ops traced gives the tracing overhead.
    session = Session(state, seed, Ledger() if traced else None)
    session.play(Deadline(seconds / 2 if traced else seconds))
    details = {
        "setup_runs_s": setup_runs,
        "rel_error": errors,
        "known_failures": known,
        "unexpected_failures": unexpected,
        "ops": session.ops.summary(),
        "op_errors": session.ops.errors,
        "checks": dict(session.checks),
    }
    if session.first_ms:
        details["progressive_first_p50_ms"] = median(session.first_ms)
    mismatches = list(session.mismatches) + [
        f"unexpected failure {k}: {v}" for k, v in unexpected.items()]
    result = {"attempted": session.ops.attempted, "failed": session.ops.failed,
              "details": details, "mismatches": mismatches,
              "samples": {"sequence": session.ops.sequence}}

    if not traced:
        all_ms = session.ops.all_ms()
        result["e2e"] = {
            "setup_s": setup_s,
            "op_p75_ms": lg.quantile_or_zero(all_ms, 0.75),
            "op_p95_ms": lg.quantile_or_zero(all_ms, 0.95),
            "throughput_per_s": 1e3 * len(all_ms) / sum(all_ms),
            "peak_rss_mb": obs.peak_rss_bytes() / 1e6,
            "rel_error_median": median(list(errors.values())),
        }
        return result

    # Traced pass: replay the same stream prefix, decomposed into layers.
    for engine in state.engines.values():
        reset_caches(engine, partial=True)
    before = _cache_totals(state)
    ledger = Ledger()
    traced_session = Session(state, seed, ledger)
    obs.enable_tracing()
    with obs.profile_kernels() as prof:
        traced_session.play(max_ops=session.ops.attempted)
    obs.disable_tracing()
    spans = obs.get_tracer().spans()
    after = _cache_totals(state)
    mismatches.extend(traced_session.mismatches)
    details["traced_checks"] = dict(traced_session.checks)
    details["traced_ops"] = traced_session.ops.summary()
    breakdown = lg.op_breakdown(spans)
    details["breakdown"] = breakdown
    result["spans"] = spans
    n = max(1, traced_session.ops.attempted)
    layers.update(lg.kernel_metrics(prof.snapshot()))
    layers.update(lg.common_layer_metrics(spans, ledger))
    layers.update({
        "join_cache.hit_rate": (after["hits"] - before["hits"]) / max(
            1, after["hits"] + after["misses"] - before["hits"] - before["misses"]),
        "join_cache.evictions": float(after["evictions"] - before["evictions"]),
        "partial_cache.hits": float(after["p_hits"] - before["p_hits"]),
        "partial_cache.subset_hits": float(after["p_subset"] - before["p_subset"]),
        "partial_cache.misses": float(after["p_misses"] - before["p_misses"]),
        "partial_cache.evictions": float(after["p_evictions"] - before["p_evictions"]),
        "session.known_failures": float(sum(v != "fixed" for v in known.values())),
        "trace.coverage_min": lg.coverage_min(breakdown),
        "trace.overhead_ms": (sum(traced_session.ops.all_ms())
                              - sum(session.ops.all_ms())) / n,
    })
    result["layers"] = layers
    return result


def _cache_totals(state: SessionState) -> Dict[str, int]:
    totals = {"hits": 0, "misses": 0, "evictions": 0, "p_hits": 0,
              "p_subset": 0, "p_misses": 0, "p_evictions": 0}
    for engine in state.engines.values():
        j, p = engine.cache_stats, engine.partial_cache_stats
        totals["hits"] += j.hits
        totals["misses"] += j.misses
        totals["evictions"] += j.evictions
        totals["p_hits"] += p.hits
        totals["p_subset"] += p.subset_hits
        totals["p_misses"] += p.misses
        totals["p_evictions"] += p.evictions
    return totals
