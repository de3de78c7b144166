"""The traced pass: each op decomposed into public layer calls.

With ``--trace 1`` a workload answers its ops through the library's public
functions in sequence, each call wrapped in a benchmark-side
``bench.<layer>`` span under one ``bench.op.<kind>`` span per op:

    select   ReStore.select_model
    plan     plan_pushdown (+ the qualifying-root mask)
    walk     IncompletenessJoin.walk_chunks
    assemble IncompletenessJoin.assemble
    join     ReStore.completed_join (cache hit, top-up or full run)
    project  ReStore.project_to_tables
    execute  execute_on_join
    progressive / mutate / recomplete / generate / aggregate / submit

The library's own spans (``engine.*``, ``join.*``, ``train.epoch``, the
fleet's stitched worker spans) nest inside and supply counts.  A layer's
time is its ``bench.*`` span duration; an op's unattributed share is what
its layer spans leave uncovered.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Dict, List, Optional

from .common import median, quantile


class Ledger:
    """Decomposed op bodies plus the counters the spans cannot carry."""

    def __init__(self) -> None:
        from repro.obs import trace

        self._trace = trace
        self.counts: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)

    # -- spans -----------------------------------------------------------
    def op(self, kind: str):
        return self._trace(f"bench.op.{kind}")

    def layer(self, name: str, **attrs):
        return self._trace(f"bench.{name}", **attrs)

    # -- session op bodies -------------------------------------------------
    def decomposed_answer(self, engine, query, kind):
        from repro.query import execute, execute_on_join, plan_pushdown

        from .session import target_of

        target = target_of(engine, query)
        if target is None:
            with self.layer("execute"):
                return execute(engine.db, query)
        with self.layer("select"):
            model = engine.select_model(target, query=query).model
        completed = None
        if kind == "pushdown":
            with self.layer("plan"):
                plan = plan_pushdown(engine.db, model.layout.path.tables, query)
            if plan.has_pushdown:
                completed = self.pushed_completion(engine, model, plan)
        if completed is None:
            with self.layer("join"):
                completed = engine.completed_join(model)
            if kind == "cold":
                self._count_join(completed)
        return self.project_execute(engine, completed, query, execute_on_join)

    def project_execute(self, engine, completed, query, execute_on_join):
        if set(completed.path.tables) == set(query.tables):
            joined = completed.result
        else:
            with self.layer("project"):
                joined = engine.project_to_tables(completed, query.tables)
            self.samples["project.rows_in"].append(completed.num_rows)
            self.samples["project.rows_out"].append(joined.num_rows)
        with self.layer("execute"):
            result = execute_on_join(joined, query)
        self.counts["execute.rows_scanned"] += joined.num_rows
        self.counts["execute.result_rows"] += max(1, len(result.values))
        return result

    def pushed_completion(self, engine, model, plan):
        """The engine's pushdown walk through public calls (no cache)."""
        from repro.core import IncompletenessJoin

        cfg = engine.config
        root = model.layout.path.tables[0]
        chunk = cfg.chunk_size or max(
            1, -(-len(engine.db.table(root)) // cfg.progressive_chunks))
        join = IncompletenessJoin(
            model, approximate_replacement=cfg.approximate_replacement,
            seed=cfg.seed, chunk_size=chunk, n_workers=cfg.n_workers,
            parallel_backend=cfg.parallel_backend,
        )
        tables = join.effective_tables()
        with self.layer("plan"):
            grid = join.chunk_tasks(tables)
            walked = grid
            if plan.has_root_filters:
                mask = join.qualifying_root_mask(plan, tables)
                walked = [t for t in grid if mask[t[0]:t[1]].any()]
                self.counts["pushdown.roots_qualifying"] += int(mask.sum())
            else:
                self.counts["pushdown.roots_qualifying"] += len(engine.db.table(root))
            self.counts["pushdown.roots_total"] += len(engine.db.table(root))
        with self.layer("walk"):
            outputs = join.walk_chunks(walked, tables, plan)
        with self.layer("assemble"):
            completed = join.assemble(outputs, tables, plan)
        self._count_join(completed)
        return completed

    def _count_join(self, completed) -> None:
        self.counts["join.rows_out"] += completed.num_rows
        self.counts["join.synthesized_rows"] += sum(completed.num_synthesized.values())

    def decomposed_progressive(self, engine, query):
        from .session import target_of

        with self.layer("select"):
            model = engine.select_model(target_of(engine, query), query=query).model
        started = time.perf_counter()
        result = None
        refinements = 0
        with self.layer("progressive"):
            for refinement in engine.answer_progressive(query, model=model):
                if result is None:
                    self.samples["progressive.first_ms"].append(
                        (time.perf_counter() - started) * 1e3)
                result = refinement.result
                refinements += 1
        self.samples["progressive.total_ms"].append((time.perf_counter() - started) * 1e3)
        self.samples["progressive.refinements"].append(refinements)
        self._last_progressive = (engine, model, query)
        return result

    def confidence_band(self) -> None:
        """Time one §6 band for the last progressive op's query on its full
        completion (outside any op span)."""
        from repro.core.confidence import ConfidenceEstimator, band_for_query

        engine, model, query = self._last_progressive
        completed = engine.completed_join(model)
        started = time.perf_counter()
        with self.layer("confidence"):
            band = band_for_query(ConfidenceEstimator(model, completed), query)
        if band is not None:
            self.samples["confidence.band_ms"].append((time.perf_counter() - started) * 1e3)

    def decomposed_write(self, engine, model, updates):
        with self.layer("mutate"):
            delta = engine.apply_mutations(updates=updates)
        with self.layer("recomplete"):
            completed = engine.recomplete(delta, model=model)
        info = completed.recompletion
        if info.get("chunks_total"):
            self.samples["recomplete.chunks_walked_ratio"].append(
                info["chunks_walked"] / info["chunks_total"])
        return completed

    def pushdown_profile(self, info: Optional[dict]) -> None:
        """Chunk counters of an engine-side pushdown answer."""
        if info:
            for key in ("chunks_walked", "chunks_cached", "chunks_skipped"):
                self.counts[f"pushdown.{key}"] += info.get(key, 0)


def traced_setup(build):
    """Run a set-up callable traced and kernel-profiled.

    Returns its result and the ``fit.s``, ``fit.epochs`` and
    ``kernels.multihead_nll.*`` layer metrics (``fit.models`` is the
    caller's), leaving the tracer empty for the measured pass.
    """
    import repro.obs as obs

    obs.enable_tracing()
    try:
        with obs.profile_kernels() as prof:
            started = time.perf_counter()
            out = build()
            seconds = time.perf_counter() - started
    finally:
        obs.disable_tracing()
    epochs = sum(span.name == "train.epoch" for span in obs.get_tracer().spans())
    obs.get_tracer().clear()
    nll = prof.snapshot().get("multihead_nll", {"calls": 0, "total_ms": 0.0})
    return out, {
        "fit.s": seconds,
        "fit.epochs": float(epochs),
        "kernels.multihead_nll.calls": float(nll["calls"]),
        "kernels.multihead_nll.ms": float(nll["total_ms"]),
    }


# ----------------------------------------------------------------------
# Span analysis
# ----------------------------------------------------------------------

def children_index(spans):
    kids = defaultdict(list)
    for span in spans:
        if span.parent_id is not None:
            kids[span.parent_id].append(span)
    return kids


def op_breakdown(spans) -> Dict[str, dict]:
    """Per op kind: op count, mean wall ms, mean ms per layer, coverage.

    Coverage is the share of the kind's summed op wall time that its
    direct ``bench.*`` layer spans account for.
    """
    kids = children_index(spans)
    per_kind: Dict[str, dict] = {}
    for span in spans:
        if not span.name.startswith("bench.op."):
            continue
        kind = span.name[len("bench.op."):]
        entry = per_kind.setdefault(kind, {"ops": 0, "wall_us": 0, "layers": defaultdict(int)})
        entry["ops"] += 1
        entry["wall_us"] += span.duration_us
        for child in kids.get(span.span_id, ()):
            if child.name.startswith("bench."):
                entry["layers"][child.name[len("bench."):]] += child.duration_us
    out = {}
    for kind, entry in sorted(per_kind.items()):
        covered = sum(entry["layers"].values())
        wall = max(1, entry["wall_us"])
        out[kind] = {
            "ops": entry["ops"],
            "wall_ms": entry["wall_us"] / 1e3 / entry["ops"],
            "layers_ms": {k: v / 1e3 / entry["ops"] for k, v in sorted(entry["layers"].items())},
            "coverage": covered / wall,
            "unattributed_share": 1.0 - covered / wall,
        }
    return out


def span_stats(spans, name: str) -> List[float]:
    """Durations (ms) of every span with this name."""
    return [s.duration_us / 1e3 for s in spans if s.name == name]


def mean_or_zero(values) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


def median_or_zero(values) -> float:
    values = list(values)
    return float(median(values)) if values else 0.0


#: The completion-time kernels ``repro.obs.profile_kernels`` accumulates.
KERNELS = ("made.sample", "dense", "tree.encode", "softmax")


def kernel_metrics(snapshot: dict) -> Dict[str, float]:
    """``kernels.<name>.{calls,ms,rows}`` of the completion-time kernels
    (zero for a kernel the pass never called)."""
    out = {}
    for name in KERNELS:
        entry = snapshot.get(name, {"calls": 0, "total_ms": 0.0, "rows": 0})
        key = name.replace(".", "_")
        out[f"kernels.{key}.calls"] = float(entry["calls"])
        out[f"kernels.{key}.ms"] = float(entry["total_ms"])
        out[f"kernels.{key}.rows"] = float(entry["rows"])
    return out


def coverage_min(breakdown: Dict[str, dict]) -> float:
    values = [entry["coverage"] for entry in breakdown.values()]
    return min(values) if values else 0.0


def print_breakdown(breakdown: Dict[str, dict]) -> None:
    print("per-op layer ledger (traced pass; mean ms per op):")
    for kind, entry in breakdown.items():
        layers = ", ".join(f"{k} {v:.2f}" for k, v in entry["layers_ms"].items())
        print(f"  {kind:<12s} n={entry['ops']:<5d} wall {entry['wall_ms']:8.2f} ms  "
              f"coverage {entry['coverage']:.3f}  [{layers}]")


def quantile_or_zero(values, q: float) -> float:
    values = list(values)
    return float(quantile(values, q)) if values else 0.0


def common_layer_metrics(spans, ledger: Ledger) -> Dict[str, float]:
    """The engine-path layer metrics every in-process workload shares."""
    c, s = ledger.counts, ledger.samples
    return {
        "select.calls": float(len(span_stats(spans, "bench.select"))),
        "select.ms": mean_or_zero(span_stats(spans, "bench.select")),
        "pushdown.plan_ms": (sum(span_stats(spans, "bench.plan"))
                             / max(1, len(span_stats(spans, "bench.op.pushdown")))),
        "pushdown.roots_qualifying_ratio": (
            c["pushdown.roots_qualifying"] / c["pushdown.roots_total"]
            if c["pushdown.roots_total"] else 0.0),
        "pushdown.chunks_walked": c["pushdown.chunks_walked"],
        "pushdown.chunks_cached": c["pushdown.chunks_cached"],
        "pushdown.chunks_skipped": c["pushdown.chunks_skipped"],
        "join.walk_ms": mean_or_zero(span_stats(spans, "join.walk_chunks")),
        "join.chunks_walked": float(len(span_stats(spans, "join.chunk"))),
        "join.rows_out": c["join.rows_out"],
        "join.synthesized_rows": c["join.synthesized_rows"],
        "join.assemble_ms": mean_or_zero(span_stats(spans, "bench.assemble")),
        "project.ms": mean_or_zero(span_stats(spans, "bench.project")),
        "project.rows_in": mean_or_zero(s["project.rows_in"]),
        "project.rows_out": mean_or_zero(s["project.rows_out"]),
        "execute.ms": mean_or_zero(span_stats(spans, "bench.execute")),
        "execute.rows_scanned_per_result_row": (
            c["execute.rows_scanned"] / c["execute.result_rows"]
            if c["execute.result_rows"] else 0.0),
        "progressive.first_ms": median_or_zero(s["progressive.first_ms"]),
        "progressive.total_ms": median_or_zero(s["progressive.total_ms"]),
        "progressive.refinements": mean_or_zero(s["progressive.refinements"]),
        "confidence.band_ms": median_or_zero(s["confidence.band_ms"]),
        "mutate.apply_ms": mean_or_zero(span_stats(spans, "bench.mutate")),
        "recomplete.ms": mean_or_zero(span_stats(spans, "bench.recomplete")),
        "recomplete.chunks_walked_ratio": mean_or_zero(s["recomplete.chunks_walked_ratio"]),
    }
