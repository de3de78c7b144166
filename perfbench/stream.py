"""``sf-stream``: generate, complete and aggregate an SF database out of core.

Each pass of the measured loop

1. streams the counter-based scale generator (``repro.datasets.scale``,
   ``SCALE_FACTOR``, generator seed = the run's seed) into a
   memory-mapped column store (``MappedStore``);
2. transplants a model trained on an ``SLICE_ROOTS``-root slice of
   universe 0 onto the mapped layout;
3. walks the spilled ``IncompletenessJoin`` one chunk of ``CHUNK_ROWS``
   root rows at a time (each chunk walk is one timed op), then
   ``assemble``s the store-backed result;
4. answers one aggregate over it: the weighted ``COUNT(reading)``.

Set-up (repeated ``SETUP_REPEATS`` times, median reported) is generating
the training slice and fitting the model.  The model always comes from
universe 0, so answer quality does not swing with the training draw.  No engine cache and no serving
layer is involved: the workload isolates storage writes, dictionary
encoding and the chunk walk.
"""

from __future__ import annotations

import time
from typing import Dict, List

from .common import Deadline, OpLog, dir_bytes, median, scratch_dir
from .ledger import Ledger

SCALE_FACTOR = 1.0
SLICE_ROOTS = 8000
CHUNK_ROWS = 2048
EPOCHS = 6
SETUP_REPEATS = 7


def fit_slice(cfg):
    """Fit the completion model on a regenerated in-RAM slice."""
    from repro.core import ARCompletionModel, ModelConfig, PathLayout, build_encoders
    from repro.datasets import generate_scale_incomplete
    from repro.datasets.scale import scale_training_slice
    from repro.nn import TrainConfig
    from repro.relational import CompletionPath

    slice_cfg = scale_training_slice(cfg, SLICE_ROOTS)
    train_db, train_ann = generate_scale_incomplete(slice_cfg)
    model = ARCompletionModel(
        PathLayout(train_db, train_ann, CompletionPath(("site", "reading")),
                   build_encoders(train_db, num_bins=8), tf_cap=cfg.fan_out_cap),
        ModelConfig(hidden=(24, 24), train=TrainConfig(
            epochs=EPOCHS, batch_size=256, lr=1e-2, patience=3)),
    )
    model.fit()
    return model.state_dict()


def transplant(cfg, db, annotation, state):
    from repro.core import ARCompletionModel, ModelConfig, PathLayout, build_encoders
    from repro.nn import TrainConfig
    from repro.relational import CompletionPath

    model = ARCompletionModel(
        PathLayout(db, annotation, CompletionPath(("site", "reading")),
                   build_encoders(db, num_bins=8), tf_cap=cfg.fan_out_cap),
        ModelConfig(hidden=(24, 24), train=TrainConfig(
            epochs=EPOCHS, batch_size=256, lr=1e-2, patience=3)),
    )
    model.load_state_dict(state)
    model.mark_fitted_from_artifact()
    return model


class Stream:
    def __init__(self, cfg, state, ledger: Ledger):
        self.cfg = cfg
        self.state = state
        self.ledger = ledger
        self.ops = OpLog()
        self.passes: List[Dict[str, float]] = []
        self.mismatches: List[str] = []

    def one_pass(self) -> None:
        from repro.core import IncompletenessJoin
        from repro.datasets import generate_scale_incomplete
        from repro.datasets.scale import fan_outs

        cfg, layer = self.cfg, self.ledger.layer
        info: Dict[str, float] = {}
        with scratch_dir("sf-") as work:
            started = time.perf_counter()
            with self.ledger.op("generate"), layer("generate"):
                db, annotation = generate_scale_incomplete(cfg, spill_dir=str(work / "db"))
            info["generate_s"] = time.perf_counter() - started
            rows_in = len(db.table("site")) + len(db.table("reading"))
            info["rows_in"] = rows_in
            info["store_bytes"] = dir_bytes(work / "db")
            with self.ledger.op("transplant"), layer("transplant"):
                model = transplant(cfg, db, annotation, self.state)
            join = IncompletenessJoin(model, seed=0, chunk_size=CHUNK_ROWS,
                                      spill_dir=str(work / "join"))
            tables = join.effective_tables()
            outputs = []
            walk_s = 0.0
            for task in join.chunk_tasks(tables):
                started = time.perf_counter()
                with self.ledger.op("chunk"), layer("walk"):
                    outputs.extend(join.walk_chunks([task], tables))
                elapsed = time.perf_counter() - started
                walk_s += elapsed
                self.ops.add("chunk", elapsed * 1e3)
            with self.ledger.op("assemble"):
                started = time.perf_counter()
                with layer("assemble"):
                    completed = join.assemble(outputs, tables)
                info["assemble_s"] = time.perf_counter() - started
                with layer("aggregate"):
                    weights = completed.result.effective_weights()
                    estimate = float(weights.sum())
                    min_weight = float(weights.min())
            info["walk_s"] = walk_s
            info["rows_out"] = completed.num_rows
            info["synthesized"] = sum(completed.num_synthesized.values())
            truth = float(fan_outs(cfg, 0, cfg.num_roots).sum())
            info["rel_error"] = abs(estimate - truth) / truth
            evidence = len(db.table("reading"))
            if not completed.num_rows > evidence:
                self.mismatches.append(
                    f"completed rows {completed.num_rows} <= evidence {evidence}")
            if not min_weight > 0:
                self.mismatches.append(f"non-positive weight {min_weight}")
            if self.passes and completed.num_rows != self.passes[0]["rows_out"]:
                self.mismatches.append(
                    f"row count {completed.num_rows} differs from the first "
                    f"pass ({self.passes[0]['rows_out']}) at the same seed")
            del completed, outputs, join, model, db
        self.passes.append(info)


def run(seed: int, seconds: float, traced: bool) -> dict:
    import repro.obs as obs
    from repro.datasets import ScaleConfig

    from . import ledger as lg

    cfg = ScaleConfig(scale_factor=SCALE_FACTOR, seed=seed)
    runs = []
    if traced:
        state, layers = lg.traced_setup(
            lambda: fit_slice(ScaleConfig(scale_factor=SCALE_FACTOR, seed=0)))
        layers["fit.models"] = 1.0
        runs.append(layers["fit.s"])
    else:
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            state = fit_slice(ScaleConfig(scale_factor=SCALE_FACTOR, seed=0))
            runs.append(time.perf_counter() - started)

    # Untraced passes give the metrics; the traced run alternates untraced
    # and traced passes so their difference is the tracing overhead.
    ledger = Ledger()
    stream = Stream(cfg, state, ledger)
    traced_stream = Stream(cfg, state, ledger)
    deadline = Deadline(seconds)
    profiler = obs.KernelProfiler()
    while not (deadline.expired() and stream.passes):
        stream.one_pass()
        if traced:
            obs.enable_tracing()
            obs.enable_kernel_profiling(profiler)
            try:
                traced_stream.one_pass()
            finally:
                obs.disable_kernel_profiling()
                obs.disable_tracing()
    p = stream.passes
    details = {
        "scale_factor": SCALE_FACTOR, "chunk_rows": CHUNK_ROWS,
        "setup_runs_s": runs, "passes": len(p),
        "rows_in": p[0]["rows_in"], "rows_out": p[0]["rows_out"],
        "ingest_rows_per_s": median([x["rows_in"] / x["generate_s"] for x in p]),
        "join_rows_per_s": median([x["rows_out"] / (x["walk_s"] + x["assemble_s"]) for x in p]),
        "ops": stream.ops.summary(),
    }
    result = {"attempted": stream.ops.attempted, "failed": stream.ops.failed,
              "details": details, "samples": {"sequence": stream.ops.sequence},
              "mismatches": stream.mismatches + traced_stream.mismatches}
    if not traced:
        all_ms = stream.ops.all_ms()
        result["e2e"] = {
            "setup_s": median(runs),
            "op_p75_ms": lg.quantile_or_zero(all_ms, 0.75),
            "op_p95_ms": lg.quantile_or_zero(all_ms, 0.95),
            "throughput_per_s": (sum(x["rows_out"] for x in p)
                                 / sum(x["walk_s"] + x["assemble_s"] for x in p)),
            "peak_rss_mb": obs.peak_rss_bytes() / 1e6,
            "rel_error_median": median([x["rel_error"] for x in p]),
        }
        return result

    spans = obs.get_tracer().spans()
    breakdown = lg.op_breakdown(spans)
    details["breakdown"] = breakdown
    result["spans"] = spans
    tp = traced_stream.passes
    for info in tp:
        ledger.counts["join.rows_out"] += info["rows_out"]
        ledger.counts["join.synthesized_rows"] += info["synthesized"]
    layers.update(lg.kernel_metrics(profiler.snapshot()))
    layers.update(lg.common_layer_metrics(spans, ledger))
    layers.update({
        "scale.generate_ms": lg.mean_or_zero(lg.span_stats(spans, "bench.generate")),
        "storage.bytes_per_row": median([x["store_bytes"] / x["rows_in"] for x in tp]),
        "trace.coverage_min": lg.coverage_min(breakdown),
        "trace.overhead_ms": (median(traced_stream.ops.all_ms())
                              - median(stream.ops.all_ms())),
    })
    result["layers"] = layers
    return result
