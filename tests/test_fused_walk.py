"""Fused chunk walks: a grouped walk splits back into one-chunk walks.

``IncompletenessJoin.walk_chunks`` walks a call's chunk tasks as groups —
all of them in one walk on a serial executor, one chunk per task on
parallel executors or when spilling — and splits each group's walk back
into per-chunk outputs by row origin.  The contract under test:

* every per-chunk output of a grouped walk equals the output of walking
  that chunk alone, bitwise — state arrays and columns (row order
  included), parked dangling-FK states per slot, synthesis counts and
  issued ids — with and without a pushdown plan, on RAM and mapped roots,
  against one-chunk walks on every backend;
* the engine's cold → pushdown → top-up → recomplete sequence yields
  bitwise-identical joins and probes the partial cache exactly as a
  chunk-at-a-time walk would;
* groups stop at ``max_group_rows`` root rows, which the engine sets to
  its explicit ``chunk_size``;
* tracing emits one ``join.chunk`` span per group, whose ``chunks``
  attributes sum to the chunks walked.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import (
    ARCompletionModel,
    IncompletenessJoin,
    ModelConfig,
    PathLayout,
    ReStore,
    ReStoreConfig,
    build_encoders,
)
from repro.experiments import joins_bitwise_identical
from repro.datasets import HousingConfig, generate_housing
from repro.incomplete import RemovalSpec, make_incomplete, registry
from repro.nn import TrainConfig
from repro.obs import Tracer, disable_tracing, enable_tracing, set_tracer
from repro.query import parse_query, plan_pushdown
from repro.relational import CompletionPath

FAST = TrainConfig(epochs=2, batch_size=128, lr=1e-2, patience=2)

#: (registry scenario, completion path, pushdown query, quantile column)
CASES = {
    "housing": (
        "housing/H1",
        ("neighborhood", "apartment", "landlord"),
        "SELECT AVG(apartment.price) FROM neighborhood NATURAL JOIN "
        "apartment NATURAL JOIN landlord WHERE neighborhood.pop_density "
        ">= {q} AND apartment.accommodates <= 4",
        "neighborhood.pop_density",
    ),
    # movie_actor -> movie hits dangling FKs: rows are parked per chunk.
    "movies-actor": (
        "movies/M5",
        ("actor", "movie_actor", "movie", "movie_company", "company"),
        "SELECT COUNT(*) FROM actor NATURAL JOIN movie_actor NATURAL JOIN "
        "movie NATURAL JOIN movie_company NATURAL JOIN company "
        "WHERE company.country_code = '[in]'",
        None,
    ),
    "movies-company": (
        "movies/M5",
        ("company", "movie_company", "movie"),
        "SELECT COUNT(*) FROM company NATURAL JOIN movie_company NATURAL "
        "JOIN movie WHERE company.country_code = '[in]' "
        "AND movie.production_year >= {q}",
        "movie.production_year",
    ),
}

BACKENDS = (("serial", 1), ("thread", 2), ("process", 2))


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    """Per case, built once: a fitted model, its mapped-root twin and a
    pushdown plan."""
    built = {}

    def get(name):
        if name not in built:
            built[name] = _build_case(name, tmp_path_factory)
        return built[name]

    return get


def _build_case(name, tmp_path_factory):
    scenario, path, sql, quantile_column = CASES[name]
    dataset = registry.make_scenario_dataset(
        scenario, keep_rate=0.5, seed=1, scale=0.15
    )
    db = dataset.incomplete
    config = ModelConfig(hidden=(16, 16), train=FAST)
    model = ARCompletionModel(
        PathLayout(db, dataset.annotation, CompletionPath(path),
                   build_encoders(db)),
        config,
    )
    model.fit()
    mapped_db = db.spill_to(str(tmp_path_factory.mktemp(name)))
    mapped = ARCompletionModel(
        PathLayout(mapped_db, dataset.annotation, CompletionPath(path),
                   build_encoders(mapped_db)),
        config,
    )
    mapped.load_state_dict(model.state_dict())
    mapped.mark_fitted_from_artifact()
    if quantile_column is not None:
        table, column = quantile_column.split(".")
        values = np.asarray(db.table(table)[column], dtype=float)
        sql = sql.format(q=float(np.quantile(values, 0.5)))
    plan = plan_pushdown(db, path, parse_query(sql))
    assert plan.has_pushdown
    return {"ram": model, "mapped": mapped, "plan": plan}


def _assert_arrays_identical(a, b, what):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype, what
    assert a.shape == b.shape, what
    assert np.array_equal(a, b), what


def _assert_states_identical(a, b, what):
    for name in ("codes", "weights", "synthesized", "current_rows",
                 "streams", "counters", "origin"):
        _assert_arrays_identical(getattr(a, name), getattr(b, name),
                                 f"{what}: {name}")
    assert (a.context is None) == (b.context is None), what
    if a.context is not None:
        _assert_arrays_identical(a.context, b.context, f"{what}: context")
    assert list(a.columns) == list(b.columns), what
    for column in b.columns:
        _assert_arrays_identical(a.columns[column], b.columns[column],
                                 f"{what}: {column}")
    assert not a.origin.any(), f"{what}: origin is not chunk-local"


def _assert_outputs_identical(grouped, single, what):
    _assert_states_identical(grouped.state, single.state, what)
    assert list(grouped.acc.parked) == list(single.acc.parked), what
    for slot, states in single.acc.parked.items():
        assert len(grouped.acc.parked[slot]) == len(states), what
        for a, b in zip(grouped.acc.parked[slot], states):
            _assert_states_identical(a, b, f"{what}: parked slot {slot}")
    assert list(grouped.acc.num_synth.items()) == list(
        single.acc.num_synth.items()
    ), what
    assert list(grouped.acc.issued_ids) == list(single.acc.issued_ids), what
    for table, arrays in single.acc.issued_ids.items():
        assert len(grouped.acc.issued_ids[table]) == len(arrays), what
        for a, b in zip(grouped.acc.issued_ids[table], arrays):
            _assert_arrays_identical(a, b, f"{what}: ids of {table}")
        for a, b in zip(grouped.acc.id_origins[table],
                        single.acc.id_origins[table]):
            _assert_arrays_identical(a, b, f"{what}: id origins of {table}")


class TestGroupedWalkEqualsChunkWalks:
    @pytest.mark.parametrize("backend,n_workers", BACKENDS)
    @pytest.mark.parametrize("roots", ["ram", "mapped"])
    @pytest.mark.parametrize("pushed", [False, True], ids=["plain", "plan"])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_every_chunk_bitwise(self, fitted, name, pushed, roots, backend,
                                 n_workers):
        case = fitted(name)
        model = case[roots]
        plan = case["plan"] if pushed else None
        num_roots = len(model.layout.db.table(model.layout.path.tables[0]))
        chunk_size = max(1, num_roots // 7)
        join = IncompletenessJoin(model, seed=3, chunk_size=chunk_size)
        per_chunk = IncompletenessJoin(
            model, seed=3, chunk_size=chunk_size,
            n_workers=n_workers, parallel_backend=backend,
        )
        grid = join.chunk_tasks()
        assert len(grid) >= 4
        assert len(join._task_groups(grid, join._executor)) == 1
        grouped = join.walk_chunks(grid, plan=plan)
        single = [per_chunk.walk_chunks([task], plan=plan)[0]
                  for task in grid]
        assert len(grouped) == len(grid)
        for task, a, b in zip(grid, grouped, single):
            _assert_outputs_identical(a, b, f"chunk {task}")
        # Assembly of the split outputs is the assembly of chunk walks.
        assert joins_bitwise_identical(
            join.assemble(grouped, plan=plan),
            join.assemble(single, plan=plan),
        )

    def test_dangling_rows_are_parked_per_chunk(self, fitted):
        join = IncompletenessJoin(fitted("movies-actor")["ram"], seed=3,
                                  chunk_size=16)
        outputs = join.walk_chunks(join.chunk_tasks())
        assert sum(1 for o in outputs if o.acc.parked) > 1

    @pytest.mark.parametrize("roots", ["ram", "mapped"])
    @pytest.mark.parametrize("name", ["housing", "movies-company"])
    def test_fully_pruned_chunks_come_back_empty_and_shaped(
        self, fitted, name, roots
    ):
        case = fitted(name)
        plan = case["plan"]
        assert plan.has_root_filters
        join = IncompletenessJoin(case[roots], seed=3, chunk_size=1)
        grid = join.chunk_tasks()
        mask = join.qualifying_root_mask(plan)
        pruned = [i for i, (start, stop) in enumerate(grid)
                  if not mask[start:stop].any()]
        assert pruned, "expected some chunks without qualifying roots"
        grouped = join.walk_chunks(grid, plan=plan)
        single = [join.walk_chunks([task], plan=plan)[0] for task in grid]
        for i in pruned:
            assert grouped[i].num_rows == 0
            _assert_outputs_identical(grouped[i], single[i], f"chunk {i}")


class TestGrouping:
    @pytest.mark.parametrize("backend,n_workers,fused", [
        ("serial", 1, True), ("serial", 4, True), ("thread", 1, True),
        ("thread", 2, False), ("process", 2, False),
    ])
    def test_fused_only_when_walking_one_task_at_a_time(
        self, fitted, backend, n_workers, fused
    ):
        join = IncompletenessJoin(fitted("housing")["ram"], seed=3,
                                  chunk_size=4, n_workers=n_workers,
                                  parallel_backend=backend)
        grid = join.chunk_tasks()
        split = join._task_groups(grid, join._executor)
        assert split == ([grid] if fused else [[task] for task in grid])

    @pytest.mark.parametrize("budget,sizes", [
        (8, [8, 8, 4]), (10, [8, 8, 4]), (12, [12, 8]), (3, [4, 4, 4, 4, 4]),
    ])
    def test_groups_stop_at_max_group_rows(self, fitted, budget, sizes):
        join = IncompletenessJoin(fitted("housing")["ram"], seed=3,
                                  chunk_size=4, max_group_rows=budget)
        grid = join.chunk_tasks()[:5]
        split = join._task_groups(grid, join._executor)
        assert [task for group in split for task in group] == grid
        # Consecutive chunks up to the budget; a larger chunk walks alone.
        assert [sum(b - a for a, b in group) for group in split] == sizes

    def test_budgeted_groups_split_bitwise(self, fitted):
        case = fitted("movies-actor")
        join = IncompletenessJoin(case["ram"], seed=3, chunk_size=16,
                                  max_group_rows=40)
        grid = join.chunk_tasks()
        assert 1 < len(join._task_groups(grid, join._executor)) < len(grid)
        grouped = join.walk_chunks(grid, plan=case["plan"])
        for task, output in zip(grid, grouped):
            single = join.walk_chunks([task], plan=case["plan"])[0]
            _assert_outputs_identical(output, single, f"chunk {task}")

    def test_max_group_rows_must_be_positive(self, fitted):
        with pytest.raises(ValueError, match="max_group_rows"):
            IncompletenessJoin(fitted("housing")["ram"], max_group_rows=0)

    def test_spilled_runs_walk_one_chunk_per_group(self, fitted, tmp_path):
        join = IncompletenessJoin(fitted("housing")["ram"], seed=3,
                                  chunk_size=4, spill_dir=str(tmp_path))
        grid = join.chunk_tasks()
        assert join._task_groups(grid, join._executor) == [[t] for t in grid]

    def test_no_tasks_no_groups(self, fitted):
        join = IncompletenessJoin(fitted("housing")["ram"], seed=3,
                                  chunk_size=4)
        assert join.walk_chunks([]) == []


class TestTracing:
    @pytest.fixture(autouse=True)
    def _fresh_tracer(self):
        disable_tracing()
        set_tracer(Tracer())
        yield
        disable_tracing()
        set_tracer(Tracer())

    @pytest.mark.parametrize("backend,n_workers,fused", [
        ("serial", 1, True), ("thread", 2, False),
    ])
    def test_one_span_per_group(self, fitted, backend, n_workers, fused):
        join = IncompletenessJoin(fitted("housing")["ram"], seed=3,
                                  chunk_size=4, n_workers=n_workers,
                                  parallel_backend=backend)
        grid = join.chunk_tasks()
        tracer = enable_tracing()
        join.walk_chunks(grid)
        spans = [s for s in tracer.spans() if s.name == "join.chunk"]
        groups = join._task_groups(grid, join._executor)
        assert len(spans) == len(groups) == (1 if fused else len(grid))
        assert sum(s.attrs["chunks"] for s in spans) == len(grid)
        assert sum(s.attrs["rows_scanned"] for s in spans) == grid[-1][1]

    def test_spilled_run_spans_every_chunk(self, fitted, tmp_path):
        join = IncompletenessJoin(fitted("housing")["ram"], seed=3,
                                  chunk_size=4, spill_dir=str(tmp_path))
        grid = join.chunk_tasks()
        tracer = enable_tracing()
        join.walk_chunks(grid)
        spans = [s for s in tracer.spans() if s.name == "join.chunk"]
        assert len(spans) == len(grid)
        assert all(s.attrs["chunks"] == 1 for s in spans)


# ----------------------------------------------------------------------
# Engine sequence: cold -> pushdown -> top-up -> recomplete
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def engine():
    db = generate_housing(HousingConfig(seed=0, num_neighborhoods=48,
                                        num_landlords=200,
                                        apartments_per_neighborhood=10.0))
    dataset = make_incomplete(
        db, [RemovalSpec("apartment", "price", 0.5, 0.4)],
        tf_keep_rate=0.3, seed=1,
    )
    config = ReStoreConfig(
        model=ModelConfig(hidden=(16, 16), train=FAST), seed=3,
        use_ssar=False,
    )
    return ReStore.from_dataset(dataset, config).fit()


def _run_sequence(engine, full, selective):
    engine.clear_cache()
    cold = engine.answer(full)
    assert engine.partial_cache_stats.as_dict()["misses"] == 0

    engine.join_cache.invalidate()
    pushed = engine.answer(selective, pushdown=True)
    info = pushed.pushdown
    assert info["chunks_walked"] + info["chunks_skipped"] == info["chunks_total"]
    after_push = engine.partial_cache_stats.as_dict()

    engine.join_cache.invalidate()
    topped = engine.answer(full)
    after_topup = engine.partial_cache_stats.as_dict()

    engine.join_cache.invalidate()
    recompleted = engine.recomplete(model=cold.model)
    after_recomplete = engine.partial_cache_stats.as_dict()
    return {
        "cold": cold, "pushed": pushed, "topped": topped,
        "recompleted": recompleted,
        "stats": (after_push, after_topup, after_recomplete),
    }


class TestEngineGrouping:
    def test_explicit_chunk_size_bounds_every_walk(self, engine):
        model = engine._default_model()
        default = engine._partial_join(model)
        grid = default.chunk_tasks()
        assert default.max_group_rows is None
        assert default._task_groups(grid, default._executor) == [grid]
        bounded_config = engine.config
        try:
            engine.config = replace(bounded_config, chunk_size=5)
            bounded = engine._partial_join(model)
        finally:
            engine.config = bounded_config
        grid = bounded.chunk_tasks()
        assert bounded.max_group_rows == 5
        assert bounded._task_groups(grid, bounded._executor) == [
            [task] for task in grid
        ]


class TestEngineSequence:
    def test_cold_pushdown_topup_recomplete(self, engine):
        full = parse_query(
            "SELECT AVG(apartment.price) FROM neighborhood NATURAL JOIN "
            "apartment"
        )
        density = np.asarray(
            engine.db.table("neighborhood")["pop_density"], dtype=float
        )
        selective = parse_query(
            "SELECT AVG(apartment.price) FROM neighborhood NATURAL JOIN "
            "apartment WHERE neighborhood.pop_density >= "
            f"{float(np.quantile(density, 0.7))}"
        )
        run = _run_sequence(engine, full, selective)
        cold = run["cold"]
        assert joins_bitwise_identical(run["topped"].completed,
                                       cold.completed)
        assert joins_bitwise_identical(run["recompleted"], cold.completed)
        assert run["topped"].result.scalar == cold.result.scalar

        info = run["pushed"].pushdown
        grid = info["chunks_total"]
        after_push, after_topup, after_recomplete = run["stats"]
        # Pushdown walks (misses) exactly its qualifying chunks.
        assert after_push["misses"] == info["chunks_walked"] > 0
        assert after_push["hits"] == 0
        # Plan-filtered chunks cannot serve the full join: the top-up
        # walks the whole grid ...
        assert after_topup["misses"] - after_push["misses"] == grid
        assert after_topup["hits"] == 0
        # ... and recompletion finds every chunk cached.
        assert after_recomplete["hits"] - after_topup["hits"] == grid
        assert after_recomplete["misses"] == after_topup["misses"]
        assert run["recompleted"].recompletion == {
            "chunks_total": grid, "chunks_walked": 0, "chunks_cached": grid,
        }

        # The same sequence on two thread workers (one chunk per task)
        # answers identically and probes the cache identically.
        serial_config = engine.config
        try:
            engine.config = replace(serial_config, n_workers=2,
                                    parallel_backend="thread")
            threaded = _run_sequence(engine, full, selective)
        finally:
            engine.config = serial_config
            engine.clear_cache()
        assert threaded["stats"] == run["stats"]
        for step in ("cold", "topped"):
            assert joins_bitwise_identical(threaded[step].completed,
                                           run[step].completed)
        assert threaded["pushed"].result.scalar == run["pushed"].result.scalar
        assert joins_bitwise_identical(threaded["recompleted"],
                                       run["recompleted"])
