"""Tests for the table generators (one per reproduced evaluation table)."""
from __future__ import annotations

import math
import pathlib
from dataclasses import replace

import pytest

from repro.experiments.harness import DEFAULT_L, prepare, run_methods
from repro.experiments.tables import FULL, SWEEPS, TABLES, Scale, rows_to_markdown
from repro.graphs.datasets import DATASETS, TEST_GRAPH

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"

# Every table runs at this micro scale on two tiny graphs registered as
# datasets, so the sweeps stay fast and the grid has more than one dataset
# and two values on every axis.
MICRO_GRAPHS = (TEST_GRAPH, replace(TEST_GRAPH, name="test_graph_b", n=80, m=300, seed=6))
MICRO = Scale(
    theta=200,
    datasets=tuple(cfg.name for cfg in MICRO_GRAPHS),
    k_values=(2, 4),
    l_values=(1, 2),
    ratio_values=(0.3, 0.5),
    eps_values=(0.3, 0.5),
    max_pops=10,
    seed=77,
)


@pytest.fixture(scope="module")
def micro(spark):
    """Every table at `MICRO`, generated once: table name → rows."""
    with pytest.MonkeyPatch.context() as mp:
        for cfg in MICRO_GRAPHS:
            mp.setitem(DATASETS, cfg.name, cfg)
        yield {name: generate(spark, MICRO) for name, generate in TABLES.items()}


def test_registry_complete():
    assert set(TABLES) == {"table3", "eps_sweep", "vary_k", "vary_l", "vary_ratio"}


def test_scales_sane():
    for s in (FULL, MICRO):
        assert s.theta > 0 and s.k_values and s.datasets


def test_table3(micro):
    rows = micro["table3"]
    assert [r["dataset"] for r in rows] == list(MICRO.datasets)
    r = rows[0]
    assert r["vertices"] == 120
    assert r["edges"] > 0
    assert math.isclose(r["avg_degree"], r["edges"] / r["vertices"], rel_tol=0.01)
    assert r["sample_seconds"] > 0
    assert r["index_seconds"] > 0


def test_eps_sweep(micro):
    rows = micro["eps_sweep"]
    assert len(rows) == 2 * 2  # two datasets x two ε values, BAB-P only
    assert {r["method"] for r in rows} == {"BAB-P"}
    assert [r["eps"] for r in rows[:2]] == [0.3, 0.5]
    assert all(r["utility"] > 0 for r in rows)


def test_vary_k(micro):
    rows = micro["vary_k"]
    assert len(rows) == 2 * 2 * 4  # two datasets x two k values x four methods
    assert {r["k"] for r in rows} == {2, 4}
    assert {r["method"] for r in rows} == {"IM", "TIM", "BAB", "BAB-P"}


def test_vary_l(micro):
    rows = micro["vary_l"]
    assert len(rows) == 2 * 2 * 4
    assert {r["l"] for r in rows} == {1, 2}


def test_vary_ratio(micro):
    rows = micro["vary_ratio"]
    assert len(rows) == 2 * 2 * 4
    assert {r["ratio"] for r in rows} == {0.3, 0.5}


def _cells(row: dict) -> dict:
    """A row without its timing, with NaN made comparable."""
    return {
        c: None if isinstance(v, float) and math.isnan(v) else v
        for c, v in row.items()
        if c != "seconds"
    }


@pytest.mark.parametrize("table", sorted(SWEEPS))
def test_sweep_grid_matches_direct_runs(spark, micro, table):
    """Rows come in (dataset, axis value, method) order, and each row is the
    `run_methods` row of its cell on the `prepare`d sketch, plus the value."""
    axis, methods = SWEEPS[table]
    values = getattr(MICRO, f"{axis}_values")
    rows = micro[table]
    assert [(r["dataset"], r[axis], r["method"]) for r in rows] == [
        (cfg.name, value, method)
        for cfg in MICRO_GRAPHS
        for value in values
        for method in methods
    ]
    for r in rows:
        cfg = next(c for c in MICRO_GRAPHS if c.name == r["dataset"])
        value = r[axis]
        prep = prepare(
            spark,
            cfg,
            n_pieces=value if axis == "l" else DEFAULT_L,
            theta=MICRO.theta,
            seed=MICRO.seed,
        )
        kw = {} if axis == "l" else {axis: value}
        (direct,) = run_methods(
            prep, methods=(r["method"],), max_pops=MICRO.max_pops, **kw
        )
        assert _cells(r) == _cells(dict(direct, **{axis: value}))


@pytest.mark.parametrize("table", sorted(TABLES))
def test_committed_results_have_the_generated_columns(micro, table):
    """The header of ``results/<table>.md`` names the columns the table's
    generator emits, so a change of the row schema must regenerate it."""
    lines = (RESULTS / f"{table}.md").read_text().splitlines()
    header = next(line for line in lines if line.startswith("|"))
    assert [c.strip() for c in header.strip("|").split("|")] == list(micro[table][0])


def test_rows_to_markdown():
    md = rows_to_markdown([{"a": 1, "b": 0.123456}, {"a": 2, "b": 3.0}])
    lines = md.splitlines()
    assert lines[0] == "| a | b |"
    assert len(lines) == 4
    assert "0.1235" in md
    assert rows_to_markdown([]) == "(no rows)"
