"""Integration tests: the experiment harness on the tiny test graph."""
from __future__ import annotations

import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core.adoption import LogisticModel, estimate_au, estimate_au_spark
from repro.experiments.harness import ALL_METHODS, prepare, run_methods
from repro.graphs.datasets import TEST_GRAPH
from repro.graphs.generator import social_graph_pandas


def test_prepare_shapes(prepared_test_graph):
    prep = prepared_test_graph
    assert prep.index.n_pieces == 3
    assert prep.index.theta == 300
    assert prep.pieces.shape == (3, TEST_GRAPH.n_topics)
    assert prep.edge_count > 0
    assert prep.sample_seconds > 0
    assert prep.index_seconds > 0
    assert len(prep.im_cov.promoters) > 0


def test_prepare_cached(spark, prepared_test_graph):
    again = prepare(spark, TEST_GRAPH, n_pieces=3, theta=300, seed=77)
    assert again is prepared_test_graph


@pytest.mark.parametrize("change", [{"n": 200}, {"m": 300}], ids=["n", "m"])
def test_prepare_cache_keys_on_whole_config(spark, prepared_test_graph, change):
    """A config with the cached one's name and seed but another size is a
    different graph, so it gets its own sketch rather than the cached one."""
    cfg = replace(TEST_GRAPH, **change)
    prep = prepare(spark, cfg, n_pieces=3, theta=300, seed=77)
    assert prep is not prepared_test_graph
    assert prep.graph_cfg == cfg
    assert prep.edge_count == len(social_graph_pandas(cfg))


def test_index_restricted_to_pool(prepared_test_graph):
    from repro.graphs.generator import promoter_pool

    pool = set(promoter_pool(TEST_GRAPH).tolist())
    for cov in prepared_test_graph.index.pieces:
        assert set(cov.promoters.tolist()) <= pool


def _perfbench_checks():
    """perfbench/checks.py, loaded by path: the benchmark is no package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_index_views_pass_perfbench_check(prepared_test_graph):
    """The benchmark checks ``index.pieces + [im_cov]`` (promoters, indptr
    from 0, samples per piece) against a pandas pivot of the membership
    table; the per-piece views of the slot CSR must keep passing it."""
    from repro.graphs.generator import promoter_pool

    prep = prepared_test_graph
    assert isinstance(prep.index.pieces, list)
    memb = prep.mrr_df.toPandas()
    _perfbench_checks().check_index(
        prep.index.pieces + [prep.im_cov], memb, promoter_pool(TEST_GRAPH)
    )


def test_run_methods_rows(prepared_test_graph):
    rows = run_methods(prepared_test_graph, k=5, max_pops=20)
    assert [r["method"] for r in rows] == list(ALL_METHODS)
    for r in rows:
        assert r["utility"] >= 0
        assert r["seconds"] >= 0
        assert r["assignments"] <= 5
        assert r["dataset"] == "test_graph"
        assert r["k"] == 5 and r["l"] == 3
    searched = {"gap", "exhausted", "max_pops"}
    assert [r["stop_reason"] in searched for r in rows] == [False, False, True, True]
    assert rows[0]["stop_reason"] == rows[1]["stop_reason"] == ""


def test_bab_at_least_baselines(prepared_test_graph):
    """§VI: BAB/BAB-P must dominate IM and TIM on any instance — TIM's plan
    is inside BAB's search space."""
    rows = run_methods(prepared_test_graph, k=6, max_pops=40)
    u = {r["method"]: r["utility"] for r in rows}
    assert u["BAB"] >= u["TIM"] - 1e-6
    assert u["BAB"] >= u["IM"] - 1e-6
    assert u["BAB-P"] >= 0.9 * u["BAB"]


def test_utility_monotone_in_k_integration(prepared_test_graph):
    us = [
        run_methods(prepared_test_graph, k=k, methods=("BAB-P",), max_pops=20)[0][
            "utility"
        ]
        for k in (2, 5, 8)
    ]
    assert us[0] <= us[1] + 1e-9 <= us[2] + 2e-9


def test_utility_monotone_in_ratio(prepared_test_graph):
    us = [
        run_methods(prepared_test_graph, k=5, ratio=r, methods=("BAB",), max_pops=20)[
            0
        ]["utility"]
        for r in (0.3, 0.5, 0.7)
    ]
    assert us[0] < us[1] < us[2]


def test_plan_utility_consistent_spark_numpy(spark, prepared_test_graph):
    """The winning BAB plan evaluates identically in numpy and Spark."""
    prep = prepared_test_graph
    from repro.core.bab import branch_and_bound

    m = LogisticModel.from_ratio(0.5)
    res = branch_and_bound(prep.index, m, 5, max_pops=20)
    u_np = estimate_au(prep.index, res.plan, m)
    u_sp = estimate_au_spark(
        prep.mrr_df.where("piece < 3"),
        res.plan,
        m,
        n_vertices=TEST_GRAPH.n,
        theta=prep.index.theta,
    )
    assert np.isclose(u_np, u_sp)
    assert np.isclose(u_np, res.utility)


def test_subset_excludes_im_piece(prepared_test_graph):
    assert prepared_test_graph.index.n_pieces == 3
    # the im coverage is a separate object, not among the core pieces
    for cov in prepared_test_graph.index.pieces:
        assert cov is not prepared_test_graph.im_cov


@pytest.mark.parametrize("method, name", [("BAB", "branch_and_bound"), ("TIM", "tim_baseline")])
def test_run_methods_times_the_fastest_repeat(prepared_test_graph, monkeypatch, method, name):
    """Each method runs TIMING_REPEATS times and reports the fastest call."""
    from repro.experiments import harness

    real = getattr(harness, name)
    seconds = iter([3.0, 1.0, 2.0])
    calls = []

    def timed(*args, **kwargs):
        calls.append(1)
        return replace(real(*args, **kwargs), seconds=next(seconds))

    monkeypatch.setattr(harness, name, timed)
    (row,) = run_methods(prepared_test_graph, k=5, methods=(method,), max_pops=20)
    assert len(calls) == harness.TIMING_REPEATS == 3
    assert row["seconds"] == 1.0


@pytest.mark.parametrize("field", ["utility", "evals", "plan"])
def test_run_methods_rejects_a_nondeterministic_search(prepared_test_graph, monkeypatch, field):
    """Repeats that disagree in plan, utility or evals are not timings of
    one search: run_methods raises rather than reporting either."""
    from repro.experiments import harness

    real = harness.branch_and_bound
    calls = []

    def flaky(*args, **kwargs):
        r = real(*args, **kwargs)
        calls.append(1)
        if len(calls) < 3:
            return r
        changed = {"utility": r.utility + 1e-12, "evals": r.evals + 1, "plan": {**r.plan, 99: {0}}}
        return replace(r, **{field: changed[field]})

    monkeypatch.setattr(harness, "branch_and_bound", flaky)
    with pytest.raises(RuntimeError, match="BAB gave different results"):
        run_methods(prepared_test_graph, k=5, methods=("BAB",), max_pops=20)
