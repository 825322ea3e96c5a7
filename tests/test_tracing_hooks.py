"""The benchmark's tracer (perfbench/tracing.py) replaces program functions
by name; these tests fail if one of those names disappears, if ``prepare``
stops entering its layers through them, or if the bound stops routing its
lower value through the traced ``estimate_au``."""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import bab, baselines, bound
from repro.core.adoption import LogisticModel
from repro.experiments import harness
from repro.graphs.datasets import TEST_GRAPH
from repro.graphs.generator import social_graph_pandas
from repro.graphs.topics import uniform_piece

from .conftest import random_index

HOOKED = [
    (harness, "social_graph"),
    (harness, "edges_by_piece"),
    (harness, "sample_roots"),
    (harness, "build_index"),
    (bab, "compute_bound"),
    (bab, "compute_bound_progressive"),
    (bound, "estimate_au"),
    (baselines, "im_baseline"),
    (baselines, "tim_baseline"),
]


def _tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_without_spark():
    before = [getattr(mod, name) for mod, name in HOOKED]
    with _tracing().Tracer(None).installed():
        during = [getattr(mod, name) for mod, name in HOOKED]
    assert all(a is not b for a, b in zip(before, during))
    assert [getattr(mod, name) for mod, name in HOOKED] == before


@pytest.mark.parametrize("progressive", [False, True], ids=["BAB", "BAB-P"])
def test_traced_search_counts_one_estimate_au_per_bound_call(progressive):
    idx = random_index(seed=3)
    m = LogisticModel.from_ratio(0.5)
    tracer = _tracing().Tracer(None)
    with tracer.installed():
        res = bab.branch_and_bound(idx, m, 4, progressive=progressive, max_pops=20)
    assert tracer.acc["setup.bound_calls"] == res.bound_calls
    assert tracer.acc["setup.estimate_au_calls"] == res.bound_calls


def test_traced_prepare_marks_layers_and_counts_piece_edges(spark):
    """``prepare`` under the tracer enters graphs, rr_sets and mrr in order,
    and the kept per-piece relation counts to a JSON-able int equal to the
    number of (piece, edge) pairs with p > 0."""
    tracer = _tracing().Tracer(spark.sparkContext)
    try:
        with tracer.installed():
            prep = harness.prepare(spark, TEST_GRAPH, n_pieces=2, theta=40, seed=913)
            tracer.enter("done")
        count = tracer.piece_edges_df.count()
    finally:
        for key in ("spark.jobGroup.id", "spark.job.description"):
            spark.sparkContext.setLocalProperty(key, None)
    assert [layer for layer, _ in tracer.marks] == ["graphs", "rr_sets", "mrr", "done"]
    assert {"graphs", "rr_sets", "mrr"} <= set(tracer.phase_seconds())
    assert type(count) is int and json.loads(json.dumps(count)) == count
    probs = np.stack(social_graph_pandas(TEST_GRAPH)["probs"].to_numpy())
    pieces = np.vstack([prep.pieces, uniform_piece(TEST_GRAPH.n_topics)])
    assert count == sum(int((probs[:, t > 0] > 0).any(axis=1).sum()) for t in pieces)
