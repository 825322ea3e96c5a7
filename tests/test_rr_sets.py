"""Tests for the Spark RR/MRR sampler (§V-A).

Deterministic cases (edge probabilities 0/1) are checked exactly against
analytic reachability; probabilistic cases are validated statistically
against the forward Monte-Carlo simulator.  The numpy coin is checked bit
for bit against Spark SQL's ``xxhash64``.
"""
from __future__ import annotations

import hashlib
import os
import pickle
import subprocess
import sys
import types

import numpy as np
import pandas as pd
import pyarrow as pa
import pyspark
import pytest
from pyspark import cloudpickle
from pyspark.sql import functions as F

from repro.diffusion.mrr import build_index
from repro.diffusion.rr_sets import (
    mrr_batches,
    reverse_csr,
    sample_mrr_sets,
    sample_roots,
    xxhash64_coin,
)
from repro.diffusion.simulate import ForwardSimulator
from repro.graphs.topics import edges_by_piece

from .conftest import EX1_ANC, EX1_PIECES


@pytest.fixture(scope="module")
def ex1_mrr(spark, ex1_edges_df):
    """MRR sets over Example 1 with one root per vertex — deterministic."""
    roots = spark.createDataFrame(
        pd.DataFrame({"sample_id": range(5), "vertex": range(5)}),
        schema="sample_id int, vertex int",
    )
    ebp = edges_by_piece(spark, ex1_edges_df, EX1_PIECES)
    return sample_mrr_sets(spark, ebp, roots, 2, seed=1)


def test_roots_deterministic(spark):
    a = sample_roots(spark, n=100, theta=50, seed=3).toPandas()
    b = sample_roots(spark, n=100, theta=50, seed=3).toPandas()
    pd.testing.assert_frame_equal(a, b)
    assert a["vertex"].between(0, 99).all()
    assert sorted(a["sample_id"]) == list(range(50))


def test_mrr_exact_on_deterministic_graph(ex1_mrr):
    """Every RR set equals the analytic ancestor set (probabilities are 0/1)."""
    rows = ex1_mrr.collect()
    got: dict[tuple[int, int], set[int]] = {}
    for r in rows:
        got.setdefault((r["piece"], r["sample_id"]), set()).add(r["vertex"])
    for j in (0, 1):
        for root in range(5):
            assert got[(j, root)] == EX1_ANC[j][root], (j, root)


def test_mrr_contains_root(spark, ex1_edges_df):
    roots = sample_roots(spark, n=5, theta=20, seed=9)
    ebp = edges_by_piece(spark, ex1_edges_df, EX1_PIECES)
    mrr = sample_mrr_sets(spark, ebp, roots, 2, seed=2)
    joined = roots.join(mrr, on=["sample_id", "vertex"], how="left_anti")
    # every (sample, root) must appear in every piece's RR set
    assert joined.count() == 0


def test_sampler_deterministic_in_seed(spark, ex1_edges_df):
    pdf = pd.DataFrame(
        {"src": [0, 1], "dst": [1, 2], "probs": [[0.5], [0.5]]}
    )
    ebp = edges_by_piece(spark, pdf, np.array([[1.0]]))
    roots = sample_roots(spark, n=3, theta=40, seed=0)
    a = sample_mrr_sets(spark, ebp, roots, 1, seed=7).toPandas()
    b = sample_mrr_sets(spark, ebp, roots, 1, seed=7).toPandas()
    key = ["piece", "sample_id", "vertex"]
    pd.testing.assert_frame_equal(
        a.sort_values(key).reset_index(drop=True),
        b.sort_values(key).reset_index(drop=True),
    )
    c = sample_mrr_sets(spark, ebp, roots, 1, seed=8).toPandas()
    assert len(c) != len(a) or not a.sort_values(key).reset_index(drop=True).equals(
        c.sort_values(key).reset_index(drop=True)
    )


def test_zero_probability_edges_never_transmit(spark):
    pdf = pd.DataFrame({"src": [0], "dst": [1], "probs": [[0.0]]})
    ebp = edges_by_piece(spark, pdf, np.array([[1.0]]))
    roots = sample_roots(spark, n=2, theta=30, seed=1)
    mrr = sample_mrr_sets(spark, ebp, roots, 1, seed=3)
    # RR sets contain only the roots themselves.
    assert mrr.count() == 30


def test_rr_single_graph_wrapper(spark, ex1_edges_df):
    """Classical single-graph RR sets: MRR sampling with one piece."""
    one_piece = edges_by_piece(spark, ex1_edges_df, EX1_PIECES[:1])
    roots = spark.createDataFrame(
        pd.DataFrame({"sample_id": [0, 1], "vertex": [3, 0]}),
        schema="sample_id int, vertex int",
    )
    rr = sample_mrr_sets(spark, one_piece, roots, 1, seed=5)
    got = {0: set(), 1: set()}
    for r in rr.collect():
        got[r["sample_id"]].add(r["vertex"])
    assert got[0] == {0, 1, 2, 3}
    assert got[1] == {0}


def test_spread_estimate_matches_forward_sim(spark):
    """RR estimator ≈ forward Monte-Carlo on a small probabilistic graph."""
    g = np.random.default_rng(4)
    n, m = 30, 90
    src = g.integers(0, n, m)
    dst = (src + 1 + g.integers(0, n - 1, m)) % n
    pdf = pd.DataFrame(
        {"src": src, "dst": dst, "probs": [[p] for p in g.uniform(0.05, 0.3, m)]}
    ).drop_duplicates(["src", "dst"])
    piece = np.array([[1.0]])
    theta = 3000
    roots = sample_roots(spark, n=n, theta=theta, seed=6)
    ebp = edges_by_piece(spark, pdf, piece)
    rr = sample_mrr_sets(spark, ebp, roots, 1, seed=11).toPandas()
    seeds = [0, 7, 13]
    # σ_IM(S) ≈ n/θ · #{i : R_i ∩ S ≠ ∅}, the classical RR estimator (§V-A).
    hit = rr.loc[rr["vertex"].isin(seeds), "sample_id"].nunique()
    est = n / theta * hit
    sim = ForwardSimulator(pdf.reset_index(drop=True), piece, n)
    truth = sim.spread(seeds, 0, trials=1500, seed=12)
    assert abs(est - truth) / truth < 0.12, (est, truth)


def test_estimated_au_matches_forward_sim(spark, ex1_edges_df):
    """End-to-end: MRR-estimated AU ≈ forward-simulated AU on a
    probabilistic variant of the Example-1 graph."""
    from repro.core.adoption import LogisticModel, estimate_au

    pdf = pd.DataFrame(
        {
            "src": [0, 1, 2, 4, 3, 2],
            "dst": [1, 2, 3, 3, 2, 1],
            "probs": [
                [0.8, 0.0],
                [0.8, 0.0],
                [0.8, 0.0],
                [0.0, 0.8],
                [0.0, 0.8],
                [0.0, 0.8],
            ],
        }
    )
    theta = 4000
    roots = sample_roots(spark, n=5, theta=theta, seed=21)
    mrr = sample_mrr_sets(spark, edges_by_piece(spark, pdf, EX1_PIECES), roots, 2, seed=22)
    idx = build_index(
        mrr, n_vertices=5, theta=theta, n_pieces=2, promoter_pool=np.arange(5)
    )
    m = LogisticModel(alpha=3.0, beta=1.0)
    plan = {0: {0}, 1: {4}}
    est = estimate_au(idx, plan, m)
    sim = ForwardSimulator(pdf.reset_index(drop=True), EX1_PIECES, 5)
    truth = sim.adoption_utility({0: [0], 1: [4]}, alpha=3.0, beta=1.0, trials=3000, seed=23)
    assert abs(est - truth) / truth < 0.10, (est, truth)


def test_coin_matches_spark_xxhash64(spark):
    """The numpy coin equals Spark SQL's xxhash64-based coin bit for bit."""
    g = np.random.default_rng(31)
    i32 = np.iinfo(np.int32)
    cols = ["piece", "sample_id", "src", "dst"]
    vals = g.integers(i32.min, i32.max, size=(20_000, 4), endpoint=True, dtype=np.int32)
    vals[:4] = [[0, 0, 0, 0], [-1, -1, -1, -1], [i32.min] * 4, [i32.max] * 4]
    pdf = pd.DataFrame(vals, columns=cols)
    df = spark.createDataFrame(pdf, schema=", ".join(f"{c} int" for c in cols))
    for seed in (0, 11101, -7, i32.max):
        h = F.xxhash64(F.lit(seed), *[F.col(c) for c in cols])
        coin = F.pmod(h, F.lit(1 << 24)).cast("double") / float(1 << 24)
        got = df.select(*cols, coin.alias("coin")).toPandas().sort_values(cols)
        want = xxhash64_coin(seed, *(got[c].to_numpy() for c in cols))
        assert np.array_equal(got["coin"].to_numpy(), want), seed


def test_seed_outside_int32_rejected(spark, ex1_edges_df):
    roots = sample_roots(spark, n=5, theta=3, seed=0)
    ebp = edges_by_piece(spark, ex1_edges_df, EX1_PIECES)
    with pytest.raises(ValueError, match="int32"):
        sample_mrr_sets(spark, ebp, roots, 2, seed=1 << 31)


def test_long_path_not_truncated(spark):
    """A certain 100-vertex path yields the whole path as the tail's RR set:
    the reverse BFS runs 99 levels, with no depth cap."""
    n = 100
    pdf = pd.DataFrame(
        {"src": range(n - 1), "dst": range(1, n), "probs": [[1.0]] * (n - 1)}
    )
    ebp = edges_by_piece(spark, pdf, np.array([[1.0]]))
    roots = spark.createDataFrame(
        pd.DataFrame({"sample_id": [0, 1], "vertex": [n - 1, 0]}),
        schema="sample_id int, vertex int",
    )
    got = sample_mrr_sets(spark, ebp, roots, 1, seed=4).toPandas()
    assert sorted(got.loc[got["sample_id"] == 0, "vertex"]) == list(range(n))
    assert got.loc[got["sample_id"] == 1, "vertex"].tolist() == [0]


def test_worker_runs_without_the_package(tmp_path):
    """Spark's Python workers may not be able to import ``repro``: the
    mapInArrow function must unpickle and run in a fresh interpreter that
    can import pyspark but not this package."""
    g = np.random.default_rng(8)
    m, n = 300, 60
    edges = pd.DataFrame(
        {
            "piece": g.integers(0, 2, m).astype(np.int32),
            "src": g.integers(0, n, m).astype(np.int32),
            "dst": g.integers(0, n, m).astype(np.int32),
            "p": g.uniform(0.1, 0.6, m),
        }
    )
    csr = types.SimpleNamespace(value=reverse_csr(edges))
    fn = mrr_batches(csr, 5, 2)
    batch = _roots_batch(g.integers(0, n + 5, 40))
    script = (
        "import pickle, sys\n"
        "sys.modules['repro'] = None  # importing the package now fails\n"
        "fn, batch = pickle.load(sys.stdin.buffer)\n"
        "sys.stdout.buffer.write(pickle.dumps(list(fn(iter([batch])))))\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(pyspark.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        input=cloudpickle.dumps((fn, batch)),
        capture_output=True,
        cwd=tmp_path,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    remote = pa.Table.from_batches(pickle.loads(proc.stdout))
    local = pa.Table.from_batches(list(fn(iter([batch]))))
    assert remote.equals(local)
    assert local.num_rows > 2 * 40  # some RR sets grew beyond their roots


def _roots_batch(vertices) -> pa.RecordBatch:
    return pa.RecordBatch.from_pydict(
        {
            "sample_id": pa.array(np.arange(len(vertices), dtype=np.int32)),
            "vertex": pa.array(np.asarray(vertices, dtype=np.int32)),
        }
    )


def test_negative_root_rejected():
    """A BFS key packs the vertex into 31 bits: a negative root is an error."""
    edges = pd.DataFrame({"piece": [0], "src": [0], "dst": [1], "p": [1.0]})
    fn = mrr_batches(types.SimpleNamespace(value=reverse_csr(edges)), 5, 1)
    with pytest.raises(ValueError, match="non-negative"):
        list(fn(iter([_roots_batch([1, -1])])))


def test_negative_edge_endpoint_rejected():
    for src, dst in ((-1, 1), (0, -2)):
        edges = pd.DataFrame({"piece": [0, 0], "src": [0, src], "dst": [1, dst], "p": [0.5, 0.5]})
        with pytest.raises(ValueError, match="non-negative"):
            reverse_csr(edges)


# sha256 of the test graph's sketch (n_pieces=3, θ=300, seed=77): its
# (piece, sample_id, vertex) rows sorted by those columns, as a row-major
# int64 array.  Any change to roots, coins or the BFS moves it.
TEST_GRAPH_SKETCH_SHA256 = "dfd4c17e4c023bad8d2efc222b9919c6a6944d8305b5469b4fffdd22d7d3c17f"


def test_sketch_pinned(prepared_test_graph):
    key = ["piece", "sample_id", "vertex"]
    rows = prepared_test_graph.mrr_df.toPandas().sort_values(key)[key].to_numpy(np.int64)
    assert len(rows) == 2125
    assert hashlib.sha256(rows.tobytes()).hexdigest() == TEST_GRAPH_SKETCH_SHA256
