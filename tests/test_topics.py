"""Tests for piece topic vectors and per-piece influence-graph derivation."""
from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graphs.datasets import LASTFM_LITE, TEST_GRAPH
from repro.graphs.generator import social_graph_pandas
from repro.graphs.topics import edges_by_piece, one_hot_pieces, piece_prob, uniform_piece
from repro.oracle import assert_equivalent


@pytest.mark.parametrize("n_topics,n_pieces", [(5, 3), (20, 5), (9, 1), (3, 3)])
def test_one_hot_pieces_shape(n_topics, n_pieces):
    p = one_hot_pieces(n_topics, n_pieces, seed=0)
    assert p.shape == (n_pieces, n_topics)
    assert np.all(p.sum(axis=1) == 1.0)
    assert np.all((p == 0) | (p == 1))


def test_one_hot_pieces_distinct_topics():
    p = one_hot_pieces(20, 5, seed=3)
    topics = p.argmax(axis=1)
    assert len(set(topics.tolist())) == 5


def test_one_hot_pieces_replacement_fallback():
    p = one_hot_pieces(2, 5, seed=0)  # more pieces than topics
    assert p.shape == (5, 2)
    assert np.all(p.sum(axis=1) == 1.0)


def test_one_hot_deterministic():
    assert np.array_equal(one_hot_pieces(10, 4, seed=9), one_hot_pieces(10, 4, seed=9))


def test_uniform_piece():
    u = uniform_piece(8)
    assert np.allclose(u, 1 / 8)
    assert np.isclose(u.sum(), 1.0)


def test_piece_prob_matches_numpy_dot(spark, ex1_edges_df):
    """The topic-order fold gives p(t, e) = t · p(e)."""
    t = np.array([0.3, 0.7])
    got = edges_by_piece(spark, ex1_edges_df, t[None]).toPandas()
    probs = np.stack(ex1_edges_df["probs"].map(np.asarray))
    assert got[["src", "dst"]].to_numpy().tolist() == ex1_edges_df[["src", "dst"]].to_numpy().tolist()
    assert np.allclose(got["p"].to_numpy(), probs @ t)
    assert np.array_equal(got["p"].to_numpy(), piece_prob(probs, t))


def test_piece_prob_oracle(spark):
    """p(t,e) derivation cross-checked in DuckDB over exploded topic columns."""
    pdf = social_graph_pandas(TEST_GRAPH)
    t = np.zeros(TEST_GRAPH.n_topics)
    t[2] = 1.0
    got = edges_by_piece(spark, pdf, t[None]).select("src", "dst", "p")
    flat = pd.DataFrame(
        {
            "src": pdf["src"],
            "dst": pdf["dst"],
            "p2": [float(p[2]) for p in pdf["probs"]],
        }
    )
    assert_equivalent(
        got, "SELECT src, dst, p2 AS p FROM flat WHERE p2 > 0", flat=flat
    )


@pytest.fixture(scope="module")
def lastfm_pieces(spark):
    """LASTFM_LITE's edges, its 20 one-hot pieces plus the uniform piece, and
    the per-piece relation derived from them."""
    pdf = social_graph_pandas(LASTFM_LITE)
    z = LASTFM_LITE.n_topics
    pieces = np.vstack([np.eye(z), uniform_piece(z)])
    return pdf, pieces, edges_by_piece(spark, pdf, pieces).toPandas()


def test_one_hot_piece_p_is_topic_column(lastfm_pieces):
    """A one-hot piece's p is its topic's column, bit for bit, restricted to
    the edges that carry the topic, in the generator's row order."""
    pdf, pieces, ebp = lastfm_pieces
    probs = np.stack(pdf["probs"].to_numpy())
    for z in range(LASTFM_LITE.n_topics):
        mine = ebp[ebp["piece"] == z]
        keep = probs[:, z] > 0
        assert np.array_equal(mine["src"].to_numpy(), pdf["src"].to_numpy()[keep])
        assert np.array_equal(mine["dst"].to_numpy(), pdf["dst"].to_numpy()[keep])
        assert np.array_equal(mine["p"].to_numpy(), probs[keep, z]), z


def test_uniform_piece_p_is_left_fold(lastfm_pieces):
    """The IM piece's p is the sum over topics in topic order, bit for bit:
    ((0 + p_0/|Z|) + p_1/|Z|) + ...  (a reordered sum would differ in the
    last bit on some edges)."""
    pdf, pieces, ebp = lastfm_pieces
    uniform = ebp[ebp["piece"] == LASTFM_LITE.n_topics]
    w = 1.0 / LASTFM_LITE.n_topics
    want = [functools.reduce(lambda acc, x: acc + x * w, map(float, row), 0.0) for row in pdf["probs"]]
    assert len(uniform) == len(pdf)  # every generated edge carries some topic
    assert uniform["p"].tolist() == want
    assert ebp["piece"].is_monotonic_increasing


def test_edges_by_piece_drops_zero_edges(spark, ex1_edges_df):
    pieces = np.array([[1.0, 0.0], [0.0, 1.0]])
    ebp = edges_by_piece(spark, ex1_edges_df, pieces)
    counts = {r["piece"]: r["count"] for r in ebp.groupBy("piece").count().collect()}
    assert counts == {0: 3, 1: 3}  # three edges per topic in Example 1
    assert ebp.where(F.col("p") <= 0).count() == 0


def test_edges_by_piece_probability_values(spark, ex1_edges_df):
    pieces = np.array([[1.0, 0.0]])
    rows = edges_by_piece(spark, ex1_edges_df, pieces).collect()
    assert all(r["p"] == 1.0 for r in rows)
    assert sorted((r["src"], r["dst"]) for r in rows) == [(0, 1), (1, 2), (2, 3)]


def test_edges_by_piece_uniform_is_mean(spark, ex1_edges_df):
    """The IM baseline's uniform piece collapses each edge to mean_z p(e|z)."""
    ebp = edges_by_piece(spark, ex1_edges_df, np.array([uniform_piece(2)]))
    rows = ebp.collect()
    assert len(rows) == 6
    assert all(np.isclose(r["p"], 0.5) for r in rows)
