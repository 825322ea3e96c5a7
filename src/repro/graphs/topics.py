"""Viral pieces (topic vectors) and per-piece influence-graph derivation.

A campaign T = {t_1..t_ℓ} assigns each piece a topic distribution; the
experiments (§VI-A) "generate the topic vector by uniformly sampling a
non-zero topic dimension", i.e. pieces are one-hot.  The influence
probability of piece t over edge e is ``p(t, e) = t · p(e)`` (§III-A).

The derivation runs on the driver in numpy, over the generator's pandas
table; Spark's part of the sketch starts at the per-piece relation that
``edges_by_piece`` hands to the MRR sampler.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import types as T

PIECE_EDGE_SCHEMA = T.StructType(
    [
        T.StructField("piece", T.IntegerType(), False),
        T.StructField("src", T.IntegerType(), False),
        T.StructField("dst", T.IntegerType(), False),
        T.StructField("p", T.DoubleType(), False),
    ]
)


def one_hot_pieces(n_topics: int, n_pieces: int, seed: int) -> np.ndarray:
    """ℓ one-hot piece vectors over |Z| topics, distinct topics, seeded.

    Distinctness mirrors a real campaign (a piece per facet); with
    n_pieces > n_topics this is impossible, so we fall back to sampling
    with replacement.
    """
    g = np.random.default_rng(seed)
    replace = n_pieces > n_topics
    zs = g.choice(n_topics, size=n_pieces, replace=replace)
    vecs = np.zeros((n_pieces, n_topics), dtype=np.float64)
    vecs[np.arange(n_pieces), zs] = 1.0
    return vecs


def uniform_piece(n_topics: int) -> np.ndarray:
    """The topic-agnostic view used by the IM baseline: t = (1/|Z|, .., 1/|Z|).

    Under ``p(t,e) = t · p(e)`` this collapses every edge to the mean of its
    topic-wise probabilities — 'the IC model on graph G' of §VI-A.
    """
    return np.full(n_topics, 1.0 / n_topics, dtype=np.float64)


def piece_prob(probs: np.ndarray, piece: np.ndarray) -> np.ndarray:
    """``p(t, e) = Σ_z t_z * p(e|z)`` for every row of the (edges × |Z|)
    ``probs``, summed as a left fold from 0.0 in topic order.

    The fixed order makes the result a pure function of its inputs (a BLAS
    ``probs @ t`` may sum in any order, which moves the uniform piece's p in
    the last bit), and it is the order of Spark SQL's
    ``aggregate(zip_with(probs, t, *), 0.0, +)``.
    """
    acc = np.zeros(len(probs), dtype=np.float64)
    for z, t_z in enumerate(piece):
        acc = acc + probs[:, z] * t_z
    return acc


def edges_by_piece(spark: SparkSession, edges: pd.DataFrame, pieces: np.ndarray) -> DataFrame:
    """Union of per-piece influence graphs: (piece int, src, dst, p double).

    ``edges`` is the generator's (src, dst, probs) table.  Rows come piece by
    piece, each in the table's order.  Zero-probability edges are dropped —
    they can never transmit, and for sparse topic vectors (tweet-like data)
    this shrinks the sampler's input by orders of magnitude.  The result is
    a local relation built on the driver: creating it runs no Spark job, but
    ``rr_sets.sample_mrr_sets`` collects it back with one ``toPandas`` job
    (see that module's docstring for its cost).
    """
    pieces = np.asarray(pieces, dtype=np.float64)
    probs = np.array(edges["probs"].tolist(), dtype=np.float64).reshape(len(edges), pieces.shape[1])
    src = edges["src"].to_numpy(np.int32)
    dst = edges["dst"].to_numpy(np.int32)
    parts = []
    for j, t in enumerate(pieces):
        p = piece_prob(probs, t)
        keep = p > 0.0
        parts.append(
            pd.DataFrame(
                {
                    "piece": np.full(int(keep.sum()), j, dtype=np.int32),
                    "src": src[keep],
                    "dst": dst[keep],
                    "p": p[keep],
                }
            )
        )
    return spark.createDataFrame(pd.concat(parts, ignore_index=True), schema=PIECE_EDGE_SCHEMA)
