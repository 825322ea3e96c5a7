"""Shared fixtures for the test suite.

Spark-backed fixtures are session-scoped and sampled once — the iterative
MRR job is the expensive part, and every consumer only reads.  Numpy-only
fixtures (random indices, the paper's running example) carry the bulk of
the ~hundreds of unit tests cheaply.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.core.adoption import LogisticModel
from repro.diffusion.mrr import MRRIndex, index_from_sets
from repro.graphs.datasets import TEST_GRAPH

# ---------------------------------------------------------------------------
# Example 1 (paper Fig 1): 5 vertices a..e = 0..4, two one-hot topics.
# Edges: a→b, b→c, c→d on topic 0; e→d, d→c, c→b on topic 1 (probability 1).
# ---------------------------------------------------------------------------

EX1_EDGES = pd.DataFrame(
    {
        "src": [0, 1, 2, 4, 3, 2],
        "dst": [1, 2, 3, 3, 2, 1],
        "probs": [
            [1.0, 0.0],
            [1.0, 0.0],
            [1.0, 0.0],
            [0.0, 1.0],
            [0.0, 1.0],
            [0.0, 1.0],
        ],
    }
)

EX1_PIECES = np.array([[1.0, 0.0], [0.0, 1.0]])

# Ancestors (including self) under each piece's deterministic graph:
# piece 0 chain a→b→c→d ; piece 1 chain e→d→c→b.
EX1_ANC = {
    0: {0: {0}, 1: {0, 1}, 2: {0, 1, 2}, 3: {0, 1, 2, 3}, 4: {4}},
    1: {0: {0}, 1: {1, 2, 3, 4}, 2: {2, 3, 4}, 3: {3, 4}, 4: {4}},
}


@pytest.fixture(scope="session")
def ex1_index() -> MRRIndex:
    """Exact MRR index for Example 1: one sample rooted at every vertex, so
    n/θ = 1 and the estimator equals the exact adoption utility."""
    roots = [0, 1, 2, 3, 4]
    rr = {j: [EX1_ANC[j][r] for r in roots] for j in (0, 1)}
    return index_from_sets(rr, n_vertices=5)


@pytest.fixture(scope="session")
def ex1_model() -> LogisticModel:
    return LogisticModel(alpha=3.0, beta=1.0)


@pytest.fixture(scope="session")
def ex1_edges_df() -> pd.DataFrame:
    """Example 1 as the generator's (src, dst, probs) table."""
    return EX1_EDGES.copy()


# ---------------------------------------------------------------------------
# Random numpy-only indices for core algorithm tests.
# ---------------------------------------------------------------------------


def random_index(
    *,
    n_vertices: int = 40,
    theta: int = 60,
    n_pieces: int = 3,
    density: float = 0.15,
    seed: int = 0,
    pool: np.ndarray | None = None,
) -> MRRIndex:
    """A random MRR index with Bernoulli(density) membership per (v, sample)."""
    g = np.random.default_rng(seed)
    rr = {
        j: [
            set(np.flatnonzero(g.random(n_vertices) < density).tolist())
            for _ in range(theta)
        ]
        for j in range(n_pieces)
    }
    return index_from_sets(rr, n_vertices=n_vertices, promoter_pool=pool)


@pytest.fixture(scope="session")
def rand_index() -> MRRIndex:
    return random_index()


@pytest.fixture(scope="session")
def rand_model() -> LogisticModel:
    return LogisticModel.from_ratio(0.5)


# ---------------------------------------------------------------------------
# One shared Spark-side preparation of the tiny test graph.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def prepared_test_graph(spark):
    from repro.experiments.harness import prepare

    return prepare(spark, TEST_GRAPH, n_pieces=3, theta=300, seed=77)
