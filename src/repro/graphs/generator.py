"""Topic-aware social-graph substrate.

The paper (§III-A) models a social network as a directed graph whose edges
carry a topic-wise influence vector ``p(e) = (p(e|z_1), .., p(e|z_|Z|))``
learned from propagation logs (TIC model).  No such logs ship with this
repository, so we *generate* graphs with the two properties the paper's
algorithms actually depend on:

* power-law in/out degree distributions (§V's complexity analysis and the
  progressive bound's efficiency rest on the "power law principle of social
  influence"), and
* sparse per-edge topic vectors with weighted-cascade-scale probabilities,
  so influence spreads are subcritical (small relative to ``n``), matching
  the utility magnitudes reported in the paper.

All generation is deterministic in ``GraphConfig.seed``.  The graph is a
driver-side pandas table (src, dst, probs): it is small, and every consumer
(the per-piece derivation in ``topics.py``, the forward simulator, the
benchmark's checks) reads it on the driver, so it never enters Spark.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

# Exponent of the zipf rank distributions that endpoints are drawn from.
ZIPF_EXPONENT = 0.9
# Share of V that forms the promoter pool V^p (§VI-A: 10%).
PROMOTER_FRACTION = 0.1


@dataclass(frozen=True)
class GraphConfig:
    """Parameters of one synthetic topic-aware social graph.

    ``m`` is a target edge count; duplicate/self-loop removal makes the
    realized count slightly smaller (the generated table's length, reported
    as ``Prepared.edge_count``).  ``topics_per_edge`` is an inclusive (lo, hi) range
    for the number of non-zero entries of each edge's topic vector.
    ``prob_gain`` scales the weighted-cascade base probability
    ``p(e|z) ~ U(0.5, 1.5) * prob_gain / indeg(dst)``.
    """

    name: str
    n: int
    m: int
    n_topics: int
    topics_per_edge: tuple[int, int]
    seed: int
    prob_gain: float = 1.0


def _zipf_weights(n: int, exponent: float) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** exponent
    return w / w.sum()


def social_graph_pandas(cfg: GraphConfig) -> pd.DataFrame:
    """Generate the edge table as pandas: columns src, dst, probs (list).

    Endpoints are drawn from two independently permuted zipf rank
    distributions, which yields heavy-tailed in- and out-degrees without
    correlating a vertex's fan-in with its fan-out.
    """
    g = np.random.default_rng(cfg.seed)
    w = _zipf_weights(cfg.n, ZIPF_EXPONENT)
    out_rank = g.permutation(cfg.n)
    in_rank = g.permutation(cfg.n)
    # Oversample so the target edge count survives dedup + self-loop removal.
    n_draw = int(cfg.m * 1.3) + 16
    src = out_rank[g.choice(cfg.n, size=n_draw, p=w)]
    dst = in_rank[g.choice(cfg.n, size=n_draw, p=w)]
    keep = src != dst
    pairs = np.unique(np.stack([src[keep], dst[keep]], axis=1), axis=0)
    if len(pairs) > cfg.m:
        pairs = pairs[g.choice(len(pairs), size=cfg.m, replace=False)]
    src, dst = pairs[:, 0].astype(np.int32), pairs[:, 1].astype(np.int32)

    indeg = np.bincount(dst, minlength=cfg.n).astype(np.float64)
    lo, hi = cfg.topics_per_edge
    n_edges = len(src)
    n_active = g.integers(lo, hi + 1, size=n_edges)
    base = np.clip(
        g.uniform(0.5, 1.5, size=n_edges) * cfg.prob_gain / np.maximum(indeg[dst], 1.0),
        0.0,
        1.0,
    )
    # Only the RNG draws stay per edge (topics, then per-topic jitter), in the
    # order that fixes the stream; the arithmetic runs once over all of them.
    zs, jitter = [], []
    for i in range(n_edges):
        zs.append(g.choice(cfg.n_topics, size=n_active[i], replace=False))
        jitter.append(g.uniform(0.6, 1.4, size=n_active[i]))
    rows = np.repeat(np.arange(n_edges), n_active)
    probs = np.zeros((n_edges, cfg.n_topics), dtype=np.float64)
    if n_edges:
        probs[rows, np.concatenate(zs)] = np.clip(base[rows] * np.concatenate(jitter), 0.0, 1.0)
    return pd.DataFrame({"src": src, "dst": dst, "probs": list(probs)})


def promoter_pool(cfg: GraphConfig) -> np.ndarray:
    """The eligible-promoter set V^p: a seeded uniform sample of ~10% of V (§VI-A)."""
    g = np.random.default_rng(cfg.seed + 7919)
    size = max(1, int(cfg.n * PROMOTER_FRACTION))
    return np.sort(g.choice(cfg.n, size=size, replace=False)).astype(np.int32)
