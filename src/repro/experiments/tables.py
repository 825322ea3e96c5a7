"""Table generators — one per evaluation table (DESIGN.md §4).

Each function returns a list of row dicts; `rows_to_markdown` renders them
for EXPERIMENTS.md.  `Scale` bundles the sweep resolution: ``jobs/run.py``
runs every table at `FULL`, and the tests at a micro scale of their own.
The paper's reference numbers sit beside the measured ones in EXPERIMENTS.md.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import SparkSession

from repro.core.bab import MAX_POPS
from repro.graphs.datasets import DATASETS, TEST_GRAPH

from .harness import (
    ALL_METHODS,
    DEFAULT_EPS,
    DEFAULT_K,
    DEFAULT_L,
    DEFAULT_RATIO,
    prepare,
    run_methods,
)


@dataclass(frozen=True)
class Scale:
    """Sweep resolution of the tables: datasets, θ and the swept values."""

    theta: int
    datasets: tuple[str, ...]
    k_values: tuple[int, ...]
    l_values: tuple[int, ...]
    ratio_values: tuple[float, ...]
    eps_values: tuple[float, ...]
    max_pops: int
    seed: int = 101


FULL = Scale(
    theta=5000,
    datasets=("lastfm_lite", "dblp_lite", "tweet_lite"),
    k_values=(10, 20, 30, 40, 50, 60, 70, 80, 90, 100),
    l_values=(1, 2, 3, 4, 5),
    ratio_values=(0.3, 0.5, 0.7),
    eps_values=(0.1, 0.3, 0.5, 0.7, 0.9),
    max_pops=MAX_POPS,
)


def table3_rows(spark: SparkSession, scale: Scale = FULL) -> list[dict]:
    """Paper Table III: dataset statistics + MRR sample and index times.

    One untimed ``prepare`` of the tiny test graph comes first, so the first
    dataset's times do not include starting the JVM and Python workers; its
    seed differs from the scale's, so no timed row is a cache hit.
    """
    prepare(spark, TEST_GRAPH, n_pieces=DEFAULT_L, theta=scale.theta, seed=scale.seed + 1)
    rows = []
    for name in scale.datasets:
        cfg = DATASETS[name]
        prep = prepare(
            spark, cfg, n_pieces=DEFAULT_L, theta=scale.theta, seed=scale.seed
        )
        rows.append(
            dict(
                dataset=name,
                vertices=cfg.n,
                edges=prep.edge_count,
                avg_degree=round(prep.edge_count / cfg.n, 2),
                topics=cfg.n_topics,
                theta=scale.theta,
                sample_seconds=round(prep.sample_seconds, 2),
                index_seconds=round(prep.index_seconds, 2),
            )
        )
    return rows


def eps_sweep_rows(spark: SparkSession, scale: Scale = FULL) -> list[dict]:
    """Fig 3: BAB-P utility vs ε (defaults k=50, ℓ=3, β/α=0.5)."""
    rows = []
    for name in scale.datasets:
        prep = prepare(
            spark, DATASETS[name], n_pieces=DEFAULT_L, theta=scale.theta, seed=scale.seed
        )
        for eps in scale.eps_values:
            rows += run_methods(
                prep,
                k=DEFAULT_K,
                eps=eps,
                methods=("BAB-P",),
                max_pops=scale.max_pops,
            )
            rows[-1]["eps"] = eps
    return rows


def vary_k_rows(spark: SparkSession, scale: Scale = FULL) -> list[dict]:
    """Fig 4: utility and search time vs k, all four methods."""
    rows = []
    for name in scale.datasets:
        prep = prepare(
            spark, DATASETS[name], n_pieces=DEFAULT_L, theta=scale.theta, seed=scale.seed
        )
        for k in scale.k_values:
            rows += run_methods(
                prep, k=k, methods=ALL_METHODS, max_pops=scale.max_pops
            )
    return rows


def vary_l_rows(spark: SparkSession, scale: Scale = FULL) -> list[dict]:
    """Fig 5: utility and search time vs number of viral pieces ℓ."""
    rows = []
    for name in scale.datasets:
        for l in scale.l_values:
            prep = prepare(
                spark, DATASETS[name], n_pieces=l, theta=scale.theta, seed=scale.seed
            )
            rows += run_methods(
                prep, k=DEFAULT_K, methods=ALL_METHODS, max_pops=scale.max_pops
            )
    return rows


def vary_ratio_rows(spark: SparkSession, scale: Scale = FULL) -> list[dict]:
    """Fig 6: utility vs β/α, all four methods."""
    rows = []
    for name in scale.datasets:
        prep = prepare(
            spark, DATASETS[name], n_pieces=DEFAULT_L, theta=scale.theta, seed=scale.seed
        )
        for ratio in scale.ratio_values:
            rows += run_methods(
                prep, k=DEFAULT_K, ratio=ratio, methods=ALL_METHODS, max_pops=scale.max_pops
            )
    return rows


TABLES = {
    "table3": table3_rows,
    "eps_sweep": eps_sweep_rows,
    "vary_k": vary_k_rows,
    "vary_l": vary_l_rows,
    "vary_ratio": vary_ratio_rows,
}


def rows_to_markdown(rows: list[dict]) -> str:
    """Render result rows as a GitHub-flavored markdown table."""
    if not rows:
        return "(no rows)"
    cols = list(rows[0].keys())
    def fmt(v):
        if isinstance(v, float):
            return f"{v:.4g}"
        return str(v)
    lines = ["| " + " | ".join(cols) + " |", "|" + "---|" * len(cols)]
    for r in rows:
        lines.append("| " + " | ".join(fmt(r.get(c, "")) for c in cols) + " |")
    return "\n".join(lines)

