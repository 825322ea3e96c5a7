"""Table generators for the evaluation tables (DESIGN.md §4).

`table3_rows` reproduces Table III; `sweep_rows` reproduces Figs 3–6, one
sweep per `SWEEPS` entry.  `TABLES` maps each table name to its generator,
which returns a list of row dicts; `rows_to_markdown` renders them
for EXPERIMENTS.md.  `Scale` bundles the sweep resolution: ``jobs/run.py``
runs every table at `FULL`, and the tests at a micro scale of their own.
The paper's reference numbers sit beside the measured ones in EXPERIMENTS.md.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from pyspark.sql import SparkSession

from repro.core.bab import MAX_POPS
from repro.graphs.datasets import DATASETS, TEST_GRAPH

from .harness import ALL_METHODS, DEFAULT_L, prepare, run_methods


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


# Figs 3–6 each sweep one Table IV parameter over the datasets, the others
# at their defaults.  Table name → (axis, methods): the axis names the row
# column, the ``Scale.<axis>_values`` field and the swept parameter.
SWEEPS: dict[str, tuple[str, tuple[str, ...]]] = {
    "eps_sweep": ("eps", ("BAB-P",)),  # Fig 3: BAB-P utility vs ε
    "vary_k": ("k", ALL_METHODS),  # Fig 4: utility and search time vs k
    "vary_l": ("l", ALL_METHODS),  # Fig 5: utility vs number of pieces ℓ
    "vary_ratio": ("ratio", ALL_METHODS),  # Fig 6: utility vs β/α
}


def sweep_rows(spark: SparkSession, scale: Scale = FULL, *, table: str) -> list[dict]:
    """One row per (dataset, value of the table's axis, method), in that order.

    ℓ is the only axis that changes the sketch; for the others ``prepare``'s
    cache hands back one sketch per dataset.  Each row carries the swept
    value under the axis name (``eps`` becomes the last column).
    """
    axis, methods = SWEEPS[table]
    rows = []
    for name in scale.datasets:
        for value in getattr(scale, f"{axis}_values"):
            prep = prepare(
                spark,
                DATASETS[name],
                n_pieces=value if axis == "l" else DEFAULT_L,
                theta=scale.theta,
                seed=scale.seed,
            )
            kw = {} if axis == "l" else {axis: value}
            cell = run_methods(prep, methods=methods, max_pops=scale.max_pops, **kw)
            rows += [dict(r, **{axis: value}) for r in cell]
    return rows


TABLES = {
    "table3": table3_rows,
    **{name: partial(sweep_rows, table=name) for name in SWEEPS},
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

