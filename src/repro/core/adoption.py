"""The logistic adoption model and adoption-utility (AU) estimators.

Eqn 1: a user reached by c ≥ 1 distinct pieces adopts with probability
``1/(1+exp(α − β·c))``; a user reached by none adopts with probability 0.
Eqn 6: the MRR estimator of the AU of a plan S̄ is ``n/θ · Σ_i p(c_i)``
over the θ sampled roots, with c_i the number of pieces whose seed set
intersects R_i^j.

Two implementations are provided and cross-checked in tests: a numpy one
over the collected :class:`~repro.diffusion.mrr.MRRIndex` (used inside the
search loop) and a Spark DataFrame one over the raw MRR table (an
independent check, itself validated against the DuckDB oracle).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.diffusion.mrr import MRRIndex

Plan = dict[int, set[int]]


@dataclass(frozen=True)
class LogisticModel:
    """Adoption parameters (α, β) of Eqn 1.  β is fixed to 1 in the paper's
    experiments; difficulty is varied through the ratio β/α."""

    alpha: float
    beta: float = 1.0

    @classmethod
    def from_ratio(cls, ratio: float, beta: float = 1.0) -> "LogisticModel":
        """Build from the paper's β/α knob (Table IV): α = β / ratio."""
        return cls(alpha=beta / ratio, beta=beta)

    def prob(self, counts: np.ndarray) -> np.ndarray:
        """Adoption probability per user given piece counts (0 ⇒ prob 0)."""
        c = np.asarray(counts, dtype=np.float64)
        p = 1.0 / (1.0 + np.exp(self.alpha - self.beta * c))
        return np.where(c > 0, p, 0.0)

    @functools.lru_cache(maxsize=64)
    def adoption_values(self, n_pieces: int) -> np.ndarray:
        """f(c) for c = 0..ℓ: the discrete adoption curve (f(0) = 0), built
        once per (model, ℓ), so read-only."""
        f = self.prob(np.arange(n_pieces + 1))
        f.setflags(write=False)
        return f


def plan_size(plan: Plan) -> int:
    """|S̄| = Σ_j |S_j| (Definition 1)."""
    return sum(len(s) for s in plan.values())


def estimate_au(
    index: MRRIndex, plan: Plan | None, model: LogisticModel, *, counts: np.ndarray | None = None
) -> float:
    """Eqn 6 over the collected MRR sketch.  ``counts``, if given, must equal
    ``index.plan_counts(plan)``; a caller that already holds them (the
    bound, whose plan is slots) saves the recount and may pass ``None`` for
    the plan.  p(c_i) is looked up in the ℓ+1 values of
    :meth:`LogisticModel.adoption_values`, the same per-count logistic
    :meth:`LogisticModel.prob` computes, so the sum has the same bits
    without θ ``exp`` calls."""
    if counts is None:
        counts = index.plan_counts(plan)
    f = model.adoption_values(index.n_pieces)
    return index.n_vertices / index.theta * float(f[counts].sum())


def estimate_au_spark(
    mrr_df: DataFrame,
    plan: Plan,
    model: LogisticModel,
    *,
    n_vertices: int,
    theta: int,
) -> float:
    """Eqn 6 as a Spark aggregation over the raw MRR membership table:
    the logistic of :func:`adoption_counts_df`'s per-sample counts, summed.
    Samples covered by no piece drop out of the join — contributing 0,
    exactly as Eqn 1 prescribes.
    """
    if not any(plan.values()):
        return 0.0
    row = (
        adoption_counts_df(mrr_df, plan)
        .agg(
            F.sum(
                1.0 / (1.0 + F.exp(F.lit(model.alpha) - F.lit(model.beta) * F.col("c")))
            ).alias("s")
        )
        .collect()[0]
    )
    s = row["s"] or 0.0
    return n_vertices / theta * float(s)


def adoption_counts_df(mrr_df: DataFrame, plan: Plan) -> DataFrame:
    """Per-sample distinct-piece counts as a DataFrame (sample_id, c) —
    the relational core of Eqn 6: the plan's (piece, vertex) pairs joined
    with the MRR memberships, distinct covered pieces counted per sample."""
    pairs = [(int(j), int(v)) for j, seeds in plan.items() for v in seeds]
    spark = mrr_df.sparkSession
    plan_df = spark.createDataFrame(pairs, schema="piece int, vertex int")
    return (
        mrr_df.join(plan_df, on=["piece", "vertex"])
        .select("sample_id", "piece")
        .distinct()
        .groupBy("sample_id")
        .agg(F.count("piece").alias("c"))
    )
