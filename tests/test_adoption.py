"""Tests for the logistic adoption model and AU estimators (Eqn 1, 2, 6)."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.core.adoption import (
    LogisticModel,
    adoption_counts_df,
    estimate_au,
    estimate_au_spark,
    plan_size,
)
from repro.diffusion.mrr import index_from_sets
from repro.oracle import assert_equivalent

from .conftest import EX1_ANC, random_index


def test_logistic_zero_when_unreached():
    m = LogisticModel(alpha=2.0)
    assert m.prob(np.array([0])) == 0.0


@pytest.mark.parametrize("c,expected", [(1, 0.1192), (2, 0.2689), (3, 0.5)])
def test_logistic_values_example1(c, expected):
    """Example 1's hand-computed probabilities at α=3, β=1."""
    m = LogisticModel(alpha=3.0, beta=1.0)
    assert np.isclose(m.prob(np.array([c]))[0], expected, atol=1e-4)


def test_logistic_monotone_in_count():
    m = LogisticModel(alpha=2.0)
    p = m.prob(np.arange(10))
    assert np.all(np.diff(p) > 0)


@pytest.mark.parametrize("ratio", [0.3, 0.5, 0.7])
def test_from_ratio(ratio):
    m = LogisticModel.from_ratio(ratio)
    assert np.isclose(m.beta / m.alpha, ratio)


def test_harder_alpha_lowers_adoption():
    """'The larger α is, the harder it is for a user to adopt T.'"""
    easy, hard = LogisticModel(alpha=1.0), LogisticModel(alpha=4.0)
    c = np.array([1, 2, 3])
    assert np.all(easy.prob(c) > hard.prob(c))


def test_adoption_values_length():
    m = LogisticModel(alpha=2.0)
    v = m.adoption_values(5)
    assert len(v) == 6 and v[0] == 0.0


@pytest.mark.parametrize("n_pieces", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("ratio", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
def test_estimate_au_table_is_logistic_bit_for_bit(ratio, n_pieces):
    """Eqn 6 as a lookup in the ℓ+1 adoption values has the bits of the
    logistic computed per sample, on plans that reach every count 0..ℓ."""
    idx = random_index(n_vertices=30, theta=400, n_pieces=n_pieces, density=0.2, seed=n_pieces)
    m = LogisticModel.from_ratio(ratio)
    plan = {j: set(cov.promoters[:4].tolist()) for j, cov in enumerate(idx.pieces)}
    counts = idx.plan_counts(plan)
    assert set(counts.tolist()) == set(range(n_pieces + 1))
    want = idx.n_vertices / idx.theta * float(m.prob(counts).sum())
    assert estimate_au(idx, plan, m) == want
    assert estimate_au(idx, plan, m, counts=counts) == want


def test_plan_size():
    assert plan_size({0: {1, 2}, 1: set(), 2: {3}}) == 3
    assert plan_size({}) == 0


def test_example1_utility(ex1_index, ex1_model):
    """σ({{a},{e}}) = 1.05 (paper Example 1; 1.0452 before 2-decimal rounding)."""
    u = estimate_au(ex1_index, {0: {0}, 1: {4}}, ex1_model)
    assert np.isclose(u, 0.1192 + 3 * 0.2689 + 0.1192, atol=1e-3)


def test_example1_single_piece_utility(ex1_index, ex1_model):
    """σ({{a}, ∅}) = 4 × p(c=1) = 0.4768 (Example 2's 0.48)."""
    u = estimate_au(ex1_index, {0: {0}}, ex1_model)
    assert np.isclose(u, 4 * 0.11920, atol=1e-3)


def test_example2_non_submodularity(ex1_index, ex1_model):
    """The paper's counterexample: δ_{S̄y}(S̄) > δ_{S̄x}(S̄) ⇒ σ not submodular."""
    s_x = {}
    s_y = {0: {0}}
    s = {1: {4}}
    d_y = estimate_au(ex1_index, {0: {0}, 1: {4}}, ex1_model) - estimate_au(
        ex1_index, s_y, ex1_model
    )
    d_x = estimate_au(ex1_index, s, ex1_model) - estimate_au(ex1_index, s_x, ex1_model)
    assert d_y > d_x + 1e-6


def test_example3_mrr_estimate():
    """Table II: four MRR samples → AU estimate 1.16 for S̄ = {{a},{e}}."""
    # vertices a..e = 0..4; the table's R^1 (for t1) and R^2 (for t2) sets.
    r1 = [{2, 0}, {0}, {1, 0}, {2, 0}]
    r2 = [{2, 3, 4}, {0}, {1, 4}, {2, 3, 4}]
    idx = index_from_sets({0: r1, 1: r2}, n_vertices=5)
    m = LogisticModel(alpha=3.0, beta=1.0)
    u = estimate_au(idx, {0: {0}, 1: {4}}, m)
    assert np.isclose(u, 5 / 4 * (0.2689 + 0.1192 + 0.2689 + 0.2689), atol=1e-3)


def test_estimate_au_empty_plan(ex1_index, ex1_model):
    assert estimate_au(ex1_index, {}, ex1_model) == 0.0


def test_estimate_au_monotone(ex1_index, ex1_model):
    u1 = estimate_au(ex1_index, {0: {0}}, ex1_model)
    u2 = estimate_au(ex1_index, {0: {0}, 1: {4}}, ex1_model)
    u3 = estimate_au(ex1_index, {0: {0, 1}, 1: {4}}, ex1_model)
    assert 0 < u1 < u2 <= u3


def test_plan_counts(ex1_index):
    counts = ex1_index.plan_counts({0: {0}, 1: {4}})
    # roots a..e: a gets t1 only, e gets t2 only, b/c/d get both.
    assert counts.tolist() == [1, 2, 2, 2, 1]


def test_duplicate_seeds_no_double_count(ex1_index, ex1_model):
    u1 = estimate_au(ex1_index, {0: {0}}, ex1_model)
    u2 = estimate_au(ex1_index, {0: {0, 1}}, ex1_model)  # b is downstream of a
    # b's RR set {0,1}: adding b doesn't change coverage of any root.
    assert np.isclose(u1, u2)


# ---------------------------------------------------------------------------
# Spark AU estimator vs numpy and vs the DuckDB oracle.
# ---------------------------------------------------------------------------


def _ex1_mrr_pdf() -> pd.DataFrame:
    rows = []
    for j in (0, 1):
        for i, root in enumerate([0, 1, 2, 3, 4]):
            for v in EX1_ANC[j][root]:
                rows.append((j, i, v))
    return pd.DataFrame(rows, columns=["piece", "sample_id", "vertex"])


def test_estimate_au_spark_matches_numpy(spark, ex1_index, ex1_model):
    mrr_df = spark.createDataFrame(_ex1_mrr_pdf())
    plan = {0: {0}, 1: {4}}
    u_np = estimate_au(ex1_index, plan, ex1_model)
    u_sp = estimate_au_spark(mrr_df, plan, ex1_model, n_vertices=5, theta=5)
    assert np.isclose(u_np, u_sp)


def test_estimate_au_spark_empty_plan(spark, ex1_model):
    mrr_df = spark.createDataFrame(_ex1_mrr_pdf())
    assert estimate_au_spark(mrr_df, {}, ex1_model, n_vertices=5, theta=5) == 0.0


def test_adoption_counts_oracle(spark):
    """Per-sample distinct-piece counts: Spark vs DuckDB over the same tables."""
    mrr = _ex1_mrr_pdf()
    plan_pdf = pd.DataFrame({"piece": [0, 1], "vertex": [0, 4]})
    mrr_df = spark.createDataFrame(mrr)
    got = adoption_counts_df(mrr_df, {0: {0}, 1: {4}})
    assert_equivalent(
        got,
        """
        SELECT sample_id, COUNT(DISTINCT m.piece) AS c
        FROM mrr m JOIN plan p ON m.piece = p.piece AND m.vertex = p.vertex
        GROUP BY sample_id
        """,
        mrr=mrr,
        plan=plan_pdf,
    )


def test_oracle_catches_wrong_result(spark):
    """The oracle must fail on a wrong result, not only on a crash: COUNT(*)
    in place of COUNT(DISTINCT piece) counts piece 0 twice in the samples
    whose RR set holds both of its seeds a and b."""
    mrr = _ex1_mrr_pdf()
    plan_pdf = pd.DataFrame({"piece": [0, 0, 1], "vertex": [0, 1, 4]})
    got = adoption_counts_df(spark.createDataFrame(mrr), {0: {0, 1}, 1: {4}})
    sql = """
        SELECT sample_id, {} AS c
        FROM mrr m JOIN plan p ON m.piece = p.piece AND m.vertex = p.vertex
        GROUP BY sample_id
    """
    assert_equivalent(got, sql.format("COUNT(DISTINCT m.piece)"), mrr=mrr, plan=plan_pdf)
    with pytest.raises(AssertionError):
        assert_equivalent(got, sql.format("COUNT(*)"), mrr=mrr, plan=plan_pdf)


def test_full_au_oracle(spark, ex1_model):
    """End-to-end Eqn 6 vs a DuckDB SQL formulation of the same estimator."""
    import duckdb

    mrr = _ex1_mrr_pdf()
    plan = {0: {0}, 1: {4}}
    mrr_df = spark.createDataFrame(mrr)
    u_sp = estimate_au_spark(mrr_df, plan, ex1_model, n_vertices=5, theta=5)
    con = duckdb.connect()
    con.register("mrr", mrr)
    con.register("plan", pd.DataFrame({"piece": [0, 1], "vertex": [0, 4]}))
    u_duck = con.execute(
        """
        SELECT 5.0/5.0 * SUM(1.0/(1.0+EXP(3.0 - 1.0*c))) FROM (
          SELECT sample_id, COUNT(DISTINCT m.piece) AS c
          FROM mrr m JOIN plan p ON m.piece = p.piece AND m.vertex = p.vertex
          GROUP BY sample_id)
        """
    ).fetchone()[0]
    con.close()
    assert np.isclose(u_sp, u_duck)
