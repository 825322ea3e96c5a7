"""Each output check accepts correct outputs and rejects a corrupted one.

    python3 -m pytest perfbench -q -p no:cacheprovider
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

import checks as C
from repro.core.adoption import LogisticModel, estimate_au
from repro.diffusion.mrr import index_from_sets

N, THETA, GRAPHS = 12, 6, 2
POOL = np.array([1, 3, 4, 7, 9], dtype=np.int32)
ROOTS = np.array([0, 3, 5, 7, 7, 11])


def _rr_sets() -> dict[int, list[set[int]]]:
    g = np.random.default_rng(0)
    return {
        j: [{int(r)} | set(g.choice(N, size=3, replace=False).tolist()) for r in ROOTS]
        for j in range(GRAPHS)
    }


@pytest.fixture
def sketch():
    sets = _rr_sets()
    memb = pd.DataFrame(
        [(j, i, v) for j, per in sets.items() for i, s in enumerate(per) for v in sorted(s)],
        columns=["piece", "sample_id", "vertex"],
    )
    index = index_from_sets(sets, n_vertices=N, promoter_pool=POOL)
    return memb, index


def _pool_row(memb: pd.DataFrame) -> int:
    """Row label of a membership of a promoter that is not the sample's root."""
    is_root = memb["vertex"].to_numpy() == ROOTS[memb["sample_id"].to_numpy()]
    return int(memb.index[memb["vertex"].isin(POOL) & ~is_root][0])


def test_correct_sketch_passes(sketch):
    memb, index = sketch
    C.check_rows(memb, n_vertices=N, theta=THETA, n_graphs=GRAPHS)
    C.check_roots(memb, ROOTS, n_graphs=GRAPHS)
    C.check_index(index.pieces, memb, POOL)
    C.check_same("counts", [(1, 2), (1, 2), (1, 2)])


def test_dropped_root_row_fails(sketch):
    memb, _ = sketch
    root_rows = memb.index[(memb["piece"] == 1) & (memb["sample_id"] == 2) & (memb["vertex"] == 5)]
    with pytest.raises(C.CheckFailed, match="roots"):
        C.check_roots(memb.drop(root_rows), ROOTS, n_graphs=GRAPHS)


def test_shifted_sample_ids_fail(sketch):
    memb, _ = sketch
    shifted = memb.assign(sample_id=memb["sample_id"] + 1)
    with pytest.raises(C.CheckFailed, match="sample_id values outside"):
        C.check_rows(shifted, n_vertices=N, theta=THETA, n_graphs=GRAPHS)
    with pytest.raises(C.CheckFailed, match="roots"):
        C.check_roots(shifted, ROOTS, n_graphs=GRAPHS)


@pytest.mark.parametrize("col,value", [("vertex", N), ("piece", GRAPHS), ("piece", -1)])
def test_out_of_range_id_fails(sketch, col, value):
    memb, _ = sketch
    bad = memb.copy()
    bad.loc[bad.index[0], col] = value
    with pytest.raises(C.CheckFailed, match="outside"):
        C.check_rows(bad, n_vertices=N, theta=THETA, n_graphs=GRAPHS)


def test_duplicated_row_fails(sketch):
    memb, _ = sketch
    with pytest.raises(C.CheckFailed, match="duplicated"):
        C.check_rows(pd.concat([memb, memb.iloc[[3]]]), n_vertices=N, theta=THETA, n_graphs=GRAPHS)


def test_index_disagreeing_with_table_fails(sketch):
    memb, index = sketch
    moved = memb.copy()
    row = _pool_row(moved)
    moved.loc[row, "sample_id"] = (moved.loc[row, "sample_id"] + 1) % THETA
    with pytest.raises(C.CheckFailed, match="index"):
        C.check_index(index.pieces, moved.drop_duplicates(), POOL)
    with pytest.raises(C.CheckFailed, match="index"):
        C.check_index(index.pieces, memb.drop(index=row), POOL)


def test_index_with_non_promoter_fails(sketch):
    memb, _ = sketch
    wide = index_from_sets(_rr_sets(), n_vertices=N)  # pool = every vertex
    with pytest.raises(C.CheckFailed, match="promoters"):
        C.check_index(wide.pieces, memb, POOL)


def test_changed_repeat_fails():
    with pytest.raises(C.CheckFailed, match="repeat 2"):
        C.check_same("counts", [((0, 10),), ((0, 10),), ((0, 11),)])


def test_rr_hits(sketch):
    memb, _ = sketch
    assert C.rr_hits(memb, [3, 7], 0) == sum(bool({3, 7} & s) for s in _rr_sets()[0])


def test_forward_agreement():
    # 500 of θ=10,000 RR sets hit S on n=1,000 vertices: σ(S) ≈ 50.
    trials = np.tile([49.0, 51.0], 50)
    C.check_forward(500, trials, n_vertices=1000, theta=10_000, label="near")
    with pytest.raises(C.CheckFailed, match="forward"):
        C.check_forward(500, trials + 20, n_vertices=1000, theta=10_000, label="far")


def test_plans():
    C.check_plan({0: {1, 3}, 1: {9}}, k=3, pool=POOL, n_pieces=GRAPHS, label="ok")
    with pytest.raises(C.CheckFailed, match="non-promoters"):
        C.check_plan({0: {1, 2}}, k=3, pool=POOL, n_pieces=GRAPHS, label="p")
    with pytest.raises(C.CheckFailed, match="assignments"):
        C.check_plan({0: {1, 3}, 1: {4, 7}}, k=3, pool=POOL, n_pieces=GRAPHS, label="p")
    with pytest.raises(C.CheckFailed, match="piece"):
        C.check_plan({GRAPHS: {1}}, k=3, pool=POOL, n_pieces=GRAPHS, label="p")


def test_utility_matches_program_and_off_by_one_percent_fails(sketch):
    memb, index = sketch
    model = LogisticModel.from_ratio(0.3)
    plans = [{0: {3, 7}, 1: {3}}, {1: {7}}, {0: {3}, 1: {7}}]  # roots: AU > 0
    aus = C.au_duckdb(memb, plans, alpha=model.alpha, beta=model.beta, n_vertices=N, theta=THETA)
    for plan, au in zip(plans, aus):
        assert au > 0
        u = estimate_au(index, plan, model)
        C.check_utility(u, au, label="ok")
        with pytest.raises(C.CheckFailed, match="utility"):
            C.check_utility(1.01 * u, au, label="off")


def test_bound_and_gap():
    C.check_bound(10.0, 10.0, 0.0, label="ok")
    with pytest.raises(C.CheckFailed, match="upper bound"):
        C.check_bound(10.5, 10.0, 0.0, label="b")
    for gap in (-0.01, 1.01, float("nan")):
        with pytest.raises(C.CheckFailed, match="gap"):
            C.check_bound(9.0, 10.0, gap, label="b")


def test_monotone_and_nested():
    C.check_monotone([1.0, 1.0, 2.0], label="ok")
    C.check_nested([{1}, {1, 3}, {1, 3, 4}], label="ok")
    with pytest.raises(C.CheckFailed, match="fell"):
        C.check_monotone([1.0, 2.0, 1.9], label="m")
    with pytest.raises(C.CheckFailed, match="dropped"):
        C.check_nested([{1}, {3, 4}], label="n")
