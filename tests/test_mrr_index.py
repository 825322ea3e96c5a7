"""Tests for the MRR index (collection/pivot of the sampled sketch)."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.diffusion.mrr import build_index, index_from_sets
from repro.oracle import assert_equivalent

from .conftest import random_index


def test_index_from_sets_roundtrip():
    rr = {0: [{1, 2}, {2}, set()], 1: [{0}, {0, 1}, {2}]}
    idx = index_from_sets(rr, n_vertices=3)
    assert idx.theta == 3 and idx.n_pieces == 2 and idx.n_vertices == 3
    assert idx.covered_by(0, 2).tolist() == [0, 1]
    assert idx.covered_by(0, 1).tolist() == [0]
    assert idx.covered_by(0, 0).tolist() == []
    assert idx.covered_by(1, 0).tolist() == [0, 1]


def test_index_promoter_pool_restriction():
    rr = {0: [{0, 1, 2}]}
    idx = index_from_sets(rr, n_vertices=3, promoter_pool=np.array([1]))
    assert idx.covered_by(0, 1).tolist() == [0]
    assert idx.covered_by(0, 0).tolist() == []  # outside the pool


def test_index_subset():
    idx = random_index(n_pieces=4)
    sub = idx.subset([0, 2])
    assert sub.n_pieces == 2
    assert np.array_equal(sub.pieces[0].samples, idx.pieces[0].samples)
    assert np.array_equal(sub.pieces[1].samples, idx.pieces[2].samples)


def test_csr_layout_consistency():
    idx = random_index(seed=3)
    for cov in idx.pieces:
        assert len(cov.indptr) == len(cov.promoters) + 1
        assert cov.indptr[0] == 0 and cov.indptr[-1] == len(cov.samples)
        assert np.all(np.diff(cov.indptr) >= 0)
        # per-promoter sample lists are sorted and unique
        for i in range(len(cov.promoters)):
            seg = cov.samples[cov.indptr[i] : cov.indptr[i + 1]]
            assert np.all(np.diff(seg) > 0)
    # every slot covers at least one sample
    assert np.all(np.diff(idx.indptr) > 0) and idx.indptr[-1] == len(idx.samples)


def test_plan_counts_matches_bruteforce():
    idx = random_index(seed=7)
    g = np.random.default_rng(1)
    plan = {
        j: set(
            g.choice(idx.pieces[j].promoters, size=3, replace=False).tolist()
        )
        for j in range(idx.n_pieces)
    }
    counts = idx.plan_counts(plan)
    # brute force from the CSR itself
    want = np.zeros(idx.theta, dtype=int)
    for j, seeds in plan.items():
        cov = np.zeros(idx.theta, dtype=bool)
        for v in seeds:
            cov[idx.covered_by(j, v)] = True
        want += cov
    assert np.array_equal(counts, want)


def test_build_index_matches_from_sets(spark):
    """Spark pivot == direct construction on the same membership table."""
    rr = {
        0: [{1, 5}, {2}, {1, 2, 5}, set()],
        1: [{0}, {0, 5}, set(), {2}],
    }
    rows = [
        (j, i, v) for j, sets in rr.items() for i, s in enumerate(sets) for v in s
    ]
    mrr_df = spark.createDataFrame(rows, schema="piece int, sample_id int, vertex int")
    pool = np.array([0, 1, 2, 5])
    got = build_index(mrr_df, n_vertices=6, theta=4, n_pieces=2, promoter_pool=pool)
    want = index_from_sets(rr, n_vertices=6, promoter_pool=pool)
    for j in range(2):
        assert np.array_equal(got.pieces[j].promoters, want.pieces[j].promoters)
        for v in got.pieces[j].promoters:
            assert np.array_equal(got.covered_by(j, v), want.covered_by(j, v))
    assert np.all(np.diff(got.indptr) > 0)


def test_build_index_coverage_counts_oracle(spark):
    """Per-(piece, promoter) coverage counts: Spark aggregation vs DuckDB."""
    rr = {0: [{1, 2}, {2, 3}, {1}], 1: [{3}, {1, 3}, set()]}
    rows = [
        (j, i, v) for j, sets in rr.items() for i, s in enumerate(sets) for v in s
    ]
    mrr = pd.DataFrame(rows, columns=["piece", "sample_id", "vertex"])
    mrr_df = spark.createDataFrame(mrr)
    from pyspark.sql import functions as F

    got = mrr_df.groupBy("piece", "vertex").agg(
        F.countDistinct("sample_id").alias("n_cov")
    )
    assert_equivalent(
        got,
        "SELECT piece, vertex, COUNT(DISTINCT sample_id) AS n_cov "
        "FROM mrr GROUP BY piece, vertex",
        mrr=mrr,
    )


def test_index_mismatched_theta_raises():
    with pytest.raises(AssertionError):
        index_from_sets({0: [{1}], 1: [{1}, {2}]}, n_vertices=3)


def test_slot_layout_matches_pieces():
    """Slot g = offsets[j] + i is promoter i of piece j, over the same
    samples as the piece's own CSR view."""
    idx = random_index(n_vertices=30, theta=40, n_pieces=3, seed=5)
    assert len(idx.piece) == len(idx.promoter) == len(idx.covers) == len(idx.indptr) - 1
    assert idx.piece_sizes == [len(cov.promoters) for cov in idx.pieces]
    assert idx.slot_pieces == idx.piece.tolist()
    for j, cov in enumerate(idx.pieces):
        for i, v in enumerate(cov.promoters.tolist()):
            g = idx.slot(j, v)
            assert g == idx.offsets[j] + i and idx.piece[g] == j and idx.promoter[g] == v
            seg = cov.samples[cov.indptr[i] : cov.indptr[i + 1]]
            assert np.array_equal(idx.covers[g], seg)
            lo, hi = idx.indptr[g], idx.indptr[g + 1]
            assert np.array_equal(idx.cells[lo:hi], j * idx.theta + seg)
    assert idx.slot(0, 10_000) == -1


def test_index_arrays_are_intp(prepared_test_graph):
    """The search gathers with these arrays on every greedy step; an index
    of any other integer type is converted to intp on each call.  Holds for
    explicit RR sets (int64 rows), Spark's int32 rows and a subset."""
    prep = prepared_test_graph
    for idx in (random_index(seed=4), prep.index):
        arrays = {"samples": idx.samples, "cells": idx.cells, "indptr": idx.indptr}
        arrays.update({f"covers[{g}]": ids for g, ids in enumerate(idx.covers)})
        for j, cov in enumerate(idx.pieces + [prep.im_cov]):
            arrays.update({f"pieces[{j}].samples": cov.samples, f"pieces[{j}].indptr": cov.indptr})
        for name, a in arrays.items():
            assert a.dtype == np.intp, name


def test_slot_layout_of_subset():
    idx = random_index(n_vertices=30, theta=40, n_pieces=3, seed=6)
    sub = idx.subset([2, 0])
    assert sub.slot(0, int(idx.pieces[2].promoters[0])) == 0
    v = int(idx.pieces[0].promoters[-1])
    assert sub.slot(1, v) == len(idx.pieces[2].promoters) + len(idx.pieces[0].promoters) - 1
    assert np.array_equal(sub.covered_by(1, v), idx.covered_by(0, v))


def test_find_slots_matches_bruteforce():
    """The vectorized lookup agrees with a scan over every slot, and gives
    −1 for non-promoters of a piece and for vertices outside the pool,
    including ids outside [0, n) whose key would alias another piece."""
    pool = np.array([1, 4, 5, 8, 11, 12, 17, 19])
    idx = random_index(n_vertices=20, theta=30, n_pieces=3, density=0.2, seed=9, pool=pool)
    pieces, vertices = np.meshgrid(np.arange(3), np.arange(-21, 41), indexing="ij")
    got = idx.find_slots(pieces.ravel(), vertices.ravel())
    want = [
        next((g for g in range(len(idx.piece)) if idx.piece[g] == j and idx.promoter[g] == v), -1)
        for j, v in zip(pieces.ravel().tolist(), vertices.ravel().tolist())
    ]
    assert got.tolist() == want
    assert (got >= 0).sum() == len(idx.piece)
    assert np.isin(vertices.ravel()[got >= 0], pool).all()
    plan = {0: {int(idx.pieces[0].promoters[0]), 2, 100}, 2: {int(idx.pieces[2].promoters[-1])}}
    assert idx.plan_slots(plan).tolist() == [0, len(idx.piece) - 1]


def test_slot_cells_is_per_slot_concatenation():
    """The one-gather cells of a slot array equal the per-slot concatenation
    of ``cells[indptr[g]:indptr[g+1]]``: for no slots, for repeated slots,
    and for two slots of one piece that share samples."""
    idx = random_index(n_vertices=30, theta=40, n_pieces=3, density=0.3, seed=4)
    lo, hi = idx.offsets[1], idx.offsets[2]
    shared = next(
        (a, b)
        for a in range(lo, hi)
        for b in range(a + 1, hi)
        if np.intersect1d(idx.covers[a], idx.covers[b]).size
    )
    for slots in ([], [3, 0, 3, 3], list(shared)):
        slots = np.array(slots, dtype=np.intp)
        want = [idx.cells[idx.indptr[g] : idx.indptr[g + 1]] for g in slots.tolist()]
        got = idx.slot_cells(slots)
        assert got.tolist() == np.concatenate([np.empty(0, np.intp), *want]).tolist()
