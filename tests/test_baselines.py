"""Tests for the IM / TIM baselines (§VI-A)."""
from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.adoption import LogisticModel, estimate_au, plan_size
from repro.core.baselines import greedy_max_coverage, im_baseline, tim_baseline
from repro.diffusion.mrr import index_from_sets

from .conftest import random_index


def test_greedy_max_coverage_simple():
    """Hand-built instance with a known unique greedy/optimal answer."""
    rr = {0: [{1}, {1}, {1, 2}, {2}, {3}]}
    idx = index_from_sets(rr, n_vertices=5)
    cov = idx.pieces[0]
    picks = greedy_max_coverage(cov, 2, idx.theta)
    assert picks[0] == 1  # covers 3 samples
    assert picks[1] in (2, 3)


def test_greedy_max_coverage_matches_bruteforce():
    idx = random_index(n_vertices=12, theta=40, n_pieces=1, density=0.2, seed=50)
    cov = idx.pieces[0]
    k = 3
    picks = greedy_max_coverage(cov, k, idx.theta)

    def coverage(vs):
        s = set()
        for v in vs:
            s.update(idx.covered_by(0, v).tolist())
        return len(s)

    best = max(
        coverage(c) for c in itertools.combinations(cov.promoters.tolist(), k)
    )
    assert coverage(picks) >= (1 - 1 / np.e) * best - 1e-9


def test_greedy_max_coverage_k_exceeds_pool():
    rr = {0: [{1}, {2}]}
    idx = index_from_sets(rr, n_vertices=3)
    picks = greedy_max_coverage(idx.pieces[0], 10, idx.theta)
    assert sorted(picks) == [1, 2]


def test_greedy_stops_at_zero_gain():
    rr = {0: [{1}, {1}]}
    idx = index_from_sets(rr, n_vertices=4)
    picks = greedy_max_coverage(idx.pieces[0], 3, idx.theta)
    assert picks == [1]  # nothing else covers anything


def test_tim_single_piece_plan():
    idx = random_index(seed=51)
    m = LogisticModel.from_ratio(0.5)
    res = tim_baseline(idx, m, 4)
    assert len(res.plan) == 1  # all budget on one piece
    assert plan_size(res.plan) <= 4
    assert res.method == "TIM"
    assert np.isclose(res.utility, estimate_au(idx, res.plan, m))
    assert 0 <= res.chosen_piece < idx.n_pieces


def test_im_single_piece_plan():
    idx = random_index(n_pieces=4, seed=52)
    core = idx.subset([0, 1, 2])
    im_cov = idx.pieces[3]  # stand-in for the topic-agnostic graph
    m = LogisticModel.from_ratio(0.5)
    res = im_baseline(im_cov, core, m, 4)
    assert len(res.plan) == 1
    assert res.method == "IM"
    assert np.isclose(res.utility, estimate_au(core, res.plan, m))


def test_im_seeds_identical_across_pieces():
    """IM uses ONE seed set; only the piece choice varies."""
    idx = random_index(n_pieces=3, seed=53)
    core = idx.subset([0, 1])
    im_cov = idx.pieces[2]
    m = LogisticModel.from_ratio(0.5)
    res = im_baseline(im_cov, core, m, 3)
    expected_seeds = set(greedy_max_coverage(im_cov, 3, idx.theta))
    (j,) = res.plan.keys()
    assert res.plan[j] == expected_seeds


def test_tim_picks_best_piece():
    """TIM must select the (piece, seeds) pair with the max AU among its
    candidates."""
    idx = random_index(seed=54)
    m = LogisticModel.from_ratio(0.5)
    res = tim_baseline(idx, m, 3)
    for j in range(idx.n_pieces):
        seeds = greedy_max_coverage(idx.pieces[j], 3, idx.theta)
        assert res.utility >= estimate_au(idx, {j: set(seeds)}, m) - 1e-9


def test_baselines_bounded_by_optimum(ex1_index, ex1_model):
    """On Example 1 both baselines are strictly worse than the OIPA optimum
    (they can't split the budget across pieces)."""
    tim = tim_baseline(ex1_index, ex1_model, 2)
    opt = estimate_au(ex1_index, {0: {0}, 1: {4}}, ex1_model)
    assert tim.utility < opt
