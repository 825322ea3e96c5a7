"""Tests for the branch-and-bound framework (Algorithm 1): BAB and BAB-P."""
from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.adoption import LogisticModel, estimate_au, plan_size
from repro.core.bab import branch_and_bound
from repro.core.reduction import brute_force_oipa

from .conftest import random_index

APPROX = 1 - 1 / np.e


def test_example1_exact(ex1_index, ex1_model):
    """BAB recovers the paper's optimal plan {t1→a, t2→e} at k=2."""
    res = branch_and_bound(ex1_index, ex1_model, 2)
    assert res.plan == {0: {0}, 1: {4}}
    assert np.isclose(res.utility, 1.0452, atol=1e-3)
    assert res.gap <= 0.01


def test_example1_progressive_exact(ex1_index, ex1_model):
    res = branch_and_bound(ex1_index, ex1_model, 2, progressive=True)
    assert res.plan == {0: {0}, 1: {4}}


@pytest.mark.parametrize("progressive", [False, True], ids=["BAB", "BAB-P"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_approximation_ratio_vs_bruteforce(progressive, seed):
    """Theorems 2-3 on tiny random instances (brute-force optimum known)."""
    idx = random_index(n_vertices=8, theta=25, n_pieces=2, density=0.25, seed=seed)
    m = LogisticModel.from_ratio(0.5)
    _, opt = brute_force_oipa(idx, m, 2)
    res = branch_and_bound(idx, m, 2, progressive=progressive)
    ratio = APPROX - (0.5 if progressive else 0.0) * 0  # Theorem 3 uses 1-1/e-ε
    floor = (APPROX - 0.5) if progressive else APPROX
    assert res.utility >= floor * opt - 1e-9
    # Empirically BAB should be essentially optimal on these instances.
    if not progressive:
        assert res.utility >= 0.95 * opt


@pytest.mark.parametrize("progressive", [False, True], ids=["BAB", "BAB-P"])
def test_budget_respected(progressive):
    idx = random_index(seed=30)
    m = LogisticModel.from_ratio(0.5)
    for k in (1, 3, 6):
        res = branch_and_bound(idx, m, k, progressive=progressive, max_pops=50)
        assert plan_size(res.plan) <= k


def test_utility_is_exact_au_of_plan():
    idx = random_index(seed=31)
    m = LogisticModel.from_ratio(0.5)
    res = branch_and_bound(idx, m, 4, max_pops=50)
    assert np.isclose(res.utility, estimate_au(idx, res.plan, m))


def test_upper_bound_dominates_utility():
    idx = random_index(seed=32)
    m = LogisticModel.from_ratio(0.3)
    res = branch_and_bound(idx, m, 4, max_pops=50)
    assert res.upper_bound >= res.utility - 1e-9
    assert 0.0 <= res.gap <= 1.0


def test_gap_tolerance_respected():
    idx = random_index(seed=33)
    m = LogisticModel.from_ratio(0.5)
    res = branch_and_bound(idx, m, 3, gap_tol=0.10, max_pops=2000)
    if res.pops < 2000:  # terminated by criterion or exhaustion
        assert res.gap <= 0.10 + 1e-9


def test_utility_monotone_in_k():
    idx = random_index(seed=34)
    m = LogisticModel.from_ratio(0.5)
    utils = [
        branch_and_bound(idx, m, k, max_pops=60).utility for k in (1, 2, 4, 8)
    ]
    assert all(b >= a - 1e-9 for a, b in zip(utils, utils[1:]))


def test_progressive_close_to_plain():
    """§VI-C: BAB-P has 'near-equivalent adoption utilities' to BAB."""
    idx = random_index(n_vertices=60, theta=120, n_pieces=3, seed=35)
    m = LogisticModel.from_ratio(0.5)
    bab = branch_and_bound(idx, m, 6, max_pops=60)
    babp = branch_and_bound(idx, m, 6, progressive=True, max_pops=60)
    assert babp.utility >= 0.9 * bab.utility


def test_progressive_cheaper():
    """BAB-P spends fewer τ evaluations than BAB on the same instance."""
    idx = random_index(n_vertices=200, theta=300, n_pieces=3, density=0.04, seed=36)
    m = LogisticModel.from_ratio(0.5)
    bab = branch_and_bound(idx, m, 15, max_pops=15)
    babp = branch_and_bound(idx, m, 15, progressive=True, max_pops=15)
    assert babp.evals < bab.evals


def test_max_pops_backstop():
    idx = random_index(seed=37)
    m = LogisticModel.from_ratio(0.3)
    res = branch_and_bound(idx, m, 5, max_pops=3)
    assert res.pops <= 3
    assert res.utility > 0


def test_result_metadata():
    idx = random_index(seed=38)
    m = LogisticModel.from_ratio(0.5)
    res = branch_and_bound(idx, m, 3, max_pops=20)
    assert res.method == "BAB" and res.seconds >= 0 and res.bound_calls >= 1
    resp = branch_and_bound(idx, m, 3, progressive=True, max_pops=20)
    assert resp.method == "BAB-P"


def test_plan_within_promoter_pool():
    pool = np.array([0, 2, 4, 6, 8, 10, 12, 14])
    idx = random_index(n_vertices=20, theta=40, n_pieces=2, seed=39, pool=pool)
    m = LogisticModel.from_ratio(0.5)
    res = branch_and_bound(idx, m, 4, max_pops=40)
    for seeds in res.plan.values():
        assert set(seeds) <= set(pool.tolist())


def test_beats_or_matches_single_piece_plans():
    """BAB must never lose to the best 'all budget on one piece' plan —
    that plan is in its search space."""
    idx = random_index(n_vertices=40, theta=80, n_pieces=3, seed=40)
    m = LogisticModel.from_ratio(0.5)
    from repro.core.baselines import tim_baseline

    res = branch_and_bound(idx, m, 5, max_pops=100)
    tim = tim_baseline(idx, m, 5)
    assert res.utility >= tim.utility - 1e-6


@pytest.mark.parametrize("progressive", [False, True], ids=["BAB", "BAB-P"])
def test_stop_reason(ex1_index, ex1_model, progressive):
    """Each of the three stops is recorded: the heap empties on Example 1,
    one pop leaves the children on the heap, and a 100% tolerance accepts
    the first pop."""
    run = lambda **kw: branch_and_bound(ex1_index, ex1_model, 2, progressive=progressive, **kw)
    res = run()
    assert res.stop_reason == "exhausted" and res.gap == 0.0
    res = run(max_pops=1)
    assert res.stop_reason == "max_pops" and res.pops == 1 and res.gap > 0.01
    res = run(gap_tol=1.0)
    assert res.stop_reason == "gap" and res.pops == 1


@pytest.mark.parametrize("progressive", [False, True], ids=["BAB", "BAB-P"])
def test_gap_stop_on_last_entry_keeps_its_upper_bound(ex1_index, ex1_model, progressive):
    """A gap stop on the heap's last entry leaves that subspace unexplored,
    so U stays the popped bound: the same pop as a one-pop backstop."""
    run = lambda **kw: branch_and_bound(ex1_index, ex1_model, 2, progressive=progressive, **kw)
    res = run(gap_tol=0.05)
    capped = run(max_pops=1)
    assert res.stop_reason == "gap" and res.pops == 1
    assert res.upper_bound == capped.upper_bound and res.utility == capped.utility
    assert res.gap == pytest.approx(0.0284, abs=1e-4)


# sha256 of four searches on the test graph's sketch (see
# test_search_pinned).  Any change to a tie-break, a bound's arithmetic or
# the heap order moves it.
TEST_GRAPH_SEARCH_SHA256 = "a673be27066c7ccd9ae25599704a78b95792b4d24f40247890416d5a2bf5ec58"


def test_search_pinned(prepared_test_graph):
    """BAB and BAB-P at β/α ∈ {0.3, 0.5}, k=20, 50 pops, bit for bit: the
    sorted plan, utility and U as float hex, gap, pops, evals and the stop."""
    digest = hashlib.sha256()
    for ratio in (0.3, 0.5):
        model = LogisticModel.from_ratio(ratio)
        for progressive in (False, True):
            r = branch_and_bound(
                prepared_test_graph.index, model, 20, progressive=progressive, max_pops=50
            )
            plan = sorted((j, v) for j, seeds in r.plan.items() for v in seeds)
            record = (plan, r.utility.hex(), r.upper_bound.hex(), r.gap.hex())
            record += (r.pops, r.evals, r.stop_reason)
            digest.update(repr(record).encode())
    assert digest.hexdigest() == TEST_GRAPH_SEARCH_SHA256
