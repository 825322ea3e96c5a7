"""Tests for ComputeBound (Alg 2) and ComputeBoundPro (Alg 3)."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.adoption import LogisticModel, estimate_au, plan_size
from repro.core.bound import compute_bound, compute_bound_progressive
from repro.core.coverage import BoundState

from .conftest import random_index


def full_pools(idx):
    return np.ones(len(idx.piece), dtype=bool)


@pytest.fixture(scope="module")
def idx():
    return random_index(n_vertices=40, theta=80, n_pieces=3, seed=13)


@pytest.fixture(scope="module")
def model():
    return LogisticModel.from_ratio(0.5)


def test_bound_upper_ge_lower(idx, model):
    res = compute_bound(idx, model, idx.plan_slots({}), full_pools(idx), 5)
    assert res.upper >= res.lower - 1e-9


def test_bound_respects_budget(idx, model):
    for k in (1, 3, 6):
        res = compute_bound(idx, model, idx.plan_slots({}), full_pools(idx), k)
        assert plan_size(idx.slot_plan(res.slots)) <= k


def test_bound_extends_partial_plan(idx, model):
    v = int(idx.pieces[0].promoters[0])
    partial = {0: {v}}
    res = compute_bound(idx, model, idx.plan_slots(partial), full_pools(idx), 4)
    assert v in idx.slot_plan(res.slots)[0]
    assert plan_size(idx.slot_plan(res.slots)) <= 4


def test_bound_first_pick_is_best_singleton(idx, model):
    """The branching pair must be the max singleton τ-marginal."""
    res = compute_bound(idx, model, idx.plan_slots({}), full_pools(idx), 5)
    state = BoundState(idx, model, idx.plan_slots({}))
    best = max(
        (state.slot_gain(idx.slot(j, int(v))), j, int(v))
        for j in range(idx.n_pieces)
        for v in idx.pieces[j].promoters
    )
    assert res.first_slot == idx.slot(best[1], best[2])


def test_bound_lower_is_exact_au(idx, model):
    res = compute_bound(idx, model, idx.plan_slots({}), full_pools(idx), 5)
    assert np.isclose(res.lower, estimate_au(idx, idx.slot_plan(res.slots), model))


def test_bound_upper_majorizes_any_completion(idx, model):
    """τ(greedy) ≥ (1−1/e)·σ(any complete plan containing the partial);
    check against random completions — with a safety slack of exactly the
    theoretical factor."""
    res = compute_bound(idx, model, idx.plan_slots({}), full_pools(idx), 4)
    g = np.random.default_rng(0)
    factor = 1 - 1 / np.e
    for _ in range(30):
        plan = {}
        for _ in range(4):
            j = int(g.integers(idx.n_pieces))
            plan.setdefault(j, set()).add(int(g.choice(idx.pieces[j].promoters)))
        assert res.upper >= factor * estimate_au(idx, plan, model) - 1e-9


def test_bound_pool_restriction(idx, model):
    pools = full_pools(idx)
    pools[idx.offsets[0] : idx.offsets[1]] = False  # piece 0 has no available promoters
    res = compute_bound(idx, model, idx.plan_slots({}), pools, 5)
    assert 0 not in idx.slot_plan(res.slots) or not idx.slot_plan(res.slots)[0]


@pytest.mark.parametrize("bound", [compute_bound, compute_bound_progressive])
def test_pool_excluded_slot_never_picked(idx, model, bound):
    """Only pool-excluded slots are masked in a greedy step: a branch pool
    that drops the slot of largest gain keeps it out of every completed
    plan, with or without an anchor, up to a budget that takes every slot."""
    gains = BoundState(idx, model, idx.plan_slots({})).scan([1] * idx.n_pieces)
    top = int(gains.argmax())
    j, v = int(idx.piece[top]), int(idx.promoter[top])
    pools = full_pools(idx)
    pools[top] = False
    second = int(np.argsort(gains, kind="stable")[-2])
    anchor = {int(idx.piece[second]): {int(idx.promoter[second])}}
    for partial in ({}, anchor):
        for k in (2, 5, len(pools)):
            res = bound(idx, model, idx.plan_slots(partial), pools, k)
            assert v not in idx.slot_plan(res.slots).get(j, set()) and res.first_slot != top
            assert plan_size(idx.slot_plan(res.slots)) > plan_size(partial)


def test_greedy_matches_reference_implementation(idx, model):
    """Vectorized greedy == a slow reference greedy over the τ bound."""
    k = 4
    res = compute_bound(idx, model, idx.plan_slots({}), full_pools(idx), k)
    state = BoundState(idx, model, idx.plan_slots({}))
    chosen = []
    used = {j: set() for j in range(idx.n_pieces)}
    for _ in range(k):
        best = (0.0, None)
        for j in range(idx.n_pieces):
            for v in idx.pieces[j].promoters:
                if int(v) in used[j]:
                    continue
                g = state.slot_gain(idx.slot(j, int(v)))
                if g > best[0]:
                    best = (g, (j, int(v)))
        if best[1] is None:
            break
        j, v = best[1]
        state.slot_add(idx.slot(j, v))
        used[j].add(v)
        chosen.append((j, v))
    want = {j: s for j, s in ((j, set(vs for jj, vs in chosen if jj == j)) for j in range(idx.n_pieces)) if s}
    got = {j: s for j, s in idx.slot_plan(res.slots).items() if s}
    # Greedy ties can break differently; compare the bound value instead.
    ref_tau = state.tau_scaled()
    assert np.isclose(res.upper, ref_tau, rtol=1e-9)


# ---------------------------------------------------------------------------
# Progressive bound (Algorithm 3)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("eps", [0.1, 0.5, 0.9])
def test_progressive_upper_vs_lower_theorem3(idx, model, eps):
    """The progressive τ may sit BELOW the completed candidate's σ (floor
    exit + candidate completion), but never below the Theorem-3 factor."""
    res = compute_bound_progressive(idx, model, idx.plan_slots({}), full_pools(idx), 5, eps=eps)
    factor = max(0.0, 1 - np.exp(-1) - eps)
    assert res.upper >= factor * res.lower - 1e-9


@pytest.mark.parametrize("eps", [0.1, 0.5])
def test_progressive_respects_budget(idx, model, eps):
    res = compute_bound_progressive(idx, model, idx.plan_slots({}), full_pools(idx), 4, eps=eps)
    assert plan_size(idx.slot_plan(res.slots)) <= 4


@pytest.mark.parametrize("eps", [0.1, 0.3, 0.5, 0.9])
def test_progressive_approximation_vs_plain(idx, model, eps):
    """Theorem 3: the progressive bound's τ is within (1−1/e−ε)/(1−1/e)
    of the plain greedy's — in practice far closer."""
    plain = compute_bound(idx, model, idx.plan_slots({}), full_pools(idx), 5)
    prog = compute_bound_progressive(idx, model, idx.plan_slots({}), full_pools(idx), 5, eps=eps)
    ratio = (1 - np.exp(-1) - eps) / (1 - np.exp(-1))
    assert prog.upper >= ratio * plain.upper - 1e-9


def test_progressive_fewer_evals_on_large_instance(model):
    """The raison d'être of Alg 3: far fewer τ evaluations than full scans."""
    big = random_index(n_vertices=300, theta=400, n_pieces=3, density=0.03, seed=21)
    pools = full_pools(big)
    plain = compute_bound(big, model, big.plan_slots({}), pools, 20)
    prog = compute_bound_progressive(big, model, big.plan_slots({}), pools, 20, eps=0.5)
    assert prog.evals < plain.evals


def test_progressive_threshold_floor_terminates(idx, model):
    """With a huge ε the threshold collapses immediately; the algorithm must
    still return a valid budget-respecting plan rather than loop."""
    res = compute_bound_progressive(idx, model, idx.plan_slots({}), full_pools(idx), 10, eps=50.0)
    assert plan_size(idx.slot_plan(res.slots)) <= 10
    assert res.lower >= 0.0 and res.upper >= 0.0


def test_progressive_candidate_completion_fills_budget(model):
    """After the Theorem-3 floor exit, remaining budget is filled for the
    candidate plan (lower bound) without inflating the frozen upper bound."""
    big = random_index(n_vertices=150, theta=300, n_pieces=3, density=0.03, seed=77)
    pools = full_pools(big)
    res = compute_bound_progressive(big, model, big.plan_slots({}), pools, 30, eps=0.5)
    plain = compute_bound(big, model, big.plan_slots({}), pools, 30)
    assert plan_size(big.slot_plan(res.slots)) == plan_size(big.slot_plan(plain.slots)) == 30
    assert res.lower >= 0.85 * plain.lower


def test_progressive_empty_pool(model):
    small = random_index(n_vertices=10, theta=10, n_pieces=2, seed=3)
    pools = ~full_pools(small)
    res = compute_bound_progressive(small, model, small.plan_slots({}), pools, 3)
    assert plan_size(small.slot_plan(res.slots)) == 0 and res.lower == 0.0


def _reference_compute_bound(idx, model, partial, pools, k):
    """Algorithm 2 as a per-piece loop: each step recomputes the weights
    D[c0, c], scans every piece that has an available promoter (counting one
    evaluation per promoter of that piece) and keeps the first strict
    maximum, piece-major."""
    state = BoundState(idx, model, idx.plan_slots(partial))
    avail = [p.copy() for p in pools]
    for j, seeds in partial.items():
        for v in seeds:
            avail[j][idx.pieces[j].promoters == v] = False
    evals, plan, first = 0, {j: set(s) for j, s in partial.items()}, None
    for _ in range(k - plan_size(partial)):
        best_gain, best = 0.0, None
        for j, cov in enumerate(idx.pieces):
            if not avail[j].any():
                continue
            evals += len(cov.promoters)
            w = state.D[state.c0, state.c].copy()
            w[state.covered[j]] = 0.0
            gains = np.add.reduceat(w[cov.samples], cov.indptr[:-1])
            gains[~avail[j]] = -np.inf
            i = int(np.argmax(gains))
            if gains[i] > best_gain:
                best_gain, best = float(gains[i]), (j, i)
        if best is None:
            break
        j, i = best
        v = int(idx.pieces[j].promoters[i])
        state.slot_add(idx.slot(j, v))
        avail[j][i] = False
        plan.setdefault(j, set()).add(v)
        first = first or (j, v)
    return plan, state.tau_scaled(), first, evals


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_one_pass_greedy_equals_per_piece_reference(model, seed):
    """Plans, bound, branching pair and evals equal the per-piece loop; evals
    is Σ_steps Σ_{pieces with an available slot} len(promoters).  The small
    instance with k above the pool size lets pieces run out of slots."""
    small = random_index(n_vertices=12, theta=30, n_pieces=3, density=0.2, seed=seed)
    g = np.random.default_rng(seed)
    pools = [g.random(len(c.promoters)) < 0.7 for c in small.pieces]
    v = int(small.pieces[1].promoters[0])
    for partial, k in (({}, 4), ({}, 40), ({1: {v}}, 6)):
        res = compute_bound(small, model, small.plan_slots(partial), np.concatenate(pools), k)
        plan, upper, first, evals = _reference_compute_bound(small, model, partial, pools, k)
        assert small.slot_plan(res.slots) == plan and res.upper == upper
        assert res.first_slot == (small.slot(*first) if first else None)
        assert res.evals == evals


@pytest.mark.parametrize("seed", [13, 14, 15])
@pytest.mark.parametrize("bound", [compute_bound, compute_bound_progressive])
def test_lower_is_estimate_au_exactly(model, seed, bound):
    """The lower bound comes from the greedy state's counts, and equals
    Eqn 6 recounted from the plan to the last bit."""
    idx = random_index(n_vertices=40, theta=80, n_pieces=3, seed=seed)
    v = int(idx.pieces[2].promoters[1])
    for partial in ({}, {2: {v}}):
        res = bound(idx, model, idx.plan_slots(partial), full_pools(idx), 6)
        assert res.lower == estimate_au(idx, idx.slot_plan(res.slots), model)
