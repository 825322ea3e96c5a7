"""Tests for the vectorized bound state (greedy machinery of Algorithms 2-3)."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.adoption import LogisticModel
from repro.core.coverage import BoundState, anchor_from_plan, masked_reduceat
from repro.core.envelope import envelope_table

from .conftest import random_index


def test_masked_reduceat_basic():
    vals = np.array([1.0, 2.0, 3.0, 4.0])
    indptr = np.array([0, 2, 2, 4])  # middle segment empty
    out = masked_reduceat(vals, indptr)
    assert np.allclose(out, [3.0, 0.0, 7.0])


def test_masked_reduceat_all_empty():
    out = masked_reduceat(np.empty(0), np.array([0, 0, 0]))
    assert np.allclose(out, [0.0, 0.0])


def test_masked_reduceat_single():
    assert np.allclose(masked_reduceat(np.array([5.0]), np.array([0, 1])), [5.0])


def test_anchor_from_plan_empty():
    idx = random_index()
    c0, covered = anchor_from_plan(idx, {})
    assert c0.sum() == 0 and not covered.any()


def test_anchor_from_plan_counts():
    idx = random_index(seed=2)
    v = int(idx.pieces[0].promoters[0])
    c0, covered = anchor_from_plan(idx, {0: {v}})
    ids = idx.covered_by(0, v)
    assert covered[0, ids].all()
    assert c0.sum() == len(ids)


@pytest.mark.parametrize("ratio", [0.3, 0.5, 0.7])
def test_tau_of_empty_state_majorizes_au(ratio):
    """τ(∅|S̄a) ≥ σ(S̄a): the bound is valid at its own anchor."""
    from repro.core.adoption import estimate_au

    idx = random_index(seed=4)
    m = LogisticModel.from_ratio(ratio)
    plan = {0: {int(idx.pieces[0].promoters[0])}, 1: {int(idx.pieces[1].promoters[1])}}
    state = BoundState(idx, m, plan)
    assert state.tau_scaled() >= estimate_au(idx, plan, m) - 1e-9


def test_gains_all_matches_single_gain():
    idx = random_index(seed=5)
    m = LogisticModel.from_ratio(0.5)
    state = BoundState(idx, m, {})
    for j in range(idx.n_pieces):
        gains = state.gains_all(j)
        for i, v in enumerate(idx.pieces[j].promoters[:10]):
            assert np.isclose(gains[i], state.gain(j, int(v)))


def test_gain_equals_tau_difference():
    """δ(v) computed incrementally == τ(after add) − τ(before add)."""
    idx = random_index(seed=6)
    m = LogisticModel.from_ratio(0.5)
    state = BoundState(idx, m, {})
    v = int(idx.pieces[1].promoters[3])
    g = state.gain(1, v)
    before = state.tau()
    state.add(1, v)
    assert np.isclose(g, state.tau() - before)


def test_add_idempotent():
    idx = random_index(seed=7)
    m = LogisticModel.from_ratio(0.5)
    state = BoundState(idx, m, {})
    v = int(idx.pieces[0].promoters[0])
    state.add(0, v)
    tau1 = state.tau()
    state.add(0, v)
    assert np.isclose(state.tau(), tau1)
    assert state.gain(0, v) == 0.0


def test_submodularity_of_tau():
    """δ_A(v) ≥ δ_B(v) whenever A ⊆ B — the property Theorem 2 rests on."""
    idx = random_index(seed=8)
    m = LogisticModel.from_ratio(0.3)  # hardest curve
    g = np.random.default_rng(0)
    for trial in range(20):
        state_small = BoundState(idx, m, {})
        state_big = BoundState(idx, m, {})
        # grow B beyond A by two random additions
        for _ in range(2):
            j = int(g.integers(idx.n_pieces))
            v = int(g.choice(idx.pieces[j].promoters))
            state_big.add(j, v)
        j = int(g.integers(idx.n_pieces))
        v = int(g.choice(idx.pieces[j].promoters))
        assert state_small.gain(j, v) >= state_big.gain(j, v) - 1e-9


def test_monotonicity_of_tau():
    idx = random_index(seed=9)
    m = LogisticModel.from_ratio(0.5)
    state = BoundState(idx, m, {})
    prev = state.tau()
    g = np.random.default_rng(1)
    for _ in range(10):
        j = int(g.integers(idx.n_pieces))
        v = int(g.choice(idx.pieces[j].promoters))
        state.add(j, v)
        assert state.tau() >= prev - 1e-9
        prev = state.tau()


def test_eval_counter_increments():
    idx = random_index(seed=10)
    m = LogisticModel.from_ratio(0.5)
    state = BoundState(idx, m, {})
    state.gains_all(0)
    assert state.evals == len(idx.pieces[0].promoters)
    state.gain(1, int(idx.pieces[1].promoters[0]))
    assert state.evals == len(idx.pieces[0].promoters) + 1


def test_anchored_state_uses_refined_envelope():
    """A partial plan advances anchors: gains shrink where pieces overlap,
    exactly the Fig-2 tangent refinement."""
    idx = random_index(seed=11)
    m = LogisticModel.from_ratio(0.3)
    v0 = int(idx.pieces[0].promoters[0])
    empty = BoundState(idx, m, {})
    refined = BoundState(idx, m, {0: {v0}})
    G = envelope_table(m, idx.n_pieces)
    assert refined.tau() <= empty.tau() + G[0, 1] * idx.theta  # sanity scale
    # the refined state's anchor counts reflect the partial plan
    assert refined.c0.sum() == len(idx.covered_by(0, v0))


def _random_plan(idx, g, size):
    plan = {}
    for _ in range(size):
        j = int(g.integers(idx.n_pieces))
        plan.setdefault(j, set()).add(int(g.choice(idx.pieces[j].promoters)))
    return plan


def _reference_gains(state, piece):
    """The per-piece scan the one-pass kernel replaced: weights D[c0, c]
    recomputed from scratch, zeroed where ``piece`` already covers."""
    cov = state.index.pieces[piece]
    w = state.D[state.c0, state.c].copy()
    w[state.covered[piece]] = 0.0
    return masked_reduceat(w[cov.samples], cov.indptr)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_state_invariants_after_every_add(seed):
    """``base`` is kept incrementally; after every addition it equals
    D[c0, c] recomputed, c equals the plan's per-sample piece counts, and the
    one-pass gains equal the per-piece reference scan exactly."""
    idx = random_index(n_vertices=30, theta=50, seed=seed)
    m = LogisticModel.from_ratio(0.3)
    g = np.random.default_rng(seed)
    plan = _random_plan(idx, g, 2)
    state = BoundState(idx, m, plan)
    assert np.array_equal(state.c0, idx.plan_counts(plan))
    plan = {j: set(s) for j, s in plan.items()}
    for _ in range(12):
        j = int(g.integers(idx.n_pieces))
        v = int(g.choice(idx.pieces[j].promoters))  # repeats are no-ops
        state.add(j, v)
        plan.setdefault(j, set()).add(v)
        assert np.array_equal(state.base, state.D[state.c0, state.c])
        assert np.array_equal(state.c, idx.plan_counts(plan))
        for jj in range(idx.n_pieces):
            assert np.array_equal(state.gains_all(jj), _reference_gains(state, jj))


def test_slot_gain_matches_piece_gain():
    idx = random_index(seed=12)
    m = LogisticModel.from_ratio(0.5)
    state = BoundState(idx, m, _random_plan(idx, np.random.default_rng(0), 3))
    for j, cov in enumerate(idx.pieces):
        for v in cov.promoters:
            assert state.slot_gain(idx.slot(j, int(v))) == state.gain(j, int(v))
    assert state.gain(0, idx.n_vertices + 5) == 0.0  # not a promoter


def test_scan_counts_pieces_with_available_slots():
    idx = random_index(seed=14)
    m = LogisticModel.from_ratio(0.5)
    state = BoundState(idx, m, {})
    sizes = [len(c.promoters) for c in idx.pieces]
    state.scan([0, 2, 1])
    assert state.evals == sizes[1] + sizes[2]
