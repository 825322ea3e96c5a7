"""Tests for the vectorized bound state (greedy machinery of Algorithms 2-3)."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.adoption import LogisticModel
from repro.core.coverage import BoundState
from repro.core.envelope import envelope_table

from .conftest import random_index


def test_plan_coverage_empty():
    idx = random_index()
    covered = idx.plan_coverage({})
    c0 = BoundState(idx, LogisticModel.from_ratio(0.5), idx.plan_slots({})).c0
    assert c0.sum() == 0 and not covered.any()


def test_plan_coverage_counts():
    idx = random_index(seed=2)
    v = int(idx.pieces[0].promoters[0])
    covered = idx.plan_coverage({0: {v}})
    c0 = BoundState(idx, LogisticModel.from_ratio(0.5), idx.plan_slots({0: {v}})).c0
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
    state = BoundState(idx, m, idx.plan_slots(plan))
    assert state.tau_scaled() >= estimate_au(idx, plan, m) - 1e-9


def test_scan_matches_single_slot_gain():
    idx = random_index(seed=5)
    m = LogisticModel.from_ratio(0.5)
    state = BoundState(idx, m, idx.plan_slots({}))
    for j in range(idx.n_pieces):
        gains = state.scan([1] * idx.n_pieces)[idx.offsets[j] : idx.offsets[j + 1]]
        for i, v in enumerate(idx.pieces[j].promoters[:10]):
            assert np.isclose(gains[i], state.slot_gain(idx.slot(j, int(v))))


def test_gain_equals_tau_difference():
    """δ(v) computed incrementally == τ(after add) − τ(before add)."""
    idx = random_index(seed=6)
    m = LogisticModel.from_ratio(0.5)
    state = BoundState(idx, m, idx.plan_slots({}))
    g = idx.slot(1, int(idx.pieces[1].promoters[3]))
    gain = state.slot_gain(g)
    before = state.tau()
    state.slot_add(g)
    assert np.isclose(gain, state.tau() - before)


def test_add_idempotent():
    idx = random_index(seed=7)
    m = LogisticModel.from_ratio(0.5)
    state = BoundState(idx, m, idx.plan_slots({}))
    g = idx.slot(0, int(idx.pieces[0].promoters[0]))
    state.slot_add(g)
    tau1 = state.tau()
    state.slot_add(g)
    assert np.isclose(state.tau(), tau1)
    assert state.slot_gain(g) == 0.0


def test_submodularity_of_tau():
    """δ_A(v) ≥ δ_B(v) whenever A ⊆ B — the property Theorem 2 rests on."""
    idx = random_index(seed=8)
    m = LogisticModel.from_ratio(0.3)  # hardest curve
    g = np.random.default_rng(0)
    for trial in range(20):
        state_small = BoundState(idx, m, idx.plan_slots({}))
        state_big = BoundState(idx, m, idx.plan_slots({}))
        # grow B beyond A by two random additions
        for _ in range(2):
            j = int(g.integers(idx.n_pieces))
            v = int(g.choice(idx.pieces[j].promoters))
            state_big.slot_add(idx.slot(j, v))
        j = int(g.integers(idx.n_pieces))
        slot = idx.slot(j, int(g.choice(idx.pieces[j].promoters)))
        assert state_small.slot_gain(slot) >= state_big.slot_gain(slot) - 1e-9


def test_monotonicity_of_tau():
    idx = random_index(seed=9)
    m = LogisticModel.from_ratio(0.5)
    state = BoundState(idx, m, idx.plan_slots({}))
    prev = state.tau()
    g = np.random.default_rng(1)
    for _ in range(10):
        j = int(g.integers(idx.n_pieces))
        v = int(g.choice(idx.pieces[j].promoters))
        state.slot_add(idx.slot(j, v))
        assert state.tau() >= prev - 1e-9
        prev = state.tau()


def test_eval_counter_increments():
    idx = random_index(seed=10)
    m = LogisticModel.from_ratio(0.5)
    state = BoundState(idx, m, idx.plan_slots({}))
    state.scan([1, 0, 0])
    assert state.evals == len(idx.pieces[0].promoters)
    state.slot_gain(idx.slot(1, int(idx.pieces[1].promoters[0])))
    assert state.evals == len(idx.pieces[0].promoters) + 1


def test_anchored_state_uses_refined_envelope():
    """A partial plan advances anchors: gains shrink where pieces overlap,
    exactly the Fig-2 tangent refinement."""
    idx = random_index(seed=11)
    m = LogisticModel.from_ratio(0.3)
    v0 = int(idx.pieces[0].promoters[0])
    empty = BoundState(idx, m, idx.plan_slots({}))
    refined = BoundState(idx, m, idx.plan_slots({0: {v0}}))
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
    return np.add.reduceat(w[cov.samples], cov.indptr[:-1])


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_state_invariants_after_every_add(seed):
    """``base`` is kept incrementally; after every addition it equals
    D[c0, c] recomputed, τ equals Σ G[c0, c] to the bit, c equals the plan's
    per-sample piece counts, and the one-pass gains equal the per-piece
    reference scan exactly."""
    idx = random_index(n_vertices=30, theta=50, seed=seed)
    m = LogisticModel.from_ratio(0.3)
    g = np.random.default_rng(seed)
    plan = _random_plan(idx, g, 2)
    state = BoundState(idx, m, idx.plan_slots(plan))
    assert np.array_equal(state.c0, idx.plan_counts(plan))
    plan = {j: set(s) for j, s in plan.items()}
    for _ in range(12):
        j = int(g.integers(idx.n_pieces))
        v = int(g.choice(idx.pieces[j].promoters))  # repeats are no-ops
        state.slot_add(idx.slot(j, v))
        plan.setdefault(j, set()).add(v)
        assert np.array_equal(state.base, state.D[state.c0, state.c])
        assert state.tau().hex() == float(state.G[state.c0, state.c].sum()).hex()
        assert np.array_equal(state.c, idx.plan_counts(plan))
        gains = state.scan([1] * idx.n_pieces)
        for jj in range(idx.n_pieces):
            lo, hi = idx.offsets[jj], idx.offsets[jj + 1]
            assert np.array_equal(gains[lo:hi], _reference_gains(state, jj))


def test_slot_gain_matches_piece_gain():
    idx = random_index(seed=12)
    m = LogisticModel.from_ratio(0.5)
    state = BoundState(idx, m, idx.plan_slots(_random_plan(idx, np.random.default_rng(0), 3)))
    gains = state.scan([1] * idx.n_pieces)
    for j, cov in enumerate(idx.pieces):
        for i, v in enumerate(cov.promoters.tolist()):
            assert state.slot_gain(idx.slot(j, v)) == gains[idx.offsets[j] + i]
    assert idx.slot(0, idx.n_vertices + 5) == -1  # not a promoter


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_slot_gain_is_scan_bit_for_bit(seed):
    """A slot's own marginal and the one-pass scan use one arithmetic, so
    BAB-P's threshold tests see the very numbers BAB's scan ranks by: equal
    to the last bit for every slot, over anchored states grown by random
    additions.  Slots of ~50 samples with some covered make a sum that
    skips the covered samples round differently."""
    idx = random_index(n_vertices=60, theta=200, n_pieces=3, density=0.25, seed=seed)
    m = LogisticModel.from_ratio(0.3)
    g = np.random.default_rng(seed)
    for trial in range(4):
        state = BoundState(idx, m, idx.plan_slots(_random_plan(idx, g, 2 + trial)))
        for _ in range(3 * trial):
            j = int(g.integers(idx.n_pieces))
            state.slot_add(idx.slot(j, int(g.choice(idx.pieces[j].promoters))))
        gains = state.scan([1] * idx.n_pieces)
        singles = np.array([state.slot_gain(s) for s in range(len(idx.piece))])
        assert singles.tobytes() == gains.tobytes()


def test_scan_counts_pieces_with_available_slots():
    idx = random_index(seed=14)
    m = LogisticModel.from_ratio(0.5)
    state = BoundState(idx, m, idx.plan_slots({}))
    sizes = [len(c.promoters) for c in idx.pieces]
    state.scan([0, 2, 1])
    assert state.evals == sizes[1] + sizes[2]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_scan_is_where_reference_bit_for_bit(seed):
    """The open-cell product ``base · open`` is bit for bit the masked select
    ``where(covered, 0, base)`` it replaced: after every addition to an
    anchored state, ``scan`` and every ``slot_gain`` equal that reference
    recomputed from the plan alone, and ``covered`` is the plan's coverage."""
    idx = random_index(n_vertices=50, theta=150, n_pieces=3, density=0.2, seed=seed)
    m = LogisticModel.from_ratio(0.3)
    g = np.random.default_rng(seed)
    anchor = _random_plan(idx, g, 3)
    state = BoundState(idx, m, idx.plan_slots(anchor))
    # The premise of the product form: every weight is finite and ≥ 0.
    assert np.isfinite(state.D).all() and (state.D >= 0.0).all()
    c0 = idx.plan_counts(anchor)
    plan = {j: set(s) for j, s in anchor.items()}
    for _ in range(10):
        j = int(g.integers(idx.n_pieces))
        v = int(g.choice(idx.pieces[j].promoters))  # repeats are no-ops
        state.slot_add(idx.slot(j, v))
        plan.setdefault(j, set()).add(v)
        covered = idx.plan_coverage(plan)
        base = state.D[c0, idx.plan_counts(plan)]
        vals = np.where(covered.reshape(-1)[idx.cells], 0.0, base[idx.samples])
        want = np.add.reduceat(vals, idx.indptr[:-1])
        assert np.array_equal(state.covered, covered)
        assert state.scan([1] * idx.n_pieces).tobytes() == want.tobytes()
        singles = np.array([state.slot_gain(s) for s in range(len(idx.piece))])
        assert singles.tobytes() == want.tobytes()
