"""ComputeBound (Algorithm 2) and ComputeBoundPro (Algorithm 3).

Both complete a partial plan S̄a to (at most) k assignments by maximizing
the anchored submodular bound τ(·|S̄a), and return:

* the completed candidate plan S̄ ∪ S̄a,
* its exact MRR-estimated AU σ(S̄ ∪ S̄a) — a lower bound for the subspace,
* τ(S̄|S̄a) — the upper bound used for pruning,
* the slot of the first greedy pick — reused by the framework as the
  branching pair v*.

Algorithm 2 is the plain greedy: each of the k' iterations scans every
available promoter of every piece.  Algorithm 3 is the progressive
variant: promoters are sorted once by their singleton gain δ∅(v); a
threshold h starting at the largest singleton gain admits any promoter
whose current marginal meets it, and decays by (1+ε) per round, with two
early exits — the sorted-order break (δ∅(v) < h ⇒ δ_S̄(v) < h by
submodularity) and the h ≤ τ·e⁻¹/((k−|S̄a|)(1−e⁻¹)) floor of Theorem 3.

Both speak the slots of the :class:`~repro.diffusion.mrr.MRRIndex` only:
the partial plan S̄a (the *anchor*) is an ``np.intp`` array of slots, so
k' = k − len(anchor); a branch's pool is one bool per slot; and the
completed candidate is the anchor's slots followed by the greedy's picks.
The result carries the branching pair as its slot, so the framework
excludes it from a child's pool without a lookup.

Only the pool-excluded slots are masked out of a greedy step.  A slot of
the partial plan, or one the greedy already added, reaches only covered
samples, so its gain is exactly 0.0: it can neither beat a positive gain
nor change the ``≤ 0`` stop.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.diffusion.mrr import MRRIndex

from .adoption import LogisticModel, estimate_au
from .coverage import BoundState

E_FLOOR = np.exp(-1.0) / (1.0 - np.exp(-1.0))


@dataclass
class BoundResult:
    slots: np.ndarray  # completed candidate S̄a ∪ S̄: the anchor, then the picks
    lower: float  # σ(S̄ ∪ S̄a), exact on the MRR sketch
    upper: float  # τ(S̄|S̄a), scaled to AU units
    first_slot: int | None  # slot of the branching pair (piece, promoter)
    evals: int  # τ-marginal evaluations spent


def _n_available(state: BoundState, pools: np.ndarray) -> list[int]:
    """Per piece, the number of slots in the (branch-restricted) pool, one
    bool per slot of the index, and not in the state's partial plan."""
    avail = pools.copy()
    avail[state.anchor] = False
    return np.bincount(state.index.piece[avail], minlength=state.index.n_pieces).tolist()


def _result(state: BoundState, upper: float) -> BoundResult:
    """The completed candidate from the state's anchor and additions, its
    lower bound and the first greedy pick."""
    return BoundResult(
        slots=np.concatenate((state.anchor, np.array(state.added, dtype=np.intp))),
        # state.c is the completed plan's per-sample piece count.
        lower=estimate_au(state.index, None, state.model, counts=state.c),
        upper=upper,
        first_slot=state.added[0] if state.added else None,
        evals=state.evals,
    )


def compute_bound(
    index: MRRIndex, model: LogisticModel, anchor: np.ndarray, pools: np.ndarray, k: int
) -> BoundResult:
    """Algorithm 2: plain greedy bound estimation (full scans).

    Each step scores every slot in one pass and takes the first maximum in
    slot order (piece-major, then CSR position)."""
    state = BoundState(index, model, anchor)
    n_avail = _n_available(state, pools)
    excluded = np.flatnonzero(~pools)
    for _ in range(k - len(anchor)):
        if not any(n_avail):
            break
        gains = state.scan(n_avail)
        gains[excluded] = -np.inf
        g = int(gains.argmax())
        if gains[g] <= 0.0:
            break
        state.slot_add(g)
        n_avail[index.slot_pieces[g]] -= 1

    return _result(state, state.tau_scaled())


def compute_bound_progressive(
    index: MRRIndex,
    model: LogisticModel,
    anchor: np.ndarray,
    pools: np.ndarray,
    k: int,
    *,
    eps: float = 0.5,
) -> BoundResult:
    """Algorithm 3: progressive threshold-based bound estimation."""
    state = BoundState(index, model, anchor)
    budget = k - len(anchor)

    # Line 2: order all available slots by singleton gain δ∅(v); a stable
    # sort keeps slot order among ties.  The plan's own slots gain 0.0.
    gains = state.scan(_n_available(state, pools))
    slots = np.flatnonzero(pools & (gains > 0.0))
    slots = slots[np.argsort(-gains[slots], kind="stable")]
    entries = list(zip(gains[slots].tolist(), slots.tolist()))  # (δ∅, slot)
    taken = [False] * len(entries)

    n_added = 0
    if entries and budget > 0:
        h = entries[0][0]  # Lines 3-4: maxinf
        while n_added < budget:
            for idx, (g0, g) in enumerate(entries):
                if g0 < h:
                    break  # Lines 11-12: sorted order ⇒ no later entry passes
                if taken[idx]:
                    continue
                if state.slot_gain(g) >= h:
                    state.slot_add(g)
                    taken[idx] = True
                    n_added += 1
                    if n_added >= budget:
                        break
            if n_added >= budget:
                break
            h = h / (1.0 + eps)  # Line 13
            if h <= state.tau() / budget * E_FLOOR:  # Line 14
                break

    # Freeze the upper bound BEFORE candidate completion: Theorem 3's
    # d < k' case bounds the subspace by τ of the *threshold-selected*
    # plan, so budget-filling below must not inflate it.
    upper = state.tau_scaled()

    # Candidate completion: the floor exit (line 14) may leave budget
    # unused ("could early terminate even when there are less than k
    # promoters selected", §VI-C).  That is fine for the bound but wastes
    # lower-bound quality, so fill the remaining slots with any
    # still-positive marginals, scanning once in δ∅ order.  This only
    # raises the candidate plan's AU — pruning validity is untouched.
    if n_added < budget:
        for idx, (_, g) in enumerate(entries):
            if n_added >= budget:
                break
            if taken[idx]:
                continue
            if state.slot_gain(g) > 0.0:
                state.slot_add(g)
                taken[idx] = True
                n_added += 1

    return _result(state, upper)
