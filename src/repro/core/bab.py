"""The branch-and-bound framework (Algorithm 1): BAB and BAB-P.

Partial plans live in a max-heap keyed by their τ upper bound, each as the
``np.intp`` array of its :class:`~repro.diffusion.mrr.MRRIndex` slots, the
*anchor* of its bound calls; the "v* in" child appends v*'s slot.  The best
candidate's slots become a {piece: promoters} dict once, for
``BABResult.plan``, and the framework counts its bound calls and their τ
evaluations itself.  Popping the top entry yields the global upper bound U
over the unexplored space; the best candidate plan found by any
`ComputeBound` completion is the global lower bound L.  The search
terminates when the relative gap (U − L)/U falls inside ``gap_tol`` (the
paper runs BAB "within 1% error ratio"), when the heap runs empty with
every entry explored (gap 0), or at the ``max_pops`` backstop;
``BABResult.stop_reason`` records which.
The backstop is reached: at β/α=0.3 three rows of results/vary_ratio.md
read ``max_pops``, with gaps of 3–14%.  The achieved gap is always reported,
but U is the greedy τ of Algorithm 2, which is (1−1/e)-close to max τ and
not an upper bound on OPT, so the gap is not a certified optimality gap.

Branching pair v* (Algorithm 1 line 9 is underspecified): the first pick
of the parent's greedy completion — the available (promoter, piece) pair
with the largest τ-marginal, which matches the paper's power-law
rationale of prioritizing high-influence promoters.
"""
from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass

import numpy as np

from repro.diffusion.mrr import MRRIndex

from .adoption import LogisticModel, Plan
from .bound import BoundResult, compute_bound, compute_bound_progressive

# The heap-pop backstop: the default of branch_and_bound, run_methods and
# the full-scale tables.
MAX_POPS = 500


@dataclass
class BABResult:
    plan: Plan
    utility: float  # σ of the returned plan (MRR estimate)
    upper_bound: float  # global U at termination
    gap: float  # (U − L) / U
    pops: int
    bound_calls: int
    evals: int
    seconds: float
    method: str = "BAB"
    # Why the search stopped: "gap" (U − L within gap_tol), "exhausted"
    # (heap empty) or "max_pops" (backstop reached with the heap non-empty).
    stop_reason: str = ""


def branch_and_bound(
    index: MRRIndex,
    model: LogisticModel,
    k: int,
    *,
    progressive: bool = False,
    eps: float = 0.5,
    gap_tol: float = 0.01,
    max_pops: int = MAX_POPS,
) -> BABResult:
    """Run BAB (plain bound) or BAB-P (progressive bound) for budget k."""
    t0 = time.perf_counter()
    bound_calls = evals = 0

    def bound(anchor: np.ndarray, pools: np.ndarray) -> BoundResult:
        nonlocal bound_calls, evals
        if progressive:
            res = compute_bound_progressive(index, model, anchor, pools, k, eps=eps)
        else:
            res = compute_bound(index, model, anchor, pools, k)
        bound_calls += 1
        evals += res.evals
        return res

    anchor0 = np.empty(0, dtype=np.intp)
    pools0 = np.ones(len(index.piece), dtype=bool)  # one flag per slot
    root = bound(anchor0, pools0)
    best_slots, best_lower = root.slots, root.lower
    upper = root.upper

    tick = itertools.count()  # heap tiebreaker; arrays aren't orderable
    # (−U, tick, anchor, pools, branching slot)
    heap: list[tuple[float, int, np.ndarray, np.ndarray, int]] = []
    if root.upper > best_lower and root.first_slot is not None:
        heapq.heappush(heap, (-root.upper, next(tick), anchor0, pools0, root.first_slot))

    pops = 0
    stop_reason = "exhausted"
    while heap:
        if pops >= max_pops:
            stop_reason = "max_pops"
            break
        neg_u, _, anchor, pools, g = heapq.heappop(heap)
        upper = -neg_u
        pops += 1
        if upper - best_lower <= gap_tol * max(upper, 1e-12):
            stop_reason = "gap"
            break  # 1% termination criterion
        if upper <= best_lower or len(anchor) >= k:
            continue
        pools_b = pools.copy()
        pools_b[g] = False  # v* excluded (both children)
        # v* in, then v* out
        for child, child_pools in ((np.append(anchor, g), pools_b), (anchor, pools_b)):
            res = bound(child, child_pools)
            if res.lower > best_lower:
                best_lower, best_slots = res.lower, res.slots
            if res.upper > best_lower and res.first_slot is not None and len(child) < k:
                heapq.heappush(
                    heap, (-res.upper, next(tick), child, child_pools, res.first_slot)
                )

    if stop_reason == "exhausted" and pops > 0:
        upper = best_lower  # every subspace explored: the bound is tight
    elif stop_reason == "max_pops":
        upper = max(upper, -heap[0][0])
    upper = max(upper, best_lower)
    gap = (upper - best_lower) / max(upper, 1e-12)
    return BABResult(
        plan=index.slot_plan(best_slots),
        utility=best_lower,
        upper_bound=upper,
        gap=gap,
        pops=pops,
        bound_calls=bound_calls,
        evals=evals,
        seconds=time.perf_counter() - t0,
        method="BAB-P" if progressive else "BAB",
        stop_reason=stop_reason,
    )
