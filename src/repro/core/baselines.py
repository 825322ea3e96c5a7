"""The paper's two baselines (§VI-A), adapted from state-of-the-art IM.

* **IM** — run RR-greedy influence maximization on the *topic-agnostic*
  graph G (every edge collapsed to the mean of its topic probabilities,
  i.e. the uniform piece vector) to pick k seeds S; then spread the single
  viral piece that gives S the highest adoption utility.
* **TIM** — for each piece t_j, run RR-greedy on t_j's influence graph to
  get k seeds S_j; spread the (S_j, t_j) with the highest adoption utility.

Both reduce IMM-style algorithms to greedy maximum coverage over a fixed
number θ of RR sets, exactly as the paper's fixed-θ "fair comparison"
setup does.  Seed selection is restricted to the promoter pool V^p, like
the proposed methods.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.diffusion.mrr import MRRIndex, PieceCoverage

from .adoption import LogisticModel, Plan, estimate_au


@dataclass
class BaselineResult:
    plan: Plan
    utility: float
    seconds: float
    method: str
    chosen_piece: int


def greedy_max_coverage(cov: PieceCoverage, k: int, theta: int) -> list[int]:
    """Classical RR-set greedy: repeatedly take the promoter covering the
    most still-uncovered samples.  Vectorized full scans per iteration over
    per-sample weights (1 = uncovered) that each pick zeroes in place.
    Every promoter covers at least one sample, so no segment is empty, and
    a chosen promoter's gain is 0 from then on: it is never picked again."""
    uncovered = np.ones(theta, dtype=np.float64)
    chosen: list[int] = []
    for _ in range(min(k, len(cov.promoters))):
        gains = np.add.reduceat(uncovered[cov.samples], cov.indptr[:-1])
        i = int(gains.argmax())
        if gains[i] <= 0:
            break
        chosen.append(int(cov.promoters[i]))
        uncovered[cov.samples[cov.indptr[i] : cov.indptr[i + 1]]] = 0.0
    return chosen


def _best_single_piece(
    index: MRRIndex, model: LogisticModel, seed_sets: dict[int, list[int]]
) -> tuple[int, Plan, float]:
    """Pick the (piece, seeds) pairing with the highest AU."""
    best = (-1.0, 0, {})
    for j, seeds in seed_sets.items():
        plan: Plan = {j: set(seeds)}
        u = estimate_au(index, plan, model)
        if u > best[0]:
            best = (u, j, plan)
    u, j, plan = best
    return j, plan, u


def im_baseline(
    im_cov: PieceCoverage, index: MRRIndex, model: LogisticModel, k: int
) -> BaselineResult:
    """IM: one seed set from the topic-agnostic graph, best piece wins."""
    t0 = time.perf_counter()
    seeds = greedy_max_coverage(im_cov, k, index.theta)
    j, plan, u = _best_single_piece(
        index, model, {j: seeds for j in range(index.n_pieces)}
    )
    return BaselineResult(
        plan=plan, utility=u, seconds=time.perf_counter() - t0, method="IM", chosen_piece=j
    )


def tim_baseline(index: MRRIndex, model: LogisticModel, k: int) -> BaselineResult:
    """TIM: per-piece seed sets from per-piece influence graphs, best pairing wins."""
    t0 = time.perf_counter()
    seed_sets = {
        j: greedy_max_coverage(index.pieces[j], k, index.theta)
        for j in range(index.n_pieces)
    }
    j, plan, u = _best_single_piece(index, model, seed_sets)
    return BaselineResult(
        plan=plan, utility=u, seconds=time.perf_counter() - t0, method="TIM", chosen_piece=j
    )
