"""Vectorized coverage state for the upper-bound greedy (Algorithms 2–3).

A :class:`BoundState` tracks, for one `ComputeBound` invocation anchored at
a partial plan S̄a: the per-sample anchor counts c₀ (pieces covered by S̄a),
the current counts c (after greedy additions), per-piece covered masks, and
the per-sample weights ``base = D[c₀, c]``, the marginal bound gain of
covering a sample once more (D is the delta table of the anchored
envelope).  The running bound value is τ = Σ_i G[c₀_i, c_i].

Each sample's (c₀, c) pair is kept as one flat position ``k = c₀·(ℓ+1) + c``
into the raveled G and D, so ``base`` and τ are 1-D gathers ``D[k]`` and
``G[k]`` rather than 2-D fancy lookups; a greedy addition increments k, and
c is read back as ``k − (ℓ+1)·c₀``.

Candidates are the slots of the :class:`~repro.diffusion.mrr.MRRIndex`:
every (piece, promoter) pair of all ℓ pieces in one CSR.  One pass scores
every slot: ``where(covered[piece, sample], 0, base[sample])`` over all
entries, then one ``np.add.reduceat`` over the slot segments.  A single
slot's gain sums its own segment the same way, so both give the same bits.
``slot_add`` updates c, the covered mask and ``base`` only on the samples
it newly covers.

``evals`` counts τ-marginal evaluations — the complexity currency of §V-C
(Theorem 4) used for the BAB vs BAB-P accounting.
"""
from __future__ import annotations

import numpy as np

from repro.diffusion.mrr import MRRIndex

from .adoption import LogisticModel, Plan
from .envelope import bound_tables


class BoundState:
    """Mutable greedy state over the anchored envelope bound."""

    def __init__(self, index: MRRIndex, model: LogisticModel, partial_plan: Plan):
        self.index = index
        self.model = model
        self.G, self.D = bound_tables(model, index.n_pieces)
        self._G, self._D = self.G.ravel(), self.D.ravel()  # indexed by k
        # The Fig-2 refinement state: which pieces of S̄a reach each sample.
        self.covered = index.plan_coverage(partial_plan)
        self.c0 = self.covered.sum(axis=0)
        self._covered_cells = self.covered.reshape(-1)  # view, indexed by slot cells
        self.k = self.c0 * (index.n_pieces + 2)  # flat (c₀, c) with c = c₀
        self.base = self._D[self.k]
        self.added: list[int] = []  # slots added, in order
        self.evals = 0  # number of τ-marginal evaluations (promoters scored)

    @property
    def c(self) -> np.ndarray:
        """Per-sample piece counts after the greedy additions."""
        return self.k - (self.index.n_pieces + 1) * self.c0

    # -- bound value ---------------------------------------------------
    def tau(self) -> float:
        """Unscaled τ = Σ_i G[c₀_i, c_i] (multiply by n/θ for AU units)."""
        return float(self._G[self.k].sum())

    def tau_scaled(self) -> float:
        return self.index.n_vertices / self.index.theta * self.tau()

    # -- marginal gains ------------------------------------------------
    def scan(self, n_avail: list[int]) -> np.ndarray:
        """Marginal τ-gain of every slot, in one pass over all entries.
        Counts one evaluation per promoter of every piece j with an
        available slot (``n_avail[j] > 0``) — the 'scan all candidates' cost
        of plain ComputeBound."""
        idx = self.index
        self.evals += sum(p for p, a in zip(idx.piece_sizes, n_avail) if a)
        vals = np.where(self._covered_cells[idx.cells], 0.0, self.base[idx.samples])
        return np.add.reduceat(vals, idx.indptr[:-1])

    def slot_gain(self, g: int) -> float:
        """Marginal τ-gain of slot ``g`` alone, equal to ``scan(...)[g]``.

        O(|covered samples of the slot|), not O(θ): this is what makes the
        progressive method's per-evaluation cost match the Theorem 4
        accounting (a τ evaluation touches only the promoter's RR sets).
        """
        self.evals += 1
        ids = self.index.covers[g]
        vals = np.where(self.covered[self.index.slot_pieces[g]][ids], 0.0, self.base[ids])
        return float(np.add.reduceat(vals, [0])[0])

    # -- mutation ------------------------------------------------------
    def slot_add(self, g: int) -> None:
        """Add slot ``g`` to the plan, updating only the newly covered samples."""
        self.added.append(g)
        covered = self.covered[self.index.slot_pieces[g]]
        ids = self.index.covers[g]
        fresh = ids[~covered[ids]]
        covered[fresh] = True
        k = self.k[fresh] + 1
        self.k[fresh] = k
        self.base[fresh] = self._D[k]
