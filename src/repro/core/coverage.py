"""Vectorized coverage state for the upper-bound greedy (Algorithms 2–3).

A :class:`BoundState` tracks, for one `ComputeBound` invocation anchored at
a partial plan S̄a: the per-sample anchor counts c₀ (pieces covered by S̄a),
the current counts c (after greedy additions), per-piece covered masks, and
the per-sample weights ``base = D[c₀, c]``, the marginal bound gain of
covering a sample once more (D is the delta table of the anchored
envelope).  The running bound value is τ = Σ_i G[c₀_i, c_i].

Candidates are the slots of the index's :class:`~repro.diffusion.mrr.SlotLayout`:
every (piece, promoter) pair of all ℓ pieces in one concatenated CSR.  One
pass scores every slot: ``where(covered[piece, sample], 0, base[sample])``
over all entries, then one ``np.add.reduceat`` over the slot segments.
``add`` updates c, the covered mask and ``base`` only on the samples it
newly covers.  Single-slot gains and additions take a slot position, so the
search never looks a promoter up; the ``(piece, v)`` forms look the slot up
once and are for callers outside the kernel.

``evals`` counts τ-marginal evaluations — the complexity currency of §V-C
(Theorem 4) used for the BAB vs BAB-P accounting.
"""
from __future__ import annotations

import numpy as np

from repro.diffusion.mrr import MRRIndex

from .adoption import LogisticModel, Plan
from .envelope import bound_tables


def anchor_from_plan(index: MRRIndex, plan: Plan) -> tuple[np.ndarray, np.ndarray]:
    """(c0, covered): per-sample anchor counts and per-piece covered masks
    induced by the partial plan S̄a — the Fig-2 refinement state."""
    covered = np.zeros((index.n_pieces, index.theta), dtype=bool)
    for j, seeds in plan.items():
        for v in seeds:
            covered[j, index.covered_by(j, int(v))] = True
    return covered.sum(axis=0).astype(np.int64), covered


def masked_reduceat(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Segment sums with correct 0 for empty segments (reduceat quirk)."""
    n_seg = len(indptr) - 1
    out = np.zeros(n_seg, dtype=np.float64)
    nonempty = indptr[:-1] < indptr[1:]
    if values.size and nonempty.any():
        sums = np.add.reduceat(values, indptr[:-1][nonempty])
        out[nonempty] = sums
    return out


class BoundState:
    """Mutable greedy state over the anchored envelope bound."""

    def __init__(self, index: MRRIndex, model: LogisticModel, partial_plan: Plan):
        self.index = index
        self.model = model
        self.G, self.D = bound_tables(model, index.n_pieces)
        self.c0, self.covered = anchor_from_plan(index, partial_plan)
        self._covered_cells = self.covered.reshape(-1)  # view, indexed by slot cells
        self.c = self.c0.copy()
        self.base = self.D[self.c0, self.c]
        self._piece_sizes = np.diff(index.slots.offsets).tolist()
        self.added: list[int] = []  # slots added, in order
        self.evals = 0  # number of τ-marginal evaluations (promoters scored)

    # -- bound value ---------------------------------------------------
    def tau(self) -> float:
        """Unscaled τ = Σ_i G[c₀_i, c_i] (multiply by n/θ for AU units)."""
        return float(self.G[self.c0, self.c].sum())

    def tau_scaled(self) -> float:
        return self.index.n_vertices / self.index.theta * self.tau()

    # -- marginal gains ------------------------------------------------
    def _slot_gains(self) -> np.ndarray:
        """Marginal τ-gain of every slot, in one pass over all entries."""
        s = self.index.slots
        vals = np.where(self._covered_cells[s.cells], 0.0, self.base[s.samples])
        return np.add.reduceat(vals, s.indptr[:-1])

    def scan(self, n_avail: list[int]) -> np.ndarray:
        """Marginal τ-gain of every slot.  Counts one evaluation per promoter
        of every piece j with an available slot (``n_avail[j] > 0``) — the
        'scan all candidates' cost of plain ComputeBound."""
        self.evals += sum(p for p, a in zip(self._piece_sizes, n_avail) if a)
        return self._slot_gains()

    def gains_all(self, piece: int) -> np.ndarray:
        """Marginal τ-gain of every promoter of ``piece`` (CSR order).
        Counts one evaluation per promoter scanned."""
        lo, hi = self.index.slots.offsets[piece : piece + 2]
        self.evals += int(hi - lo)
        return self._slot_gains()[lo:hi]

    def slot_gain(self, g: int) -> float:
        """Marginal τ-gain of slot ``g`` alone.

        O(|covered samples of the slot|), not O(θ): this is what makes the
        progressive method's per-evaluation cost match the Theorem 4
        accounting (a τ evaluation touches only the promoter's RR sets).
        """
        self.evals += 1
        ids = self.index.slots.covers[g]
        ids = ids[~self.covered[self.index.slots.piece[g]][ids]]
        if ids.size == 0:
            return 0.0
        return float(self.base[ids].sum())

    def gain(self, piece: int, v: int) -> float:
        """Marginal τ-gain of a single (promoter, piece) addition."""
        g = self.index.slot(piece, int(v))
        if g < 0:
            self.evals += 1
            return 0.0
        return self.slot_gain(g)

    # -- mutation ------------------------------------------------------
    def slot_add(self, g: int) -> None:
        """Add slot ``g`` to the plan, updating only the newly covered samples."""
        self.added.append(g)
        covered = self.covered[self.index.slots.piece[g]]
        ids = self.index.slots.covers[g]
        fresh = ids[~covered[ids]]
        covered[fresh] = True
        c = self.c[fresh] + 1
        self.c[fresh] = c
        self.base[fresh] = self.D[self.c0[fresh], c]

    def add(self, piece: int, v: int) -> None:
        g = self.index.slot(piece, int(v))
        if g >= 0:
            self.slot_add(g)
