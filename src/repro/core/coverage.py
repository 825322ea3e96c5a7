"""Vectorized coverage state for the upper-bound greedy (Algorithms 2–3).

A :class:`BoundState` tracks, for one `ComputeBound` invocation anchored at
a partial plan S̄a, given as its slots: the per-sample anchor counts c₀
(pieces covered by S̄a; the anchor's cells are closed by one gather over its
slots' entries, :meth:`~repro.diffusion.mrr.MRRIndex.slot_cells`),
the current counts c (after greedy additions), a per-piece ``open`` mask,
and the per-sample weights ``base = D[c₀, c]``, the marginal bound gain of
covering a sample once more (D is the delta table of the anchored
envelope).  The running bound value is τ = Σ_i G[c₀_i, c_i].

``open`` is the only coverage state: one float64 per (piece, sample) cell,
1.0 while the piece has not reached the sample and 0.0 once it has.
``covered`` is derived from it.  Because ``base`` is finite and ≥ 0,
``base · open`` is bit for bit ``where(covered, 0, base)``, one multiply in
place of a mask inversion and a select.

Each sample's (c₀, c) pair is kept as one flat position ``k = c₀·(ℓ+1) + c``
into the raveled G and D, so ``base`` and τ are 1-D gathers ``D[k]`` and
``G[k]`` rather than 2-D fancy lookups; a greedy addition increments k, and
c is read back as ``k − (ℓ+1)·c₀``.

Candidates are the slots of the :class:`~repro.diffusion.mrr.MRRIndex`:
every (piece, promoter) pair of all ℓ pieces in one CSR.  One pass scores
every slot: ``base[sample] · open[piece, sample]`` over all entries, then
one ``np.add.reduceat`` over the slot segments.  A single slot's gain sums
its own segment the same way, so both give the same bits.  A slot of the
anchor plan, or one already added, reaches only closed cells, so its gain
is exactly 0.0.  ``slot_add`` writes c, ``open`` and ``base`` on the slot's
own samples only, and c moves only on the ones it newly covers.

``evals`` counts τ-marginal evaluations — the complexity currency of §V-C
(Theorem 4) used for the BAB vs BAB-P accounting.
"""
from __future__ import annotations

import itertools

import numpy as np

from repro.diffusion.mrr import MRRIndex

from .adoption import LogisticModel
from .envelope import bound_tables


_FIRST = np.zeros(1, dtype=np.intp)  # reduceat's one segment: a slot's own sum


class BoundState:
    """Mutable greedy state over the anchored envelope bound."""

    def __init__(self, index: MRRIndex, model: LogisticModel, anchor: np.ndarray):
        self.index = index
        self.model = model
        self.G, self.D = bound_tables(model, index.n_pieces)
        self._G, self._D = self.G.ravel(), self.D.ravel()  # indexed by k
        self.anchor = anchor  # the partial plan S̄a's slots, np.intp
        # The Fig-2 refinement state: 0.0 where a piece of S̄a reaches a sample.
        self.open = np.ones((index.n_pieces, index.theta))
        self._open_cells = self.open.reshape(-1)  # view, indexed by slot cells
        self._open_cells[index.slot_cells(anchor)] = 0.0
        self.c0 = index.n_pieces - self.open.sum(axis=0).astype(np.intp)
        self.k = self.c0 * (index.n_pieces + 2)  # flat (c₀, c) with c = c₀
        self.base = self._D[self.k]
        self.added: list[int] = []  # slots added, in order
        self.evals = 0  # number of τ-marginal evaluations (promoters scored)

    @property
    def covered(self) -> np.ndarray:
        """(ℓ, θ) bool: piece j reaches sample i.  Derived from ``open`` on
        each read, so writing to it changes no state."""
        return self.open == 0.0

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
        self.evals += sum(itertools.compress(idx.piece_sizes, n_avail))
        vals = self.base[idx.samples] * self._open_cells[idx.cells]
        return np.add.reduceat(vals, idx.starts)

    def slot_gain(self, g: int) -> float:
        """Marginal τ-gain of slot ``g`` alone, equal to ``scan(...)[g]``.

        O(|covered samples of the slot|), not O(θ): this is what makes the
        progressive method's per-evaluation cost match the Theorem 4
        accounting (a τ evaluation touches only the promoter's RR sets).
        """
        self.evals += 1
        ids = self.index.covers[g]
        vals = self.base[ids] * self.open[self.index.slot_pieces[g]][ids]
        return float(np.add.reduceat(vals, _FIRST)[0])

    # -- mutation ------------------------------------------------------
    def slot_add(self, g: int) -> None:
        """Add slot ``g`` to the plan: c advances by one on the samples it
        newly covers (its open cells), and only its own samples are written."""
        self.added.append(g)
        open_ = self.open[self.index.slot_pieces[g]]
        ids = self.index.covers[g]
        k = self.k[ids] + open_[ids].astype(np.intp)  # +1 where the cell was open
        open_[ids] = 0.0
        self.k[ids] = k
        self.base[ids] = self._D[k]
