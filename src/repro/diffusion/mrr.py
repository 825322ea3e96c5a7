"""Driver-side MRR index: the sampled sketch the search algorithms run on.

Spark produces the MRR membership table (piece, sample_id, vertex); the
index restricts it to the promoter pool V^p and sorts it into one CSR over
*slots*: slot g is one (piece, promoter) pair, keyed ``piece·n + vertex``,
and covers ``samples[indptr[g]:indptr[g+1]]``.  Slots are piece-major, so
piece j's slots are ``offsets[j]:offsets[j+1]`` and a greedy step scores
every (piece, promoter) pair in one ``np.add.reduceat``.  The per-piece
CSRs (:class:`PieceCoverage`) are views of the same arrays.  Every array
the search indexes other arrays with (``samples``, ``cells``, ``indptr``)
is ``np.intp``, numpy's native index type, so no gather converts its index
on each call.  Inside the search a plan is the ``np.intp`` array of its
slots; ``plan_slots`` and ``slot_plan`` convert it from and to a
{piece: promoters} dict.  Everything the branch-and-bound needs is in this
object; the raw DataFrame stays available for Spark-side AU evaluation and
oracle checks.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame


@dataclass
class PieceCoverage:
    """CSR coverage of one piece: promoters[i] covers samples
    ``samples[indptr[i]:indptr[i+1]]``."""

    promoters: np.ndarray  # (P,) int32, sorted promoter vertex ids
    indptr: np.ndarray  # (P+1,) intp, from 0
    samples: np.ndarray  # concatenated sample ids, intp


class MRRIndex:
    """The full sketch: θ samples × ℓ pieces, restricted to promoters V^p.

    Built from membership rows (piece, sample_id, vertex): the rows whose
    vertex is in the pool, sorted by (piece, vertex, sample_id), are the
    slot CSR.  Every slot covers at least one sample.  ``samples`` and its
    views (``covers[g]``, ``pieces[j].samples``) are ``np.intp``.
    """

    def __init__(
        self,
        piece: np.ndarray,
        sample_id: np.ndarray,
        vertex: np.ndarray,
        *,
        n_vertices: int,
        theta: int,
        n_pieces: int,
        promoter_pool: np.ndarray,
    ):
        self.n_vertices, self.theta, self.n_pieces = n_vertices, theta, n_pieces
        self.promoter_pool = np.sort(np.asarray(promoter_pool, dtype=np.int32))
        rows = np.flatnonzero(np.isin(vertex, self.promoter_pool))
        rows = rows[np.lexsort((sample_id[rows], vertex[rows], piece[rows]))]
        keys = piece[rows].astype(np.int64) * n_vertices + vertex[rows]
        self.keys, lens = np.unique(keys, return_counts=True)  # (S,) sorted slot keys
        self.piece = self.keys // n_vertices  # (S,) int64, piece of each slot
        self.promoter = (self.keys % n_vertices).astype(np.int32)  # (S,) vertex of each slot
        # (S+1,) slot boundaries
        self.indptr = np.concatenate(([0], np.cumsum(lens))).astype(np.intp, copy=False)
        self.starts = self.indptr[:-1]  # (S,) each slot's first entry, for reduceat
        self.samples = sample_id[rows].astype(np.intp)  # (E,) covered sample ids
        # piece·θ + sample: each entry's cell of a flat (ℓ, θ) mask.
        cells = np.repeat(self.piece, lens) * theta + self.samples
        self.cells = cells.astype(np.intp, copy=False)
        self.offsets = np.searchsorted(self.piece, np.arange(n_pieces + 1))  # (ℓ+1,)
        # Read per greedy step as Python ints: piece j's slot count and the
        # piece of each slot.
        self.piece_sizes = np.diff(self.offsets).tolist()
        self.slot_pieces = self.piece.tolist()
        # Per-slot views of ``samples``: indexing a list beats slicing by indptr.
        self.covers = [self.samples[a:b] for a, b in zip(self.indptr[:-1], self.indptr[1:])]
        self.pieces = [
            PieceCoverage(
                promoters=self.promoter[lo:hi],
                indptr=self.indptr[lo : hi + 1] - self.indptr[lo],
                samples=self.samples[self.indptr[lo] : self.indptr[hi]],
            )
            for lo, hi in zip(self.offsets[:-1], self.offsets[1:])
        ]

    def find_slots(self, piece: np.ndarray, vertex: np.ndarray) -> np.ndarray:
        """Slot of each (piece, vertex) pair, or −1 where the vertex is not a
        promoter of that piece: one ``searchsorted`` on the slot keys."""
        piece = np.asarray(piece, dtype=np.int64)
        vertex = np.asarray(vertex, dtype=np.int64)
        pos = np.searchsorted(self.keys, piece * self.n_vertices + vertex)
        hit = pos < len(self.keys)
        # Matching the vertex too rejects ids outside [0, n) whose key
        # aliases a neighbouring piece's.
        hit[hit] = (self.piece[pos[hit]] == piece[hit]) & (self.promoter[pos[hit]] == vertex[hit])
        return np.where(hit, pos, -1)

    def slot(self, piece: int, v: int) -> int:
        """Slot of promoter ``v`` in ``piece``, or −1 if ``v`` is not one."""
        return int(self.find_slots([piece], [v])[0])

    def plan_slots(self, plan: dict[int, set[int] | list[int]]) -> np.ndarray:
        """Slots of the plan's (piece, promoter) assignments; assignments of
        non-promoters cover nothing and are dropped."""
        pairs = np.array(
            [(j, v) for j, seeds in plan.items() for v in seeds], dtype=np.int64
        ).reshape(-1, 2)
        g = self.find_slots(pairs[:, 0], pairs[:, 1])
        return g[g >= 0]

    def slot_plan(self, slots: np.ndarray) -> dict[int, set[int]]:
        """The plan {piece: promoters} of the given slots."""
        plan: dict[int, set[int]] = {}
        for j, v in zip(self.piece[slots].tolist(), self.promoter[slots].tolist()):
            plan.setdefault(j, set()).add(v)
        return plan

    def slot_cells(self, slots: np.ndarray) -> np.ndarray:
        """The (ℓ, θ) cells of the given slots' entries, concatenated in slot
        order: one gather over their entry ranges, whose positions are an
        ``arange`` shifted per slot by an ``np.repeat``."""
        start = self.indptr[slots]
        lens = self.indptr[slots + 1] - start
        at = np.arange(lens.sum()) + np.repeat(start - (np.cumsum(lens) - lens), lens)
        return self.cells[at]

    def covered_by(self, piece: int, v: int) -> np.ndarray:
        g = self.slot(piece, v)
        return self.covers[g] if g >= 0 else np.empty(0, dtype=np.intp)

    def plan_coverage(self, plan: dict[int, set[int] | list[int]]) -> np.ndarray:
        """(ℓ, θ) mask: piece j's seed set reaches sample i's root."""
        covered = np.zeros(self.n_pieces * self.theta, dtype=bool)
        covered[self.slot_cells(self.plan_slots(plan))] = True
        return covered.reshape(self.n_pieces, self.theta)

    def plan_counts(self, plan: dict[int, set[int] | list[int]]) -> np.ndarray:
        """Per-sample count of distinct pieces whose seed set reaches the root."""
        return self.plan_coverage(plan).sum(axis=0)

    def subset(self, piece_ids: list[int]) -> "MRRIndex":
        """The index over a subset of pieces, renumbered in ``piece_ids``
        order (e.g. dropping the extra topic-agnostic 'piece' sampled for
        the IM baseline)."""
        renumber = np.full(self.n_pieces, -1, dtype=np.int64)
        renumber[piece_ids] = np.arange(len(piece_ids))
        lens = np.diff(self.indptr)
        piece = renumber[np.repeat(self.piece, lens)]
        keep = piece >= 0
        return MRRIndex(
            piece[keep],
            self.samples[keep],
            np.repeat(self.promoter, lens)[keep],
            n_vertices=self.n_vertices,
            theta=self.theta,
            n_pieces=len(piece_ids),
            promoter_pool=self.promoter_pool,
        )


def build_index(
    mrr_df: DataFrame,
    *,
    n_vertices: int,
    theta: int,
    n_pieces: int,
    promoter_pool: np.ndarray,
) -> MRRIndex:
    """Collect the Spark MRR table into an :class:`MRRIndex`.

    One ``toPandas`` brings the (piece, sample_id, vertex) rows to the driver
    (a sketch of θ·ℓ RR sets is tens of thousands of rows); numpy does the
    rest.
    """
    pdf = mrr_df.select("piece", "sample_id", "vertex").toPandas()
    return MRRIndex(
        pdf["piece"].to_numpy(),
        pdf["sample_id"].to_numpy(),
        pdf["vertex"].to_numpy(),
        n_vertices=n_vertices,
        theta=theta,
        n_pieces=n_pieces,
        promoter_pool=promoter_pool,
    )


def index_from_sets(
    rr_sets: dict[int, list[set[int]]],
    *,
    n_vertices: int,
    promoter_pool: np.ndarray | None = None,
) -> MRRIndex:
    """Build an index directly from explicit RR sets (tests, paper examples).

    ``rr_sets[piece][i]`` is the vertex set of R_i^piece; every piece must
    provide θ sets.  Defaults the promoter pool to all vertices.
    """
    n_pieces = len(rr_sets)
    theta = len(rr_sets[0])
    pool = np.arange(n_vertices) if promoter_pool is None else promoter_pool
    rows = []
    for j in range(n_pieces):
        assert len(rr_sets[j]) == theta, "all pieces must have θ RR sets"
        rows += [(j, i, int(v)) for i, s in enumerate(rr_sets[j]) for v in s]
    piece, sample_id, vertex = np.asarray(rows, dtype=np.int64).reshape(-1, 3).T
    return MRRIndex(
        piece,
        sample_id,
        vertex,
        n_vertices=n_vertices,
        theta=theta,
        n_pieces=n_pieces,
        promoter_pool=pool,
    )
